"""Config parsing, output formats, exit codes, reproducibility."""

import json
import os
import subprocess
import sys
import time
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import nsdde_sim
from nsdde_sim import ConfigError, cli, generate, make_grid
from nsdde_sim.cli import _parse_args, load_config, main
from test_stdout import CASES as STDOUT_CASES, CONFIGS

BASE = {
    "model": {"id": "sec4", "params": {"k": 0.5, "c1": -1.0, "c2": -1.0}},
    "tau": 1.0,
    "horizon": 2.0,
    "ladder": [0.5, 0.25],
    "epsilon": 0.1,
    "n_paths": 5,
    "seed": 99,
    "xi": {"kind": "constant", "value": 1.0},
}


def write_config(tmp_path, name="cfg.json", **overrides):
    doc = {**BASE, **overrides}
    for key, value in list(doc.items()):
        if value is None:
            del doc[key]
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.model_id == "sec4"
        assert cfg.ladder == [0.5, 0.25]
        assert cfg.seed == 99
        assert cfg.raw["model"]["params"]["k"] == 0.5

    def test_unknown_top_level_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config keys"):
            load_config(write_config(tmp_path, extra_knob=1))

    def test_unknown_xi_key(self, tmp_path):
        with pytest.raises(ConfigError, match="xi"):
            load_config(write_config(tmp_path, xi={"kind": "constant", "value": 1, "slope": 2}))

    def test_xi_kinds(self, tmp_path):
        cfg = load_config(write_config(tmp_path, xi={"kind": "affine", "a": 1.0, "b": 2.0}))
        assert cfg.xi_kind == "affine" and cfg.xi_args == (1.0, 2.0)
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, xi={"kind": "spline", "value": 1.0}))

    @pytest.mark.parametrize("key", ["model", "tau", "horizon", "ladder", "seed"])
    def test_required_keys(self, tmp_path, key):
        with pytest.raises(ConfigError, match=key):
            load_config(write_config(tmp_path, **{key: None}))

    def test_numbers_validated(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, tau="1.0"))
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, tau=True))
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, n_paths=2.5))
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, seed=-1))
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, epsilon=0.0))

    @pytest.mark.parametrize(
        "key", ["epsilon", "n_paths", "box_radius", "samples", "truncation_radius"]
    )
    def test_optional_numbers_must_be_positive(self, tmp_path, capsys, key):
        cfg = write_config(tmp_path, **{key: 0})
        assert main(["converge", "--config", cfg, "--output", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"'{key}' must be positive" in err and err.count("\n") == 1

    def test_ladder_must_be_a_non_empty_array(self, tmp_path):
        for ladder in ([], 0.5):
            with pytest.raises(ConfigError, match="non-empty array"):
                load_config(write_config(tmp_path, ladder=ladder))

    def test_rates_all_or_nothing(self, tmp_path):
        with pytest.raises(ConfigError, match="missing"):
            load_config(write_config(tmp_path, rates={"kappa": 0.5}))
        with pytest.raises(ConfigError, match="rates"):
            load_config(write_config(tmp_path, rates={"kappa": 0.5, "bogus": 1.0}))

    def test_integer_past_the_digit_limit(self, tmp_path):
        # json.loads raises a plain ValueError for an integer of 5,000 digits
        path = tmp_path / "big.json"
        path.write_text(json.dumps(BASE).replace('"tau": 1.0', '"tau": 1' + "0" * 5000))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_invalid_json_and_missing_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(bad)
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="object"):
            load_config(arr)

    @pytest.mark.parametrize("literal, repeat, key", [
        ('"seed": 99', '"seed": 1, "seed": 2', "seed"),
        ('"k": 0.5', '"k": 0.5, "k": 0.7', "k"),
    ], ids=["top-level", "model.params"])
    def test_repeated_key_is_2(self, tmp_path, capsys, literal, repeat, key):
        # json.loads keeps the last value of a repeated key; a config that
        # repeats one is as ambiguous as one with an unknown key
        path = tmp_path / "repeat.json"
        path.write_text(json.dumps(BASE).replace(literal, repeat))
        with pytest.raises(ConfigError, match=f"config key '{key}' is repeated"):
            load_config(path)
        out = tmp_path / "o"
        assert main(["converge", "--config", str(path), "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: config key '{key}' is repeated\n"
        assert not out.exists()

    def test_nesting_past_the_recursion_limit_is_2(self, tmp_path, capsys):
        # the decoder gives up with a RecursionError, which is bad JSON as well
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "\n")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(deep)
        out = tmp_path / "o"
        assert main(["converge", "--config", str(deep), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {deep} is not valid JSON") and err.count("\n") == 1
        assert not out.exists()


class TestExitCodes:
    def test_invalid_config_is_2(self, tmp_path, capsys):
        code = main(["converge", "--config", write_config(tmp_path, bogus=1),
                     "--output", str(tmp_path / "o")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("under", [False, True], ids=["file", "path_under_file"])
    def test_output_blocked_by_a_file_is_2(self, tmp_path, capsys, under):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        out = taken / "o" if under else taken
        assert main(["converge", "--config", write_config(tmp_path), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot create output directory") and err.count("\n") == 1
        assert taken.read_text() == "not a directory\n"

    def test_output_dir_with_a_nul_byte_is_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, output_dir=str(tmp_path / "o\u0000x"))
        assert main(["converge", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot create output directory") and err.count("\n") == 1
        assert "null byte" in err

    @pytest.mark.parametrize("command, name, overrides", [
        ("converge", "converge.csv", {}),
        ("converge", "manifest.json", {}),
        ("simulate", "noise_0001.bin", {"ladder": [0.25], "n_paths": 2}),
        ("check", "check.json", {"samples": 20}),
    ], ids=["converge_csv", "manifest", "noise_bin", "check_json"])
    def test_output_file_blocked_by_a_directory_is_2(
        self, tmp_path, capsys, command, name, overrides
    ):
        # the computation has run when the write fails; it still ends in one line
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        args = [command, "--config", write_config(tmp_path, **overrides), "--output", str(out)]
        assert main(args + (["--dump-noise"] if command == "simulate" else [])) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write output {out / name}: ")
        assert err.count("\n") == 1

    def test_config_that_is_not_utf8_is_2(self, tmp_path, capsys):
        cfg = tmp_path / "utf16.json"
        cfg.write_bytes(bytes.fromhex("fffe7b7d"))
        assert main(["converge", "--config", str(cfg), "--output", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "UTF-8" in err and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_missing_command_key_is_2(self, tmp_path):
        cfg = write_config(tmp_path, epsilon=None)
        assert main(["converge", "--config", cfg, "--output", str(tmp_path / "o")]) == 2

    def test_unknown_model_is_2(self, tmp_path):
        cfg = write_config(tmp_path, model={"id": "nope", "params": {}})
        assert main(["converge", "--config", cfg, "--output", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("horizon", [1e308, 1e300], ids=["inf_steps", "unindexable_steps"])
    def test_grid_past_the_index_limit_is_2(self, tmp_path, capsys, horizon):
        cfg = write_config(tmp_path, horizon=horizon, ladder=[0.5])
        assert main(["simulate", "--config", cfg, "--output", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "step" in err

    @pytest.mark.parametrize("model_id", ["additive_noise", "cubic_drift"])
    # 1e15 and 2**62 are whole numbers numpy can index, but a (dim, dim) float
    # matrix of either has more bytes than the index limit, so none is built
    @pytest.mark.parametrize("dim", [-1, 0, 2.5, 1e300, 2**63, 1e15, 2**62])
    def test_bad_count_parameter_is_2(self, tmp_path, capsys, model_id, dim):
        cfg = write_config(tmp_path, model={"id": model_id, "params": {"dim": dim}},
                           ladder=[0.5])
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "'dim'" in err
        assert not out.exists()

    def test_model_that_does_not_fit_in_memory_is_2(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError("Unable to allocate 8.00 GiB")

        monkeypatch.setattr(cli, "builtin_model", exhausted)
        out = tmp_path / "o"
        assert main(["simulate", "--config", write_config(tmp_path, ladder=[0.5]),
                     "--output", str(out)]) == 2
        assert capsys.readouterr().err == "error: model 'sec4' does not fit in memory\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_run_that_does_not_fit_in_memory_is_2(self, tmp_path, capsys, monkeypatch, command):
        # exit 1 means a failed condition check; arrays too large to allocate
        # are an input the machine cannot serve, reported in one line
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 16.0 GiB")

        owner, name = {"simulate": (cli, "simulate"),
                       "converge": (cli.analysis, "converge_study"),
                       "moments": (cli.analysis, "estimate_moments"),
                       "perturbation": (cli.analysis, "perturbation_integrability"),
                       "check": (cli.conditions, "check_conditions")}[command]
        monkeypatch.setattr(owner, name, exhausted)
        out = tmp_path / "o"
        ladder = [0.5, 0.25] if command in ("converge", "perturbation") else [0.5]
        cfg = write_config(tmp_path, ladder=ladder, samples=10)
        assert main([command, "--config", cfg, "--output", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: the {command} run does not fit in memory\n")
        assert out.is_dir()  # made before the run, so it may stay behind

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_step_too_fine_for_memory_is_2(self, tmp_path, capsys, command):
        # a 1e-12 step on [-1, 2] is 3e12 grid times, about 22 TiB of them
        # alone: arrays sized before they are filled fail at once, where a
        # list of the times would grow until the machine runs out
        ladder = [0.5, 1e-12] if command == "converge" else [1e-12]
        cfg = write_config(tmp_path, ladder=ladder, n_paths=2, samples=10)
        start = time.perf_counter()
        assert main([command, "--config", cfg, "--output", str(tmp_path / "o")]) == 2
        assert time.perf_counter() - start < 5.0
        assert capsys.readouterr() == ("", f"error: the {command} run does not fit in memory\n")

    def test_simulate_needs_single_level(self, tmp_path):
        cfg = write_config(tmp_path)  # two ladder entries
        assert main(["simulate", "--config", cfg, "--output", str(tmp_path / "o")]) == 2

    def test_non_contractive_neutral_coefficient_is_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, model={"id": "sec4", "params": {"k": 1.5, "c1": -1.0, "c2": -1.0}}
        )
        assert main(["converge", "--config", cfg, "--output", str(tmp_path / "o")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, key, literal",
        [
            ("converge", "epsilon", "NaN"),
            ("converge", "epsilon", "1e400"),
            ("moments", "truncation_radius", "NaN"),
            ("check", "rates.growth_rate", "NaN"),
            ("check", "rates.local_rate", "Infinity"),
            pytest.param("converge", "xi.value", "1" + "0" * 400, id="converge-xi.value-10**400"),
        ],
    )
    def test_non_finite_number_is_2(self, tmp_path, capsys, command, key, literal):
        # JSON literals that Python parses, but that no config value can mean
        doc = json.loads(json.dumps(BASE))
        doc.update(samples=20, truncation_radius=1e6, rates={
            "kappa": 0.5, "growth_rate": 8.0, "growth_rate_delayed": 2.0,
            "local_rate": 20.0, "local_rate_delayed": 20.0,
            "growth_delay_factor": 1.0, "local_delay_factor": 1.0,
        })
        if command == "moments":
            doc["ladder"] = [0.5]
        *parents, leaf = key.split(".")
        target = doc
        for name in parents:
            target = target[name]
        target[leaf] = 123456.75
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc).replace("123456.75", literal))
        assert main([command, "--config", str(cfg), "--output", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and key in err

    def test_box_too_wide_to_sample_is_2(self, tmp_path, capsys):
        # 1e308 is finite, but the sampling width 2 * box_radius is not
        cfg = write_config(tmp_path, samples=10, box_radius=1e308)
        assert main(["check", "--config", cfg, "--output", str(tmp_path / "o")]) == 2
        assert "box_radius" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "perturbation", "converge", "moments",
                                         "simulate"])
    def test_box_whose_squared_distances_overflow_is_2(self, tmp_path, capsys, command):
        # 2 * 1e200 is finite, but (2 * 1e200)^2 is not; every command builds
        # sec4's rate bundle on that box, even where it does not read it
        ladder = [0.5] if command in ("simulate", "moments") else [0.5, 0.25]
        cfg = write_config(tmp_path, samples=10, box_radius=1e200, ladder=ladder)
        assert main([command, "--config", cfg, "--output", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "box_radius" in err
        # only check takes samples, so only check may name them
        assert command == "check" or "samples" not in err

    def test_coefficient_overflow_on_a_valid_box_fails_quietly(self, tmp_path, capsys):
        # squared distances of a 1e120 box are finite, the cubic drift is not:
        # the overflowing sides are failures, and numpy prints no warning
        cfg = write_config(tmp_path, samples=10, box_radius=1e120)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check", "--config", cfg, "--output", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "o" / "check.json").read_text())
        verdicts = {r["condition"]: r["verdict"] for r in report["reports"]}
        assert verdicts == {"C4": "pass", "C2": "fail", "C3": "fail", "H": "fail"}

    def test_threads_flag_is_rejected(self, tmp_path):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["converge", "--config", cfg, "--output", str(tmp_path / "o"), "--threads", "2"])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_dump_noise_outside_simulate_is_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["converge", "--config", cfg, "--output", str(tmp_path / "o"), "--dump-noise"])
        assert exc.value.code == 2
        assert "--dump-noise" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, overrides", [
        ("converge", {"epsilon": None}),
        ("converge", {"model": {"id": "nope", "params": {}}}),
        ("simulate", {}),
        ("moments", {}),
        ("converge", {"model": {"id": "sec4", "params": {"k": 1.5, "c1": -1.0, "c2": -1.0}}}),
        ("simulate", {"model": {"id": "additive_noise", "params": {"dim": 0}}, "ladder": [0.5]}),
        ("check", {"model": {"id": "cubic_drift", "params": {}}, "samples": 10}),
        ("check", {"model": {"id": "sec4", "params": {"k": 0.5, "c1": -710.0, "c2": -1.0}},
                   "samples": 10}),
        ("simulate", {"horizon": 1e300, "ladder": [0.5]}),
        ("converge", {"horizon": 1e300}),
        ("perturbation", {"horizon": 1e300}),
        ("converge", {"ladder": [0.5, 0.2]}),
        ("converge", {"ladder": [0.25, 0.5]}),
        ("moments", {"ladder": [0.5], "n_paths": 1}),
        ("converge", {"truncation_radius": 1e200}),
        ("converge", {"ladder": [0.5]}),
        ("converge", {"model": 3}),
        ("converge", {"model": {"id": 7}}),
        ("converge", {"model": {"id": "sec4", "params": []}}),
        ("converge", {"output_dir": 5}),
        ("converge --seed -3", {}),  # the parser takes -3 as the seed; main rejects it
    ], ids=["missing_key", "unknown_model", "simulate_two_levels", "moments_two_levels",
            "non_contractive_k", "zero_dim", "check_without_rates", "growth_rate_overflow",
            "simulate_past_index_limit", "converge_past_index_limit",
            "perturbation_past_index_limit", "unnested_ladder",
            "rising_ladder", "moments_one_path", "radius_past_the_squared_norms",
            "converge_one_level", "model_not_an_object", "model_id_not_a_string",
            "params_not_an_object", "output_dir_not_a_string", "negative_seed_flag"])
    def test_config_rejected_after_loading_leaves_no_output_dir(
        self, tmp_path, capsys, command, overrides
    ):
        out = tmp_path / "o"
        assert main([*command.split(), "--config", write_config(tmp_path, **overrides),
                     "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "converge", "moments", "perturbation",
                                         "check"])
    def test_invalid_rates_are_2_under_every_command(self, tmp_path, capsys, command):
        rates = {
            "kappa": 1.5, "growth_rate": 1.0, "growth_rate_delayed": 0.0,
            "local_rate": 1.0, "local_rate_delayed": 0.0,
            "growth_delay_factor": 1.0, "local_delay_factor": 1.0,
        }
        ladder = [0.5] if command in ("simulate", "moments") else [0.5, 0.25]
        cfg, out = write_config(tmp_path, ladder=ladder, samples=10, rates=rates), tmp_path / "o"
        assert main([command, "--config", cfg, "--output", str(out)]) == 2
        assert capsys.readouterr().err == "error: kappa must lie in (0, 1), got 1.5\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "converge", "moments", "perturbation",
                                         "check"])
    def test_non_finite_segment_is_2_under_every_command(self, tmp_path, capsys, command):
        # xi(-1) = 1e308 + 1e308 overflows; check reads no segment but samples it too
        xi = {"kind": "affine", "a": 1e308, "b": -1e308}
        ladder = [0.5] if command in ("simulate", "moments") else [0.5, 0.25]
        cfg, out = write_config(tmp_path, ladder=ladder, samples=10, xi=xi), tmp_path / "o"
        assert main([command, "--config", cfg, "--output", str(out)]) == 2
        err = "error: initial segment evaluated to a non-finite value\n"
        assert capsys.readouterr() == ("", err)
        assert not out.exists()

    def test_success_is_0(self, tmp_path):
        cfg = write_config(tmp_path, ladder=[0.25])
        assert main(["simulate", "--config", cfg, "--output", str(tmp_path / "o")]) == 0

    def test_check_failure_is_1(self, tmp_path):
        cfg = write_config(
            tmp_path,
            model={"id": "cubic_drift", "params": {}},
            samples=60,
            rates={
                "kappa": 0.5, "growth_rate": 1.0, "growth_rate_delayed": 0.0,
                "local_rate": 1.0, "local_rate_delayed": 0.0,
                "growth_delay_factor": 1.0, "local_delay_factor": 1.0,
            },
        )
        assert main(["check", "--config", cfg, "--output", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("key", ["growth_delay_factor", "local_delay_factor"])
    def test_negative_delay_factor_is_2(self, tmp_path, capsys, key):
        rates = {
            "kappa": 0.5, "growth_rate": 1.0, "growth_rate_delayed": 0.0,
            "local_rate": 1.0, "local_rate_delayed": 0.0,
            "growth_delay_factor": 1.0, "local_delay_factor": 1.0, key: -0.5,
        }
        cfg = write_config(tmp_path, model={"id": "cubic_drift", "params": {}}, samples=10,
                           rates=rates)
        assert main(["check", "--config", cfg, "--output", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and key in err

    def test_check_without_rates_is_2(self, tmp_path):
        cfg = write_config(tmp_path, model={"id": "cubic_drift", "params": {}}, samples=10)
        assert main(["check", "--config", cfg, "--output", str(tmp_path / "o")]) == 2

    def test_strict_divergence_is_3(self, tmp_path):
        cfg = write_config(
            tmp_path,
            model={"id": "cubic_drift", "params": {}},
            ladder=[0.25],
            xi={"kind": "constant", "value": 2.0},
        )
        out = str(tmp_path / "o")
        assert main(["simulate", "--config", cfg, "--output", out, "--strict"]) == 3
        assert main(["simulate", "--config", cfg, "--output", out]) == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["diverged_paths"] == list(range(5))

    @pytest.mark.parametrize("command", ["converge", "perturbation"])
    def test_strict_ladder_divergence_is_3(self, tmp_path, command):
        # divergence reaches the exit code through the ladder driver's
        # per-path verdict; no exception is involved.  Sec4 from xi = 3
        # diverges on 2 of these 5 paths at step 0.5 and on none at 0.25.
        cfg = write_config(tmp_path, xi={"kind": "constant", "value": 3.0})
        out = str(tmp_path / "o")
        assert main([command, "--config", cfg, "--output", out, "--strict"]) == 3
        assert main([command, "--config", cfg, "--output", out]) == 0

    def test_perturbation_on_huge_finite_paths_is_quiet(self, tmp_path, capsys):
        # the same blow-up as below: the norms of the huge but finite paths
        # overflow past their stop, which must not print a numpy warning
        cfg = write_config(tmp_path, ladder=[0.5, 0.25], n_paths=50, seed=1,
                           xi={"kind": "constant", "value": 3.0})
        assert main(["perturbation", "--config", cfg, "--output", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == ""

    def test_moments_count_huge_finite_paths_as_diverged(self, tmp_path):
        # explicit Euler on the cubic drift from xi = 3 at step 0.5 blows up
        # to huge but finite values on 34 of these 50 paths (sup-of-mean-
        # square 1.7e33 if they were kept); truncation_radius decides
        doc = dict(ladder=[0.5], n_paths=50, seed=1, xi={"kind": "constant", "value": 3.0})
        out = tmp_path / "o"
        cfg = write_config(tmp_path, **doc)
        assert main(["moments", "--config", cfg, "--output", str(out), "--strict"]) == 3
        assert main(["moments", "--config", cfg, "--output", str(out)]) == 0
        row = (out / "moments.csv").read_text().splitlines()[1].split(",")
        assert row[2] == "34" and float(row[3]) < 3e6**2
        loose = write_config(tmp_path, "loose.json", truncation_radius=1e40, **doc)
        assert main(["moments", "--config", loose, "--output", str(out), "--strict"]) == 0
        assert (out / "moments.csv").read_text().splitlines()[1].split(",")[2] == "0"
        # the ladder studies decide by the same radius; at 1e40 the 0.5-0.25
        # pair of converge still counts the 2 paths that reach inf or NaN
        for command, ladder, tight, wide, wide_exit in [
            ("perturbation", [0.5], "34", "0", 0), ("converge", [0.5, 0.25], "36", "2", 3),
        ]:
            for radius, count, code in ((None, tight, 3), (1e40, wide, wide_exit)):
                cfg = write_config(tmp_path, truncation_radius=radius, **{**doc, "ladder": ladder})
                assert main([command, "--config", cfg, "--output", str(out), "--strict"]) == code
                assert (out / f"{command}.csv").read_text().splitlines()[1].split(",")[-1] == count

    @pytest.mark.parametrize("command, ladder", [
        ("converge", [0.5, 0.25]), ("perturbation", [0.5, 0.25]), ("moments", [0.5]),
    ], ids=["converge", "perturbation", "moments"])
    def test_every_path_diverged_is_2(self, tmp_path, capsys, command, ladder):
        # every path starts at |X(0)| = 3, past the radius: no study may
        # report an empty sample as a row
        cfg = write_config(tmp_path, ladder=ladder, n_paths=50, seed=1, truncation_radius=2.0,
                           xi={"kind": "constant", "value": 3.0})
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: every simulated path diverged") and err.count("\n") == 1
        assert not list(out.glob("*.csv"))

    def test_moments_with_one_kept_path_is_2(self, tmp_path, capsys):
        # one of these two paths blows up; the other alone has no standard
        # error, and 0.0 would read as an exact estimate
        cfg = write_config(tmp_path, ladder=[0.5], n_paths=2, seed=1,
                           xi={"kind": "constant", "value": 3.0})
        out = tmp_path / "o"
        assert main(["moments", "--config", cfg, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: only one simulated path did not diverge")
        assert err.count("\n") == 1 and not list(out.glob("*.csv"))


class TestOutputs:
    def run_simulate(self, tmp_path, **overrides):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, ladder=[0.25], n_paths=2, **overrides)
        assert main(["simulate", "--config", cfg, "--output", str(out), "--dump-noise"]) == 0
        return out

    def test_path_csv_layout(self, tmp_path):
        out = self.run_simulate(tmp_path)
        text = (out / "path_0000.csv").read_bytes().decode()
        lines = text.split("\n")
        assert lines[0] == "t,x_1"
        assert "\r" not in text and text.endswith("\n")
        # full grid from -tau to horizon: N + M + 1 rows
        assert len(lines) == 1 + 13 + 1  # header + rows + trailing newline
        assert lines[1].split(",")[0] == "-1"
        assert lines[-2].split(",")[0] == "2"

    def test_floats_survive_text_round_trip(self, tmp_path):
        out = self.run_simulate(tmp_path)
        rows = (out / "path_0001.csv").read_text().strip().split("\n")[1:]
        texts = [row.split(",")[1] for row in rows]
        grid = make_grid(1.0, 2.0, 0.25)
        noise = generate(grid, 1, 99, [1])
        from nsdde_sim import builtin_model, constant_segment, simulate

        model = builtin_model("sec4", 1.0, {"k": 0.5, "c1": -1.0, "c2": -1.0})
        path = simulate(model, constant_segment(1.0), [grid], noise)[0]
        assert [float(s) for s in texts] == path[:, 0, 0].tolist()

    def test_noise_dump_restores_stream(self, tmp_path):
        out = self.run_simulate(tmp_path)
        raw = (out / "noise_0000.bin").read_bytes()
        grid = make_grid(1.0, 2.0, 0.25)
        expected = generate(grid, 1, 99, [0])[0]
        assert np.array_equal(np.frombuffer(raw, dtype="<f8").reshape(-1, 1), expected)

    def test_noise_dump_with_two_noise_components(self, tmp_path):
        # step-major: increment l of path 2 is bytes 16*l .. 16*l + 15
        cfg = write_config(tmp_path, model={"id": "additive_noise", "params": {"dim": 2}},
                           ladder=[0.25], n_paths=3, seed=5)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--output", str(out), "--dump-noise"]) == 0
        raw = (out / "noise_0002.bin").read_bytes()
        assert len(raw) == 128
        assert raw == generate(make_grid(1.0, 2.0, 0.25), 2, 5, [2])[0].astype("<f8").tobytes()

    def test_noise_dump_covers_diverged_paths(self, tmp_path, capsys):
        # explicit Euler on sec4 from xi = 3 at step 0.5 blows up on 40 of 50
        # paths: their noise, which a replay needs, is written, their CSVs not
        doc = {**json.loads((CONFIGS / "sec4_simulate.json").read_text()), "ladder": [0.5],
               "horizon": 4, "n_paths": 50, "seed": 1, "xi": {"kind": "constant", "value": 3.0}}
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(cfg), "--output", str(out), "--dump-noise"]) == 0
        assert "wrote 10 paths" in capsys.readouterr().out
        kept = [0, 4, 7, 8, 10, 13, 17, 31, 40, 41]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["diverged_paths"] == [i for i in range(50) if i not in kept]
        dumps = [f"noise_{i:04d}.bin" for i in range(50)]
        assert sorted(p.name for p in out.glob("noise_*.bin")) == dumps
        assert set(dumps) <= set(manifest["outputs"])
        assert sorted(p.name for p in out.glob("path_*.csv")) == [f"path_{i:04d}.csv" for i in kept]
        raw = (out / "noise_0001.bin").read_bytes()
        expected = generate(make_grid(1.0, 4.0, 0.5), 1, 1, [1])[0]
        assert np.array_equal(np.frombuffer(raw, dtype="<f8").reshape(-1, 1), expected)

    def test_manifest_contents(self, tmp_path):
        out = self.run_simulate(tmp_path)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["version"] == nsdde_sim.__version__
        assert manifest["seed"] == 99
        assert manifest["command"] == "simulate"
        assert manifest["config"]["model"]["id"] == "sec4"
        assert sorted(manifest["outputs"]) == manifest["outputs"]
        assert "path_0000.csv" in manifest["outputs"]
        assert "noise_0001.bin" in manifest["outputs"]
        # nothing time-dependent may leak into the manifest
        assert not any("time" in key or "date" in key for key in manifest)

    def test_perturbation_without_a_bundle_weighs_by_one(self, tmp_path):
        # additive_noise has no built-in rate bundle and the config gives none
        out = tmp_path / "out"
        cfg = write_config(tmp_path, model={"id": "additive_noise", "params": {}})
        assert main(["perturbation", "--config", cfg, "--output", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["weight"] == "constant 1"

    @pytest.mark.parametrize("command", ["converge", "perturbation", "moments"])
    def test_each_level_grid_is_built_once(self, tmp_path, monkeypatch, command):
        # main builds and validates the ladder's grids, and the study takes them
        steps = []
        real = cli.analysis.make_grid
        monkeypatch.setattr(cli.analysis, "make_grid",
                            lambda tau, horizon, delta: steps.append(delta) or real(tau, horizon, delta))
        ladder = [0.5] if command == "moments" else [0.5, 0.25, 0.125]
        cfg = write_config(tmp_path, ladder=ladder)
        assert main([command, "--config", cfg, "--output", str(tmp_path / "o")]) == 0
        assert steps == ladder

    def test_seed_flag_overrides_config(self, tmp_path):
        out_a = self.run_simulate(tmp_path)
        base = (out_a / "path_0000.csv").read_bytes()
        out_b = tmp_path / "seeded"
        cfg = write_config(tmp_path, name="cfg2.json", ladder=[0.25], n_paths=2)
        assert main(["simulate", "--config", cfg, "--output", str(out_b), "--seed", "100"]) == 0
        assert (out_b / "path_0000.csv").read_bytes() != base
        manifest = json.loads((out_b / "manifest.json").read_text())
        assert manifest["seed"] == 100
        assert manifest["config"]["seed"] == 99  # echo keeps the original


class TestReruns:
    @pytest.mark.parametrize(
        "command, extra",
        [
            ("simulate", {"ladder": [0.25], "n_paths": 3}),
            ("converge", {}),
            ("moments", {"ladder": [0.25]}),
            ("perturbation", {}),
            ("check", {"samples": 80}),
        ],
    )
    def test_byte_identical(self, tmp_path, command, extra):
        cfg = write_config(tmp_path, **extra)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main([command, "--config", cfg, "--output", str(a)]) == 0
        assert main([command, "--config", cfg, "--output", str(b)]) == 0
        files_a = sorted(p.name for p in a.iterdir())
        files_b = sorted(p.name for p in b.iterdir())
        assert files_a == files_b and files_a
        for name in files_a:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_stale_thread_variable_is_ignored(self, tmp_path, monkeypatch):
        # a leftover NSDDE_SIM_THREADS in the environment must not affect a run
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["converge", "--config", cfg, "--output", str(a)]) == 0
        monkeypatch.setenv("NSDDE_SIM_THREADS", "abc")
        assert main(["converge", "--config", cfg, "--output", str(b)]) == 0
        assert (a / "converge.csv").read_bytes() == (b / "converge.csv").read_bytes()


class TestCheckReport:
    def test_json_structure(self, tmp_path):
        cfg = write_config(tmp_path, samples=120)
        out = tmp_path / "chk"
        assert main(["check", "--config", cfg, "--output", str(out)]) == 0
        doc = json.loads((out / "check.json").read_text())
        assert [r["condition"] for r in doc["reports"]] == ["C4", "C2", "C3", "H"]
        for report in doc["reports"]:
            assert report["verdict"] == "pass"
            assert report["violations"] == []
            assert report["samples"] >= 120
        h_report = doc["reports"][3]
        assert h_report["estimate"] > 0.0
        assert doc["estimates"]["kappa"] == pytest.approx(0.5, abs=1e-9)

    @staticmethod
    def coefficient_calls(tmp_path, monkeypatch, **overrides):
        """The coefficient calls of one ``check`` run on the sec4 config."""
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        def traced(*args, build=cli.builtin_model):
            model = build(*args)
            return replace(model, **{name: counted(name, getattr(model, name))
                                     for name in ("neutral", "drift", "diffusion")})

        monkeypatch.setattr(cli, "builtin_model", traced)
        cfg = write_config(tmp_path, **overrides)
        assert main(["check", "--config", cfg, "--output", str(tmp_path / "o")]) == 0
        return calls

    def test_coefficient_calls(self, tmp_path, monkeypatch):
        # C4 and the kappa estimate share one neutral call; C2, C3 and the rate
        # proposal share one neutral, drift and diffusion call; H's 20 times of
        # 508 pairs fit in one block, one drift and one diffusion call
        calls = self.coefficient_calls(tmp_path, monkeypatch, ladder=[0.1], samples=500)
        assert calls == {"neutral": 2, "drift": 2, "diffusion": 2}

    def test_coefficient_calls_grow_with_h_blocks_not_grid_times(self, tmp_path, monkeypatch):
        # 20,000 grid times of 18 sec4 pairs, one diffusion entry each: one drift
        # call per block of H's table and one for the shared pass, whatever the machine
        calls = self.coefficient_calls(tmp_path, monkeypatch, ladder=[1e-4], samples=10)
        blocks = -(-20_000 // (nsdde_sim.conditions.H_BLOCK_ENTRIES // 18))
        assert calls == {"neutral": 2, "drift": 1 + blocks, "diffusion": 1 + blocks}
        assert blocks < 100

    def test_failing_check_lists_violations(self, tmp_path):
        cfg = write_config(
            tmp_path,
            model={"id": "cubic_drift", "params": {}},
            samples=40,
            rates={
                "kappa": 0.5, "growth_rate": 1.0, "growth_rate_delayed": 0.0,
                "local_rate": 1.0, "local_rate_delayed": 0.0,
                "growth_delay_factor": 1.0, "local_delay_factor": 1.0,
            },
        )
        out = tmp_path / "chk"
        assert main(["check", "--config", cfg, "--output", str(out)]) == 1
        doc = json.loads((out / "check.json").read_text())
        by_id = {r["condition"]: r for r in doc["reports"]}
        assert by_id["C2"]["verdict"] == "fail"
        worst = by_id["C2"]["violations"][0]
        assert worst["lhs"] > worst["rhs"]


# argv -> (command, config, output, seed, strict, dump_noise)
ACCEPTED = {
    "command_first": (["converge", "--config", "c.json"],
                      ("converge", "c.json", None, None, False, False)),
    "command_last": (["--config", "c.json", "--seed", "7", "--strict", "check"],
                     ("check", "c.json", None, 7, True, False)),
    "command_between": (["--output", "o", "moments", "--config", "c.json"],
                        ("moments", "c.json", "o", None, False, False)),
    "equals": (["simulate", "--config=c.json", "--output=o", "--seed=7", "--dump-noise"],
               ("simulate", "c.json", "o", 7, False, True)),
    "prefixes": (["simulate", "--conf", "c.json", "--out=o", "--see", "7", "--str", "--dump"],
                 ("simulate", "c.json", "o", 7, True, True)),
    "last_wins": (["perturbation", "--config", "a.json", "--seed", "1", "--output", "a",
                   "--config", "c.json", "--seed", "7", "--output", "o", "--strict", "--strict"],
                  ("perturbation", "c.json", "o", 7, True, False)),
    "seed_through_int": (["converge", "--config", "c.json", "--seed", " +007 "],
                         ("converge", "c.json", None, 7, False, False)),
    "negative_seed": (["converge", "--config", "c.json", "--seed", "-3"],
                      ("converge", "c.json", None, -3, False, False)),
    "double_dash": (["--config", "c.json", "--", "converge"],
                    ("converge", "c.json", None, None, False, False)),
}
# argv -> a fragment of the error line
USAGE_ERRORS = {
    "unknown_flag": (["converge", "--config", "c.json", "--threads", "2"], "--threads"),
    "unknown_short_flag": (["converge", "--config", "c.json", "-x"], "-x"),
    "ambiguous_prefix": (["converge", "--config", "c.json", "--s"], "--s"),
    "missing_value": (["converge", "--config"], "--config"),
    "missing_seed_value": (["converge", "--config", "c.json", "--seed"], "--seed"),
    "value_for_a_switch": (["converge", "--config", "c.json", "--strict=yes"], "--strict"),
    "no_command": (["--config", "c.json"], "command"),
    "unknown_command": (["simulat", "--config", "c.json"], "simulat"),
    "extra_positional": (["converge", "check", "--config", "c.json"], "check"),
    "no_config": (["converge"], "--config"),
    "non_integer_seed": (["converge", "--config", "c.json", "--seed", "7.5"], "7.5"),
    "dump_noise_outside_simulate": (["converge", "--config", "c.json", "--dump-noise"],
                                    "--dump-noise"),
}


def run_python(*args):
    """A fresh interpreter that imports nsdde_sim from this checkout."""
    src = str(Path(nsdde_sim.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})


class TestParser:
    @pytest.mark.parametrize("command", ["simulate", "converge", "moments", "perturbation",
                                         "check"])
    def test_every_command_parses_its_options(self, command):
        extra = ["--dump-noise"] if command == "simulate" else []
        args = _parse_args(
            [command, "--config", "c.json", "--output", "o", "--seed", "7", "--strict"] + extra
        )
        assert args == (command, "c.json", "o", 7, True, command == "simulate")
        bare = _parse_args([command, "--config", "c.json"])
        assert bare == (command, "c.json", None, None, False, False)

    @pytest.mark.parametrize("case", ACCEPTED)
    def test_accepted_forms(self, case):
        argv, expected = ACCEPTED[case]
        assert _parse_args(argv) == expected

    def test_no_argv_reads_sys_argv(self, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["nsdde-sim", "check", "--config", "c.json"])
        assert _parse_args() == ("check", "c.json", None, None, False, False)

    @pytest.mark.parametrize("case", USAGE_ERRORS)
    def test_usage_error_is_2_with_one_line(self, tmp_path, capsys, case):
        argv, fragment = USAGE_ERRORS[case]
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["--output", str(out)] + argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("nsdde-sim: error:") and fragment in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["converge", "--he"],
                                      ["--config", "c.json", "check", "-h"]],
                             ids=["h", "help", "help_prefix", "h_after_options"])
    def test_help_prints_the_usage_line(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            _parse_args(argv)
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out.count("\n") == 1
        assert captured.out.startswith("usage: nsdde-sim ")
        assert all(command in captured.out
                   for command in ["simulate", "converge", "moments", "perturbation", "check"])

    def test_module_entry_point(self, tmp_path):
        # no argv: the module reads sys.argv and exits with main's code
        command, stem, overrides, flags, code, lines = STDOUT_CASES["converge"]
        cfg, out = tmp_path / "cfg.json", tmp_path / "o"
        cfg.write_text(json.dumps({**json.loads((CONFIGS / f"{stem}.json").read_text()),
                                   **overrides}))
        done = run_python("-m", "nsdde_sim.cli", command, "--config", str(cfg),
                          "--output", str(out), *flags)
        assert (done.returncode, done.stderr) == (code, "")
        assert done.stdout.splitlines() == [line.format(out=out) for line in lines]
        bad = tmp_path / "bad"
        done = run_python("-m", "nsdde_sim.cli", "converge", "--config", str(cfg),
                          "--output", str(bad), "--seed", "x")
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("nsdde-sim: error:") and done.stderr.count("\n") == 1
        assert "Traceback" not in done.stderr and not bad.exists()

    def test_check_does_not_import_numpy_random(self, tmp_path):
        # the checkers compute default_rng's stream themselves; numpy.random's
        # import (with secrets and hashlib) was most of a cold check run
        forbidden = ["numpy.random", "secrets", "hashlib"]
        cfg, out = write_config(tmp_path, samples=10), str(tmp_path / "o")
        script = (
            "import sys\n"
            "from nsdde_sim.cli import main\n"
            f"assert main(['check', '--config', {cfg!r}, '--output', {out!r}]) == 0\n"
            f"print([name for name in {forbidden!r} if name in sys.modules])\n"
        )
        done = run_python("-c", script)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"

    def test_runs_do_not_import_slow_modules(self, tmp_path):
        # a plain np.unique (no return_* flag) imports numpy.ma, about 7 ms of
        # a cold check run, argparse's gettext calls import locale, about 3 ms,
        # and numpy.random (with secrets and hashlib) is 13-17 ms; no command
        # may pull them in, the Brownian draws of the path commands included
        forbidden = ["numpy.ma", "argparse", "locale", "numpy.random", "secrets", "hashlib"]
        cfg, out = write_config(tmp_path, samples=10, n_paths=4), str(tmp_path / "o")
        single = write_config(tmp_path, "single.json", ladder=[0.5], n_paths=4)
        runs = [("simulate", single, []), ("simulate", single, ["--dump-noise"]),
                ("converge", cfg, []), ("moments", single, []), ("perturbation", cfg, []),
                ("check", cfg, [])]
        script = (
            "import sys\n"
            "from nsdde_sim.cli import main\n"
            f"for command, cfg, extra in {runs!r}:\n"
            f"    assert main([command, '--config', cfg, '--output', {out!r}, *extra]) == 0\n"
            f"print([name for name in {forbidden!r} if name in sys.modules])\n"
        )
        done = run_python("-c", script)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"
