"""Stdout summary lines and exit codes of every command.

The golden digests pin the files a run writes; this pins what it prints and
the code it exits with.  Each case runs a shipped config, resized to a few
paths or samples, through ``main`` into a temporary directory.
"""

import json
from pathlib import Path

import pytest

from nsdde_sim.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

CONSTANT_RATES = {
    "kappa": 0.5, "growth_rate": 1.0, "growth_rate_delayed": 0.0,
    "local_rate": 1.0, "local_rate_delayed": 0.0,
    "growth_delay_factor": 1.0, "local_delay_factor": 1.0,
}
# explicit Euler on sec4 from xi = 3 at step 0.5 blows up on 34 of 50 paths
BLOW_UP = {"ladder": [0.5], "n_paths": 50, "seed": 1, "xi": {"kind": "constant", "value": 3.0}}

# (command, config stem, overrides, extra flags, exit code, stdout lines);
# "{out}" in a line stands for the output directory
CASES = {
    "simulate": ("simulate", "linear_simulate", {}, [], 0, [
        "simulate: wrote 3 paths to {out} (0 diverged)",
    ]),
    # sec4 has a rate bundle, so simulate also checks the pathwise contraction
    # bound; a bundle that claims kappa = 0.1 for D(y) = 0.5 y is broken on every path
    "simulate_contraction": ("simulate", "sec4_simulate", {}, [], 0, [
        "simulate: wrote 3 paths to {out} (0 diverged)",
        "simulate: contraction bound (p=2, kappa=0.5) violated on 0 of 3 finite paths",
    ]),
    "simulate_contraction_violated": ("simulate", "sec4_simulate", {
        "rates": {**CONSTANT_RATES, "kappa": 0.1},
    }, [], 0, [
        "simulate: wrote 3 paths to {out} (0 diverged)",
        "simulate: contraction bound (p=2, kappa=0.1) violated on 3 of 3 finite paths",
    ]),
    "simulate_strict_diverged": ("simulate", "linear_simulate", {
        "model": {"id": "cubic_drift", "params": {}}, "ladder": [0.25],
        "xi": {"kind": "constant", "value": 2.0},
    }, ["--strict"], 3, [
        "simulate: wrote 0 paths to {out} (3 diverged)",
    ]),
    # the blow-up in a two-level ladder: huge but finite paths count as diverged
    "converge_strict_diverged": ("converge", "sec4_converge", {**BLOW_UP, "ladder": [0.5, 0.25]},
                                 ["--strict"], 3, [
        "converge 0-1: p_hat=1.0000 mean_sup=282488 diverged=36 SUSPECT(>1% diverged)",
        "converge: exceedance trend non-increasing",
    ]),
    "converge": ("converge", "sec4_converge", {"n_paths": 20, "ladder": [0.1, 0.05, 0.025]},
                 [], 0, [
        "converge 0-1: p_hat=0.8500 mean_sup=0.16739 diverged=0",
        "converge 1-2: p_hat=0.5000 mean_sup=0.120661 diverged=0",
        "converge: exceedance trend non-increasing",
    ]),
    "moments": ("moments", "sec4_moments", {"n_paths": 40}, [], 0, [
        "moments: sup-of-mean-square 1.93451 (se 0.342) at t=0.35, 0 diverged",
    ]),
    "moments_strict_diverged": ("moments", "sec4_moments", BLOW_UP, ["--strict"], 3, [
        "moments: sup-of-mean-square 1.71262e+11 (se 1.48e+11) at t=2, 34 diverged",
    ]),
    "perturbation": ("perturbation", "sec4_perturbation",
                     {"n_paths": 20, "ladder": [0.1, 0.05, 0.025]}, [], 0, [
        "perturbation level 0 (delta=0.1): E int |p| = 0.160832, diverged=0",
        "perturbation level 1 (delta=0.05): E int |p| = 0.102663, diverged=0",
        "perturbation level 2 (delta=0.025): E int |p| = 0.0663505, diverged=0",
    ]),
    "perturbation_diverged": ("perturbation", "sec4_perturbation",
                              {**BLOW_UP, "ladder": [0.5, 0.25]}, [], 0, [
        "perturbation level 0 (delta=0.5): E int |p| = 0, diverged=42 SUSPECT(>1% diverged)",
        "perturbation level 1 (delta=0.25): E int |p| = 0, diverged=3 SUSPECT(>1% diverged)",
    ]),
    "check": ("check", "sec4_check", {"samples": 300}, [], 0, [
        "check C4: pass (308 samples, 0 violations)",
        "check C2: pass (308 samples, 0 violations)",
        "check C3: pass (305 samples, 0 violations)",
        "check H: pass (6160 samples, 0 violations)",
    ]),
    "check_fails": ("check", "sec4_check", {
        "model": {"id": "cubic_drift", "params": {}}, "samples": 60, "rates": CONSTANT_RATES,
    }, [], 1, [
        "check C4: pass (68 samples, 0 violations)",
        "check C2: fail (68 samples, 41 violations)",
        "check C3: fail (65 samples, 52 violations)",
        "check H: pass (1360 samples, 0 violations)",
    ]),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_and_exit_code(case, tmp_path, capsys):
    command, stem, overrides, flags, code, lines = CASES[case]
    doc = {**json.loads((CONFIGS / f"{stem}.json").read_text()), **overrides}
    cfg, out = tmp_path / "cfg.json", tmp_path / "o"
    cfg.write_text(json.dumps(doc))
    assert main([command, "--config", str(cfg), "--output", str(out)] + flags) == code
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [line.format(out=out) for line in lines]
    assert captured.err == ""
