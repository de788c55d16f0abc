"""Command line front end.

Usage::

    nsdde-sim {simulate,converge,moments,perturbation,check} --config cfg.json
              [--output DIR] [--seed N] [--strict] [--dump-noise]

The command and the options come in any order; a unique prefix names a long
option, and the last of a repeated option wins.  ``--output`` overrides the
config's output directory and ``--seed`` its seed, ``--strict`` turns path
divergence into exit code 3, and ``--dump-noise`` (simulate only) also
writes the raw noise increments.  ``-h``/``--help`` prints the usage line.

Exit codes: 0 success, 1 condition-check failure, 2 invalid input or a
run too large for memory, 3 divergence under --strict.  Invalid input prints
one stderr line, which starts ``nsdde-sim: error:`` for a usage error and
``error:`` otherwise.

Configs are a single JSON document; unknown and repeated keys anywhere are
errors, so a typo cannot silently change a run.  ``_COMMANDS`` holds one row
per command: its runner, its required config keys with their least values,
the least and the most ladder levels it takes, and whether it requires a rate
bundle.  The bundle (the config's "rates", else the model's built-in one) and
``truncation_radius`` are checked under every command.  ``main`` checks
those, builds the model, the initial segment, the ladder grids and the
bundle, samples the segment on the grid the command reads (``check`` its
coarsest, the others the finest, as ``simulate`` does), only then creates the
output directory, and calls the runner, which computes and writes its own
output files.  Then ``main`` writes a ``manifest.json`` (config echo,
effective seed, library version, algorithm identifiers, output list), prints
the runner's summary lines and picks the exit code.  Reruns
with the same config and seed are byte-identical.  CSV output uses comma
separators, '.' decimal point, LF line endings, a header row, and floats
with 17 significant digits.
"""

from __future__ import annotations

import getopt
import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple, NoReturn

import numpy as np

from . import __version__
from . import analysis, conditions
from .brownian import generate
from .errors import ConfigError, NsddeError
from .euler import simulate
from .model import affine_segment, builtin_model, constant_segment, sample_segment

_ALGORITHMS = {
    "rng": "philox4x64-10, seedsequence(entropy=seed, spawn_key=(path_index,))",
    "gaussian": "numpy Generator.standard_normal (ziggurat), scaled by sqrt(delta)",
    "scheme": "explicit euler with neutral-difference update",
    "interpolation": "coefficients frozen at the left coarse node",
    "quadrature": "per-interval trapezoid with cell-local coarse anchor",
}

# The "rates" object holds every ConditionSpec field but the box, which is
# the config's own box_radius.
_RATE_KEYS = {f.name for f in fields(conditions.ConditionSpec)} - {"box_radius"}
# xi kind -> (segment factory, the factory's parameters)
_XI_KINDS = {
    "constant": (constant_segment, ("value",)),
    "affine": (affine_segment, ("a", "b")),
}


@dataclass
class RunConfig:
    """Validated run configuration (see package README for the schema)."""

    model_id: str
    params: dict
    tau: float
    horizon: float
    ladder: list
    seed: int
    xi_kind: str
    xi_args: tuple
    raw: dict
    epsilon: float | None = None
    n_paths: int | None = None
    box_radius: float = 2.0
    samples: int | None = None
    output_dir: str = "out"
    rates: dict | None = None
    truncation_radius: float = analysis.TRUNCATION_RADIUS


def _need(doc: dict, key: str):
    if key not in doc:
        raise ConfigError(f"config is missing required key {key!r}")
    return doc[key]


def _real(key: str, value) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"config key {key!r} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):  # also NaN, Infinity and literals such as 1e400
        raise ConfigError(f"config key {key!r} must be a finite number, got {value!r}")
    return number


def _whole(key: str, value) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
    return value


# Optional positive numbers, key -> parser; RunConfig holds their defaults.
_POSITIVE_KEYS = {"epsilon": _real, "n_paths": _whole, "box_radius": _real,
                  "samples": _whole, "truncation_radius": _real}
_TOP_KEYS = {"model", "tau", "horizon", "ladder", "seed", "xi", "output_dir", "rates",
             *_POSITIVE_KEYS}


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a key repeated at any depth is an error, like an unknown key."""
    doc: dict = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError(f"config key {key!r} is repeated")
        doc[key] = value
    return doc


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a JSON run configuration (fail-closed)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # bad syntax, too many digits, too deep
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")

    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    model = _need(doc, "model")
    if not isinstance(model, dict) or set(model) - {"id", "params"}:
        raise ConfigError('config "model" must be {"id": ..., "params": {...}}')
    model_id = model.get("id")
    if not isinstance(model_id, str):
        raise ConfigError('config "model.id" must be a string')
    params = model.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError('config "model.params" must be an object')
    for key, value in params.items():
        _real(f"model.params.{key}", value)

    xi = doc.get("xi", {"kind": "constant", "value": 0.0})
    xi_kind = xi.get("kind") if isinstance(xi, dict) else None
    if not isinstance(xi_kind, str) or xi_kind not in _XI_KINDS:
        raise ConfigError(f'config "xi.kind" must be one of {sorted(_XI_KINDS)}')
    xi_names = _XI_KINDS[xi_kind][1]
    xi_args = tuple(_real(f"xi.{name}", _need(xi, name)) for name in xi_names)
    unknown = set(xi) - {"kind", *xi_names}
    if unknown:
        raise ConfigError(f"unknown xi keys: {sorted(unknown)}")

    ladder = _need(doc, "ladder")
    if not isinstance(ladder, list) or not ladder:
        raise ConfigError('config "ladder" must be a non-empty array of steps')
    ladder = [_real("ladder", d) for d in ladder]

    rates = doc.get("rates")
    if rates is not None:
        if not isinstance(rates, dict) or set(rates) - _RATE_KEYS:
            raise ConfigError(f'config "rates" keys must be among {sorted(_RATE_KEYS)}')
        rates = {k: _real(f"rates.{k}", v) for k, v in rates.items()}
        missing = _RATE_KEYS - set(rates)
        if missing:
            raise ConfigError(f'config "rates" is missing {sorted(missing)}')

    seed = _whole("seed", _need(doc, "seed"))
    if seed < 0:
        raise ConfigError("seed must be a non-negative integer")

    cfg = RunConfig(
        model_id=model_id,
        params=params,
        tau=_real("tau", _need(doc, "tau")),
        horizon=_real("horizon", _need(doc, "horizon")),
        ladder=ladder,
        seed=seed,
        xi_kind=xi_kind,
        xi_args=xi_args,
        rates=rates,
        raw=doc,
    )
    for key, parse in _POSITIVE_KEYS.items():
        if key in doc:
            value = parse(key, doc[key])
            if value <= 0:
                raise ConfigError(f"config key {key!r} must be positive, got {value!r}")
            setattr(cfg, key, value)
    if "output_dir" in doc:
        if not isinstance(doc["output_dir"], str):
            raise ConfigError('config "output_dir" must be a string')
        cfg.output_dir = doc["output_dir"]
    return cfg


def _rate_bundle(cfg: RunConfig) -> conditions.ConditionSpec | None:
    """The config's rate bundle, else the model's built-in one, else None."""
    if cfg.rates is not None:
        # float fields are taken as given; each rate function is a constant
        kinds = {f.name: f.type for f in fields(conditions.ConditionSpec)}
        return conditions.ConditionSpec(
            box_radius=cfg.box_radius,
            **{k: v if kinds[k] == "float" else conditions.constant_rate(v)
               for k, v in cfg.rates.items()},
        )
    if cfg.model_id == "sec4":
        return conditions.neutral_cubic_rates(
            cfg.params["k"], cfg.params["c1"], cfg.params["c2"], cfg.tau, cfg.box_radius
        )
    return None


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write(path: Path, data: bytes) -> None:
    """Write one output file; an unwritable name (a directory in the way, no
    permission) is reported like any invalid input, not as a traceback."""
    try:
        path.write_bytes(data)
    except OSError as exc:
        raise ConfigError(f"cannot write output {path}: {exc}") from exc


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    _write(path, ("\n".join(lines) + "\n").encode())


def _write_records(path: Path, columns: list[str], records) -> None:
    """A CSV with one row per record: each column is the record's attribute of that name."""
    _write_csv(path, columns, [[getattr(r, c) for c in columns] for r in records])


def _write_json(path: Path, doc: dict) -> None:
    _write(path, (json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n").encode())


def _number(value: float) -> float | str:
    """``value`` as RFC 8259 JSON holds it: a non-finite float as the string float() reads."""
    return value if math.isfinite(value) else repr(value)


def _write_manifest(out_dir: Path, command: str, cfg: RunConfig, outputs: list[str], extra: dict | None) -> None:
    _write_json(out_dir / "manifest.json", {
        "command": command,
        "config": cfg.raw,
        "seed": cfg.seed,
        "version": __version__,
        "algorithms": _ALGORITHMS,
        "outputs": sorted(outputs),
        **(extra or {}),
    })


class _Result(NamedTuple):
    """What a command hands back once its own output files are written."""

    outputs: list[str]
    summary: list[str]
    diverged: int = 0  # paths; exit 3 under --strict
    failed: int = 0  # conditions that did not pass; exit 1
    extra: dict | None = None  # manifest entries of this command


def _simulate(cfg: RunConfig, model, xi, grids, spec, out_dir: Path, dump_noise: bool) -> _Result:
    grid = grids[0]
    outputs: list[str] = []
    diverged: list[int] = []
    violated = 0  # finite paths past the contraction bound of the rate bundle
    header = ["t"] + [f"x_{i + 1}" for i in range(model.state_dim)]
    times = grid.times.tolist()
    for indices in analysis.path_blocks(cfg.n_paths):
        noise = generate(grid, model.noise_dim, cfg.seed, indices)
        (values,) = simulate(model, xi, [grid], noise)
        finite = np.isfinite(values).all(axis=(0, 2))
        if spec is not None:
            ok = analysis.check_contraction_sup_bound(values, grid, model.neutral, spec.kappa)
            violated += int((finite & ~ok).sum())
        for row, (index, kept) in enumerate(zip(indices, finite.tolist())):
            if kept:
                name = f"path_{index:04d}.csv"
                rows = [[t, *state] for t, state in zip(times, values[:, row].tolist())]
                _write_csv(out_dir / name, header, rows)
                outputs.append(name)
            else:
                diverged.append(index)
            if dump_noise:  # a diverged path's noise too, to replay it
                bin_name = f"noise_{index:04d}.bin"
                _write(out_dir / bin_name, noise[row].astype("<f8").tobytes())
                outputs.append(bin_name)
    written = cfg.n_paths - len(diverged)
    summary = [f"simulate: wrote {written} paths to {out_dir} ({len(diverged)} diverged)"]
    if spec is not None:
        summary.append(f"simulate: contraction bound (p=2, kappa={spec.kappa:g}) "
                       f"violated on {violated} of {written} finite paths")
    return _Result(outputs, summary, len(diverged), extra={"diverged_paths": diverged})


def _suspect(row) -> str:
    """The mark of a study row whose statistics rest on a conditioned sample."""
    return " SUSPECT(>1% diverged)" if row.suspect else ""


def _converge(cfg: RunConfig, model, xi, grids, spec, out_dir: Path, dump_noise: bool) -> _Result:
    rows = analysis.converge_study(model, xi, grids, cfg.epsilon, cfg.n_paths, cfg.seed,
                                   radius=cfg.truncation_radius)
    columns = [
        "level_pair", "delta_coarse", "delta_fine", "epsilon", "n_paths",
        "exceed_count", "p_hat", "mean_sup_diff", "max_sup_diff", "diverged_count",
    ]
    _write_records(out_dir / "converge.csv", columns, rows)
    summary = [
        f"converge {r.level_pair}: p_hat={r.p_hat:.4f} mean_sup={r.mean_sup_diff:.6g} "
        f"diverged={r.diverged_count}{_suspect(r)}"
        for r in rows
    ]
    trend = analysis.exceedance_trend_ok(rows)
    summary.append(f"converge: exceedance trend {'non-increasing' if trend else 'INCREASING'}")
    return _Result(["converge.csv"], summary, sum(r.diverged_count for r in rows))


def _moments(cfg: RunConfig, model, xi, grids, spec, out_dir: Path, dump_noise: bool) -> _Result:
    report = analysis.estimate_moments(model, xi, grids[0], cfg.n_paths, cfg.seed,
                                       radius=cfg.truncation_radius)
    columns = [f.name for f in fields(analysis.MomentReport)]
    _write_records(out_dir / "moments.csv", columns, [report])
    summary = (f"moments: sup-of-mean-square {report.sup_mean_square:.6g} "
               f"(se {report.std_error:.3g}) at t={report.sup_time:g}, "
               f"{report.diverged_count} diverged")
    return _Result(["moments.csv"], [summary], report.diverged_count)


def _perturbation(cfg: RunConfig, model, xi, grids, spec, out_dir: Path, dump_noise: bool) -> _Result:
    weight, weight_id = ((spec.local_rate, "local_rate") if spec is not None
                         else (conditions.constant_rate(1.0), "constant 1"))
    rows = analysis.perturbation_integrability(model, xi, grids, cfg.n_paths, cfg.seed,
                                               radius=cfg.truncation_radius, weight=weight)
    columns = [f.name for f in fields(analysis.PerturbationRow)]
    _write_records(out_dir / "perturbation.csv", columns, rows)
    summary = [
        f"perturbation level {r.level} (delta={r.delta:g}): "
        f"E int |p| = {r.mean_abs_integral:.6g}, diverged={r.diverged_count}{_suspect(r)}"
        for r in rows
    ]
    return _Result(["perturbation.csv"], summary, sum(r.diverged_count for r in rows),
                   extra={"weight": weight_id})


def _check(cfg: RunConfig, model, xi, grids, spec, out_dir: Path, dump_noise: bool) -> _Result:
    reports, kappa, proposal = conditions.check_conditions(
        model, spec, grids[0], cfg.samples, cfg.seed)
    _write_json(out_dir / "check.json", {
        "reports": [
            {
                "condition": r.condition_id,
                "samples": r.samples_tested,
                "verdict": r.verdict,
                "violations": [{"inputs": v.inputs, "lhs": _number(v.lhs), "rhs": _number(v.rhs)}
                               for v in r.violations],
                **({"estimate": _number(r.estimate)} if r.estimate is not None else {}),
            }
            for r in reports
        ],
        "estimates": {"kappa": _number(kappa),
                      **{f"heuristic_{k}": _number(v) for k, v in proposal.items()}},
    })
    summary = [
        f"check {r.condition_id}: {r.verdict} ({r.samples_tested} samples, "
        f"{len(r.violations)} violations)"
        for r in reports
    ]
    return _Result(["check.json"], summary, failed=sum(r.verdict != "pass" for r in reports))


# command -> (runner, required config keys with the least value of each, the least
#             and the most ladder levels, whether a rate bundle is required);
#             moments' standard error needs two paths, converge a pair of levels
_COMMANDS = {
    "simulate": (_simulate, {"n_paths": 1}, (1, 1), False),
    "converge": (_converge, {"n_paths": 1, "epsilon": 0.0}, (2, math.inf), False),
    "moments": (_moments, {"n_paths": 2}, (1, 1), False),
    "perturbation": (_perturbation, {"n_paths": 1}, (1, math.inf), False),
    "check": (_check, {"samples": 1}, (1, math.inf), True),
}


def _usage_error(message: str) -> NoReturn:
    print(f"nsdde-sim: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _parse_args(argv=None) -> tuple:
    """``(command, config, output, seed, strict, dump_noise)``; see the module docstring."""
    try:
        opts, positional = getopt.gnu_getopt(sys.argv[1:] if argv is None else argv, "h", [
            "config=", "output=", "seed=", "strict", "dump-noise", "help"])
    except getopt.GetoptError as exc:
        _usage_error(str(exc))
    given = {flag.lstrip("-"): value for flag, value in opts}
    if "h" in given or "help" in given:
        print(f"usage: nsdde-sim {{{','.join(_COMMANDS)}}} --config PATH [--output DIR] "
              "[--seed N] [--strict] [--dump-noise]")
        raise SystemExit(0)
    if len(positional) != 1 or positional[0] not in _COMMANDS:
        _usage_error(f"expected one command of {', '.join(_COMMANDS)}, got {positional}")
    command = positional[0]
    if "config" not in given:
        _usage_error("--config is required")
    try:
        seed = int(given["seed"]) if "seed" in given else None
    except ValueError:
        _usage_error(f"--seed must be an integer, got {given['seed']!r}")
    if "dump-noise" in given and command != "simulate":
        _usage_error("--dump-noise applies to simulate only")
    return (command, given["config"], given.get("output"), seed,
            "strict" in given, "dump-noise" in given)


def main(argv=None) -> int:
    command, config, output, seed, strict, dump_noise = _parse_args(argv)
    runner, required, (fewest, most), needs_bundle = _COMMANDS[command]
    try:
        cfg = load_config(config)
        cfg.seed = cfg.seed if seed is None else seed
        if cfg.seed < 0:
            raise ConfigError("seed must be non-negative")
        for key, least in required.items():
            value = getattr(cfg, key)
            if value is None:
                raise ConfigError(f"command {command!r} requires config key {key!r}")
            if value < least:
                raise ConfigError(f"command {command!r} needs {key} >= {least}, got {value}")
        if not fewest <= len(cfg.ladder) <= most:
            levels = "a single-entry ladder" if most == 1 else f"at least {fewest} ladder levels"
            raise ConfigError(f"{command} expects {levels}")
        try:
            model = builtin_model(cfg.model_id, cfg.tau, cfg.params)
        except MemoryError as exc:  # a count numpy can size but the machine cannot hold
            raise ConfigError(f"model {cfg.model_id!r} does not fit in memory") from exc
        xi = _XI_KINDS[cfg.xi_kind][0](*cfg.xi_args)
        grids = analysis.ladder_grids(cfg.tau, cfg.horizon, cfg.ladder)
        analysis.check_radius(cfg.truncation_radius)
        spec = _rate_bundle(cfg)
        if needs_bundle and spec is None:
            raise ConfigError(
                f"model {cfg.model_id!r} has no built-in rate bundle; provide a \"rates\" object"
            )
        output = output if output is not None else cfg.output_dir
        if not output:  # Path("") is the working directory
            raise ConfigError("the output directory must be a non-empty path")
        out_dir = Path(output)
        try:
            sample_segment(xi, grids[0 if command == "check" else -1], model.state_dim)
            try:
                out_dir.mkdir(parents=True, exist_ok=True)
            except (OSError, ValueError) as exc:  # a file in the way, no permission, a NUL byte
                raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc
            result = runner(cfg, model, xi, grids, spec, out_dir, dump_noise)
        except MemoryError as exc:  # arrays too large to hold; a made out_dir stays behind
            raise ConfigError(f"the {command} run does not fit in memory") from exc
        _write_manifest(out_dir, command, cfg, result.outputs, result.extra)
    except NsddeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in result.summary:
        print(line)
    return 1 if result.failed else 3 if strict and result.diverged else 0


if __name__ == "__main__":
    sys.exit(main())
