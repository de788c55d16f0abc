"""Command line front end.

Commands::

    nsdde-sim simulate     --config cfg.json [--output DIR] [--dump-noise]
    nsdde-sim converge     --config cfg.json [--output DIR]
    nsdde-sim moments      --config cfg.json [--output DIR]
    nsdde-sim perturbation --config cfg.json [--output DIR]
    nsdde-sim check        --config cfg.json [--output DIR]

Common flags: ``--seed`` overrides the config seed, ``--strict`` turns path
divergence into exit code 3.

Exit codes: 0 success, 1 condition-check failure, 2 invalid input,
3 divergence under --strict.

Configs are a single JSON document; unknown keys anywhere are errors, so a
typo cannot silently change a run.  Every command writes a ``manifest.json``
(config echo, effective seed, library version, algorithm identifiers,
output list) next to its outputs; reruns with the same config and seed are
byte-identical.  CSV output uses comma separators, '.' decimal point, LF
line endings, a header row, and floats with 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import __version__
from . import analysis, conditions
from .brownian import generate
from .errors import ConfigError, NsddeError
from .euler import simulate
from .model import (
    InitialSegment,
    NsddeModel,
    affine_segment,
    builtin_model,
    constant_segment,
    make_grid,
)

_ALGORITHMS = {
    "rng": "philox4x64-10, seedsequence(entropy=seed, spawn_key=(path_index,))",
    "gaussian": "numpy Generator.standard_normal (ziggurat), scaled by sqrt(delta)",
    "scheme": "explicit euler with neutral-difference update",
    "interpolation": "coefficients frozen at the left coarse node",
    "quadrature": "per-interval trapezoid with cell-local coarse anchor",
}

_TOP_KEYS = {
    "model", "tau", "horizon", "ladder", "epsilon", "n_paths", "seed", "xi",
    "box_radius", "samples", "output_dir", "rates", "truncation_radius",
}
_RATE_KEYS = {
    "kappa", "growth_rate", "growth_rate_delayed", "local_rate",
    "local_rate_delayed", "growth_delay_factor", "local_delay_factor",
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
    xi_kind: str = "constant"
    xi_args: dict = field(default_factory=dict)
    epsilon: float | None = None
    n_paths: int | None = None
    box_radius: float = 2.0
    samples: int | None = None
    output_dir: str = "out"
    rates: dict | None = None
    truncation_radius: float = analysis.TRUNCATION_RADIUS
    raw: dict = field(default_factory=dict)


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


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a JSON run configuration (fail-closed)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
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
    if not isinstance(xi, dict) or xi.get("kind") not in ("constant", "affine"):
        raise ConfigError('config "xi.kind" must be "constant" or "affine"')
    if xi["kind"] == "constant":
        allowed = {"kind", "value"}
        xi_args = {"value": _real("xi.value", _need(xi, "value"))}
    else:
        allowed = {"kind", "a", "b"}
        xi_args = {
            "a": _real("xi.a", _need(xi, "a")),
            "b": _real("xi.b", _need(xi, "b")),
        }
    if set(xi) - allowed:
        raise ConfigError(f"unknown xi keys: {sorted(set(xi) - allowed)}")

    ladder = _need(doc, "ladder")
    if not isinstance(ladder, list) or not ladder:
        raise ConfigError('config "ladder" must be a non-empty array of steps')
    ladder = [_real("ladder", d) for d in ladder]
    if any(d2 >= d1 for d1, d2 in zip(ladder, ladder[1:])):
        raise ConfigError("ladder steps must be strictly decreasing")

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
        xi_kind=xi["kind"],
        xi_args=xi_args,
        raw=doc,
    )
    if "epsilon" in doc:
        cfg.epsilon = _real("epsilon", doc["epsilon"])
        if cfg.epsilon <= 0:
            raise ConfigError("epsilon must be positive")
    if "n_paths" in doc:
        cfg.n_paths = _whole("n_paths", doc["n_paths"])
        if cfg.n_paths < 1:
            raise ConfigError("n_paths must be >= 1")
    if "box_radius" in doc:
        cfg.box_radius = _real("box_radius", doc["box_radius"])
        if cfg.box_radius <= 0:
            raise ConfigError("box_radius must be positive")
    if "samples" in doc:
        cfg.samples = _whole("samples", doc["samples"])
        if cfg.samples < 1:
            raise ConfigError("samples must be >= 1")
    if "truncation_radius" in doc:
        cfg.truncation_radius = _real("truncation_radius", doc["truncation_radius"])
        if cfg.truncation_radius <= 0:
            raise ConfigError("truncation_radius must be positive")
    if "output_dir" in doc:
        if not isinstance(doc["output_dir"], str):
            raise ConfigError('config "output_dir" must be a string')
        cfg.output_dir = doc["output_dir"]
    cfg.rates = rates
    return cfg


def _build_model(cfg: RunConfig) -> NsddeModel:
    return builtin_model(cfg.model_id, cfg.tau, cfg.params)


def _build_segment(cfg: RunConfig, dim: int) -> InitialSegment:
    if cfg.xi_kind == "constant":
        return constant_segment(cfg.xi_args["value"], dim)
    return affine_segment(cfg.xi_args["a"], cfg.xi_args["b"], dim)


def _build_rate_bundle(cfg: RunConfig) -> conditions.ConditionSpec:
    if cfg.rates is not None:
        r = cfg.rates
        return conditions.ConditionSpec(
            kappa=r["kappa"],
            growth_rate=conditions.constant_rate(r["growth_rate"]),
            growth_rate_delayed=conditions.constant_rate(r["growth_rate_delayed"]),
            local_rate=conditions.constant_rate(r["local_rate"]),
            local_rate_delayed=conditions.constant_rate(r["local_rate_delayed"]),
            growth_delay_factor=r["growth_delay_factor"],
            local_delay_factor=r["local_delay_factor"],
            box_radius=cfg.box_radius,
        )
    if cfg.model_id == "sec4":
        return conditions.neutral_cubic_rates(
            cfg.params["k"], cfg.params["c1"], cfg.params["c2"], cfg.tau, cfg.box_radius
        )
    raise ConfigError(
        f"model {cfg.model_id!r} has no built-in rate bundle; provide a \"rates\" object"
    )


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
    _write(path, (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode())


def _write_manifest(out_dir: Path, command: str, cfg: RunConfig, seed: int, outputs: list[str], extra: dict | None = None) -> None:
    doc = {
        "command": command,
        "config": cfg.raw,
        "seed": seed,
        "version": __version__,
        "algorithms": _ALGORITHMS,
        "outputs": sorted(outputs),
    }
    if extra:
        doc.update(extra)
    _write_json(out_dir / "manifest.json", doc)


def _require(cfg: RunConfig, command: str, *keys: str) -> None:
    for key in keys:
        if getattr(cfg, key) is None:
            raise ConfigError(f"command {command!r} requires config key {key!r}")


def cmd_simulate(cfg: RunConfig, out_dir: Path, seed: int, strict: bool, dump_noise: bool) -> int:
    _require(cfg, "simulate", "n_paths")
    if len(cfg.ladder) != 1:
        raise ConfigError("simulate expects a single-entry ladder")
    model = _build_model(cfg)
    xi = _build_segment(cfg, model.state_dim)
    grid = make_grid(cfg.tau, cfg.horizon, cfg.ladder[0])

    outputs: list[str] = []
    diverged: list[int] = []
    header = ["t"] + [f"x_{i + 1}" for i in range(model.state_dim)]
    for indices in analysis.path_blocks(cfg.n_paths):
        noise = generate(grid, model.noise_dim, seed, indices)
        paths = simulate(model, xi, grid, noise)
        for row, (index, finite) in enumerate(zip(indices, paths.finite)):
            if not finite:
                diverged.append(index)
                continue
            name = f"path_{index:04d}.csv"
            rows = [
                [float(t)] + [float(v) for v in state]
                for t, state in zip(grid.times, paths.values[:, row])
            ]
            _write_csv(out_dir / name, header, rows)
            outputs.append(name)
            if dump_noise:
                bin_name = f"noise_{index:04d}.bin"
                _write(out_dir / bin_name, noise.increments[row].astype("<f8").tobytes())
                outputs.append(bin_name)
    _write_manifest(out_dir, "simulate", cfg, seed, outputs, {"diverged_paths": diverged})
    print(f"simulate: wrote {cfg.n_paths - len(diverged)} paths to {out_dir} "
          f"({len(diverged)} diverged)")
    return 3 if (strict and diverged) else 0


def cmd_converge(cfg: RunConfig, out_dir: Path, seed: int, strict: bool) -> int:
    _require(cfg, "converge", "n_paths", "epsilon")
    model = _build_model(cfg)
    xi = _build_segment(cfg, model.state_dim)
    table = analysis.converge_study(
        model, xi, cfg.horizon, cfg.ladder, cfg.epsilon, cfg.n_paths, seed
    )
    columns = [
        "level_pair", "delta_coarse", "delta_fine", "epsilon", "n_paths",
        "exceed_count", "p_hat", "mean_sup_diff", "max_sup_diff", "diverged_count",
    ]
    _write_records(out_dir / "converge.csv", columns, table.rows)
    _write_manifest(out_dir, "converge", cfg, seed, ["converge.csv"])
    trend = analysis.exceedance_trend_ok(table)
    total_diverged = sum(r.diverged_count for r in table.rows)
    for r in table.rows:
        flag = " SUSPECT(>1% diverged)" if r.suspect else ""
        print(f"converge {r.level_pair}: p_hat={r.p_hat:.4f} "
              f"mean_sup={r.mean_sup_diff:.6g} diverged={r.diverged_count}{flag}")
    print(f"converge: exceedance trend {'non-increasing' if trend else 'INCREASING'}")
    return 3 if (strict and total_diverged) else 0


def cmd_moments(cfg: RunConfig, out_dir: Path, seed: int, strict: bool) -> int:
    _require(cfg, "moments", "n_paths")
    if len(cfg.ladder) != 1:
        raise ConfigError("moments expects a single-entry ladder")
    model = _build_model(cfg)
    xi = _build_segment(cfg, model.state_dim)
    report = analysis.estimate_moments(
        model, xi, cfg.horizon, cfg.ladder[0], cfg.n_paths, seed,
        radius=cfg.truncation_radius,
    )
    columns = [f.name for f in fields(analysis.MomentReport)]
    _write_records(out_dir / "moments.csv", columns, [report])
    _write_manifest(out_dir, "moments", cfg, seed, ["moments.csv"])
    print(f"moments: sup-of-mean-square {report.sup_mean_square:.6g} "
          f"(se {report.std_error:.3g}) at t={report.sup_time:g}, "
          f"{report.diverged_count} diverged")
    return 3 if (strict and report.diverged_count) else 0


def cmd_perturbation(cfg: RunConfig, out_dir: Path, seed: int, strict: bool) -> int:
    _require(cfg, "perturbation", "n_paths")
    model = _build_model(cfg)
    xi = _build_segment(cfg, model.state_dim)
    try:
        weight = _build_rate_bundle(cfg).local_rate
        weight_id = "local_rate"
    except ConfigError:
        weight = conditions.constant_rate(1.0)
        weight_id = "constant 1"
    table = analysis.perturbation_integrability(
        model, xi, cfg.horizon, cfg.ladder, cfg.n_paths, seed,
        radius=cfg.truncation_radius, weight=weight,
    )
    columns = [f.name for f in fields(analysis.PerturbationRow)]
    _write_records(out_dir / "perturbation.csv", columns, table.rows)
    _write_manifest(out_dir, "perturbation", cfg, seed, ["perturbation.csv"],
                    {"weight": weight_id})
    total_diverged = sum(r.diverged_count for r in table.rows)
    for r in table.rows:
        print(f"perturbation level {r.level} (delta={r.delta:g}): "
              f"E int |p| = {r.mean_abs_integral:.6g}, diverged={r.diverged_count}")
    return 3 if (strict and total_diverged) else 0


def cmd_check(cfg: RunConfig, out_dir: Path, seed: int, strict: bool) -> int:
    _require(cfg, "check", "samples")
    model = _build_model(cfg)
    spec = _build_rate_bundle(cfg)
    grid = make_grid(cfg.tau, cfg.horizon, cfg.ladder[0])

    reports = [
        conditions.check_contraction(
            model.neutral, spec.kappa, cfg.box_radius, cfg.samples, seed, dim=model.state_dim
        ),
        conditions.check_coercivity(model, spec, grid, cfg.samples, seed),
        conditions.check_monotonicity(model, spec, grid, cfg.samples, seed),
        conditions.check_integrability(model, grid, cfg.box_radius, cfg.samples, seed),
    ]
    estimates = {
        "kappa": conditions.estimate_contraction(
            model.neutral, cfg.box_radius, cfg.samples, seed, dim=model.state_dim
        )
    }
    estimates.update(
        {f"heuristic_{k}": v for k, v in conditions.propose_constant_rates(
            model, grid, cfg.box_radius, cfg.samples, seed
        ).items()}
    )
    doc = {
        "reports": [
            {
                "condition": r.condition_id,
                "samples": r.samples_tested,
                "verdict": r.verdict,
                "violations": [
                    {"inputs": v.inputs, "lhs": v.lhs, "rhs": v.rhs} for v in r.violations
                ],
                **({"estimate": r.estimate} if r.estimate is not None else {}),
            }
            for r in reports
        ],
        "estimates": estimates,
    }
    _write_json(out_dir / "check.json", doc)
    _write_manifest(out_dir, "check", cfg, seed, ["check.json"])
    failed = [r.condition_id for r in reports if r.verdict != "pass"]
    for r in reports:
        print(f"check {r.condition_id}: {r.verdict} ({r.samples_tested} samples, "
              f"{len(r.violations)} violations)")
    return 1 if failed else 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "converge": cmd_converge,
    "moments": cmd_moments,
    "perturbation": cmd_perturbation,
    "check": cmd_check,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsdde-sim",
        description="Simulation and condition checking for neutral stochastic "
                    "delay differential equations",
    )
    parser.add_argument("command", choices=list(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to JSON run configuration")
    parser.add_argument("--output", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--strict", action="store_true",
                        help="exit with code 3 when any path diverges")
    parser.add_argument("--dump-noise", action="store_true",
                        help="(simulate) also write raw increments as little-endian float64")
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.dump_noise and args.command != "simulate":
        parser.error("--dump-noise applies to simulate only")
    try:
        cfg = load_config(args.config)
        seed = cfg.seed if args.seed is None else args.seed
        if seed < 0:
            raise ConfigError("seed must be non-negative")
        out_dir = Path(args.output if args.output is not None else cfg.output_dir)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file in the way, or no permission
            raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir, seed, args.strict, args.dump_noise)
        return _COMMANDS[args.command](cfg, out_dir, seed, args.strict)
    except NsddeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
