"""Benchmark of the nsdde-sim command line, end to end and per layer.

Usage, from the root of a source checkout::

    python3 benchmark/run.py --workload ladder [--seed N] [--seconds S] [--trace 0|1]
    python3 benchmark/run.py --pin      # re-pin the default-seed output digests

Each iteration is a fresh single-threaded child process (``child.py``) that
imports ``nsdde_sim`` from ``src/`` and calls ``nsdde_sim.cli.main`` on a
config generated from ``--seed``.  Iterations run one at a time for about
``--seconds``; every iteration's outputs are checked.  With ``--trace 0``
the last stdout line reports the end-to-end metrics (the fastest
iteration's wall time, medians of set-up time and memory), with
``--trace 1`` the per-layer metrics from traced iterations interleaved with
untraced ones.  See ``benchmark/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from functools import partial
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 20260815
CHILD_TIMEOUT_S = 60
MIN_UNTRACED = 3  # iterations per untraced run, at least
MIN_TRACED = 2  # traced iterations per traced run, at least (counts must repeat)

BASE_CONFIG = {
    "model": {"id": "sec4", "params": {"k": 0.5, "c1": -1.0, "c2": -1.0}},
    "tau": 1.0,
    "horizon": 2.0,
    "xi": {"kind": "constant", "value": 1.0},
}


@dataclass(frozen=True)
class Workload:
    command: str
    config: dict

    @property
    def outputs(self) -> set[str]:
        """Files the command must write besides ``manifest.json``."""
        if self.command == "simulate":
            return {f"path_{i:04d}.csv" for i in range(self.config["n_paths"])}
        if self.command == "check":
            return {"check.json"}
        return {f"{self.command}.csv"}

    @property
    def path_steps(self) -> int:
        """n_paths times the sum of every ladder level's total steps."""
        steps = sum(round(BASE_CONFIG["horizon"] / d) for d in self.config["ladder"])
        return self.config.get("n_paths", 0) * steps


# Ladders, steps and shapes are those of configs/*.json; path and sample
# counts are cut so that one iteration takes about 0.25 s.  Wall time is the
# fastest iteration of a run, and on a shared machine the minimum over many
# short iterations is far steadier than over a few long ones (README.md).
# BENCHMARK.json gates on ladder and check, which together run every layer;
# moments and paths_out are run by hand.
WORKLOADS = {
    "ladder": Workload(
        "converge", {"ladder": [0.1, 0.05, 0.025, 0.0125], "epsilon": 0.1, "n_paths": 32}
    ),
    "moments": Workload("moments", {"ladder": [0.025], "n_paths": 200}),
    "check": Workload("check", {"ladder": [0.1], "samples": 500, "box_radius": 2.0}),
    "paths_out": Workload("simulate", {"ladder": [0.0125], "n_paths": 64}),
}

CHECKERS = (
    "check_contraction",
    "check_coercivity",
    "check_monotonicity",
    "check_integrability",
    "estimate_contraction",
    "propose_constant_rates",
)

END_TO_END = {
    "setup_s": "s",
    "wall_best_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "brownian.generate.calls": "count",
    "brownian.generate.s": "s",
    "brownian.coarsen.calls": "count",
    "brownian.coarsen.s": "s",
    "euler.simulate.calls": "count",
    "euler.simulate.path_steps": "count",
    "euler.simulate.self_s": "s",
    "euler.simulate.us_per_path_step": "us",
    "euler.refine_to.calls": "count",
    "euler.refine_to.nodes": "count",
    "euler.refine_to.self_s": "s",
    "euler.refine_to.us_per_node": "us",
    "model.coeff.calls": "count",
    "model.coeff.s": "s",
    "analysis.converge_study.self_s": "s",
    "analysis.estimate_moments.self_s": "s",
    "analysis.diverged": "count",
    **{
        f"conditions.{fn}.{key}": unit
        for fn in CHECKERS
        for key, unit in (("s", "s"), ("samples", "count"), ("coeff_calls", "count"))
    },
    "cli.load_config.s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "count",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


class OutputError(Exception):
    """An iteration's exit code or outputs are wrong."""


# ---------------------------------------------------------------------------
# output checks


def _digests(out_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
    }


def _check_csv(path: Path, rows: int | None) -> None:
    lines = path.read_text().split("\n")
    if lines[-1] != "":
        raise OutputError(f"{path.name}: missing final newline")
    header, *body = [line.split(",") for line in lines[:-1]]
    if rows is not None and len(body) != rows:
        raise OutputError(f"{path.name}: {len(body)} rows, expected {rows}")
    for row in body:
        if len(row) != len(header):
            raise OutputError(f"{path.name}: ragged row {row}")
        for name, text in zip(header, row):
            if name == "level_pair":
                continue
            if not math.isfinite(float(text)):
                raise OutputError(f"{path.name}: non-finite {name}={text}")
            if name == "diverged_count" and text != "0":
                raise OutputError(f"{path.name}: {text} paths diverged")


def _check_report(path: Path) -> int:
    """Validate check.json; return the summed sample count of its reports."""
    doc = json.loads(path.read_text())
    reports = doc["reports"]
    if sorted(r["condition"] for r in reports) != ["C2", "C3", "C4", "H"]:
        raise OutputError("check.json: expected one report per condition C2, C3, C4, H")
    for r in reports:
        if r["verdict"] != "pass" or r["violations"]:
            raise OutputError(f"check.json: condition {r['condition']} did not pass")
    values = [v for v in doc["estimates"].values()] + [
        r["estimate"] for r in reports if "estimate" in r
    ]
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
        raise OutputError("check.json: non-finite estimate")
    return sum(r["samples"] for r in reports)


def check_outputs(workload: Workload, out_dir: Path, seed: int) -> int:
    """Check the files of one iteration; return its work count.

    Work is path-steps for the path workloads and the summed samples of the
    condition reports for ``check``.
    """
    expected = workload.outputs
    found = {p.name for p in out_dir.iterdir()}
    if found != expected | {"manifest.json"}:
        raise OutputError(f"output files differ: missing {sorted(expected - found)[:3]}, "
                          f"unexpected {sorted(found - expected - {'manifest.json'})[:3]}")
    manifest = json.loads((out_dir / "manifest.json").read_text())
    if manifest["outputs"] != sorted(expected) or manifest["seed"] != seed:
        raise OutputError("manifest.json: wrong outputs list or seed")
    if workload.command == "check":
        return _check_report(out_dir / "check.json")
    if workload.command == "simulate":
        if manifest["diverged_paths"]:
            raise OutputError(f"paths diverged: {manifest['diverged_paths'][:5]}")
        rows = round((BASE_CONFIG["tau"] + BASE_CONFIG["horizon"]) / workload.config["ladder"][0]) + 1
    else:
        rows = len(workload.config["ladder"]) - 1 if workload.command == "converge" else 1
    for name in sorted(expected):
        _check_csv(out_dir / name, rows)
    return workload.path_steps


# ---------------------------------------------------------------------------
# running iterations


@dataclass
class Iteration:
    traced: bool
    ok: bool = False
    reason: str = ""
    result: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    work: int = 0
    bytes_written: int = 0
    seconds: float = 0.0


def child_env() -> dict:
    """Environment for a child: single-threaded numeric libraries, no
    nsdde-sim thread setting, no inherited module search path."""
    env = {k: v for k, v in os.environ.items() if k not in ("NSDDE_SIM_THREADS", "PYTHONPATH")}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def write_config(workload: Workload, seed: int, path: Path) -> None:
    doc = {**BASE_CONFIG, **workload.config, "seed": seed}
    path.write_text(json.dumps(doc, indent=2) + "\n")


def run_iteration(
    workload: Workload, seed: int, work_dir: Path, traced: bool, cpu: int | None = None
) -> Iteration:
    """Run one fresh child process, pinned to ``cpu`` if given, and check its outputs."""
    it = Iteration(traced)
    config, out_dir, result_path = (
        work_dir / "config.json", work_dir / "out", work_dir / "result.json"
    )
    if not config.exists():
        write_config(workload, seed, config)
    shutil.rmtree(out_dir, ignore_errors=True)
    result_path.unlink(missing_ok=True)
    started = time.monotonic()
    argv = [
        sys.executable, str(HERE / "child.py"), str(ROOT), str(result_path),
        repr(started), "1" if traced else "0", "--",
        workload.command, "--config", str(config), "--output", str(out_dir),
    ]
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
            preexec_fn=None if cpu is None else partial(os.sched_setaffinity, 0, {cpu}),
        )
    except subprocess.TimeoutExpired:
        it.reason = f"child exceeded {CHILD_TIMEOUT_S} s"
        return it
    finally:
        it.seconds = time.monotonic() - started
    if proc.returncode != 0 or not result_path.exists():
        it.reason = f"child exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
        return it
    it.result = json.loads(result_path.read_text())
    if it.result["rc"] != 0:
        it.reason = f"nsdde-sim {workload.command} exited {it.result['rc']}"
        return it
    if not it.result["module"].startswith(str(ROOT / "src")):
        it.reason = f"nsdde_sim imported from {it.result['module']}, not from src/"
        return it
    try:
        it.work = check_outputs(workload, out_dir, seed)
    except (OutputError, OSError, ValueError, KeyError, TypeError) as exc:
        it.reason = f"{type(exc).__name__}: {exc}"
        return it
    it.digests = _digests(out_dir)
    it.bytes_written = sum(p.stat().st_size for p in out_dir.iterdir())
    it.ok = True
    return it


def _check_digests(its: list[Iteration], reference: dict | None) -> None:
    """Compare every iteration's output digests with ``reference``, or, when
    there is none, with the first good iteration (runs must be identical)."""
    for it in its:
        if not it.ok:
            continue
        if reference is None:
            reference = it.digests
        elif it.digests != reference:
            bad = sorted(k for k in reference.keys() | it.digests.keys()
                         if reference.get(k) != it.digests.get(k))
            it.ok, it.reason = False, f"output digests differ in {bad[:3]}"


def pinned_digests(name: str, seed: int) -> dict | None:
    """The pinned digests for ``name`` at the default seed, else None."""
    if seed != DEFAULT_SEED:
        return None
    pinned = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    if name not in pinned:
        raise SystemExit(f"error: no pinned digests for workload {name!r}; run --pin")
    return pinned[name]


def run_loop(workload: Workload, seed: int, seconds: float, work_dir: Path, trace: bool) -> list[Iteration]:
    """Iterate until the next iteration would overrun ``seconds``.

    An untraced run repeats untraced iterations; a traced run alternates
    untraced and traced ones, so the tracing overhead is measured under the
    same machine conditions.  Iterations of each kind take the CPUs in
    turn: on a shared machine one CPU is often slowed by a neighbour for
    seconds at a time while the other is not (README.md, Noise).
    """
    cpus = sorted(os.sched_getaffinity(0))
    its: list[Iteration] = []
    start = time.monotonic()
    while True:
        traced = trace and len(its) % 2 == 1
        cpu = cpus[sum(it.traced == traced for it in its) % len(cpus)]
        its.append(run_iteration(workload, seed, work_dir, traced, cpu))
        done = sum(1 for it in its if it.traced == trace)
        enough = done >= (MIN_TRACED if trace else MIN_UNTRACED) and (not trace or len(its) % 2 == 0)
        typical = statistics.median(it.seconds for it in its)
        if enough and time.monotonic() - start + typical > seconds:
            return its


# ---------------------------------------------------------------------------
# metrics


def end_to_end_metrics(its: list[Iteration]) -> dict:
    """Metrics over every iteration that ran to completion; whether its
    outputs were right is reported separately.

    Wall time is the fastest iteration: the shared machine slows whole
    stretches of a run, and across runs the minimum of many short
    iterations is far steadier than the median (see README.md, Noise).
    Set-up and memory are medians.
    """
    timed = [it for it in its if it.result]
    wall = min(it.result["wall_s"] for it in timed)
    return {
        "setup_s": statistics.median(it.result["setup_s"] for it in timed),
        "wall_best_s": wall,
        "work_per_s": max(it.work for it in timed) / wall,
        "peak_rss_mb": statistics.median(it.result["maxrss_kb"] / 1024 for it in timed),
    }


def layer_metrics(it: Iteration) -> dict:
    """Per-layer metrics of one traced iteration (overhead added by the caller)."""
    rep = it.result["trace"]

    def total(name):
        return rep["total_ns"].get(name, 0) / 1e9

    def own(name):
        return rep["self_ns"].get(name, 0) / 1e9

    def calls(name):
        return rep["calls"].get(name, 0)

    def count(key):
        return rep["counts"].get(key, 0)

    steps = count("euler.simulate.path_steps")
    nodes = count("euler.refine_to.nodes")
    m = {}
    for layer in ("brownian.generate", "brownian.coarsen", "model.coeff"):
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.s"] = total(layer)
    m.update({
        "euler.simulate.calls": calls("euler.simulate"),
        "euler.simulate.path_steps": steps,
        "euler.simulate.self_s": own("euler.simulate"),
        "euler.simulate.us_per_path_step": 1e6 * total("euler.simulate") / steps if steps else 0.0,
        "euler.refine_to.calls": calls("euler.refine_to"),
        "euler.refine_to.nodes": nodes,
        "euler.refine_to.self_s": own("euler.refine_to"),
        "euler.refine_to.us_per_node": 1e6 * total("euler.refine_to") / nodes if nodes else 0.0,
        "analysis.converge_study.self_s": own("analysis.converge_study"),
        "analysis.estimate_moments.self_s": own("analysis.estimate_moments"),
        "analysis.diverged": count("analysis.converge_study.diverged")
        + count("analysis.estimate_moments.diverged"),
        "cli.load_config.s": total("cli.load_config"),
        "cli.self_s": own("cli.main"),
        "cli.bytes_written": it.bytes_written,
        "trace.unattributed_s": it.result["wall_s"] - sum(rep["self_ns"].values()) / 1e9,
    })
    for fn in CHECKERS:
        name = f"conditions.{fn}"
        m[f"{name}.s"] = total(name)
        m[f"{name}.samples"] = count(f"{name}.samples")
        m[f"{name}.coeff_calls"] = count(f"{name}.coeff_calls")
    return m


def per_layer_metrics(its: list[Iteration]) -> dict:
    """Counts from the first traced iteration (all must agree), times as
    medians over the traced iterations that ran to completion."""
    traced = [it for it in its if it.result and it.traced]
    per_it = [layer_metrics(it) for it in traced]
    counts = [name for name, unit in PER_LAYER.items() if unit == "count"]
    reference = {name: per_it[0][name] for name in counts}
    for it, m in zip(traced[1:], per_it[1:]):
        if {name: m[name] for name in counts} != reference:
            it.ok, it.reason = False, "traced counts differ between iterations"
    untraced_wall = statistics.median(it.result["wall_s"] for it in its if it.result and not it.traced)
    traced_wall = statistics.median(it.result["wall_s"] for it in traced)
    out = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_s":
            out[name] = traced_wall - untraced_wall
        elif unit == "count":
            out[name] = reference[name]
        else:
            out[name] = statistics.median(m[name] for m in per_it)
    return out


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nsdde_sim").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "seed": seed,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


# ---------------------------------------------------------------------------
# entry points


def _preflight() -> None:
    """Fail fast when the checkout has no importable nsdde_sim under src/."""
    if not (ROOT / "src" / "nsdde_sim" / "cli.py").is_file():
        raise SystemExit(f"error: no nsdde_sim sources under {ROOT / 'src'}")
    probe = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import nsdde_sim.cli"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if probe.returncode != 0:
        raise SystemExit(f"error: cannot import nsdde_sim.cli: {probe.stderr.strip()[-300:]}")


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def bench(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    reference = pinned_digests(name, seed)
    (ROOT / ".bench_run").mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=ROOT / ".bench_run"))
    try:
        its = run_loop(workload, seed, seconds, work_dir, trace)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    _check_digests(its, reference)
    if not all(any(it.result and it.traced == kind for it in its) for kind in {trace, False}):
        for it in its:
            print(f"failed iteration: {it.reason}", file=sys.stderr)
        raise SystemExit(f"error: no iteration of {name!r} ran to completion")
    metrics = per_layer_metrics(its) if trace else end_to_end_metrics(its)
    units = PER_LAYER if trace else END_TO_END
    failed = [it for it in its if not it.ok]
    for it in failed:
        print(f"failed iteration ({'traced' if it.traced else 'untraced'}): {it.reason}")

    timed = [it for it in its if it.result]
    print(f"workload {name}: nsdde-sim {workload.command}, seed {seed}, "
          f"{len(its)} iterations ({sum(it.traced for it in its)} traced)")
    if not trace:
        walls = [it.result["wall_s"] for it in timed]
        work_name = "samples_per_s" if workload.command == "check" else "path_steps_per_s"
        print(f"  wall_s samples: {' '.join(f'{w:.3f}' for w in walls)} "
              f"(median {statistics.median(walls):.4g} s)")
        print(f"  {work_name} = {metrics['work_per_s']:.6g} "
              f"(work {max(it.work for it in timed)} per iteration)")
    else:
        rep = next(it for it in timed if it.traced).result["trace"]
        print(f"  absent names: {rep['absent']}, failed counters: {rep['failed_counters']}")
    print(f"  fail_ratio = {len(failed)}/{len(its)}")
    for key, value in metrics.items():
        print(f"  {key} = {_fmt(value)} {units[key]}")
    print("environment " + json.dumps(environment(seed), sort_keys=True))
    return {
        "correct": not failed,
        "attempted": len(its),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def pin() -> None:
    """Run every workload once at the default seed and pin its output digests."""
    pinned = {}
    (ROOT / ".bench_run").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_run") as tmp:
        for name, workload in WORKLOADS.items():
            work_dir = Path(tmp) / name
            work_dir.mkdir()
            it = run_iteration(workload, DEFAULT_SEED, work_dir, traced=False)
            if not it.ok:
                raise SystemExit(f"error: {name}: {it.reason}")
            pinned[name] = it.digests
            print(f"pinned {name}: {len(it.digests)} files")
    DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="write the default-seed output digests to digests.json")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    _preflight()
    if args.pin:
        pin()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    print(json.dumps(bench(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
