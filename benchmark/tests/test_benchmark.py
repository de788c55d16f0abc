"""Tests of the benchmark itself: span bookkeeping, the output gate and the
agreement between ``BENCHMARK.json`` and ``run.py``.

Run from the repository root with ``python3 -m pytest benchmark/tests``.
The traced-workload test runs every workload twice (about 10 s).
"""

import json
import shutil
import sys
import tempfile
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import COEFF, Tracer  # noqa: E402


@pytest.fixture
def work_dir():
    (run.ROOT / ".bench_run").mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=run.ROOT / ".bench_run"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_nested_spans_are_not_double_counted():
    tracer = Tracer()
    leaf = tracer.wrap_coeff(lambda x: x + 1)
    inner = tracer.wrap("brownian.coarsen", lambda x: leaf(x))
    outer = tracer.wrap("euler.refine_to", lambda x: inner(x) + leaf(x))
    root = tracer.wrap("cli.main", lambda x: outer(x))
    assert root(1) == 4
    rep = tracer.report()
    assert all(v >= 0 for v in rep["self_ns"].values())
    # self times partition the root span exactly (integer nanoseconds)
    assert sum(rep["self_ns"].values()) == rep["total_ns"]["cli.main"]
    assert rep["total_ns"]["euler.refine_to"] > rep["total_ns"]["brownian.coarsen"]
    assert rep["calls"] == {"cli.main": 1, "euler.refine_to": 1, "brownian.coarsen": 1, COEFF: 2}
    assert rep["counts"] == {"brownian.coarsen.coeff_calls": 1, "euler.refine_to.coeff_calls": 1}


def test_missing_names_are_recorded_as_absent():
    modules = {name: types.SimpleNamespace() for name in ("analysis", "cli", "conditions", "euler")}
    modules["analysis"].simulate = lambda *a: None
    tracer = Tracer()
    tracer.install(modules)
    rep = tracer.report()
    assert "analysis.refine_to" in rep["absent"] and COEFF in rep["absent"]
    assert "analysis.simulate" not in rep["absent"]
    modules["analysis"].simulate()  # the counter cannot read a grid: recorded, no crash
    assert tracer.report()["failed_counters"] == ["euler.simulate"]


def test_traced_runs_repeat_and_skip_unused_layers(work_dir):
    pinned = json.loads(run.DIGESTS.read_text())
    for name, workload in run.WORKLOADS.items():
        its = []
        for i in range(2):
            (work_dir / f"{name}{i}").mkdir()
            its.append(run.run_iteration(
                workload, run.DEFAULT_SEED, work_dir / f"{name}{i}", traced=True))
        assert all(it.ok for it in its), [it.reason for it in its]
        reports = [it.result["trace"] for it in its]
        for rep in reports:
            assert min(rep["self_ns"].values()) >= 0
            assert rep["absent"] == [] and rep["failed_counters"] == []
        first, second = ({k: rep[k] for k in ("calls", "counts")} for rep in reports)
        assert first == second
        assert its[0].digests == its[1].digests == pinned[name]  # tracing changes no output
        metrics = run.layer_metrics(its[0])
        if name != "ladder":
            assert metrics["euler.refine_to.calls"] == 0
        if name == "check":
            assert metrics["euler.simulate.calls"] == 0
            assert metrics["brownian.generate.calls"] == 0
            assert metrics["conditions.check_integrability.samples"] > 0
        else:
            assert metrics["euler.simulate.path_steps"] == workload.path_steps


def test_output_gate_rejects_non_finite_values(work_dir):
    workload = run.WORKLOADS["moments"]
    (work_dir / "manifest.json").write_text(json.dumps({"outputs": ["moments.csv"], "seed": 3}))
    (work_dir / "moments.csv").write_text("delta,sup_mean_square\n0.025,1.5\n")
    assert run.check_outputs(workload, work_dir, 3) == workload.path_steps
    (work_dir / "moments.csv").write_text("delta,sup_mean_square\n0.025,nan\n")
    with pytest.raises(run.OutputError):
        run.check_outputs(workload, work_dir, 3)
    with pytest.raises(run.OutputError):
        run.check_outputs(workload, work_dir, 4)


def test_benchmark_json_matches_run_py():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert max(bounds.values()) <= 0.25 and bounds["setup_s"] == max(bounds.values())
    assert set(json.loads(run.DIGESTS.read_text())) == set(run.WORKLOADS)
