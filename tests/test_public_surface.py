"""The public surface: exported names and the call sites the benchmark tracer wraps."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import nsdde_sim
from nsdde_sim import cli

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def _tracer_targets() -> list:
    spec = importlib.util.spec_from_file_location("nsdde_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


# Tracer rows whose names the engine no longer has: simulate coarsens its
# own noise and samples on its finest level, so the ladder calls neither
# coarsen nor refine_to; every condition check is reached only through
# conditions.check_conditions.  The tracer records such a row as ``absent``.
RETIRED = {("analysis", "coarsen"), ("analysis", "refine_to"),
           ("conditions", "check_contraction"), ("conditions", "check_coercivity"),
           ("conditions", "check_monotonicity"), ("conditions", "check_integrability"),
           ("conditions", "estimate_contraction"), ("conditions", "propose_constant_rates")}


def _resolve(module, attr):
    return getattr(importlib.import_module(f"nsdde_sim.{module}"), attr, None)


@pytest.mark.parametrize("module, attr, span", _tracer_targets())
def test_traced_call_site_resolves(module, attr, span):
    # the tracer swaps ``module.attr`` for a timed wrapper charged to ``span``;
    # a name that a refactor drops would silently leave that layer untimed
    fn = _resolve(module, attr)
    if (module, attr) in RETIRED:
        assert fn is None
        return
    assert callable(fn)
    home, name = span.split(".")
    assert fn is _resolve(home, name)


def test_only_retired_call_sites_are_absent():
    absent = {(module, attr) for module, attr, _ in _tracer_targets()
              if _resolve(module, attr) is None}
    assert absent == RETIRED


def test_traced_model_factory_resolves():
    # coefficient calls are counted on the models that cli.builtin_model returns
    assert cli.builtin_model is nsdde_sim.builtin_model


def test_every_exported_name_exists():
    assert [name for name in nsdde_sim.__all__ if not hasattr(nsdde_sim, name)] == []
    assert len(set(nsdde_sim.__all__)) == len(nsdde_sim.__all__)


def test_every_exported_name_is_read_inside_the_package():
    # an export that only tests read goes
    package = Path(nsdde_sim.__file__).parent
    read = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
    assert {name for name in nsdde_sim.__all__ if name not in read} == set()
