"""Span tracer that times calls into the nsdde_sim layers from outside the package.

The tracer replaces public module attributes (``analysis.simulate``,
``conditions.check_integrability``, ...) with wrappers that push a frame on
one span stack, so a layer's self time is its span minus the spans nested
inside it: ``coarsen`` called from ``refine_to`` is charged to
``brownian.coarsen``, not twice.  Model coefficients (``neutral``, ``drift``,
``diffusion``) are wrapped on the model object that ``cli.builtin_model``
returns; each coefficient call is also counted against the enclosing span.

Times are integer nanoseconds from ``time.perf_counter_ns`` so that a
parent's self time can never come out negative from rounding.  A name that
a refactor removed is recorded in ``absent`` and the rest keeps working.
"""

from __future__ import annotations

import dataclasses
import inspect
import time
from collections import defaultdict

COEFF = "model.coeff"
COEFF_FIELDS = ("neutral", "drift", "diffusion")

# (module, attribute, span name) for every public call site the tracer wraps.
TARGETS = [
    ("analysis", "generate", "brownian.generate"),
    ("analysis", "coarsen", "brownian.coarsen"),
    ("analysis", "simulate", "euler.simulate"),
    ("analysis", "refine_to", "euler.refine_to"),
    ("analysis", "converge_study", "analysis.converge_study"),
    ("analysis", "estimate_moments", "analysis.estimate_moments"),
    ("euler", "coarsen", "brownian.coarsen"),
    ("cli", "generate", "brownian.generate"),
    ("cli", "simulate", "euler.simulate"),
    ("cli", "load_config", "cli.load_config"),
    ("conditions", "check_contraction", "conditions.check_contraction"),
    ("conditions", "check_coercivity", "conditions.check_coercivity"),
    ("conditions", "check_monotonicity", "conditions.check_monotonicity"),
    ("conditions", "check_integrability", "conditions.check_integrability"),
    ("conditions", "estimate_contraction", "conditions.estimate_contraction"),
    ("conditions", "propose_constant_rates", "conditions.propose_constant_rates"),
]


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_path_steps(args, kwargs, result):
    """simulate(model, xi, grid, noise): one path-step per grid step."""
    return {"path_steps": _arg(args, kwargs, 2, "grid").total_steps}


def _count_nodes(args, kwargs, result):
    """refine_to(path, model, xi, fine_grid, fine_noise): interpolated nodes."""
    coarse = _arg(args, kwargs, 0, "path").grid
    return {"nodes": _arg(args, kwargs, 3, "fine_grid").total_steps - coarse.total_steps}


def _count_diverged(args, kwargs, result):
    if hasattr(result, "rows"):
        return {"diverged": sum(r.diverged_count for r in result.rows)}
    return {"diverged": result.diverged_count}


COUNTERS = {
    "euler.simulate": _count_path_steps,
    "euler.refine_to": _count_nodes,
    "analysis.converge_study": _count_diverged,
    "analysis.estimate_moments": _count_diverged,
}


class Tracer:
    """Collects span totals, self times, call counts and work counts."""

    def __init__(self):
        self.stack: list[list] = []
        self._coeff = [0, 0]  # model.coeff time and calls
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: set[str] = set()
        self.failed_counters: set[str] = set()

    def wrap(self, name, fn, counter=None):
        """Return ``fn`` wrapped in a span called ``name``."""
        stack, clock = self.stack, time.perf_counter_ns
        total, own, calls, counts = self.total_ns, self.self_ns, self.calls, self.counts

        def traced(*args, **kwargs):
            frame = [name, 0, 0, 0]  # name, start, time in children, coefficient calls
            stack.append(frame)
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[1]
                stack.pop()
                total[name] += elapsed
                own[name] += elapsed - frame[2]
                calls[name] += 1
                if frame[3]:
                    counts[name + ".coeff_calls"] += frame[3]
                if stack:
                    stack[-1][2] += elapsed
            if counter is not None:
                self._count(name, counter, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_coeff(self, fn):
        """Return coefficient ``fn`` wrapped as a leaf span of ``model.coeff``.

        Coefficients call nothing traced, so the leaf pushes no frame: it
        charges its time and one call to the enclosing frame directly, which
        keeps the per-call cost low on the hottest path.
        """
        stack, clock, acc = self.stack, time.perf_counter_ns, self._coeff

        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                acc[0] += elapsed
                acc[1] += 1
                if stack:
                    frame = stack[-1]
                    frame[2] += elapsed
                    frame[3] += 1

        traced.__wrapped__ = fn
        return traced

    def _count(self, name, counter, args, kwargs, result):
        try:
            found = counter(args, kwargs, result)
        except (AttributeError, IndexError, KeyError, TypeError):
            self.failed_counters.add(name)
            return
        for key, value in found.items():
            self.counts[f"{name}.{key}"] += int(value)

    def report(self) -> dict:
        """Plain-data summary, for passing to the parent process as JSON."""
        coeff_ns, coeff_calls = self._coeff
        return {
            "total_ns": {**self.total_ns, COEFF: coeff_ns},
            "self_ns": {**self.self_ns, COEFF: coeff_ns},
            "calls": {**self.calls, COEFF: coeff_calls},
            "counts": dict(self.counts),
            "absent": sorted(self.absent),
            "failed_counters": sorted(self.failed_counters),
        }

    def wrap_model(self, model):
        """Copy of ``model`` whose coefficient callables are traced spans."""
        try:
            fields = {f: self.wrap_coeff(getattr(model, f)) for f in COEFF_FIELDS}
            return dataclasses.replace(model, **fields)
        except (AttributeError, TypeError):
            self.absent.add(COEFF)
            return model

    def install(self, modules: dict) -> None:
        """Replace every target attribute present in ``modules`` by its span.

        ``modules`` maps the short module names used in :data:`TARGETS`
        (``analysis``, ``euler``, ``cli``, ``conditions``) to the imported
        modules.  Missing attributes are recorded in ``absent``.
        """
        for module_name, attr, span in TARGETS:
            module = modules[module_name]
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.add(f"{module_name}.{attr}")
                continue
            counter = COUNTERS.get(span)
            if span.startswith("conditions."):
                counter = _samples_counter(fn)
            setattr(module, attr, self.wrap(span, fn, counter))

        cli = modules["cli"]
        build_model = getattr(cli, "builtin_model", None)
        if build_model is None:
            self.absent.add("cli.builtin_model")
            self.absent.add(COEFF)
        else:
            cli.builtin_model = lambda *a, **k: self.wrap_model(build_model(*a, **k))


def _samples_counter(fn):
    """Counter for a checker: ``samples_tested`` of the returned report, or
    the ``samples`` argument for the estimators that return no report."""
    try:
        params = list(inspect.signature(fn).parameters)
        index = params.index("samples")
    except (TypeError, ValueError):
        index = None

    def counter(args, kwargs, result):
        if hasattr(result, "samples_tested"):
            return {"samples": result.samples_tested}
        if "samples" in kwargs:
            return {"samples": kwargs["samples"]}
        return {"samples": args[index]}

    return counter
