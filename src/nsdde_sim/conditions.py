"""Sampling-based verification of the standing conditions on model coefficients.

Four checkable conditions are covered, identified in reports by the ids
used throughout configs and CLI output:

* ``C4`` — the neutral map is a contraction: D(0) = 0 and
  |D(x) - D(y)| <= kappa |x - y| with kappa in (0, 1);
* ``C2`` — coercivity: 2<x - D(y), b> + |sigma|^2 is dominated by
  K1(t)(1 + |x|^2) + K1~(t - tau)(1 + |y|^2), with the delay-comparison
  inequalities K1(t) <= C1 * K1(t - tau) and K1 >= K1~;
* ``C3`` — local monotonicity of coefficient differences on a box, with
  rates KR, KR~ and delay factor CR;
* ``H`` — finiteness of the integral of sup over the box of |b| + |sigma|^2.

Checks are necessarily one-sided: sampling can refute an inequality but
never prove it (and continuity, condition C1, cannot be falsified by any
finite sample, so no checker for it exists).  A report passes when no
sampled violation was found.  Deterministic probes (box corners, axis
points, the origin, coincident pairs) are injected alongside the random
samples so that known failure modes are hit with certainty.  All checkers
are deterministic given their seed, and violations are sorted by severity
before the list is capped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateSampling, InvalidRange
from .model import DelayGrid, NsddeModel

# Absolute slack on (rhs - lhs): an inequality counts as violated only when
# lhs exceeds rhs by more than this, so exact-equality cases pass.
SLACK = 1e-9

# At most this many violations are kept per report (after severity sorting).
MAX_VIOLATIONS = 100


@dataclass(frozen=True)
class Violation:
    """One sampled point where an inequality failed, with both sides."""

    inputs: dict
    lhs: float
    rhs: float


@dataclass(frozen=True)
class ConditionReport:
    condition_id: str
    samples_tested: int
    violations: tuple
    verdict: str
    # Quadrature value for the integrability check; None for the others.
    estimate: float | None = None


@dataclass(frozen=True)
class ConditionSpec:
    """Rate bundle a model claims to satisfy the conditions with.

    The four rate functions must be finite and non-negative on
    [-tau, horizon].  ``growth_delay_factor`` and ``local_delay_factor``
    are the admissible ratios C1(tau) and CR(tau) in the delay-comparison
    inequalities; their maximum may not exceed 1/kappa.
    """

    kappa: float
    growth_rate: Callable[[float], float]
    growth_rate_delayed: Callable[[float], float]
    local_rate: Callable[[float], float]
    local_rate_delayed: Callable[[float], float]
    growth_delay_factor: float
    local_delay_factor: float
    box_radius: float = 2.0

    def __post_init__(self):
        if not 0.0 < self.kappa < 1.0:
            raise InvalidRange(f"kappa must lie in (0, 1), got {self.kappa}")
        if max(self.growth_delay_factor, self.local_delay_factor) > 1.0 / self.kappa:
            raise InvalidRange(
                "delay factors exceed 1/kappa "
                f"(max {max(self.growth_delay_factor, self.local_delay_factor)} "
                f"> {1.0 / self.kappa})"
            )
        if self.box_radius <= 0.0:
            raise InvalidRange("box_radius must be positive")


def constant_rate(value: float) -> Callable[[float], float]:
    """Rate function that is constant in time."""
    if value < 0.0:
        raise InvalidRange(f"rate constants must be non-negative, got {value}")
    return lambda t: value


def _finish(
    condition_id: str,
    tested: int,
    requested: int,
    violations: list,
    estimate: float | None = None,
) -> ConditionReport:
    violations.sort(key=lambda v: (-(v.lhs - v.rhs), repr(sorted(v.inputs.items()))))
    kept = tuple(violations[:MAX_VIOLATIONS])
    if kept:
        verdict = "fail"
    elif tested >= requested:
        verdict = "pass"
    else:
        verdict = "inconclusive"
    return ConditionReport(condition_id, tested, kept, verdict, estimate)


def _record(violations, inputs, lhs, rhs):
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        violations.append(Violation(inputs, float(lhs), float(rhs)))
    elif lhs > rhs + SLACK:
        violations.append(Violation(inputs, float(lhs), float(rhs)))


def _point_probes(box: float, dim: int) -> list[np.ndarray]:
    pts = [np.zeros(dim), np.full(dim, box), np.full(dim, -box)]
    e1 = np.zeros(dim)
    e1[0] = box
    pts.append(e1)
    pts.append(-e1)
    return pts


def _pair_probes(box: float, dim: int) -> list[tuple[np.ndarray, np.ndarray]]:
    pts = _point_probes(box, dim)
    pairs = [(pts[3], pts[0])]  # (box * e1, 0): guarantees a separated pair
    pairs += [(p, p.copy()) for p in pts]  # coincident pairs
    pairs += [(pts[1], pts[2]), (pts[0], pts[1])]
    return pairs


def check_contraction(
    neutral, kappa: float, box: float, samples: int, seed: int, dim: int = 1
) -> ConditionReport:
    """Check D(0) = 0 and |D(x) - D(y)| <= kappa |x - y| on the box (id C4)."""
    if not 0.0 < kappa < 1.0:
        raise InvalidRange(f"kappa must lie in (0, 1), got {kappa}")
    if box <= 0.0 or samples < 1:
        raise InvalidRange("need a positive box and at least one sample")
    rng = np.random.default_rng(seed)
    violations: list[Violation] = []

    origin = np.asarray(neutral(np.zeros(dim)), dtype=float).reshape(dim)
    _record(violations, {"check": "zero-at-origin"}, float(np.linalg.norm(origin)), 0.0)

    pairs = _pair_probes(box, dim)
    draws = rng.uniform(-box, box, size=(samples, 2, dim))
    tested = 0
    for x, y in pairs + [(d[0], d[1]) for d in draws]:
        dx = np.asarray(neutral(x), dtype=float).reshape(dim)
        dy = np.asarray(neutral(y), dtype=float).reshape(dim)
        lhs = float(np.linalg.norm(dx - dy))
        rhs = kappa * float(np.linalg.norm(x - y))
        _record(violations, {"x": x.tolist(), "y": y.tolist()}, lhs, rhs)
        tested += 1
    return _finish("C4", tested, samples, violations)


def estimate_contraction(
    neutral, box: float, samples: int, seed: int, dim: int = 1
) -> float:
    """Empirical Lipschitz constant of the neutral map over sampled pairs.

    Pairs closer than 1e-9 are skipped; raises :class:`DegenerateSampling`
    if nothing remains.  Probes at tiny separations are included so smooth
    maps report a value close to their true modulus.
    """
    if box <= 0.0 or samples < 1:
        raise InvalidRange("need a positive box and at least one sample")
    rng = np.random.default_rng(seed)
    h = 1e-4 * box
    probes = []
    for c in (0.0, 0.5 * box, -0.5 * box, box - 2 * h, -box + 2 * h):
        centre = np.full(dim, c)
        probes.append((centre - h, centre + h))
    probes += [(np.zeros(dim), np.full(dim, box))]
    draws = rng.uniform(-box, box, size=(samples, 2, dim))

    best = None
    for x, y in probes + [(d[0], d[1]) for d in draws]:
        gap = float(np.linalg.norm(x - y))
        if gap < 1e-9:
            continue
        dx = np.asarray(neutral(x), dtype=float).reshape(dim)
        dy = np.asarray(neutral(y), dtype=float).reshape(dim)
        ratio = float(np.linalg.norm(dx - dy)) / gap
        if best is None or ratio > best:
            best = ratio
    if best is None:
        raise DegenerateSampling("all sampled pairs were closer than 1e-9")
    return best


def _coefficients(model: NsddeModel, x, y, t: float):
    """The coefficient kernel shared by the checkers: (D(y), b(x, y, t), sigma(x, y, t))."""
    dim = model.state_dim
    dvy = np.asarray(model.neutral(y), dtype=float).reshape(dim)
    bv = np.asarray(model.drift(x, y, t), dtype=float).reshape(dim)
    sv = np.asarray(model.diffusion(x, y, t), dtype=float)
    return dvy, bv, sv


def _growth_lhs(x, coeffs) -> float:
    """Coercivity left side 2<x - D(y), b> + |sigma|^2."""
    dvy, bv, sv = coeffs
    return 2.0 * float(np.dot(x - dvy, bv)) + float(np.sum(sv * sv))


def _local_lhs(x, xb, coeffs, coeffs_b) -> float:
    """Monotonicity left side 2<x - D(y) - x' + D(y'), b - b'> + |sigma - sigma'|^2."""
    (dvy, bv, sv), (dvyb, bvb, svb) = coeffs, coeffs_b
    sdiff = sv - svb
    return 2.0 * float(np.dot(x - dvy - xb + dvyb, bv - bvb)) + float(np.sum(sdiff * sdiff))


def _record_rates(violations, rate, rate_delayed, delay_factor: float, t: float, tau: float):
    """Record the rate inequalities C2 and C3 both require at time t:
    K >= 0, K~ >= 0, K(t) <= factor * K(t - tau) and K~ <= K."""
    now = float(rate(t))
    past = float(rate(t - tau))
    delayed_now = float(rate_delayed(t))
    _record(violations, {"check": "rate-nonnegative", "t": t}, 0.0, now)
    _record(violations, {"check": "rate-nonnegative-delayed", "t": t}, 0.0, delayed_now)
    _record(violations, {"check": "delay-comparison", "t": t}, now, delay_factor * past)
    _record(violations, {"check": "dominates-delayed", "t": t}, delayed_now, now)


def check_coercivity(
    model: NsddeModel, spec: ConditionSpec, grid: DelayGrid, samples: int, seed: int
) -> ConditionReport:
    """Check the coercivity bound and its rate inequalities on the box (id C2).

    Random (x, y) are drawn uniformly from the box, times uniformly from
    the grid; the rate inequalities K1 >= 0, K1~ >= 0, K1 >= K1~ and
    K1(t) <= C1 * K1(t - tau) are evaluated at every sampled time.
    """
    if samples < 1:
        raise InvalidRange("need at least one sample")
    rng = np.random.default_rng(seed)
    box, dim = spec.box_radius, model.state_dim
    n0 = grid.steps_per_delay
    violations: list[Violation] = []

    times = grid.times[n0:]
    probe_pairs = _pair_probes(box, dim)
    draw_pts = rng.uniform(-box, box, size=(samples, 2, dim))
    draw_times = times[rng.integers(0, len(times), size=samples)]

    pts = probe_pairs + [(d[0], d[1]) for d in draw_pts]
    ts = _alternating_times(times, len(probe_pairs)) + [float(t) for t in draw_times]
    tested = 0
    for (x, y), t in zip(pts, ts):
        lhs = _growth_lhs(x, _coefficients(model, x, y, t))
        rhs = float(spec.growth_rate(t)) * (1.0 + float(np.dot(x, x))) + float(
            spec.growth_rate_delayed(t - model.delay)
        ) * (1.0 + float(np.dot(y, y)))
        _record(violations, {"t": t, "x": x.tolist(), "y": y.tolist()}, lhs, rhs)
        _record_rates(
            violations, spec.growth_rate, spec.growth_rate_delayed,
            spec.growth_delay_factor, t, model.delay,
        )
        tested += 1
    return _finish("C2", tested, samples, violations)


def _alternating_times(times: np.ndarray, count: int) -> list[float]:
    """Deterministic probe times: alternate between the grid endpoints."""
    return [float(times[0]) if i % 2 == 0 else float(times[-1]) for i in range(count)]


def _clip_to_ball(v: np.ndarray, radius: float) -> np.ndarray:
    norm = float(np.linalg.norm(v))
    if norm > radius:
        return v * (radius / norm)
    return v


def check_monotonicity(
    model: NsddeModel, spec: ConditionSpec, grid: DelayGrid, samples: int, seed: int
) -> ConditionReport:
    """Check local monotonicity of coefficient differences on the box (id C3).

    Quadruples (x, y, x', y') are sampled with all norms <= box_radius
    (uniform cube draws projected onto the ball) and the bound

        2 <x - D(y) - x' + D(y'), b - b'> + |sigma - sigma'|^2
            <= KR(t) |x - x'|^2 + KR~(t - tau) |y - y'|^2

    is evaluated, together with the KR rate inequalities.
    """
    if samples < 1:
        raise InvalidRange("need at least one sample")
    rng = np.random.default_rng(seed)
    box, dim, tau = spec.box_radius, model.state_dim, model.delay
    n0 = grid.steps_per_delay
    violations: list[Violation] = []

    times = grid.times[n0:]
    pts = _point_probes(box, dim)
    probe_quads = [
        (pts[3], pts[0], pts[4], pts[0]),
        (pts[1], pts[2], pts[2], pts[1]),
        (pts[0], pts[0], pts[0], pts[0]),
        (pts[1], pts[1], pts[1], pts[1]),
        (pts[3], pts[1], pts[0], pts[2]),
    ]
    draw_pts = rng.uniform(-box, box, size=(samples, 4, dim))
    draw_times = times[rng.integers(0, len(times), size=samples)]
    quads = probe_quads + [tuple(d) for d in draw_pts]
    ts = _alternating_times(times, len(probe_quads)) + [float(t) for t in draw_times]

    tested = 0
    for (x, y, xb, yb), t in zip(quads, ts):
        x, y, xb, yb = (_clip_to_ball(np.asarray(v, dtype=float), box) for v in (x, y, xb, yb))
        lhs = _local_lhs(
            x, xb, _coefficients(model, x, y, t), _coefficients(model, xb, yb, t)
        )
        rhs = float(spec.local_rate(t)) * float(np.dot(x - xb, x - xb)) + float(
            spec.local_rate_delayed(t - tau)
        ) * float(np.dot(y - yb, y - yb))
        _record(
            violations,
            {"t": t, "x": x.tolist(), "y": y.tolist(), "xp": xb.tolist(), "yp": yb.tolist()},
            lhs,
            rhs,
        )
        _record_rates(
            violations, spec.local_rate, spec.local_rate_delayed,
            spec.local_delay_factor, t, tau,
        )
        tested += 1
    return _finish("C3", tested, samples, violations)


def check_integrability(
    model: NsddeModel, grid: DelayGrid, box: float, samples: int, seed: int
) -> ConditionReport:
    """Check finiteness of the integral of sup |b| + |sigma|^2 on the box (id H).

    One batch of (x, y) pairs (random draws plus box probes) is evaluated at
    every grid time; the per-time maxima are summed with weight delta.  The
    check fails only when a coefficient evaluates to a non-finite value; the
    integral estimate is attached to the report.
    """
    if box <= 0.0 or samples < 1:
        raise InvalidRange("need a positive box and at least one sample")
    rng = np.random.default_rng(seed)
    dim = model.state_dim
    violations: list[Violation] = []

    pairs = _pair_probes(box, dim) + [
        (d[0], d[1]) for d in rng.uniform(-box, box, size=(samples, 2, dim))
    ]
    n0 = grid.steps_per_delay
    times = grid.times[n0:-1]
    total = 0.0
    tested = 0
    for t in times:
        t = float(t)
        peak = 0.0
        for x, y in pairs:
            bv = np.asarray(model.drift(x, y, t), dtype=float).reshape(dim)
            sv = np.asarray(model.diffusion(x, y, t), dtype=float)
            val = float(np.linalg.norm(bv)) + float(np.sum(sv * sv))
            if not math.isfinite(val):
                _record(
                    violations,
                    {"t": t, "x": x.tolist(), "y": y.tolist()},
                    math.inf,
                    0.0,
                )
            peak = max(peak, val)
            tested += 1
        total += peak * grid.delta
    return _finish("H", tested, samples, violations, estimate=total)


def propose_constant_rates(
    model: NsddeModel, grid: DelayGrid, box: float, samples: int, seed: int
) -> dict:
    """Heuristic: propose constant rates by maximizing normalized left sides.

    Returns ``{"growth_rate": ..., "local_rate": ...}`` where the growth
    proposal maximizes the coercivity left side over samples divided by
    (2 + |x|^2 + |y|^2), and the local proposal maximizes the monotonicity
    left side divided by |x - x'|^2 + |y - y'|^2.  Purely empirical — valid
    at best on the sampled box, with no correctness guarantee; intended as
    a starting point when no derived bundle is available.
    """
    if box <= 0.0 or samples < 1:
        raise InvalidRange("need a positive box and at least one sample")
    rng = np.random.default_rng(seed)
    dim = model.state_dim
    n0 = grid.steps_per_delay
    times = grid.times[n0:]

    growth = 0.0
    local = 0.0
    for _ in range(samples):
        t = float(times[rng.integers(0, len(times))])
        x, y, xb, yb = rng.uniform(-box, box, size=(4, dim))
        coeffs = _coefficients(model, x, y, t)
        lhs = _growth_lhs(x, coeffs)
        growth = max(growth, lhs / (2.0 + float(np.dot(x, x)) + float(np.dot(y, y))))

        gap = float(np.dot(x - xb, x - xb)) + float(np.dot(y - yb, y - yb))
        if gap >= 1e-12:
            lhs3 = _local_lhs(x, xb, coeffs, _coefficients(model, xb, yb, t))
            local = max(local, lhs3 / gap)
    return {"growth_rate": growth, "local_rate": local}


def neutral_cubic_rates(
    k: float, c1: float, c2: float, tau: float, box_radius: float = 2.0
) -> ConditionSpec:
    """Verified rate bundle for the built-in ``sec4`` model.

    Growth rates follow from expanding 2<x - D(y), b> + |sigma|^2 and
    absorbing the cubic terms:

        K1(t)  = 4 (exp(c1 t) + exp(c2 t)),   K1~(t) = k^2 K1(t),
        C1     = exp(c2 tau)

    (the time-t growth rate shrinks as the exponentials decay, so the
    delay-comparison factor is exp(c2 tau) <= 1).  The local monotonicity
    rates are the box-dependent constants

        KR  = 3 + 3 R^2 + P(R),   KR~ = 3 k^2 + 2|k|^3 R^2 + P(R),
        P(R) = sqrt(2|k| + R^2 (4 k^2 + 4 |k| + 4 |k|^3)),

    with delay factor CR = 1.  Both bounds hold on the box |x|, |y| <= R
    for every admissible (k, c1, c2).
    """
    if not -1.0 < k < 1.0:
        raise InvalidRange(f"k must lie in (-1, 1), got {k}")
    if c1 > c2 or c2 > 0.0:
        raise InvalidRange(f"need c1 <= c2 <= 0, got c1={c1}, c2={c2}")
    kabs = abs(k)
    kappa = kabs if kabs > 0.0 else 0.5
    ksq = k * k

    def growth(t: float) -> float:
        return 4.0 * (math.exp(c1 * t) + math.exp(c2 * t))

    def growth_delayed(t: float) -> float:
        return ksq * growth(t)

    r = box_radius
    p_r = math.sqrt(2.0 * kabs + r * r * (4.0 * ksq + 4.0 * kabs + 4.0 * kabs**3))
    local = 3.0 + 3.0 * r * r + p_r
    local_delayed = 3.0 * ksq + 2.0 * kabs**3 * r * r + p_r

    return ConditionSpec(
        kappa=kappa,
        growth_rate=growth,
        growth_rate_delayed=growth_delayed,
        local_rate=constant_rate(local),
        local_rate_delayed=constant_rate(local_delayed),
        growth_delay_factor=math.exp(c2 * tau),
        local_delay_factor=1.0,
        box_radius=box_radius,
    )
