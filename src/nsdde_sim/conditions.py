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
are deterministic given their seed: they draw what numpy's
``default_rng(seed)`` would draw, bitwise, from :class:`~nsdde_sim.pcg64.Stream`,
without importing ``numpy.random``.  Violations are sorted by severity
before the list is capped.

Coefficients, and the bare ``neutral`` map of the contraction checks, are
called on ``(S, state_dim)`` stacks of samples, or for the pairs of points that
C3 and the rate proposal compare on ``(2, S, state_dim)`` stacks, under the
evaluator contract of :mod:`nsdde_sim.model` (leading axes index samples, ``t``
is a ``(..., 1)`` array of each sample's time, a constant broadcasts).
:func:`check_conditions` is the one entry to all four checks.  It draws the box
pairs that C4, C2 and H read once, and C4 and the contraction estimate share one
``neutral`` call.  C2, C3 and the rate proposal share one pass: one ``neutral``,
one ``drift`` and one ``diffusion`` call on every sample, each at its own time.
Everything else (both sides of each bound, the rate inequalities, the violation
lists) is computed once over all samples.  Checkers run with numpy's
floating-point warnings off: a side that overflows fails in the report and prints
nothing.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import pcg64
from .errors import DegenerateSampling, InvalidRange
from .model import DelayGrid, NsddeModel

# Absolute slack on (rhs - lhs): an inequality counts as violated only when
# lhs exceeds rhs by more than this, so exact-equality cases pass.
SLACK = 1e-9

# At most this many violations are kept per report (after severity sorting).
MAX_VIOLATIONS = 100

# H's memory bound: diffusion entries (times x pairs x d x m) per block, at least one time.
H_BLOCK_ENTRIES = 1 << 16


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
    inequalities; each must lie in [0, 1/kappa].
    """

    kappa: float
    growth_rate: Callable[[float], float]
    growth_rate_delayed: Callable[[float], float]
    local_rate: Callable[[float], float]
    local_rate_delayed: Callable[[float], float]
    growth_delay_factor: float
    local_delay_factor: float
    box_radius: float

    def __post_init__(self):
        if not 0.0 < self.kappa < 1.0:
            raise InvalidRange(f"kappa must lie in (0, 1), got {self.kappa}")
        for name in ("growth_delay_factor", "local_delay_factor"):
            factor = getattr(self, name)
            if not 0.0 <= factor <= 1.0 / self.kappa:  # NaN fails too
                raise InvalidRange(
                    f"{name} must lie in [0, 1/kappa] = [0, {1.0 / self.kappa}], got {factor}"
                )
        _check_sampling(self.box_radius, samples=1, dim=1)


def constant_rate(value: float) -> Callable[[float], float]:
    """Rate function that is constant in time."""
    if not value >= 0.0:
        raise InvalidRange(f"rate constants must be non-negative, got {value}")
    return lambda t: value


def _finish(condition_id: str, tested: int, violations: list,
            estimate: float | None = None) -> ConditionReport:
    violations.sort(key=lambda v: (-(v.lhs - v.rhs), repr(sorted(v.inputs.items()))))
    kept = tuple(violations[:MAX_VIOLATIONS])
    return ConditionReport(condition_id, tested, kept, "fail" if kept else "pass", estimate)


def _check_sampling(box: float, samples: int, dim: int) -> None:
    """Two points of the box lie up to 2 * box apart in each of ``dim`` coordinates,
    so their squared distance must stay a finite float."""
    if samples < 1:
        raise InvalidRange(f"need samples >= 1, got {samples!r}")
    if not 0.0 < box or 4.0 * dim * box * box > sys.float_info.max:
        raise InvalidRange(f"need box_radius > 0 and 4 * {dim} * box_radius**2 finite, got {box!r}")


def _failed(lhs, rhs):
    """Where lhs <= rhs fails by more than SLACK; a non-finite side always fails."""
    return ~(np.isfinite(lhs) & np.isfinite(rhs)) | (lhs > rhs + SLACK)


def _rowdot(a, b):
    """Dot products of matching rows of (S, d) stacks, bitwise ``np.dot`` of each row pair.

    matmul of (S, 1, d) by (S, d, 1) reaches the same BLAS dot; a summed
    product or einsum rounds differently for d >= 2."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _rownorm(a):
    """Euclidean norm of each row, bitwise ``np.linalg.norm`` of the row."""
    return np.sqrt(_rowdot(a, a))


def _sqsum(s):
    """|sigma|^2 of each sample: its (d, m) block's squares summed as ``np.sum`` does."""
    return np.sum((s * s).reshape(s.shape[:-2] + (-1,)), axis=-1)


def _rows(value, shape):
    """An evaluator result as a float stack of ``shape``; a constant broadcasts."""
    return np.broadcast_to(np.asarray(value, dtype=float), shape)


def _running_max(start, values):
    """max(start, *values) as a running Python ``max``: NaN never becomes the maximum."""
    above = values[values > start]
    return float(above.max()) if above.size else start


def _probes_and_draws(rng, box: float, dim: int, probes: list, samples: int) -> np.ndarray:
    """The probe tuples (rows of the origin, (box, .., box), (-box, .., -box), box e1
    and -box e1), then ``samples`` tuples drawn uniformly from the box."""
    pts = np.zeros((5, dim))
    pts[1], pts[2], pts[3, 0] = box, -box, box
    pts[4] = -pts[3]
    draws = rng.uniform(-box, box, size=(samples, len(probes[0]), dim))
    return np.concatenate([pts[probes], draws])


# Probe pairs (x, y) and quadruples (x, y, x', y') as point rows; the first
# pair, (box e1, 0), is separated, most of the others coincide.
_PAIRS = [[3, 0], [0, 0], [1, 1], [2, 2], [3, 3], [4, 4], [1, 2], [0, 1]]
_QUADS = [[3, 0, 4, 0], [1, 2, 2, 1], [0, 0, 0, 0], [1, 1, 1, 1], [3, 1, 0, 2]]


def _contraction(neutral, kappa: float, box: float, pairs: np.ndarray):
    """C4's report, D(0) = 0 and |D(x) - D(y)| <= kappa |x - y| on the box pairs, and
    the empirical Lipschitz constant of D, from one ``neutral`` call.

    The estimate reads five pairs 2e-4 * box apart, so that a smooth map reports a
    value close to its true modulus, then the last probe pair, (0, (box, .., box)),
    and the draws.  It skips pairs closer than 1e-9 and raises
    :class:`DegenerateSampling` if nothing remains."""
    n, _, dim = pairs.shape
    h = 1e-4 * box
    close = np.array([(np.full(dim, c) - h, np.full(dim, c) + h)
                      for c in (0.0, 0.5 * box, -0.5 * box, box - 2 * h, -box + 2 * h)])
    every = np.concatenate([pairs, close])
    m = len(every)
    vals = _rows(neutral(np.concatenate([every[:, 0], every[:, 1]])), (2 * m, dim))
    moved, gap = _rownorm(vals[:m] - vals[m:]), _rownorm(every[:, 0] - every[:, 1])
    # D(0) is vals[m]: the first probe pair is (box e1, 0)
    lhs = np.concatenate([_rownorm(vals[m : m + 1]), moved[:n]])
    rhs = np.concatenate([[0.0], kappa * gap[:n]])
    violations = [
        Violation(
            {"x": pairs[i - 1, 0].tolist(), "y": pairs[i - 1, 1].tolist()}
            if i else {"check": "zero-at-origin"},
            float(lhs[i]), float(rhs[i]),
        )
        for i in np.flatnonzero(_failed(lhs, rhs)).tolist()
    ]
    order = np.r_[n:m, len(_PAIRS) - 1 : n]
    kept = order[~(gap[order] < 1e-9)]
    if not kept.size:
        raise DegenerateSampling("all sampled pairs were closer than 1e-9")
    ratio = moved[kept] / gap[kept]
    return _finish("C4", n, violations), float(_running_max(ratio[0], ratio[1:]))


def _growth_lhs(x, coeffs):
    """Coercivity left side 2<x - D(y), b> + |sigma|^2."""
    dvy, bv, sv = coeffs
    return 2.0 * _rowdot(x - dvy, bv) + _sqsum(sv)


def _local_lhs(x, coeffs):
    """Monotonicity left side 2<x - D(y) - x' + D(y'), b - b'> + |sigma - sigma'|^2, from
    the ``(2, S, ...)`` pair stacks of the points (x, x') and of their coefficients."""
    dvy, bv, sv = coeffs
    return 2.0 * _rowdot(x[0] - dvy[0] - x[1] + dvy[1], bv[0] - bv[1]) + _sqsum(sv[0] - sv[1])


def _sample_times(times: np.ndarray, n_probes: int, rng, samples: int) -> np.ndarray:
    """Probe times alternating between the grid endpoints, then uniform grid draws."""
    alternating = [times[0] if i % 2 == 0 else times[-1] for i in range(n_probes)]
    return np.concatenate([alternating, times[rng.integers(0, len(times), size=samples)]])


def _rated_check(condition_id, points, lhs, weights, rates, ts, tau):
    """Shared driver of C2 and C3: sample i's bound is lhs <= K(t) * weights[0] +
    K~(t - tau) * weights[1] at t = ts[i], and ``points`` names the stacks a violation
    reports.  The rate inequalities K >= 0, K~ >= 0, K(t) <= factor * K(t - tau) and
    K~ <= K are tested once per distinct sampled time, ascending, and fail once per
    sample at that time, after the sample's own violation, in sample order."""
    times, which = np.unique(ts, return_inverse=True)
    times, lagged = times.tolist(), (times - tau).tolist()
    rate, rate_delayed, factor = rates
    now, past, delayed_now, delayed_past = (np.array([float(f(t)) for t in when]) for f, when in (
        (rate, times), (rate, lagged), (rate_delayed, times), (rate_delayed, lagged)))
    rhs = now[which] * weights[0] + delayed_past[which] * weights[1]
    zero = np.zeros(len(times))
    sides = np.stack([[zero, now], [zero, delayed_now], [now, factor * past], [delayed_now, now]])
    rate_bad = _failed(sides[:, 0], sides[:, 1])
    names = ("rate-nonnegative", "rate-nonnegative-delayed", "delay-comparison",
             "dominates-delayed")
    at_time = [[Violation({"check": c, "t": t}, *two) for c, two, b in zip(names, ends, bads) if b]
               for t, ends, bads in zip(times, sides.transpose(2, 0, 1).tolist(),
                                        rate_bad.T.tolist())]
    bad = _failed(lhs, rhs)
    violations: list[Violation] = []
    for i in np.flatnonzero(bad | rate_bad.any(axis=0)[which]).tolist():
        j = int(which[i])
        if bad[i]:
            inputs = {"t": times[j], **{key: v[i].tolist() for key, v in points.items()}}
            violations.append(Violation(inputs, float(lhs[i]), float(rhs[i])))
        violations += at_time[j]
    return _finish(condition_id, len(lhs), violations)


def _coefficient_pass(model: NsddeModel, parts) -> list:
    """Each part's (D(y), b, sigma), stacked as its x, from one coefficient pass.  A part
    is ``(x, y, ts)``: ``(S, d)`` or ``(2, S, d)`` stacks of points whose sample i lies at
    time ts[i].  ``neutral``, ``drift`` and ``diffusion`` run once each on the rows of
    every part, ``drift`` and ``diffusion`` with each row's time as a ``(rows, 1)`` stack."""
    d = model.state_dim
    x, y, ts = map(np.concatenate, zip(*[
        (x.reshape(-1, d), y.reshape(-1, d), np.broadcast_to(ts, x.shape[:-1]).ravel())
        for x, y, ts in parts]))
    coeffs = [_rows(model.neutral(y), x.shape), _rows(model.drift(x, y, ts[:, None]), x.shape),
              _rows(model.diffusion(x, y, ts[:, None]), x.shape + (model.noise_dim,))]
    results, lo = [], 0
    for px, _, _ in parts:
        hi = lo + px.size // d
        results.append([c[lo:hi].reshape(px.shape + c.shape[2:]) for c in coeffs])
        lo = hi
    return results


def _clip_to_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Rows of v with norm above radius, scaled back onto the sphere of that radius.
    Runs only under the checkers' np.errstate(all="ignore"): a zero row divides by 0."""
    norm = _rownorm(v)[:, None]
    return np.where(norm > radius, v * (radius / norm), v)


def _integrability(model: NsddeModel, grid: DelayGrid, pairs: np.ndarray) -> ConditionReport:
    """H: |b| + |sigma|^2 on the box pairs at every grid time, from one drift and one
    diffusion call per block of ``(T, 1, 1)`` times, :data:`H_BLOCK_ENTRIES` diffusion
    entries at most.  Each block folds into its per-time peaks, which a NaN row never is
    and an inf row can be, and its non-finite rows, the only ones that fail.  The peaks
    are summed with weight delta left to right; the report carries that integral."""
    n, times = len(pairs), grid.times[grid.steps_per_delay:-1]
    x, y = pairs[:, 0], pairs[:, 1]
    step = max(1, H_BLOCK_ENTRIES // (n * model.state_dim * model.noise_dim))
    violations: list[Violation] = []
    total = 0.0
    for lo in range(0, len(times), step):
        t = times[lo : lo + step, None, None]
        shape = (len(t), n, model.state_dim)
        val = (_rownorm(_rows(model.drift(x, y, t), shape))
               + _sqsum(_rows(model.diffusion(x, y, t), shape + (model.noise_dim,))))
        peaks = np.where(val > 0, val, 0).max(axis=-1)
        total = float(np.concatenate([[total], peaks * grid.delta]).cumsum()[-1])
        violations += [
            Violation({"t": float(times[lo + i]), "x": x[j].tolist(), "y": y[j].tolist()},
                      math.inf, 0.0)
            for i, j in np.argwhere(~np.isfinite(val)).tolist()]
    return _finish("H", len(times) * n, violations, estimate=total)


def _interleaved_draws(rng: pcg64.Stream, n: int, box: float, dim: int, samples: int):
    """The time indices ``(samples,)`` and blocks ``(samples, 4, dim)`` that calling
    ``rng.integers(0, n)`` then ``rng.uniform(-box, box, (4, dim))`` once per sample
    draws, bitwise, as numpy's ``default_rng`` does.

    :meth:`~nsdde_sim.pcg64.Stream.interleaved` reads them in runs: two samples share
    one raw output for their integers, and each block takes the next 4 * dim
    outputs.  A sample whose 32-bit half Lemire's draw rejects is read half by half
    from the same outputs; nothing falls back to numpy's generator."""
    idx, rows = rng.interleaved(n, samples, 4 * dim)
    return idx, pcg64.uniform(rows, -box, box).reshape(samples, 4, dim)


@np.errstate(all="ignore")
def check_conditions(model: NsddeModel, spec: ConditionSpec, grid: DelayGrid, samples: int,
                     seed: int) -> tuple:
    """``([C4, C2, C3, H], kappa_estimate, proposal)`` on the box spec.box_radius.

    C4, C2 and H read one draw of (x, y) pairs: the probes, then ``samples`` pairs
    uniform on the box.  C4 tests D(0) = 0 and |D(x) - D(y)| <= spec.kappa |x - y|;
    its ``neutral`` call also gives ``kappa_estimate``, the largest |D(x) - D(y)| /
    |x - y| over the pairs and a few close ones.  C2 draws a grid time on [0, horizon]
    per pair and tests coercivity, 2<x - D(y), b> + |sigma|^2 <= K1(t)(1 + |x|^2)
    + K1~(t - tau)(1 + |y|^2), and K1 >= 0, K1~ >= 0, K1 >= K1~ and K1(t) <= C1 *
    K1(t - tau) at every sampled time.  C3 draws quadruples (x, y, x', y') from the
    box, each point projected onto the ball of radius box_radius, and tests local
    monotonicity with the same rate inequalities for KR, KR~ and CR:

        2 <x - D(y) - x' + D(y'), b - b'> + |sigma - sigma'|^2
            <= KR(t) |x - x'|^2 + KR~(t - tau) |y - y'|^2

    H evaluates sup |b| + |sigma|^2 over the pairs at every grid time and attaches
    the integral of those maxima to its report.

    The proposal is the heuristic ``{"growth_rate": ..., "local_rate": ...}``: the
    largest C2 left side over 2 + |x|^2 + |y|^2 and the largest C3 left side over
    |x - x'|^2 + |y - y'|^2, each at least 0.  Purely empirical — valid at best on the
    sampled box, with no correctness guarantee; a starting point when no derived
    bundle is available.  Each of its samples in turn draws a grid time, then its
    (x, y, x', y') block, from ``default_rng(seed)``'s stream; :func:`_interleaved_draws`
    reads them in runs.  C2, C3 and the proposal share one coefficient pass; each
    stack's coefficients are bitwise those of a pass of its own.
    """
    box, dim, tau = spec.box_radius, model.state_dim, model.delay
    _check_sampling(box, samples, dim)
    rng, times = pcg64.Stream(seed), grid.times[grid.steps_per_delay:]
    pairs = _probes_and_draws(rng, box, dim, _PAIRS, samples)
    contraction, estimate = _contraction(model.neutral, spec.kappa, box, pairs)
    x, y = pairs[:, 0], pairs[:, 1]
    ts = _sample_times(times, len(_PAIRS), rng, samples)  # C2's, next on the pairs' stream
    rng = rng.restart()  # C3's quadruples and times, from a stream of their own
    quads = _probes_and_draws(rng, box, dim, _QUADS, samples)
    quad_ts = _sample_times(times, len(_QUADS), rng, samples)
    qx, qy, qxb, qyb = (_clip_to_ball(quads[:, k], box) for k in range(4))
    idx, draws = _interleaved_draws(rng.restart(), len(times), float(box), dim, samples)
    px, py, pxb, pyb = (draws[:, k] for k in range(4))
    quad, pair = np.stack([qx, qxb]), np.stack([px, pxb])
    growth, local, heuristic = _coefficient_pass(model, [
        (x, y, ts), (quad, np.stack([qy, qyb]), quad_ts), (pair, np.stack([py, pyb]), times[idx])])
    coercivity = _rated_check(
        "C2", {"x": x, "y": y}, _growth_lhs(x, growth), (1.0 + _rowdot(x, x), 1.0 + _rowdot(y, y)),
        (spec.growth_rate, spec.growth_rate_delayed, spec.growth_delay_factor), ts, tau)
    dx, dy = qx - qxb, qy - qyb
    monotonicity = _rated_check(
        "C3", {"x": qx, "y": qy, "xp": qxb, "yp": qyb}, _local_lhs(quad, local),
        (_rowdot(dx, dx), _rowdot(dy, dy)),
        (spec.local_rate, spec.local_rate_delayed, spec.local_delay_factor), quad_ts, tau)
    grown = _growth_lhs(px, [c[0] for c in heuristic]) / (2.0 + _rowdot(px, px) + _rowdot(py, py))
    gap = _rowdot(px - pxb, px - pxb) + _rowdot(py - pyb, py - pyb)
    kept = gap >= 1e-12
    proposal = {"growth_rate": _running_max(0.0, grown),
                "local_rate": _running_max(0.0, _local_lhs(pair, heuristic)[kept] / gap[kept])}
    reports = [contraction, coercivity, monotonicity, _integrability(model, grid, pairs)]
    return reports, estimate, proposal


def neutral_cubic_rates(
    k: float, c1: float, c2: float, tau: float, box_radius: float
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
    for every admissible (k, c1, c2): |k| < 1, c1 <= c2 <= 0 and K1(-tau)
    a finite float.
    """
    if not -1.0 < k < 1.0:
        raise InvalidRange(f"k must lie in (-1, 1), got {k}")
    if not c1 <= c2 <= 0.0:
        raise InvalidRange(f"need c1 <= c2 <= 0, got c1={c1}, c2={c2}")
    kabs = abs(k)
    kappa = kabs if kabs > 0.0 else 0.5
    ksq = k * k

    def growth(t: float) -> float:
        return 4.0 * (math.exp(c1 * t) + math.exp(c2 * t))

    def growth_delayed(t: float) -> float:
        return ksq * growth(t)

    try:  # K1 is largest at t = -tau, the earliest time the checkers read it at
        finite = math.isfinite(growth(-tau))
    except OverflowError:
        finite = False
    if not finite:
        raise InvalidRange(f"need K1(-tau) = 4 (exp(-c1 tau) + exp(-c2 tau)) finite, "
                           f"got c1={c1}, c2={c2}, tau={tau}")

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
