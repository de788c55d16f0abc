"""Sampling-based verification of the structural model conditions."""

import math
import sys
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsdde_sim import (
    ConditionSpec,
    DegenerateSampling,
    DelayGrid,
    InvalidRange,
    NsddeModel,
    additive_noise,
    affine_segment,
    check_conditions,
    constant_rate,
    constant_segment,
    cubic_drift,
    linear_delay_ode,
    make_grid,
    neutral_cubic_model,
    neutral_cubic_rates,
)
from nsdde_sim import conditions, pcg64
from nsdde_sim.conditions import (
    MAX_VIOLATIONS,
    SLACK,
    ConditionReport,
    Violation,
    _PAIRS,
    _coefficients,
    _integrability,
    _interleaved_draws,
    _probes_and_draws,
    _rowdot,
    _rownorm,
    _sqsum,
)
from nsdde_sim import model as model_module
from nsdde_sim.model import _BUILTINS, builtin_model
from nsdde_sim.model import broadcast_result as _rows

GRID = make_grid(1.0, 2.0, 0.1)
SHORTEST_GRID = DelayGrid(0.5, 1.0, 1, 2)


def parts_of(model, spec, grid, samples, seed):
    """The ``(x, y, t)`` stacks that :func:`check_conditions` hands the coefficient kernel,
    one per call, in call order: C2's box pairs, C3's quadruple pairs, the proposal's
    pairs, then H's blocks."""
    seen = []
    real = conditions._coefficients
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conditions, "_coefficients",
                   lambda model, x, y, t: seen.append((x, y, t)) or real(model, x, y, t))
        check_conditions(model, spec, grid, samples, seed)
    return seen


def coefficients(model, x, y, t):
    """One kernel call, under the error state of :func:`check_conditions`."""
    with np.errstate(all="ignore"):
        return _coefficients(model, x, y, t)


def flat_spec(kappa=0.5, growth=1.0, growth_delayed=0.0, local=1.0, local_delayed=0.0,
              box=2.0):
    return ConditionSpec(
        kappa=kappa,
        growth_rate=constant_rate(growth),
        growth_rate_delayed=constant_rate(growth_delayed),
        local_rate=constant_rate(local),
        local_rate_delayed=constant_rate(local_delayed),
        growth_delay_factor=1.0,
        local_delay_factor=1.0,
        box_radius=box,
    )


def contraction(neutral, kappa, box, samples, seed):
    """C4's report and the kappa estimate of :func:`check_conditions`, on a model whose
    drift and diffusion are zero."""
    model = NsddeModel(1, 1, 1.0, neutral=neutral, drift=lambda x, y, t: np.zeros(1),
                       diffusion=lambda x, y, t: np.zeros((1, 1)))
    reports, kappa_estimate, _ = check_conditions(model, flat_spec(kappa, box=box), GRID,
                                                  samples, seed)
    return reports[0], kappa_estimate


def integrability(model, grid, samples, seed):
    """H's report from :func:`check_conditions` on the box of :func:`flat_spec`."""
    return check_conditions(model, flat_spec(), grid, samples, seed)[0][3]


class TestSpecValidation:
    def test_kappa_range(self):
        for kappa in (0.0, 1.0, -0.2, math.nan):
            with pytest.raises(InvalidRange):
                flat_spec(kappa=kappa)
            with pytest.raises(InvalidRange, match="kappa"):
                contraction(lambda y: 0.5 * y, kappa, 2.0, 10, seed=0)

    def test_delay_factors_capped_by_contraction(self):
        spec = neutral_cubic_rates(0.5, -1.0, -1.0, 1.0, 2.0)
        assert max(spec.growth_delay_factor, spec.local_delay_factor) <= 1.0 / spec.kappa
        with pytest.raises(InvalidRange):
            ConditionSpec(
                kappa=0.5,
                growth_rate=constant_rate(1.0),
                growth_rate_delayed=constant_rate(0.0),
                local_rate=constant_rate(1.0),
                local_rate_delayed=constant_rate(0.0),
                growth_delay_factor=2.5,  # > 1/kappa = 2
                local_delay_factor=1.0,
                box_radius=2.0,
            )

    @pytest.mark.parametrize("field", ["growth_delay_factor", "local_delay_factor"])
    @pytest.mark.parametrize("factor", [math.nan, -0.5, math.inf, 2.5])
    def test_each_delay_factor_lies_in_zero_to_one_over_kappa(self, field, factor):
        # NaN must fail in either position, as max(nan, 1.0) would not
        with pytest.raises(InvalidRange, match=field):
            replace(flat_spec(), **{field: factor})
        for end in (0.0, 2.0):  # the ends of [0, 1/kappa] pass
            assert getattr(replace(flat_spec(), **{field: end}), field) == end

    def test_rate_constants_non_negative(self):
        with pytest.raises(InvalidRange):
            constant_rate(-0.1)


class TestContraction:
    def test_linear_map_passes_at_its_own_constant(self):
        report = contraction(lambda y: 0.7 * y, 0.7, 2.0, 500, seed=1)[0]
        assert report.verdict == "pass"
        assert report.violations == ()

    def test_square_map_fails_via_probe(self):
        # D(y) = y^2 on the box [-2, 2]: the fixed probe pair (2, 0) gives
        # |D(2) - D(0)| = 4 > 0.9 * 2, so failure cannot depend on the draw.
        report = contraction(lambda y: y * y, 0.9, 2.0, 1, seed=123)[0]
        assert report.verdict == "fail"
        probe_hits = [
            v for v in report.violations if v.inputs.get("x") == [2.0] and v.inputs.get("y") == [0.0]
        ]
        assert probe_hits and probe_hits[0].lhs == 4.0
        assert probe_hits[0].rhs == pytest.approx(1.8, rel=1e-15)

    def test_nonzero_origin_detected(self):
        report = contraction(lambda y: y + 1.0, 0.9, 2.0, 10, seed=0)[0]
        assert report.verdict == "fail"
        assert any(v.inputs == {"check": "zero-at-origin"} for v in report.violations)

    def test_violations_sorted_and_capped(self):
        report = contraction(lambda y: y * y, 0.5, 2.0, 2000, seed=7)[0]
        assert report.verdict == "fail"
        assert len(report.violations) == MAX_VIOLATIONS
        gaps = [v.lhs - v.rhs for v in report.violations]
        assert gaps == sorted(gaps, reverse=True)

    def test_deterministic_given_seed(self):
        a = contraction(lambda y: y * y, 0.9, 2.0, 100, seed=5)[0]
        b = contraction(lambda y: y * y, 0.9, 2.0, 100, seed=5)[0]
        assert a == b


class TestEstimateContraction:
    def test_linear_map(self):
        est = contraction(lambda y: 0.7 * y, 0.5, 2.0, 200, seed=2)[1]
        assert est == pytest.approx(0.7, abs=5e-13)

    def test_smooth_map_modulus(self):
        est = contraction(np.sin, 0.5, np.pi, 500, seed=3)[1]
        assert est == pytest.approx(1.0, abs=1e-6)

    def test_degenerate_box(self):
        with pytest.raises(DegenerateSampling):
            contraction(lambda y: y, 0.5, 1e-10, 10, seed=0)


class TestCoercivity:
    def test_passes_for_cubic_bundle(self, cubic_model, cubic_rates):
        report = check_conditions(cubic_model, cubic_rates, GRID, 1000, seed=11)[0][1]
        assert report.verdict == "pass"

    def test_cubic_growth_breaks_constant_rate(self):
        # b = x^3 against K1 = 1: the (2, 0) probe gives
        # lhs = 2 * 2 * 8 = 32 > 5 = 1 * (1 + 4) + 0, at every time.
        report = check_conditions(cubic_drift(1.0), flat_spec(), GRID, 1, seed=0)[0][1]
        assert report.verdict == "fail"
        worst = report.violations[0]
        assert worst.lhs == 32.0 and worst.rhs == 5.0

    def test_rate_inequalities_flagged(self, cubic_model):
        # growth_rate_delayed > growth_rate violates the domination check
        # even though the coercivity bound itself then holds trivially
        spec = flat_spec(growth=5.0, growth_delayed=50.0)
        report = check_conditions(cubic_model, spec, GRID, 5, seed=0)[0][1]
        assert report.verdict == "fail"
        assert any(
            v.inputs.get("check") == "dominates-delayed" for v in report.violations
        )


class TestMonotonicity:
    def test_passes_for_cubic_bundle(self, cubic_model, cubic_rates):
        report = check_conditions(cubic_model, cubic_rates, GRID, 1000, seed=13)[0][2]
        assert report.verdict == "pass"

    def test_cubic_drift_fails_flat_rate(self):
        report = check_conditions(cubic_drift(1.0), flat_spec(), GRID, 200, seed=1)[0][2]
        assert report.verdict == "fail"

    def test_quadruples_projected_into_ball(self, cubic_model, cubic_rates):
        # all recorded sample points must lie inside the closed ball
        report = check_conditions(cubic_model, cubic_rates, GRID, 300, seed=17)[0][2]
        for v in report.violations:
            for key in ("x", "y", "xp", "yp"):
                if key in v.inputs:
                    assert np.linalg.norm(v.inputs[key]) <= cubic_rates.box_radius + 1e-12


def inf_after_one():
    """Drift zero up to t = 1 and infinite after it."""
    return NsddeModel(
        1, 1, 1.0,
        neutral=lambda y: np.zeros(1),
        drift=lambda x, y, t: np.where(t <= 1.0, np.zeros(1), np.inf),
        diffusion=lambda x, y, t: np.zeros((1, 1)),
    )


class TestIntegrability:
    def test_cubic_model_estimate(self, cubic_model):
        report = integrability(cubic_model, GRID, 500, seed=19)
        assert report.verdict == "pass"
        assert report.estimate is not None and 0.0 < report.estimate < 100.0

    def test_non_finite_coefficient_fails(self):
        report = integrability(inf_after_one(), GRID, 20, seed=0)
        assert report.verdict == "fail"
        assert any(not np.isfinite(v.lhs) for v in report.violations)

    def test_estimate_scales_with_horizon(self, cubic_model):
        # doubling the horizon of a time-decaying integrand must not shrink it
        longer = make_grid(1.0, 4.0, 0.1)
        short = integrability(cubic_model, GRID, 200, seed=3).estimate
        long_ = integrability(cubic_model, longer, 200, seed=3).estimate
        assert long_ > short


def test_propose_constant_rates_heuristic(cubic_model, cubic_rates):
    rates = check_conditions(cubic_model, cubic_rates, GRID, 500, seed=23)[2]
    assert set(rates) == {"growth_rate", "local_rate"}
    assert rates["growth_rate"] > 0.0 and rates["local_rate"] > 0.0


class TestCubicRateBundle:
    def test_frozen_values(self):
        spec = neutral_cubic_rates(0.5, -1.0, -1.0, 1.0, 2.0)
        assert spec.kappa == 0.5
        # K1(0) = 4 * (e^0 + e^0) = 8, and the delayed rate is k^2 K1
        assert spec.growth_rate(0.0) == 8.0
        assert spec.growth_rate_delayed(0.0) == 2.0
        # libm's exp of each time, as sec4's coefficients take it; numpy's exp
        # rounds some of these grid times differently
        times = make_grid(1.0, 2.0, 0.01).times
        libm = [4.0 * (math.exp(-t) + math.exp(-t)) for t in times.tolist()]
        assert spec.growth_rate(times).tolist() == libm
        assert spec.growth_delay_factor == pytest.approx(np.exp(-1.0), rel=1e-15)
        assert spec.local_delay_factor == 1.0

    def test_zero_k_still_valid(self):
        spec = neutral_cubic_rates(0.0, -1.0, -1.0, 1.0, 2.0)
        assert 0.0 < spec.kappa < 1.0

    @pytest.mark.parametrize("c1", [-710.0, -709.0])
    def test_growth_rate_overflowing_at_minus_tau_is_rejected(self, c1):
        # K1(-1) = 4 (e^-c1 + e): math.exp overflows past 709.78, and at c1 = -709
        # the sum is finite but four times it is not
        with pytest.raises(InvalidRange, match="K1"):
            neutral_cubic_rates(0.5, c1, -1.0, 1.0, 2.0)
        assert math.isfinite(neutral_cubic_rates(0.5, -700.0, -1.0, 1.0, 2.0).growth_rate(-1.0))

    @settings(max_examples=30, deadline=None)
    @given(
        k=st.floats(min_value=-0.7, max_value=0.7),
        c2=st.floats(min_value=-2.0, max_value=0.0),
    )
    def test_bundle_always_constructible(self, k, c2):
        # the side condition C1(tau) <= 1/kappa must hold for every admissible
        # parameter combination, so construction never raises
        spec = neutral_cubic_rates(k, c2 - 1.0, c2, 1.0, 2.0)
        assert spec.growth_rate(0.0) > 0.0


# ---------------------------------------------------------------------------
# Per-sample reference checkers: one coefficient call per sample, scalar
# np.dot / np.linalg.norm arithmetic.  The batched checkers must produce
# reports repr-equal to these (repr also compares NaN fields).


def _ref_record(violations, inputs, lhs, rhs):
    if not (np.isfinite(lhs) and np.isfinite(rhs)) or lhs > rhs + SLACK:
        violations.append(Violation(inputs, float(lhs), float(rhs)))


def _ref_finish(condition_id, tested, requested, violations, estimate=None):
    # the largest lhs - rhs first, a NaN gap as infinite; the sort is stable, so equal
    # gaps stay in recording order, which is the order the checkers draw candidates in
    violations.sort(key=lambda v: -math.inf if math.isnan(v.lhs - v.rhs) else -(v.lhs - v.rhs))
    kept = tuple(violations[:MAX_VIOLATIONS])
    verdict = "fail" if kept else "pass" if tested >= requested else "inconclusive"
    return ConditionReport(condition_id, tested, kept, verdict, estimate)


def _ref_points(box, dim):
    e1 = np.zeros(dim)
    e1[0] = box
    return [np.zeros(dim), np.full(dim, box), np.full(dim, -box), e1, -e1]


def _ref_pairs(box, dim):
    pts = _ref_points(box, dim)
    return [(pts[3], pts[0])] + [(p, p.copy()) for p in pts] + [(pts[1], pts[2]), (pts[0], pts[1])]


def _ref_times(times, count):
    return [float(times[0]) if i % 2 == 0 else float(times[-1]) for i in range(count)]


def _ref_coefficients(model, x, y, t):
    dim = model.state_dim
    return (
        np.asarray(model.neutral(y), dtype=float).reshape(dim),
        np.asarray(model.drift(x, y, t), dtype=float).reshape(dim),
        np.asarray(model.diffusion(x, y, t), dtype=float),
    )


def _ref_growth_lhs(x, coeffs):
    dvy, bv, sv = coeffs
    return 2.0 * float(np.dot(x - dvy, bv)) + float(np.sum(sv * sv))


def _ref_local_lhs(x, xb, coeffs, coeffs_b):
    (dvy, bv, sv), (dvyb, bvb, svb) = coeffs, coeffs_b
    sdiff = sv - svb
    return 2.0 * float(np.dot(x - dvy - xb + dvyb, bv - bvb)) + float(np.sum(sdiff * sdiff))


def _ref_rates(violations, rate, rate_delayed, factor, t, tau):
    now, past, delayed_now = float(rate(t)), float(rate(t - tau)), float(rate_delayed(t))
    _ref_record(violations, {"check": "rate-nonnegative", "t": t}, 0.0, now)
    _ref_record(violations, {"check": "rate-nonnegative-delayed", "t": t}, 0.0, delayed_now)
    _ref_record(violations, {"check": "delay-comparison", "t": t}, now, factor * past)
    _ref_record(violations, {"check": "dominates-delayed", "t": t}, delayed_now, now)


def ref_check_contraction(neutral, kappa, box, samples, seed, dim=1):
    rng = np.random.default_rng(seed)
    violations = []
    origin = np.asarray(neutral(np.zeros(dim)), dtype=float).reshape(dim)
    _ref_record(violations, {"check": "zero-at-origin"}, float(np.linalg.norm(origin)), 0.0)
    draws = rng.uniform(-box, box, size=(samples, 2, dim))
    pairs = _ref_pairs(box, dim) + [(d[0], d[1]) for d in draws]
    for x, y in pairs:
        dx = np.asarray(neutral(x), dtype=float).reshape(dim)
        dy = np.asarray(neutral(y), dtype=float).reshape(dim)
        lhs, rhs = float(np.linalg.norm(dx - dy)), kappa * float(np.linalg.norm(x - y))
        _ref_record(violations, {"x": x.tolist(), "y": y.tolist()}, lhs, rhs)
    return _ref_finish("C4", len(pairs), samples, violations)


def ref_estimate_contraction(neutral, box, samples, seed, dim=1):
    rng = np.random.default_rng(seed)
    h = 1e-4 * box
    probes = []
    for c in (0.0, 0.5 * box, -0.5 * box, box - 2 * h, -box + 2 * h):
        probes.append((np.full(dim, c) - h, np.full(dim, c) + h))
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
    return best


def ref_coercivity(model, spec, grid, samples, seed):
    rng = np.random.default_rng(seed)
    box, dim = spec.box_radius, model.state_dim
    violations = []
    times = grid.times[grid.steps_per_delay:]
    probes = _ref_pairs(box, dim)
    draw_pts = rng.uniform(-box, box, size=(samples, 2, dim))
    draw_times = times[rng.integers(0, len(times), size=samples)]
    pts = probes + [(d[0], d[1]) for d in draw_pts]
    ts = _ref_times(times, len(probes)) + [float(t) for t in draw_times]
    for (x, y), t in zip(pts, ts):
        lhs = _ref_growth_lhs(x, _ref_coefficients(model, x, y, t))
        rhs = float(spec.growth_rate(t)) * (1.0 + float(np.dot(x, x))) + float(
            spec.growth_rate_delayed(t - model.delay)
        ) * (1.0 + float(np.dot(y, y)))
        _ref_record(violations, {"t": t, "x": x.tolist(), "y": y.tolist()}, lhs, rhs)
        _ref_rates(violations, spec.growth_rate, spec.growth_rate_delayed,
                   spec.growth_delay_factor, t, model.delay)
    return _ref_finish("C2", len(pts), samples, violations)


def _ref_clip(v, radius):
    norm = float(np.linalg.norm(v))
    return v * (radius / norm) if norm > radius else v


def ref_monotonicity(model, spec, grid, samples, seed):
    rng = np.random.default_rng(seed)
    box, dim, tau = spec.box_radius, model.state_dim, model.delay
    violations = []
    times = grid.times[grid.steps_per_delay:]
    p = _ref_points(box, dim)
    probes = [(p[3], p[0], p[4], p[0]), (p[1], p[2], p[2], p[1]), (p[0], p[0], p[0], p[0]),
              (p[1], p[1], p[1], p[1]), (p[3], p[1], p[0], p[2])]
    draw_pts = rng.uniform(-box, box, size=(samples, 4, dim))
    draw_times = times[rng.integers(0, len(times), size=samples)]
    quads = probes + [tuple(d) for d in draw_pts]
    ts = _ref_times(times, len(probes)) + [float(t) for t in draw_times]
    for (x, y, xb, yb), t in zip(quads, ts):
        x, y, xb, yb = (_ref_clip(np.asarray(v, dtype=float), box) for v in (x, y, xb, yb))
        lhs = _ref_local_lhs(
            x, xb, _ref_coefficients(model, x, y, t), _ref_coefficients(model, xb, yb, t)
        )
        rhs = float(spec.local_rate(t)) * float(np.dot(x - xb, x - xb)) + float(
            spec.local_rate_delayed(t - tau)
        ) * float(np.dot(y - yb, y - yb))
        inputs = {"t": t, "x": x.tolist(), "y": y.tolist(), "xp": xb.tolist(), "yp": yb.tolist()}
        _ref_record(violations, inputs, lhs, rhs)
        _ref_rates(violations, spec.local_rate, spec.local_rate_delayed,
                   spec.local_delay_factor, t, tau)
    return _ref_finish("C3", len(quads), samples, violations)


def ref_check_integrability(model, grid, box, samples, seed):
    rng = np.random.default_rng(seed)
    dim = model.state_dim
    violations = []
    draws = rng.uniform(-box, box, size=(samples, 2, dim))
    pairs = _ref_pairs(box, dim) + [(d[0], d[1]) for d in draws]
    total, tested = 0.0, 0
    for t in grid.times[grid.steps_per_delay:-1]:
        t = float(t)
        peak = 0.0
        for x, y in pairs:
            bv = np.asarray(model.drift(x, y, t), dtype=float).reshape(dim)
            sv = np.asarray(model.diffusion(x, y, t), dtype=float)
            val = float(np.linalg.norm(bv)) + float(np.sum(sv * sv))
            if not np.isfinite(val):
                _ref_record(violations, {"t": t, "x": x.tolist(), "y": y.tolist()}, np.inf, 0.0)
            peak = max(peak, val)
            tested += 1
        total += peak * grid.delta
    return _ref_finish("H", tested, samples, violations, estimate=total)


def ref_rate_proposal(model, spec, grid, samples, seed):
    rng = np.random.default_rng(seed)
    box = spec.box_radius
    times = grid.times[grid.steps_per_delay:]
    growth = local = 0.0
    for _ in range(samples):
        t = float(times[rng.integers(0, len(times))])
        x, y, xb, yb = rng.uniform(-box, box, size=(4, model.state_dim))
        coeffs = _ref_coefficients(model, x, y, t)
        lhs = _ref_growth_lhs(x, coeffs)
        growth = max(growth, lhs / (2.0 + float(np.dot(x, x)) + float(np.dot(y, y))))
        gap = float(np.dot(x - xb, x - xb)) + float(np.dot(y - yb, y - yb))
        if gap >= 1e-12:
            lhs3 = _ref_local_lhs(x, xb, coeffs, _ref_coefficients(model, xb, yb, t))
            local = max(local, lhs3 / gap)
    return {"growth_rate": growth, "local_rate": local}


def ref_coefficient_checks(model, spec, grid, samples, seed):
    return [ref(model, spec, grid, samples, seed)
            for ref in (ref_coercivity, ref_monotonicity, ref_rate_proposal)]


def _sequential_draws(seed, n, box, dim, samples):
    """The per-sample calls that ``_interleaved_draws`` replays."""
    rng = np.random.default_rng(seed)
    idx, blocks = np.empty(samples, dtype=np.int64), np.empty((samples, 4, dim))
    for i in range(samples):
        idx[i] = rng.integers(0, n)
        blocks[i] = rng.uniform(-box, box, size=(4, dim))
    return idx, blocks


def _lemire_rejects(u, n):
    """Whether numpy's bounded draw of [0, n) rejects the 32-bit value u and redraws."""
    return (u * n) % 2**32 < (2**32 - n) % n


# n = 3 * 2**30 rejects every u = 0 mod 4, so a quarter of the draws fall back
@pytest.mark.parametrize("n", [2, 3, 21, 1000, 2**31 + 1, 3 * 2**30])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_interleaved_draws_replay_the_generator_calls(n, dim):
    for seed in (0, 1, 7, 20260815):
        for samples in (1, 2, 3, 500):
            box = 2.0 if seed % 2 else 0.7
            got = _interleaved_draws(pcg64.Stream(seed), n, box, dim, samples)
            want = _sequential_draws(seed, n, box, dim, samples)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("dim", [1, 3])
def test_a_rejected_buffered_half_falls_back_to_the_generator_calls(dim):
    # sample 0 takes the low half of the first output and sample 1 the buffered
    # high half; pick a seed whose low half is accepted and high half rejected
    n = 3 * 2**30
    first = {s: int(np.random.default_rng(s).bit_generator.random_raw()) for s in range(200)}
    seed = next(s for s, raw in first.items()
                if not _lemire_rejects(raw & 0xFFFFFFFF, n) and _lemire_rejects(raw >> 32, n))
    for samples in (2, 3, 40):
        got = _interleaved_draws(pcg64.Stream(seed), n, 1.5, dim, samples)
        want = _sequential_draws(seed, n, 1.5, dim, samples)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


def test_rate_proposal_makes_as_many_generator_calls_at_any_sample_count(monkeypatch):
    # a per-sample draw loop would generate the stream once per sample, or once
    # per pcg64.ROW outputs
    real = pcg64._outputs
    n = len(GRID.times) - GRID.steps_per_delay  # the grid times the proposal draws from

    def generations(samples):
        calls = []
        monkeypatch.setattr(pcg64, "_outputs", lambda *args: calls.append(args) or real(*args))
        _interleaved_draws(pcg64.Stream(20260815), n, flat_spec().box_radius, 1, samples)
        return len(calls)

    assert generations(10) == generations(10_000) == 1


def test_one_check_seeds_pcg64_once(monkeypatch, cubic_model, cubic_rates):
    # the pairs, the quadruples and the proposal read three streams of one seed,
    # which share the outputs generated; no stream state outlives the call
    real, seeded = pcg64._seed, []
    monkeypatch.setattr(pcg64, "_seed", lambda seed: seeded.append(seed) or real(seed))
    for _ in range(2):
        check_conditions(cubic_model, cubic_rates, GRID, 50, 20260815)
    assert seeded == [20260815, 20260815]


def mixing_model():
    """2 states driven by 3 noise components, each state mixing all three."""

    def diffusion(x, y, t):
        a, b = x[..., 0], y[..., 1]
        first = np.stack([a, 0.5 * b, 1.0 + 0.0 * a], -1)
        second = np.stack([0.1 * b, np.sin(a), a * b], -1)
        return np.stack([first, second], -2) * np.exp(-t)[..., None]

    return NsddeModel(
        2, 3, 1.0,
        neutral=lambda y: 0.3 * y[..., ::-1],
        drift=lambda x, y, t: -x * x * x + 0.2 * np.sin(y) * t,
        diffusion=diffusion,
    )


def blowup_model():
    """Drift NaN above 1.2 and infinite below -1.5 in each coordinate."""
    return NsddeModel(
        2, 2, 1.0,
        neutral=lambda y: 0.4 * y,
        drift=lambda x, y, t: np.where(x > 1.2, np.nan, np.where(x < -1.5, np.inf, x * y)),
        diffusion=lambda x, y, t: np.eye(2),
    )


ORACLE_MODELS = {
    "sec4": lambda: neutral_cubic_model(0.5, -1.0, -1.0, 1.0),
    "cubic_drift_2": lambda: cubic_drift(1.0, 2),
    "cubic_drift_3": lambda: cubic_drift(1.0, 3),
    "additive_noise_3": lambda: additive_noise(1.0, 3),
    "linear_delay_ode": lambda: linear_delay_ode(0.7, 1.0),
    "mixing": mixing_model,
    "blowup": blowup_model,
}


def _reports(model, spec, grid, samples, seed):
    """[C4, C2, C3, H], the kappa estimate and the rate proposal, as reprs."""
    reports, kappa, proposal = check_conditions(model, spec, grid, samples, seed)
    return [repr(r) for r in [*reports, kappa, proposal]]


def _ref_reports(model, spec, grid, samples, seed):
    """What :func:`_reports` gives, from the per-sample reference checkers."""
    box, dim = spec.box_radius, model.state_dim
    coercivity, monotonicity, proposal = ref_coefficient_checks(model, spec, grid, samples, seed)
    return [repr(r) for r in [
        ref_check_contraction(model.neutral, spec.kappa, box, samples, seed, dim),
        coercivity, monotonicity, ref_check_integrability(model, grid, box, samples, seed),
        ref_estimate_contraction(model.neutral, box, samples, seed, dim), proposal]]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("seed", [0, 20260815])
@pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
def test_batched_checkers_match_per_sample_reference(name, seed):
    model = ORACLE_MODELS[name]()
    spec = neutral_cubic_rates(0.5, -1.0, -1.0, 1.0, 1.5) if name == "sec4" else flat_spec()
    # the shortest grid (one step per delay, horizon two delays) gives H two
    # sampled times and C2/C3 three; one sample gives the rate proposal a
    # single sampled time
    for grid, samples in [(GRID, 40), (SHORTEST_GRID, 40), (GRID, 1)]:
        got = _reports(model, spec, grid, samples, seed)
        assert got == _ref_reports(model, spec, grid, samples, seed)


# the (x, t) shapes of the kernel's calls at 500 samples: C2's 8 probes and 500 draws,
# C3's 5 + 500 pairs and the proposal's 500 pairs (both points of a pair in one stack)
# at their (S, 1) times, then H's 508 pairs at blocks of 3 of its 20 times
STACKS_AT_500 = ([((508, 1), (508, 1)), ((2, 505, 1), (505, 1)), ((2, 500, 1), (500, 1))]
                 + [((508, 1), (3, 1, 1))] * 6 + [((508, 1), (2, 1, 1))])


@pytest.mark.parametrize("which", [0, 1, 2, 3, None], ids=[
    "check_coercivity", "check_monotonicity", "propose_constant_rates", "check_integrability",
    "coefficient_checks"])
def test_one_call_per_evaluator_per_pass(monkeypatch, which):
    # one neutral, drift and diffusion call per kernel call, on the stack as the
    # checker holds it, neither reshaped nor joined with another: C2, C3 and the
    # proposal each at their own (S, 1) times, H once per block at (T, 1, 1) times
    calls = []
    plain = neutral_cubic_model(0.5, -1.0, -1.0, 1.0)

    def counted(name, fn):
        def wrapper(*args):
            calls.append((name, args))
            return fn(*args)
        return wrapper

    model = replace(plain, **{name: counted(name, getattr(plain, name))
                              for name in ("neutral", "drift", "diffusion")})
    monkeypatch.setattr(conditions, "H_BLOCK_ENTRIES", 3 * 508)
    stacks = parts_of(model, neutral_cubic_rates(0.5, -1.0, -1.0, 1.0, 2.0), GRID, 500, 5)
    assert [(x.shape, t.shape) for x, _, t in stacks] == STACKS_AT_500
    # C4's neutral call comes first, outside the kernel
    assert [name for name, _ in calls] == ["neutral"] + ["neutral", "drift", "diffusion"] * 10
    grid_times = GRID.times[GRID.steps_per_delay:]
    picked = {None: range(10), 3: range(3, 10)}.get(which, [which])
    for k in picked:
        x, y, t = stacks[k]
        (_, (dy,)), (_, drift_args), (_, diffusion_args) = calls[1 + 3 * k : 4 + 3 * k]
        assert dy is y and all(a is b for a, b in zip(drift_args + diffusion_args, 2 * (x, y, t)))
        assert set(t.ravel().tolist()) <= set(grid_times.tolist())
    if which == 3:
        blocks = np.concatenate([t.ravel() for _, _, t in stacks[3:]])
        assert blocks.tobytes() == grid_times[:-1].tobytes()
    if which is None:  # the three sampled stacks draw all 21 grid times of [0, 2]
        drawn = np.concatenate([t.ravel() for _, _, t in stacks[:3]])
        assert np.unique(drawn).tolist() == grid_times.tolist()


def test_kernel_takes_one_exp_per_time_not_per_point(monkeypatch):
    # a (T, P, d) stack of P paths at T grid nodes at (T, 1, 1) times: sec4's drift
    # runs once, and libm's exp sees the T times, not T x P points, in drift and
    # diffusion alike; every entry is bitwise the one-time-per-row result
    plain = neutral_cubic_model(0.5, -1.0, -0.5, 1.0)
    drifts, exps = [], []
    model = replace(plain, drift=lambda x, y, t: drifts.append(t.shape) or plain.drift(x, y, t))
    real_exp = model_module.libm_exp
    monkeypatch.setattr(model_module, "libm_exp", lambda v: exps.append(v.shape) or real_exp(v))
    t = make_grid(1.0, 2.0, 0.01).times[:, None, None]
    x, y = np.random.default_rng(3).uniform(-2.0, 2.0, size=(2, len(t), 7, 1))
    got = coefficients(model, x, y, t)
    assert drifts == [t.shape] and exps == [t.shape] * 2
    rows = np.repeat(t.ravel(), 7)[:, None]
    want = [plain.neutral(y), plain.drift(x.reshape(-1, 1), y.reshape(-1, 1), rows),
            plain.diffusion(x.reshape(-1, 1), y.reshape(-1, 1), rows)]
    assert [c.shape for c in got] == [x.shape, x.shape, x.shape + (1,)]
    assert [c.tobytes() for c in got] == [np.ascontiguousarray(c).tobytes() for c in want]


TIME_VARYING = ConditionSpec(
    kappa=0.5,
    growth_rate=lambda t: 1.0 - t,
    growth_rate_delayed=lambda t: 0.5 * t,
    local_rate=lambda t: 1.0 - t,
    local_rate_delayed=constant_rate(0.0),
    growth_delay_factor=1.0,
    local_delay_factor=1.0,
    box_radius=2.0,
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("seed", [0, 20260815])
def test_time_varying_rates_match_reference_and_hit_the_cap(seed):
    # the rates 1 - t turn negative after t = 1, so every sample drawn
    # later fails the rate inequalities, more than MAX_VIOLATIONS in all;
    # blowup_model's NaN and inf left sides count as infinite gaps and come
    # first, in the order drawn, so they fill its cap, while mixing_model's
    # finite sides leave room for the rate inequalities
    for model, rated in ((mixing_model(), True), (blowup_model(), False)):
        reports = check_conditions(model, TIME_VARYING, GRID, 150, seed)[0][1:3]
        for got, ref in zip(reports, (ref_coercivity, ref_monotonicity)):
            assert repr(got) == repr(ref(model, TIME_VARYING, GRID, 150, seed))
            assert len(got.violations) == MAX_VIOLATIONS
            finite = [math.isfinite(v.lhs - v.rhs) for v in got.violations]
            assert finite == sorted(finite)
            assert any("check" in v.inputs for v in got.violations) or not rated


def counted_violations(monkeypatch):
    """The argument tuples of every :class:`Violation` the checkers build from now on."""
    built, real = [], conditions.Violation
    monkeypatch.setattr(conditions, "Violation", lambda *args: built.append(args) or real(*args))
    return built


def test_finish_ranks_failures_and_builds_only_those_it_keeps(monkeypatch):
    # after a passing candidate, gaps 2, NaN, 4, inf, 2, -inf (rhs inf), -inf (lhs
    # -inf), 2, NaN (inf - inf) and 2: NaN and +inf gaps come first in candidate
    # order, then 4, then the ties at 2 in candidate order, then the -inf gaps
    lhs = np.array([1.0, 3.0, np.nan, 5.0, np.inf, 3.0, 0.0, -np.inf, 2.0, np.inf, 3.0])
    rhs = np.array([2.0, 1.0, 0.0, 1.0, 0.0, 1.0, np.inf, 0.0, 0.0, np.inf, 1.0])
    order = [2, 4, 9, 3, 1, 5, 8, 10, 6, 7]
    built = counted_violations(monkeypatch)
    monkeypatch.setattr(conditions, "_finish", np.errstate(all="ignore")(conditions._finish))
    for cap in (MAX_VIOLATIONS, 5):
        monkeypatch.setattr(conditions, "MAX_VIOLATIONS", cap)
        built.clear()
        report = conditions._finish("X", 11, lhs, rhs, lambda i: {"i": i})
        assert [v.inputs for v in report.violations] == [{"i": i} for i in order[:cap]]
        assert repr([(v.lhs, v.rhs) for v in report.violations]) == repr(
            [(float(lhs[i]), float(rhs[i])) for i in order[:cap]])
        assert len(built) == len(report.violations) and report.verdict == "fail"
    report = conditions._finish("X", 2, lhs[:1], rhs[:1], lambda i: {"i": i}, estimate=0.5)
    assert (report.violations, report.verdict, report.estimate) == ((), "pass", 0.5)


def test_a_failing_check_builds_only_the_violations_it_keeps(monkeypatch, cubic_model):
    # K~ = 50 > K = 5 fails the domination inequality at every sampled time, so
    # each of C2's and C3's 5,000 samples fails; each report builds its 100 only
    failing, finish = {}, conditions._finish

    def counted(condition_id, tested, lhs, rhs, *rest, **kwargs):
        failing[condition_id] = int(np.count_nonzero(conditions._failed(lhs, rhs)))
        return finish(condition_id, tested, lhs, rhs, *rest, **kwargs)

    monkeypatch.setattr(conditions, "_finish", counted)
    built = counted_violations(monkeypatch)
    spec = flat_spec(growth=5.0, growth_delayed=50.0, local=5.0, local_delayed=50.0)
    reports = check_conditions(cubic_model, spec, GRID, 5000, 3)[0]
    assert [r.verdict for r in reports] == ["pass", "fail", "fail", "pass"]
    assert failing["C2"] >= 5000 and failing["C3"] >= 5000
    assert [len(r.violations) for r in reports] == [0, MAX_VIOLATIONS, MAX_VIOLATIONS, 0]
    assert len(built) == 2 * MAX_VIOLATIONS


@pytest.mark.parametrize("entries", [1, 1 << 16])
def test_h_keeps_and_builds_the_first_non_finite_entries_in_grid_order(monkeypatch, entries):
    # inf_after_one is infinite at the 9 grid times after t = 1 on all 28 pairs:
    # 252 failures, all of gap inf, of which H builds and keeps the first 100, the
    # times ascending and each time's pairs in the order drawn, one time per block
    # or all in one
    pairs = _probes_and_draws(pcg64.Stream(3), 2.0, 1, _PAIRS, 20)
    monkeypatch.setattr(conditions, "H_BLOCK_ENTRIES", entries)
    built = counted_violations(monkeypatch)
    with np.errstate(all="ignore"):
        report = _integrability(inf_after_one(), GRID, pairs)
    times = GRID.times[GRID.steps_per_delay:-1].tolist()
    every = [{"t": t, "x": x.tolist(), "y": y.tolist()} for t in times if t > 1.0 for x, y in pairs]
    assert len(every) == 9 * 28 and report.samples_tested == 20 * 28
    assert [v.inputs for v in report.violations] == every[:MAX_VIOLATIONS]
    assert {(v.lhs, v.rhs) for v in report.violations} == {(math.inf, 0.0)}
    assert len(built) == MAX_VIOLATIONS


# every built-in model, with parameters of its own, beside the oracle models
BUILTIN_PARAMS = {"sec4": {"k": 0.5, "c1": -1.0, "c2": -0.5}, "linear_delay_ode": {"a": 0.7},
                  "pure_neutral": {"k": -0.3}, "additive_noise": {"dim": 3},
                  "cubic_drift": {"dim": 2}}
CONTRACT_MODELS = {**{"builtin_" + key: partial(builtin_model, key, 1.0, params)
                      for key, params in BUILTIN_PARAMS.items()}, **ORACLE_MODELS}


# every other function of time: the segments, sec4's rates and a constant rate
SEC4_RATES = partial(neutral_cubic_rates, 0.5, -1.0, -0.5, 1.0, 2.0)
TIME_FUNCTIONS = {
    "constant_segment": partial(constant_segment, 0.7),
    "affine_segment": partial(affine_segment, 0.5, -0.3),
    "constant_rate": partial(constant_rate, 2.5),
    **{"sec4_" + field: lambda field=field: getattr(SEC4_RATES(), field)
       for field in ("growth_rate", "growth_rate_delayed", "local_rate", "local_rate_delayed")},
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(CONTRACT_MODELS) + sorted(TIME_FUNCTIONS))
def test_time_arrays_give_each_entry_its_float_time_result(name):
    # an (S, 1) time stack, as the coefficient pass makes, and H's (T, 1, 1)
    # table against P pairs give each entry bitwise a float-t call on its row
    # alone; the grid times of [-1, 2] at step 0.01 include times where numpy's
    # exp rounds differently from libm's.  A function of time alone gets the
    # times as the rates do, (T,), and as the segment does, (T, 1).
    times = make_grid(1.0, 2.0, 0.01).times
    if name in TIME_FUNCTIONS:
        f = TIME_FUNCTIONS[name]()
        want = np.array([float(f(t)) for t in times.tolist()])
        for shape in (times.shape, times.shape + (1,)):
            assert _rows(f(times.reshape(shape)), shape).tobytes() == want.tobytes()
        return
    model = CONTRACT_MODELS[name]()
    d, m = model.state_dim, model.noise_dim
    x, y = np.random.default_rng(7).uniform(-2.0, 2.0, size=(2, len(times), d))
    p = 4
    for f, tail in ((model.drift, (d,)), (model.diffusion, (d, m))):
        def alone(i, t):
            return _rows(f(x[i], y[i], t), tail)

        stack = _rows(f(x, y, times[:, None]), times.shape + tail)
        want = np.array([alone(i, t) for i, t in enumerate(times.tolist())])
        assert stack.tobytes() == want.tobytes()
        table = _rows(f(x[:p], y[:p], times[:, None, None]), (len(times), p) + tail)
        want = np.array([[alone(i, t) for i in range(p)] for t in times.tolist()])
        assert table.tobytes() == want.tobytes()
    assert set(BUILTIN_PARAMS) == set(_BUILTINS)


# 13 pairs of sec4 and inf_after_one (d = m = 1) or blowup (d = m = 2) at 20 times:
# one time per block, ragged blocks of 3 or 15 times, one block
@pytest.mark.parametrize("entries", [1, 40, 200, 1 << 16])
@pytest.mark.parametrize("make, verdict", [
    (lambda: neutral_cubic_model(0.5, -1.0, -1.0, 1.0), "pass"), (blowup_model, "fail"),
    (inf_after_one, "fail")], ids=["sec4", "blowup", "inf_after_one"])
def test_blocked_integrability_matches_the_per_sample_reference(monkeypatch, make, verdict,
                                                                entries):
    # blowup_model has NaN and inf rows at every time, inf_after_one only inf rows
    model = make()
    pairs = _probes_and_draws(pcg64.Stream(3), 2.0, model.state_dim, _PAIRS, 5)
    monkeypatch.setattr(conditions, "H_BLOCK_ENTRIES", entries)
    with np.errstate(all="ignore"):
        got = _integrability(model, GRID, pairs)
    assert repr(got) == repr(ref_check_integrability(model, GRID, 2.0, 5, 3))
    assert (got.samples_tested, got.verdict) == (20 * 13, verdict)


@pytest.mark.parametrize("dim, entries", [(100, 1 << 16), (10, 1 << 16), (10, 5000)])
def test_h_blocks_stay_within_the_entry_bound(monkeypatch, dim, entries):
    # each block's diffusion stack, which |sigma|^2 squares, holds at most
    # H_BLOCK_ENTRIES entries, or one time's 13 x dim x dim when that is more
    model = additive_noise(1.0, dim)
    pairs = _probes_and_draws(pcg64.Stream(3), 2.0, dim, _PAIRS, 5)
    grid = make_grid(1.0, 2.0, 0.01)  # 200 times for H
    shapes, real = [], conditions._sqsum
    monkeypatch.setattr(conditions, "_sqsum", lambda s: shapes.append(s.shape) or real(s))
    monkeypatch.setattr(conditions, "H_BLOCK_ENTRIES", entries)
    report = _integrability(model, grid, pairs)
    per_time = 13 * dim * dim
    assert [s[1:] for s in shapes] == [(13, dim, dim)] * len(shapes)
    assert sum(s[0] for s in shapes) == report.samples_tested // 13 == 200
    assert len(shapes) == -(-200 // max(1, entries // per_time))
    assert max(math.prod(s) for s in shapes) <= max(entries, per_time)


def test_sec4_takes_any_scalar_time():
    model = neutral_cubic_model(0.5, -1.0, -0.5, 1.0)
    x, y = np.array([0.3, -1.1]), np.array([-0.2, 0.7])
    for f in (model.drift, model.diffusion):
        want = f(x, y, 0.0).tobytes()
        assert all(f(x, y, t).tobytes() == want for t in (0, np.int64(0), np.float32(0.0)))


@pytest.mark.parametrize("samples", [1, 40])
def test_shared_pass_reads_each_checkers_rates_at_its_own_times(samples):
    # C2 and C3 call each rate once on the distinct times that they drew,
    # ascending, then once on those less tau, and never at the times that only
    # another part of the pass drew
    read = []

    def logged(name):
        return lambda t: read.append((name, t.tolist())) or 1.0

    spec = ConditionSpec(0.5, *map(logged, ["K1", "K1~", "KR", "KR~"]), 1.0, 1.0, 1.5)
    model = cubic_drift(1.0, 2)
    stacks = parts_of(model, spec, GRID, samples, 3)
    drawn = [sorted(set(t.ravel().tolist())) for _, _, t in stacks[:2]]
    assert drawn[0] != drawn[1]
    own = [(name, [t - lag for t in times])
           for names, times in zip([("K1", "K1~"), ("KR", "KR~")], drawn)
           for name in names for lag in (0.0, model.delay)]
    assert read == own


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 17])
def test_row_kernels_round_like_scalar_numpy(dim):
    # the digests rest on these helpers rounding each row exactly as np.dot,
    # np.linalg.norm and np.sum do on that row alone
    rng = np.random.default_rng(dim)
    a = rng.standard_normal((300, dim)) * 10.0 ** rng.uniform(-3, 3, size=(300, 1))
    b = rng.standard_normal((300, dim))
    s = rng.standard_normal((300, dim, 3))
    bits = lambda v: np.asarray(v, dtype=float).view(np.int64)
    assert (bits(_rowdot(a, b)) == bits([np.dot(u, v) for u, v in zip(a, b)])).all()
    assert (bits(_rownorm(a)) == bits([np.linalg.norm(u) for u in a])).all()
    assert (bits(_sqsum(s)) == bits([np.sum(u * u) for u in s])).all()


def test_checkers_raise_no_warnings_on_zero_probes(cubic_model, cubic_rates):
    # the probes include zero vectors; no warning leaves the checkers on them
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _reports(cubic_model, cubic_rates, GRID, 30, 4)
        _reports(cubic_drift(1.0, 2), flat_spec(), GRID, 30, 4)


@pytest.mark.parametrize("box", [1e308, float("nan"), 0.0, -1.0])
def test_box_without_a_finite_sampling_width_is_rejected(box):
    # uniform draws from [-box, box] need 2 * box to be a positive float; the
    # only box of check_conditions is the spec's
    with pytest.raises(InvalidRange):
        ConditionSpec(0.5, *[constant_rate(1.0)] * 4, 1.0, 1.0, box_radius=box)


def test_box_whose_squared_sampling_distances_overflow_is_rejected():
    # two points of the box differ by up to 2 * box in each coordinate: this
    # box keeps their squared distance finite in one dimension (0.64 of the
    # float maximum) but not in two (1.28 of it)
    box = 0.4 * math.sqrt(sys.float_info.max)
    spec = ConditionSpec(0.5, *[constant_rate(1.0)] * 4, 1.0, 1.0, box_radius=box)
    for dim, accepted in [(1, True), (2, False)]:
        model = cubic_drift(1.0, dim)
        if accepted:
            check_conditions(model, spec, GRID, 5, 0)
        else:
            with pytest.raises(InvalidRange, match="box_radius"):
                check_conditions(model, spec, GRID, 5, 0)
    with pytest.raises(InvalidRange, match="box_radius"):
        ConditionSpec(0.5, *[constant_rate(1.0)] * 4, 1.0, 1.0, box_radius=1e200)


def test_zero_samples_are_rejected():
    with pytest.raises(InvalidRange, match="samples >= 1"):
        check_conditions(cubic_drift(1.0), flat_spec(), GRID, 0, 0)
