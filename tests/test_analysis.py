"""Convergence rows, perturbation integrals, moments, and inequalities."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsdde_sim import analysis
from nsdde_sim import (
    DegenerateSampling,
    DimensionMismatch,
    IncompatibleGrids,
    InvalidRange,
    LevelPairRow,
    NsddeModel,
    additive_noise,
    affine_segment,
    check_contraction_sup_bound,
    constant_rate,
    constant_segment,
    converge_study,
    estimate_moments,
    exceedance_trend_ok,
    generate,
    linear_delay_ode,
    make_grid,
    neutral_cubic_model,
    neutral_cubic_rates,
    perturbation_integrability,
    pure_neutral,
    simulate,
)
from test_acceptance import power_split_bound


def grids_of(*ladder, horizon=2.0):
    """The nested grids on tau = 1 of a ladder of steps, coarsest first."""
    return analysis.ladder_grids(1.0, horizon, ladder)


def ramp_model(slope: float = 1.0) -> NsddeModel:
    vec = np.full(1, slope)
    return NsddeModel(
        1, 1, 1.0,
        neutral=lambda y: np.zeros(1),
        drift=lambda x, y, t: vec,
        diffusion=lambda x, y, t: np.zeros((1, 1)),
    )


# --- convergence ------------------------------------------------------------


def test_converge_study_on_exact_scheme():
    # additive noise is integrated exactly at every step size, so coupled
    # levels agree to rounding and nothing ever exceeds epsilon
    rows = converge_study(
        additive_noise(1.0), constant_segment(0.0), grids_of(0.1, 0.05, 0.025),
        epsilon=1e-6, n_paths=20, seed=31,
    )
    assert len(rows) == 2
    for row in rows:
        assert row.exceed_count == 0
        assert row.diverged_count == 0
        assert row.max_sup_diff <= 1e-12
    assert exceedance_trend_ok(rows)


def test_deterministic_model_halves_per_level():
    # sigma == 0: every path is identical and the first-order scheme's
    # level-to-level sup difference halves with the step
    rows = converge_study(
        linear_delay_ode(1.0, 1.0), constant_segment(1.0), grids_of(0.1, 0.05, 0.025, 0.0125),
        epsilon=1e-9, n_paths=3, seed=7,
    )
    means = [row.mean_sup_diff for row in rows]
    for row in rows:
        assert np.ptp(row.sup_diffs) == 0.0
    for coarse, fine in zip(means, means[1:]):
        assert coarse / fine == pytest.approx(2.0, rel=0.2)


def test_converge_study_validates_ladder(cubic_model, unit_segment):
    # a ladder of steps is validated once, where its grids are built
    with pytest.raises(InvalidRange, match="strictly decreasing"):
        grids_of(0.05, 0.1)
    with pytest.raises(IncompatibleGrids):
        # 0.1 / 0.04 = 2.5: grids do not nest
        grids_of(0.1, 0.04)
    # the studies check only what is their own
    for short in ([], grids_of(0.1)):
        with pytest.raises(InvalidRange, match="at least two ladder levels"):
            converge_study(cubic_model, unit_segment, short, 0.1, 4, 0)
    with pytest.raises(InvalidRange, match="at least one step"):
        perturbation_integrability(cubic_model, unit_segment, [], 4, 0, 10.0,
                                   constant_rate(1.0))
    with pytest.raises(InvalidRange, match="n_paths must be >= 1"):
        converge_study(cubic_model, unit_segment, grids_of(0.1, 0.05), 0.1, 0, 0)


def synthetic_rows(counts, n=100):
    rows = []
    for i, c in enumerate(counts):
        rows.append(
            LevelPairRow(
                level_pair=f"{i}-{i + 1}",
                delta_coarse=0.1 / 2**i,
                delta_fine=0.05 / 2**i,
                epsilon=0.1,
                n_paths=n,
                exceed_count=c,
                diverged_count=0,
                sup_diffs=np.zeros(n),
            )
        )
    return tuple(rows)


def test_row_flagged_when_over_one_percent_diverge():
    def row(diverged):
        return LevelPairRow(
            level_pair="0-1", delta_coarse=0.1, delta_fine=0.05, epsilon=0.1,
            n_paths=100, exceed_count=0, diverged_count=diverged,
            sup_diffs=np.zeros(100 - diverged),
        )

    assert not row(0).suspect
    assert not row(1).suspect  # exactly 1% is still tolerated
    assert row(2).suspect


def test_trend_accepts_decreasing_and_banded_noise():
    assert exceedance_trend_ok(synthetic_rows([80, 50, 20]))
    # a 5-point uptick sits inside the 95% band at n=100
    assert exceedance_trend_ok(synthetic_rows([50, 55, 20]))


def test_trend_rejects_clear_increase():
    assert not exceedance_trend_ok(synthetic_rows([50, 80]))


@settings(max_examples=100)
@given(
    eps_lo=st.floats(min_value=1e-6, max_value=0.5),
    scale=st.floats(min_value=1.0, max_value=10.0),
    data=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=50),
)
def test_exceedance_monotone_in_epsilon(eps_lo, scale, data):
    sups = np.asarray(data)
    eps_hi = eps_lo * scale
    assert (sups > eps_hi).sum() <= (sups > eps_lo).sum()


# --- perturbation integrals -------------------------------------------------


def test_sawtooth_integral_closed_form():
    # For b = c, sigma = 0, D = 0 the solution is the exact ramp c * t and
    # p(t) is a sawtooth; each coarse cell integrates to c * delta^2 / 2,
    # so a level with M cells gives exactly c * M * delta^2 / 2.
    c = 1.0
    rows = perturbation_integrability(
        ramp_model(c), constant_segment(0.0), grids_of(0.1, 0.05, 0.025),
        n_paths=3, seed=0, radius=100.0, weight=constant_rate(1.0),
    )
    for row in rows:
        m = round(2.0 / row.delta)
        expected = c * m * row.delta**2 / 2.0
        assert row.mean_abs_integral == pytest.approx(expected, rel=1e-10)
        # unit weight: the weighted integral is the plain one
        assert row.mean_weighted_integral == pytest.approx(expected, rel=1e-10)


def test_sawtooth_scales_with_slope():
    fast = perturbation_integrability(
        ramp_model(3.0), constant_segment(0.0), grids_of(0.1, 0.05),
        n_paths=1, seed=0, radius=1000.0, weight=constant_rate(1.0),
    )
    assert fast[0].mean_abs_integral == pytest.approx(3.0 * 20 * 0.01 / 2, rel=1e-10)


def ramp_integrals(xi, radius: float) -> list:
    """(abs, weighted) mean integrals per level of X(t) = t on [0, 2], ladder [0.5, 0.25]."""
    rows = perturbation_integrability(
        ramp_model(), xi, grids_of(0.5, 0.25),
        n_paths=1, seed=0, radius=radius, weight=constant_rate(1.0),
    )
    return [(row.mean_abs_integral, row.mean_weighted_integral) for row in rows]


def test_integration_stops_at_first_fine_node_above_a_third_of_the_radius():
    # radius 3: R/3 = 1 is reached at t = 1 but only exceeded at t = 1.25, so
    # both levels integrate their sawtooth over [0, 1.25]: two coarse cells of
    # 0.125 plus 0.03125 at level 0, five fine intervals of 0.03125 at level 1
    assert ramp_integrals(constant_segment(0.0), radius=3.0) == [
        (0.28125, 0.28125), (0.15625, 0.15625),
    ]


def test_truncation_ignores_the_history():
    # xi(theta) = 10 theta reaches |xi| = 10 > R/3 = 3 on [-1, 0), but the
    # stopping time looks at [0, horizon] only, where X(t) = t stays below 3
    assert ramp_integrals(affine_segment(0.0, 10.0), radius=9.0) == [
        (0.5, 0.5), (0.25, 0.25),
    ]


def test_tiny_radius_truncates_immediately(cubic_model, unit_segment):
    # |X(0)| = 1 > radius/3 already, so every integral window is empty,
    # while both paths stay inside the radius and are kept
    rows = perturbation_integrability(
        cubic_model, unit_segment, grids_of(0.1, 0.05),
        n_paths=2, seed=1, radius=2.9, weight=constant_rate(1.0),
    )
    for row in rows:
        assert row.mean_abs_integral == row.mean_weighted_integral == 0.0
        assert row.diverged_count == 0


@pytest.mark.parametrize("study, where", [
    ("converge", "level pair 0-1 (steps 0.1 and 0.05)"),
    ("perturbation", "level 0 (step 0.1)"),
    ("moments", "level 0 (step 0.1)"),
])
def test_every_path_diverged_raises(cubic_model, unit_segment, study, where):
    # |X(0)| = 1 > radius on every path: an empty sample is an error, not a
    # pair or a level that reads as perfect convergence
    run = {
        "converge": lambda: converge_study(cubic_model, unit_segment, grids_of(0.1, 0.05), 0.1,
                                           2, 1, 0.1),
        "perturbation": lambda: perturbation_integrability(
            cubic_model, unit_segment, grids_of(0.1, 0.05), 2, 1, 0.1, constant_rate(1.0)),
        "moments": lambda: estimate_moments(cubic_model, unit_segment, make_grid(1.0, 2.0, 0.1),
                                            2, 1, 0.1),
    }[study]
    with pytest.raises(DegenerateSampling) as info:
        run()
    assert str(info.value) == f"every simulated path diverged at {where}"


@pytest.mark.parametrize("study", ["converge", "perturbation", "moments"])
def test_one_generate_and_one_simulate_per_block(monkeypatch, cubic_model, unit_segment, study):
    # 5 paths in blocks of 2 are 3 blocks: each draws its noise once and
    # simulates every level of the 3-level ladder (moments: 1 level) in one call
    calls = []
    for name in ("generate", "simulate"):
        def counted(*args, _real=getattr(analysis, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(analysis, name, counted)
    monkeypatch.setattr(analysis, "PATH_BLOCK", 2)
    grids = grids_of(0.1, 0.05, 0.025)
    {
        "converge": lambda: converge_study(cubic_model, unit_segment, grids, 0.1, 5, 1),
        "perturbation": lambda: perturbation_integrability(
            cubic_model, unit_segment, grids, 5, 1, 6.0, constant_rate(1.0)),
        "moments": lambda: estimate_moments(cubic_model, unit_segment, grids[0], 5, 1),
    }[study]()
    assert (calls.count("generate"), calls.count("simulate")) == (3, 3)


def test_perturbation_decreases_for_cubic_model(cubic_model, unit_segment):
    rows = perturbation_integrability(
        cubic_model, unit_segment, grids_of(0.1, 0.05, 0.025),
        n_paths=50, seed=42, radius=6.0, weight=constant_rate(1.0),
    )
    integrals = [row.mean_abs_integral for row in rows]
    assert integrals[0] > integrals[1] > integrals[2] > 0.0


# --- moments ----------------------------------------------------------------


def test_brownian_moment_oracle():
    # X = B: E |X(t)|^2 = t peaks at the horizon with value 2
    report = estimate_moments(
        additive_noise(1.0), constant_segment(0.0), make_grid(1.0, 2.0, 0.05),
        n_paths=400, seed=29,
    )
    assert report.diverged_count == 0
    assert report.sup_time == 2.0
    assert abs(report.sup_mean_square - 2.0) <= 3.0 * report.std_error
    assert report.mean_sup_square >= report.sup_mean_square


def test_constant_path_moments_are_exact():
    # xi == 1 is a fixed point of the neutral recursion, so every statistic
    # collapses to 1 with zero spread
    report = estimate_moments(
        pure_neutral(0.5, 1.0), constant_segment(1.0), make_grid(1.0, 2.0, 0.25),
        n_paths=8, seed=3,
    )
    assert report.sup_mean_square == 1.0
    assert report.mean_sup_square == 1.0
    assert report.std_error == 0.0


def positive_blow_up() -> NsddeModel:
    """dX = dB, with an infinite drift for positive states after t = 1.5."""
    return NsddeModel(
        1, 1, 1.0,
        neutral=lambda y: np.zeros(1),
        drift=lambda x, y, t: np.where((t < 1.5) | (x <= 0), 0.0, np.inf),
        diffusion=lambda x, y, t: np.eye(1),
    )


def test_moments_exclude_diverged_paths():
    report = estimate_moments(
        positive_blow_up(), constant_segment(0.0), make_grid(1.0, 2.0, 0.5), n_paths=40, seed=0
    )
    assert 0 < report.diverged_count < 40
    assert np.isfinite(report.sup_mean_square)


def test_moments_with_one_kept_path_raise():
    # path 0 of seed 1 blows up and path 1 does not: one path has no
    # standard error, and 0.0 would read as an exact estimate
    with pytest.raises(DegenerateSampling) as info:
        estimate_moments(positive_blow_up(), constant_segment(0.0), make_grid(1.0, 2.0, 0.5),
                         n_paths=2, seed=1)
    assert str(info.value) == ("only one simulated path did not diverge; "
                               "a standard error needs two")


def test_moments_all_diverged_raises():
    from nsdde_sim import cubic_drift

    with pytest.raises(DegenerateSampling):
        estimate_moments(
            cubic_drift(1.0), constant_segment(2.0), make_grid(1.0, 2.0, 0.25), n_paths=4, seed=0
        )


def test_moments_need_two_paths(cubic_model, unit_segment):
    with pytest.raises(InvalidRange):
        estimate_moments(cubic_model, unit_segment, make_grid(1.0, 2.0, 0.1), n_paths=1, seed=0)


@pytest.mark.parametrize("radius, diverged", [(6.0, 42), (3.0e6, 34)])
def test_studies_share_one_divergence_verdict(cubic_model, radius, diverged):
    # explicit Euler on sec4 from xi = 3 at step 0.5 blows up to huge but
    # finite values on 34 of these paths, and 8 more pass |X| = 6 on the way
    xi = constant_segment(3.0)
    grids = grids_of(0.5)
    moments = estimate_moments(cubic_model, xi, grids[0], 50, 1, radius)
    (row,) = perturbation_integrability(cubic_model, xi, grids, 50, 1, radius,
                                        constant_rate(1.0))
    assert moments.diverged_count == row.diverged_count == diverged


@pytest.mark.parametrize("study", ["converge", "moments", "perturbation"])
def test_radius_past_the_squared_norms_is_rejected(cubic_model, unit_segment, study):
    # sup |X| is compared through |X|^2, which overflows past sqrt(float max)
    # (1.34e154): a path inside a 1e200 ball could not be told from a blow-up
    grids = grids_of(0.5, 0.25)
    run = {
        "converge": lambda r: converge_study(cubic_model, unit_segment, grids, 0.1, 2, 0, r),
        "moments": lambda r: estimate_moments(cubic_model, unit_segment, grids[0], 2, 0, r),
        "perturbation": lambda r: perturbation_integrability(
            cubic_model, unit_segment, grids, 2, 0, r, constant_rate(1.0)),
    }[study]
    with pytest.raises(InvalidRange, match="truncation radius"):
        run(1e200)
    run(math.sqrt(sys.float_info.max))


def test_radius_bound_is_sqrt_float_max_itself():
    bound = math.sqrt(sys.float_info.max)
    assert bound == 1.3407807929942596e+154
    analysis.check_radius(bound)
    past = math.nextafter(bound, math.inf)
    with pytest.raises(InvalidRange) as info:
        analysis.check_radius(past)
    assert str(info.value) == f"truncation radius must lie in (0, 1.34e154], got {past!r}"


NAN = float("nan")


@pytest.mark.parametrize("call", [
    lambda m, xi: neutral_cubic_model(0.5, NAN, -1.0, 1.0),
    lambda m, xi: neutral_cubic_rates(0.5, -1.0, NAN, 1.0, 2.0),
    lambda m, xi: constant_rate(NAN),
    lambda m, xi: converge_study(m, xi, grids_of(0.1, 0.05), NAN, 4, 0),
    lambda m, xi: converge_study(m, xi, grids_of(0.1, 0.05), 0.1, 4, 0, radius=NAN),
    lambda m, xi: perturbation_integrability(m, xi, grids_of(0.1, 0.05), 4, 0, NAN,
                                             constant_rate(1.0)),
    lambda m, xi: estimate_moments(m, xi, make_grid(1.0, 2.0, 0.1), 4, 0, radius=NAN),
    lambda m, xi: power_split_bound(1.0, 1.0, NAN, 1.0),
    lambda m, xi: power_split_bound(1.0, 1.0, 2.0, NAN),
], ids=["cubic_model_c1", "cubic_rates_c2", "constant_rate", "converge_epsilon",
        "converge_radius", "perturbation_radius", "moments_radius", "power_split_p",
        "power_split_epsilon"])
def test_nan_fails_range_checks(cubic_model, unit_segment, call):
    # each check is written so that NaN fails it, before any work is done
    with pytest.raises(InvalidRange):
        call(cubic_model, unit_segment)


# --- elementary inequalities ------------------------------------------------


@settings(max_examples=300)
@given(
    a=st.floats(min_value=-50.0, max_value=50.0),
    b=st.floats(min_value=-50.0, max_value=50.0),
    p=st.floats(min_value=1.0001, max_value=6.0),
    epsilon=st.floats(min_value=1e-4, max_value=100.0),
)
def test_power_split_holds_pointwise(a, b, p, epsilon):
    lhs, rhs = power_split_bound(a, b, p, epsilon)
    assert lhs <= rhs * (1.0 + 1e-12) + 1e-300


def test_power_split_vectorized_and_validated():
    a = np.linspace(-2.0, 2.0, 11)
    lhs, rhs = power_split_bound(a, a[::-1], 2.0, 1.0)
    assert lhs.shape == (11,)
    assert (lhs <= rhs + 1e-12).all()
    with pytest.raises(InvalidRange):
        power_split_bound(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(InvalidRange):
        power_split_bound(1.0, 1.0, 2.0, 0.0)


def test_sup_bound_holds_on_simulated_path(cubic_model, unit_segment):
    grid = make_grid(1.0, 2.0, 0.05)
    paths = simulate(cubic_model, unit_segment, [grid], generate(grid, 1, 37, range(10)))[0]
    path_ok = check_contraction_sup_bound(paths, grid, cubic_model.neutral, 0.5)
    assert path_ok.shape == (10,)
    assert path_ok.all()
    single = simulate(cubic_model, unit_segment, [grid], generate(grid, 1, 37, [3]))[0]
    ok = check_contraction_sup_bound(single, grid, cubic_model.neutral, 0.5)
    assert ok.tolist() == [True]


def test_sup_bound_trivial_on_fixed_point():
    model = pure_neutral(0.5, 1.0)
    grid = make_grid(1.0, 2.0, 0.25)
    path = simulate(model, constant_segment(1.0), [grid], generate(grid, 1, 0, [0]))[0]
    for neutral, kappa in [(model.neutral, 0.5), (lambda y: 0.0 * y, 0.3)]:
        # with D == 0 the rhs dominates algebraically (1/(1-kappa)^2 > 1), so
        # the bound holds for any claimed kappa
        ok = check_contraction_sup_bound(path, grid, neutral, kappa=kappa)
        assert ok.tolist() == [True]


@pytest.mark.parametrize("kappa", [0.0, 1.0, 1.5, math.nan])
def test_sup_bound_rejects_kappa_outside_zero_to_one(kappa):
    grid = make_grid(1.0, 2.0, 0.5)
    path = simulate(pure_neutral(0.5, 1.0), constant_segment(1.0), [grid],
                    generate(grid, 1, 0, [0]))[0]
    with pytest.raises(InvalidRange, match="kappa must lie in"):
        check_contraction_sup_bound(path, grid, lambda y: 0.5 * y, kappa)


def test_sup_bound_detects_understated_contraction():
    # A fabricated path that accumulates through D(y) = 0.9 y must violate
    # the bound computed with a claimed kappa of 0.5: values rise by a
    # factor ~1/(1 - 0.9) while the claim caps them at 1/(1 - 0.5)^2.
    grid = make_grid(1.0, 4.0, 0.5)
    w = [1.0, 1.9, 2.71, 3.439]
    values = np.array([0.0, 0.0, 0.0] + [v for v in w for _ in (0, 1)]).reshape(-1, 1, 1)
    ok = check_contraction_sup_bound(values, grid, lambda y: 0.9 * y, kappa=0.5)
    assert ok.tolist() == [False]  # from X(2.5) = 2.71 on, 2.71^2 > 4
    # with the true contraction constant the same path passes
    ok_true = check_contraction_sup_bound(values, grid, lambda y: 0.9 * y, kappa=0.9)
    assert ok_true.tolist() == [True]


def test_sup_bound_reports_a_diverged_path_as_not_ok():
    # the violating path above, a constant path that holds, and a path that
    # blows up after t = 1 without violating the bound before
    grid = make_grid(1.0, 4.0, 0.5)
    w = [1.0, 1.9, 2.71, 3.439]
    violating = [0.0, 0.0, 0.0] + [v for v in w for _ in (0, 1)]
    blown_up = [0.0, 0.0, 0.0, 0.5, 0.5] + [np.inf] * 6
    values = np.array([violating, [1.0] * 11, blown_up]).T[:, :, None]
    ok = check_contraction_sup_bound(values, grid, lambda y: 0.9 * y, kappa=0.5)
    assert ok.tolist() == [False, True, False]


def test_sup_bound_rejects_values_off_the_grid():
    # a stack with a row too few or too many for its grid, or without a
    # state axis, is not read as a shifted or shortened path
    grid = make_grid(1.0, 4.0, 0.5)
    rows = grid.steps_per_delay + grid.total_steps + 1
    neutral = pure_neutral(0.5, 1.0).neutral
    ok = check_contraction_sup_bound(np.zeros((rows, 2, 1)), grid, neutral, 0.5)
    assert ok.tolist() == [True, True]
    for shape in [(rows - 1, 2, 1), (rows + 1, 2, 1), (rows, 2)]:
        with pytest.raises(DimensionMismatch, match="does not match grid"):
            check_contraction_sup_bound(np.zeros(shape), grid, neutral, 0.5)


# --- path-major reference reductions -----------------------------------------
# The studies reduce the engine's time-major values in place.  These are the
# reductions as they ran on path-major copies; the studies must reproduce
# them bit for bit, including across a PATH_BLOCK boundary.


def mixing_model() -> NsddeModel:
    """2 states, each mixing both noise components; with a steep start some
    coarse paths blow up or grow huge."""
    scale = np.array([[0.3, -0.7], [1.1, 0.2]])
    return NsddeModel(
        2, 2, 1.0,
        neutral=lambda y: 0.4 * y[..., ::-1],
        drift=lambda x, y, t: -x * (x * x).sum(axis=-1, keepdims=True) + 0.3 * y,
        diffusion=lambda x, y, t: scale * (1.0 + 0.5 * x[..., :, None] - 0.2 * y[..., None, :]),
    )


def path_major_levels(model, xi, horizon, ladder, n_paths, seed):
    """Every level on the finest grid as (paths, M + 1, d) copies, all paths
    in one engine call."""
    grids = [make_grid(1.0, horizon, delta) for delta in ladder]
    fine = grids[-1]
    fine_noise = generate(fine, model.noise_dim, seed, range(n_paths))
    levels = []
    for j in range(len(grids)):
        path = simulate(model, xi, grids[j:], fine_noise)[0]
        values = np.ascontiguousarray(np.moveaxis(path[fine.steps_per_delay :], 1, 0))
        levels.append((values, np.isfinite(path).all(axis=(0, 2))))
    return fine, levels


def reference_kept(level, radius):
    """Per path: sup |X| <= radius, False for a NaN or inf."""
    with np.errstate(all="ignore"):
        return np.sqrt(np.einsum("pij,pij->pi", level, level).max(axis=1)) <= radius


def reference_sups(levels, radius):
    kept = [reference_kept(level, radius) for level, _ in levels]
    return [
        np.linalg.norm(lo[lo_ok & hi_ok] - hi[lo_ok & hi_ok], axis=-1).max(axis=-1)
        for (lo, _), (hi, _), lo_ok, hi_ok in zip(levels, levels[1:], kept, kept[1:])
    ]


def reference_moments(level, finite, radius):
    kept = level[finite]
    squares = np.einsum("pij,pij->pi", kept, kept)
    stacked = squares[np.sqrt(squares.max(axis=1)) <= radius]
    mean_curve = stacked.mean(axis=0)
    peak = int(np.argmax(mean_curve))
    spread = float(stacked[:, peak].std(ddof=1))
    return (stacked.shape[0], float(mean_curve[peak]), float(stacked.max(axis=1).mean()),
            spread / np.sqrt(stacked.shape[0]), peak)


def reference_perturbation(fine, levels, horizon, ladder, radius, weight):
    m_fine, delta_f = fine.total_steps, fine.delta
    weights = np.array([weight(float(t)) for t in fine.times[fine.steps_per_delay :]])
    out = []
    for delta, (level, _) in zip(ladder, levels):
        factor = fine.steps_per_delay // make_grid(1.0, horizon, delta).steps_per_delay
        anchors = (np.arange(m_fine) // factor) * factor
        vals = []
        for ref in level[reference_kept(level, radius)]:
            exceeded = np.linalg.norm(ref, axis=1) > radius / 3.0
            stop = int(np.argmax(exceeded)) if exceeded.any() else m_fine
            if stop == 0:
                vals.append((0.0, 0.0))
                continue
            left = np.linalg.norm(ref[anchors[:stop]] - ref[:stop], axis=1)
            right = np.linalg.norm(ref[anchors[:stop]] - ref[1 : stop + 1], axis=1)
            vals.append((
                0.5 * delta_f * float((left + right).sum()),
                0.5 * delta_f * float((left * weights[:stop] + right * weights[1 : stop + 1]).sum()),
            ))
        out.append((float(np.mean([v[0] for v in vals])), float(np.mean([v[1] for v in vals])),
                    len(level) - len(vals)))
    return out


# at horizon 2.5 the last delay window is half full: the engine's packing and
# in-cell fill, and the quadrature's cell view, must cover it as well
@pytest.mark.parametrize("which, horizon", [
    pytest.param("additive_noise_3", 2.0, id="additive_noise_3"),
    pytest.param("mixing_2x2", 2.0, id="mixing_2x2"),
    pytest.param("additive_noise_3", 2.5, id="additive_noise_3-horizon_2.5"),
    pytest.param("mixing_2x2", 2.5, id="mixing_2x2-horizon_2.5"),
])
def test_studies_match_a_path_major_reduction(which, horizon):
    if which == "mixing_2x2":
        model, xi = mixing_model(), affine_segment(1.0, 0.5, 2)
    else:
        model, xi = additive_noise(1.0, 3), affine_segment(0.5, 0.3, 3)
    ladder, n_paths, seed = (0.5, 0.25, 0.0625), 1030, 7
    fine, levels = path_major_levels(model, xi, horizon, ladder, n_paths, seed)

    grids = grids_of(*ladder, horizon=horizon)
    rows = converge_study(model, xi, grids, 0.5, n_paths, seed)
    for row, sups in zip(rows, reference_sups(levels, 3.0e6)):
        assert row.sup_diffs.tobytes() == sups.tobytes()
        assert row.diverged_count == n_paths - sups.size
        assert row.exceed_count == int((sups > 0.5).sum())

    moments_radius = 50.0
    report = estimate_moments(model, xi, grids[0], n_paths, seed, moments_radius)
    coarse, ((level, finite),) = path_major_levels(model, xi, horizon, ladder[:1], n_paths, seed)
    used, sup_ms, mean_ss, se, peak = reference_moments(level, finite, moments_radius)
    assert report.diverged_count == n_paths - used
    assert (report.sup_mean_square, report.mean_sup_square, report.std_error) == (sup_ms, mean_ss, se)
    assert report.sup_time == coarse.times[peak + coarse.steps_per_delay]

    weight = lambda t: 1.0 + t  # noqa: E731
    prows = perturbation_integrability(model, xi, grids, n_paths, seed, 6.0, weight)
    got = [(r.mean_abs_integral, r.mean_weighted_integral, r.diverged_count) for r in prows]
    assert got == reference_perturbation(fine, levels, horizon, ladder, 6.0, weight)


@pytest.mark.parametrize("n_paths", [1, 2, 3])
@pytest.mark.parametrize("radius", [4.5, 6.0])
def test_perturbation_sums_each_path_in_one_path_order(cubic_model, cubic_rates, unit_segment,
                                                       radius, n_paths):
    # M = 160 fine intervals, past numpy's 128-term pairwise block, and radii
    # at which the paths stop at different nodes: every truncated integral
    # must be summed as a sum over that one path's intervals alone (summing
    # zero-padded rows moves the last bits of some of these means)
    ladder = (0.1, 0.05, 0.025, 0.0125)
    grids = grids_of(*ladder)
    for seed in range(15):
        fine, levels = path_major_levels(cubic_model, unit_segment, 2.0, ladder, n_paths, seed)
        rows = perturbation_integrability(cubic_model, unit_segment, grids, n_paths, seed,
                                          radius, cubic_rates.local_rate)
        got = [(r.mean_abs_integral, r.mean_weighted_integral, r.diverged_count)
               for r in rows]
        assert got == reference_perturbation(fine, levels, 2.0, ladder, radius,
                                             cubic_rates.local_rate), seed
