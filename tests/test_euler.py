"""Scheme recursion, refinement onto finer noise grids, ladder calls and path-batched runs."""

import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsdde_sim import (
    BrownianPath,
    DimensionMismatch,
    IncompatibleGrids,
    InitialSegment,
    InvalidRange,
    NsddeModel,
    additive_noise,
    affine_segment,
    coarsen,
    constant_segment,
    cubic_drift,
    generate,
    linear_delay_ode,
    make_grid,
    neutral_cubic_model,
    pure_neutral,
    simulate,
)


def finite(values: np.ndarray) -> np.ndarray:
    """Per path of a time-major (rows, paths, d) stack: every value finite."""
    return np.isfinite(values).all(axis=(0, 2))


def drifted_neutral(k: float, tau: float, rate: float = 1.0) -> NsddeModel:
    """D(y) = k*y, b = rate, sigma = 0: solvable by hand."""
    zero_mat = np.zeros((1, 1))
    vec = np.full(1, rate)
    return NsddeModel(
        1, 1, tau,
        neutral=lambda y: k * y,
        drift=lambda x, y, t: vec,
        diffusion=lambda x, y, t: zero_mat,
    )


def test_hand_recursion_oracle():
    # Worked by hand before implementation, tolerance zero:
    #   X1 = 0.5*1 + 1 - 0.5*1 + 0.5 = 1.5
    #   X2 = 0.5*1 + 1.5 - 0.5*1 + 0.5 = 2.0
    #   X3 = 0.5*1.5 + 2.0 - 0.5*1 + 0.5 = 2.75
    grid = make_grid(tau=1.0, horizon=1.5, delta=0.5)
    noise = generate(grid, 1, seed=0, path_index=[0])
    path = simulate(drifted_neutral(0.5, 1.0), constant_segment(1.0), [grid], noise)[0]
    assert path[:, 0, 0].tolist() == [1.0, 1.0, 1.0, 1.5, 2.0, 2.75]


def test_pure_neutral_single_step():
    # X(0.5) = conserved + 0.5 * xi(-0.5) = 1 + 0.5 * 0.5 = 1.25
    grid = make_grid(1.0, 2.0, 0.5)
    noise = generate(grid, 1, 5, [0])
    path = simulate(pure_neutral(0.5, 1.0), affine_segment(1.0, 1.0), [grid], noise)[0]
    # grid index 1 is row 1 + N of values
    assert path[1 + grid.steps_per_delay, 0, 0] == 1.25


def test_values_rows_are_signed_indices_shifted_by_the_delay():
    grid = make_grid(1.0, 2.0, 0.5)
    path = simulate(
        drifted_neutral(0.5, 1.0), constant_segment(1.0), [grid], generate(grid, 1, 0, [0])
    )[0]
    n = grid.steps_per_delay
    assert path[-2 + n, 0, 0] == 1.0
    assert path[0 + n, 0, 0] == 1.0
    assert path[1 + n, 0, 0] == 1.5
    assert grid.times[-2 + n] == -1.0 and grid.times[1 + n] == 0.5


@pytest.mark.parametrize("delta", [0.5, 0.25, 0.125])
def test_neutral_conservation(delta):
    # X(t) - k X(t-tau) is a telescoping invariant of the recursion when
    # b = sigma = 0; it must hold to near machine precision at every node.
    k = 0.7
    grid = make_grid(1.0, 3.0, delta)
    xi = affine_segment(1.0, 1.0)
    path = simulate(pure_neutral(k, 1.0), xi, [grid], generate(grid, 1, 3, [0]))[0]
    n = grid.steps_per_delay
    vals = path[:, 0, 0]
    conserved = vals[n:] - k * vals[: -n]
    assert np.abs(conserved - 1.0).max() <= 1e-12


def test_linear_delay_ode_method_of_steps():
    # exact solution: 1 + t on [0, 1], 2 + (t^2 - 1)/2 on [1, 2]
    grid = make_grid(1.0, 2.0, 0.025)
    path = simulate(
        linear_delay_ode(1.0, 1.0), constant_segment(1.0), [grid], generate(grid, 1, 0, [0])
    )[0]
    assert path[-1, 0, 0] == pytest.approx(3.5, abs=0.02)
    n = grid.steps_per_delay
    t = np.asarray(grid.times[n:])
    exact = np.where(t <= 1.0, 1.0 + t, 2.0 + (t * t - 1.0) / 2.0)
    err = np.abs(path[n:, 0, 0] - exact).max()
    assert 0.0 < err < 0.02


def test_additive_noise_is_exact():
    grid = make_grid(1.0, 2.0, 0.1)
    noise = generate(grid, 2, seed=21, path_index=[4])
    n = grid.steps_per_delay
    # starting from zero the scheme IS the running sum, bit for bit
    path = simulate(additive_noise(1.0, dim=2), constant_segment(0.0, 2), [grid], noise)[0]
    assert np.array_equal(path[n:, 0], noise.partial_sums()[0])
    # a nonzero start only changes rounding of the additions
    shifted = simulate(additive_noise(1.0, dim=2), constant_segment(3.0, 2), [grid], noise)[0]
    assert np.abs(shifted[n:, 0] - (3.0 + noise.partial_sums()[0])).max() <= 1e-12


def test_simulate_validation():
    grid = make_grid(1.0, 2.0, 0.1)
    other = make_grid(0.5, 2.0, 0.1)
    model = drifted_neutral(0.5, 1.0)
    xi = constant_segment(1.0)
    with pytest.raises(IncompatibleGrids):
        simulate(model, xi, [other], generate(other, 1, 0, [0]))  # delay mismatch
    # noise on a finer grid is sampled on; noise on a coarser grid or with
    # another delay does not nest
    finer = make_grid(1.0, 2.0, 0.05)
    assert len(simulate(model, xi, [grid], generate(finer, 1, 0, [0]))[0]) == len(finer.times)
    with pytest.raises(IncompatibleGrids):
        simulate(model, xi, [grid], generate(make_grid(1.0, 2.0, 0.2), 1, 0, [0]))
    with pytest.raises(IncompatibleGrids):
        simulate(model, xi, [grid], generate(make_grid(0.5, 1.0, 0.05), 1, 0, [0]))
    with pytest.raises(DimensionMismatch):
        simulate(model, constant_segment(1.0, dim=2), [grid], generate(grid, 1, 0, [0]))
    with pytest.raises(DimensionMismatch):
        simulate(model, xi, [grid], generate(grid, 3, 0, [0]))
    # an empty ladder and a bare grid fail with messages of their own
    with pytest.raises(InvalidRange, match="non-empty sequence of grids"):
        simulate(model, xi, [], generate(grid, 1, 0, [0]))
    with pytest.raises(InvalidRange, match=r"not the bare DelayGrid\(.*\); pass \[grid\]"):
        simulate(model, xi, grid, generate(grid, 1, 0, [0]))


def test_divergence_reports_step_and_time():
    # x |-> x + x^3 delta from x=2 overflows after eight steps at delta=1/4
    grid = make_grid(1.0, 2.0, 0.25)
    path = simulate(cubic_drift(1.0), constant_segment(2.0), [grid], generate(grid, 1, 0, [0]))[0]
    assert finite(path).tolist() == [False]
    assert not np.isfinite(path[8 + grid.steps_per_delay]).all()
    assert grid.times[8 + grid.steps_per_delay] == 2.0
    assert np.isfinite(path[: 8 + grid.steps_per_delay]).all()


def test_reduces_to_plain_delay_euler_when_neutral_is_zero():
    # with D = 0 the scheme must coincide, bit for bit, with the textbook
    # explicit recursion written out independently here
    grid = make_grid(1.0, 2.0, 0.1)
    noise = generate(grid, 1, seed=77, path_index=[0])
    model = NsddeModel(
        1, 1, 1.0,
        neutral=lambda y: np.zeros(1),
        drift=lambda x, y, t: -y + 0.5 * x,
        diffusion=lambda x, y, t: (0.3 * x).reshape(1, 1),
    )
    xi = affine_segment(1.0, 0.5)

    n, m = grid.steps_per_delay, grid.total_steps
    vals = np.empty((n + m + 1, 1))
    vals[: n + 1] = xi.sample(grid)
    steps = noise.increments[0]
    dt = grid.delta
    for l in range(m):
        x, y = vals[l + n], vals[l]
        t = grid.times[l + n]
        vals[l + n + 1] = x + (-y + 0.5 * x) * dt + (0.3 * x).reshape(1, 1) @ steps[l]

    path = simulate(model, xi, [grid], noise)[0]
    assert np.array_equal(path[:, 0], vals)


# --- refinement -----------------------------------------------------------


def test_refine_interior_oracle():
    # Coarse path at delta=0.5 is the hand-recursion oracle; refining to
    # delta=0.25 freezes coefficients on each coarse cell, so e.g.
    #   X(0.25) = D(X(-0.75)) + [X(0) - D(X(-1))] + 1 * 0.25 = 1.25
    #   X(0.75) = 0.5 * 1    + [1.5 - 0.5]        + 0.25     = 1.75
    #   X(1.25) = 0.5 * 1.25 + [2.0 - 0.5]        + 0.25     = 2.375
    model = drifted_neutral(0.5, 1.0)
    xi = constant_segment(1.0)
    coarse_grid = make_grid(1.0, 1.5, 0.5)
    fine_grid = make_grid(1.0, 1.5, 0.25)
    fine_noise = generate(fine_grid, 1, seed=2, path_index=[0])
    fine = simulate(model, xi, [coarse_grid], fine_noise)[0]
    assert fine[4:, 0, 0].tolist() == [1.0, 1.25, 1.5, 1.75, 2.0, 2.375, 2.75]


def test_refine_copies_coarse_nodes_bitwise(cubic_model, unit_segment):
    coarse_grid = make_grid(1.0, 2.0, 0.1)
    fine_grid = make_grid(1.0, 2.0, 0.025)
    fine_noise = generate(fine_grid, 1, seed=13, path_index=[7])
    coarse = simulate(cubic_model, unit_segment, [coarse_grid], coarsen(fine_noise, coarse_grid))[0]
    fine = simulate(cubic_model, unit_segment, [coarse_grid], fine_noise)[0]
    assert np.array_equal(fine[::4], coarse)


def test_refine_identity_at_factor_one(cubic_model, unit_segment):
    # noise on the grid itself drives the scheme with its own increments
    grid = make_grid(1.0, 2.0, 0.1)
    noise = generate(grid, 1, 1, [0])
    path = simulate(cubic_model, unit_segment, [grid], noise)[0]
    same = simulate(cubic_model, unit_segment, [grid], coarsen(noise, grid))[0]
    assert same.tobytes() == path.tobytes() and len(same) == len(grid.times)


def test_refine_rejects_non_nested_grids(cubic_model, unit_segment):
    coarse_grid = make_grid(1.0, 2.0, 0.1)
    shifted = make_grid(1.0, 3.0, 0.05)
    with pytest.raises(IncompatibleGrids):
        simulate(cubic_model, unit_segment, [coarse_grid], generate(shifted, 1, 1, [0]))


def test_refine_rejects_a_fine_grid_of_another_delay(cubic_model, unit_segment):
    # the step counts nest (20 per delay, 40 in all, against 10 and 20), but
    # the fine delay is 0.5
    coarse_grid = make_grid(1.0, 2.0, 0.1)
    other = make_grid(0.5, 1.0, 0.025)
    with pytest.raises(IncompatibleGrids):
        simulate(cubic_model, unit_segment, [coarse_grid], generate(other, 1, 1, [0]))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), factor=st.sampled_from([2, 4, 5]))
def test_refine_node_agreement_property(seed, factor):
    from nsdde_sim import neutral_cubic_model

    model = neutral_cubic_model(0.5, -1.0, -1.0, 1.0)
    xi = constant_segment(1.0)
    fine_grid = make_grid(1.0, 2.0, 0.1 / factor)
    fine_noise = generate(fine_grid, 1, seed, [0])
    coarse_grid = make_grid(1.0, 2.0, 0.1)
    coarse = simulate(model, xi, [coarse_grid], coarsen(fine_noise, coarse_grid))[0]
    fine = simulate(model, xi, [coarse_grid], fine_noise)[0]
    assert np.array_equal(fine[::factor], coarse)


# --- path batches -----------------------------------------------------------


def mixing_model() -> NsddeModel:
    """2-D model whose diffusion mixes both noise components into each state."""
    scale = np.array([[0.3, -0.7], [1.1, 0.2]])
    return NsddeModel(
        2, 2, 1.0,
        neutral=lambda y: 0.4 * y[..., ::-1],
        drift=lambda x, y, t: -x * (x * x).sum(axis=-1, keepdims=True) + 0.3 * y,
        diffusion=lambda x, y, t: scale * (1.0 + 0.5 * x[..., :, None] - 0.2 * y[..., None, :]),
    )


@pytest.mark.parametrize("which", ["sec4", "mixing"])
def test_batch_rows_match_single_path_runs(which, cubic_model):
    # row p of a P-path run is bitwise the one-path run of path p, also
    # where sigma @ dB sums over several noise components
    model = cubic_model if which == "sec4" else mixing_model()
    xi = affine_segment(0.5, 0.3, model.state_dim)
    coarse_grid, fine_grid = make_grid(1.0, 2.0, 0.1), make_grid(1.0, 2.0, 0.025)
    fine_noise = generate(fine_grid, model.noise_dim, seed=5, path_index=range(6))
    batch = simulate(model, xi, [coarse_grid], coarsen(fine_noise, coarse_grid))[0]
    refined = simulate(model, xi, [coarse_grid], fine_noise)[0]
    assert batch.shape == (31, 6, model.state_dim) and finite(batch).all()
    assert refined.shape == (121, 6, model.state_dim)
    for p in range(6):
        single_noise = generate(fine_grid, model.noise_dim, 5, [p])
        single = simulate(model, xi, [coarse_grid], coarsen(single_noise, coarse_grid))[0]
        assert single.shape == (31, 1, model.state_dim)
        assert batch[:, p].tobytes() == single[:, 0].tobytes()
        single_refined = simulate(model, xi, [coarse_grid], single_noise)[0]
        assert refined[:, p].tobytes() == single_refined[:, 0].tobytes()


def test_diverged_path_in_batch_is_masked():
    # the drift is infinite for positive states after t = 1.5, so only
    # paths that are then above zero blow up; the rest must not notice
    model = NsddeModel(
        1, 1, 1.0,
        neutral=lambda y: np.zeros(1),
        drift=lambda x, y, t: np.where((t < 1.5) | (x <= 0), 0.0, np.inf),
        diffusion=lambda x, y, t: np.eye(1),
    )
    xi = constant_segment(0.0)
    coarse_grid, fine_grid = make_grid(1.0, 2.0, 0.5), make_grid(1.0, 2.0, 0.25)
    fine_noise = generate(fine_grid, 1, seed=0, path_index=range(8))
    batch = simulate(model, xi, [coarse_grid], coarsen(fine_noise, coarse_grid))[0]
    refined = simulate(model, xi, [coarse_grid], fine_noise)[0]
    assert 0 < finite(batch).sum() < 8
    assert np.array_equal(finite(refined), finite(batch))
    for p in range(8):
        single_noise = generate(fine_grid, 1, 0, [p])
        single = simulate(model, xi, [coarse_grid], coarsen(single_noise, coarse_grid))[0]
        assert finite(single)[0] == finite(batch)[p]
        assert batch[:, p].tobytes() == single[:, 0].tobytes()
        single_refined = simulate(model, xi, [coarse_grid], single_noise)[0]
        assert refined[:, p].tobytes() == single_refined[:, 0].tobytes()


# --- ladders ---------------------------------------------------------------
# One call steps every level of a ladder on the fine indices the levels
# share; each level must be bitwise its own one-grid run.

def view_model() -> NsddeModel:
    """Evaluators that return views of their inputs: the engine writes each
    new row in place, so no write may reach a state or lag row they view."""
    return NsddeModel(1, 1, 1.0, neutral=lambda y: y, drift=lambda x, y, t: x,
                      diffusion=lambda x, y, t: x[..., None])


LADDER_CASES = {
    # name: (model, xi, horizon, ladder, paths, seed)
    "sec4": (lambda: neutral_cubic_model(0.5, -1.0, -1.0, 1.0), constant_segment(1.0),
             2.0, (0.1, 0.05, 0.025, 0.0125), 32, 1),
    "linear_delay_ode": (lambda: linear_delay_ode(0.7, 1.0), affine_segment(0.5, 0.3),
                         2.0, (0.2, 0.1, 0.05), 3, 2),
    "pure_neutral": (lambda: pure_neutral(0.6, 1.0), affine_segment(0.5, 0.3),
                     2.0, (0.25, 0.125), 4, 3),
    "cubic_drift_2": (lambda: cubic_drift(1.0, 2), affine_segment(0.5, 0.3, 2),
                      2.0, (0.5, 0.25, 0.125), 5, 4),
    "additive_noise_2": (lambda: additive_noise(1.0, 2), affine_segment(0.5, 0.3, 2),
                         2.0, (0.1, 0.05, 0.025), 9, 5),
    # from xi = 3, step 0.5 stays huge but finite and step 0.25 reaches inf and NaN
    "sec4_blow_up": (lambda: neutral_cubic_model(0.5, -1.0, -1.0, 1.0), constant_segment(3.0),
                     3.0, (0.5, 0.25), 50, 1),
    "refinement_by_5": (lambda: neutral_cubic_model(0.5, -1.0, -1.0, 1.0),
                        affine_segment(0.5, 0.3), 2.0, (0.1, 0.02, 0.01), 7, 6),
    "horizon_2.5_17_paths": (lambda: neutral_cubic_model(0.3, -2.0, -1.0, 1.0),
                             affine_segment(1.0, 1.0), 2.5, (0.5, 0.25, 0.03125), 17, 7),
    "view_evaluators": (view_model, affine_segment(0.5, 0.3), 2.5, (0.25, 0.125, 0.0625), 6, 8),
}


@pytest.mark.parametrize("finer_noise", [False, True])
@pytest.mark.parametrize("name", sorted(LADDER_CASES))
def test_ladder_call_equals_one_grid_calls(name, finer_noise):
    make_model, xi, horizon, ladder, n_paths, seed = LADDER_CASES[name]
    model = make_model()
    grids = [make_grid(1.0, horizon, delta) for delta in ladder]
    # the noise on the finest level's grid, or on one twice as fine
    noise_grid = make_grid(1.0, horizon, ladder[-1] / 2) if finer_noise else grids[-1]
    noise = generate(noise_grid, model.noise_dim, seed, range(n_paths))
    paths = simulate(model, xi, grids, noise)
    assert len(paths) == len(grids)
    for grid, path in zip(grids, paths):
        single = simulate(model, xi, [grid], noise)[0]
        assert path.shape == single.shape == (len(noise_grid.times), n_paths, model.state_dim)
        assert path.tobytes() == single.tobytes()
    if name == "sec4_blow_up":
        assert not finite(paths[-1]).all() and np.isnan(paths[-1]).any()


def test_ladder_grids_must_nest_in_one_another(cubic_model, unit_segment):
    # 0.1 and 0.04 both nest in 0.02, but not in one another
    noise = generate(make_grid(1.0, 2.0, 0.02), 1, 0, [0])
    coarse, odd, fine = (make_grid(1.0, 2.0, delta) for delta in (0.1, 0.04, 0.02))
    for grids in ([coarse, odd], [odd, coarse], [fine, coarse], [coarse, fine, coarse]):
        with pytest.raises(IncompatibleGrids):
            simulate(cubic_model, unit_segment, grids, noise)
    for empty in ([], (), coarse):  # a bare grid is not a sequence of grids
        with pytest.raises(InvalidRange):
            simulate(cubic_model, unit_segment, empty, noise)


def test_ladder_levels_are_views_of_one_buffer(cubic_model, unit_segment):
    grids = [make_grid(1.0, 2.0, delta) for delta in (0.1, 0.05, 0.025)]
    ladder = simulate(cubic_model, unit_segment, grids, generate(grids[-1], 1, 0, range(3)))
    assert [level.shape for level in ladder] == [(len(grids[-1].times), 3, 1)] * 3
    # the levels interleave in one (rows, levels, paths, d) buffer: they view
    # one base, whose span they share, without sharing an element
    base = ladder[0].base
    assert base is not None and all(level.base is base for level in ladder)
    assert np.may_share_memory(ladder[0], ladder[-1]) and not np.shares_memory(ladder[0], ladder[-1])


# --- per-node reference engine ----------------------------------------------
# The engine before delay-window batching: one neutral call per node, and
# the interpolation onto a finer grid evaluating drift and diffusion again
# at each coarse cell's left node.  The batched engine must reproduce it
# bit for bit.


def _ref_noise(sigma, db):
    return (sigma @ db[..., None])[..., 0]


def ref_simulate(model, xi, grid, noise):
    """Time-major (rows, paths, d) values of the per-node explicit scheme."""
    n, m = grid.steps_per_delay, grid.total_steps
    steps = np.moveaxis(noise.increments, 1, 0)
    vals = np.empty((n + m + 1, steps.shape[1], model.state_dim))
    vals[: n + 1] = xi.sample(grid)[:, None]
    times = grid.times.tolist()
    with np.errstate(all="ignore"):
        d_lag = model.neutral(vals[0])
        for l in range(m):
            x, y, t = vals[l + n], vals[l], times[l + n]
            d_next = model.neutral(vals[l + 1])
            vals[l + n + 1] = (
                d_next + x - d_lag
                + model.drift(x, y, t) * grid.delta
                + _ref_noise(model.diffusion(x, y, t), steps[l])
            )
            d_lag = d_next
    return vals


def ref_refine(cvals, coarse, model, xi, fine_grid, fine_noise):
    """Per-node interpolation of time-major coarse values onto ``fine_grid``."""
    n_fine, n_coarse = fine_grid.steps_per_delay, coarse.steps_per_delay
    factor = n_fine // n_coarse
    out = np.empty((n_fine + fine_grid.total_steps + 1,) + cvals.shape[1:])
    out[: n_fine + 1] = xi.sample(fine_grid)[:, None]
    bsum = np.moveaxis(fine_noise.partial_sums(), 1, 0)
    times = fine_grid.times.tolist()
    offs = [float(r * Fraction(coarse.tau) / n_fine) for r in range(factor)]
    with np.errstate(all="ignore"):
        for l in range(coarse.total_steps):
            j0 = l * factor
            x, y, t0 = cvals[l + n_coarse], cvals[l], times[j0 + n_fine]
            base = x - model.neutral(y)
            bval, sval = model.drift(x, y, t0), model.diffusion(x, y, t0)
            for r in range(1, factor):
                j = j0 + r
                out[j + n_fine] = (
                    model.neutral(out[j]) + base + bval * offs[r]
                    + _ref_noise(sval, bsum[j] - bsum[j0])
                )
            out[j0 + factor + n_fine] = cvals[l + 1 + n_coarse]
    return out


def mixing_3_noise_model() -> NsddeModel:
    """2 states driven by 3 noise components, each state mixing all three."""

    def diffusion(x, y, t):
        a, b = x[..., 0], y[..., 1]
        first = np.stack([a, 0.5 * b, 1.0 + 0.0 * a], -1)
        second = np.stack([0.1 * b, np.sin(a), a * b], -1)
        return np.stack([first, second], -2) * np.exp(-t)

    return NsddeModel(
        2, 3, 1.0,
        neutral=lambda y: 0.3 * y[..., ::-1],
        drift=lambda x, y, t: -x * x * x + 0.2 * np.sin(y) * t,
        diffusion=diffusion,
    )


def constant_mixing_model() -> NsddeModel:
    """3 states, one constant non-diagonal 3x3 diffusion for every path."""
    sigma = np.array([[0.5, -0.2, 0.1], [0.3, 0.4, -0.6], [-0.1, 0.7, 0.2]])
    return NsddeModel(
        3, 3, 1.0,
        neutral=lambda y: 0.2 * y[..., ::-1],
        drift=lambda x, y, t: -x + 0.5 * y,
        diffusion=lambda x, y, t: sigma,
    )


REFERENCE_MODELS = {
    "sec4": lambda: neutral_cubic_model(0.5, -1.0, -1.0, 1.0),
    "mixing_2x2": mixing_model,
    "mixing_2x3": mixing_3_noise_model,
    "constant_3x3": constant_mixing_model,
    "additive_noise_3": lambda: additive_noise(1.0, 3),
    "cubic_drift_2": lambda: cubic_drift(1.0, 2),
    "linear_delay_ode": lambda: linear_delay_ode(0.7, 1.0),
    "pure_neutral": lambda: pure_neutral(0.6, 1.0),
    "view_evaluators": view_model,
}

# horizon 2.5 leaves a half delay window at the end; 0.25 -> 0.03125 is a
# factor-8 jump
REFERENCE_LADDER = (0.5, 0.25, 0.03125)


@pytest.mark.parametrize("seed", [0, 20260815])
@pytest.mark.parametrize("name", sorted(REFERENCE_MODELS))
def test_engine_matches_per_node_reference(name, seed):
    model = REFERENCE_MODELS[name]()
    xi = affine_segment(0.5, 0.3, model.state_dim)
    grids = [make_grid(1.0, 2.5, delta) for delta in REFERENCE_LADDER]
    fine = grids[-1]
    fine_noise = generate(fine, model.noise_dim, seed, range(5))

    def check(got, ref):
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    refs = []
    for grid in grids:
        noise = coarsen(fine_noise, grid)
        path = simulate(model, xi, [grid], noise)[0]
        ref = ref_simulate(model, xi, grid, noise)
        check(path, ref)
        refs.append((path, ref))
    for lo, hi in [(0, 1), (0, 2), (1, 2)]:
        (path, ref), target = refs[lo], grids[hi]
        noise = coarsen(fine_noise, target)
        refined = simulate(model, xi, [grids[lo]], noise)[0]
        check(refined, ref_refine(ref, grids[lo], model, xi, target, noise))
    # one ladder call on the finest noise: levels 0 and 1 refined, level 2 plain
    ladder = simulate(model, xi, grids, fine_noise)
    for lo, path in enumerate(ladder[:-1]):
        check(path, ref_refine(refs[lo][1], grids[lo], model, xi, fine, fine_noise))
    check(ladder[-1], refs[-1][1])


def test_coefficient_calls_per_delay_window():
    # simulate: drift and diffusion once per step of the finest level, and
    # neutral once per delay window, whose one call also serves the in-cell
    # nodes on a finer noise grid.  Horizon 2.5 makes the last window partial.
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    plain = neutral_cubic_model(0.5, -1.0, -1.0, 1.0)
    model = replace(
        plain,
        **{name: counted(name, getattr(plain, name)) for name in ("neutral", "drift", "diffusion")},
    )
    xi = constant_segment(1.0)
    coarse, fine = make_grid(1.0, 2.5, 0.25), make_grid(1.0, 2.5, 0.0625)
    fine_noise = generate(fine, 1, seed=3, path_index=range(4))

    simulate(model, xi, [coarse], coarsen(fine_noise, coarse))
    m, n = coarse.total_steps, coarse.steps_per_delay
    assert calls == {"drift": m, "diffusion": m, "neutral": math.ceil(m / n)}

    calls.clear()
    simulate(model, xi, [coarse], fine_noise)
    assert calls == {"drift": m, "diffusion": m, "neutral": math.ceil(m / n)}

    # a 3-level ladder steps all its levels together on the nodes they share
    calls.clear()
    simulate(model, xi, [coarse, make_grid(1.0, 2.5, 0.125), fine], fine_noise)
    m, n = fine.total_steps, fine.steps_per_delay
    assert calls == {"drift": m, "diffusion": m, "neutral": math.ceil(m / n)}


def test_exact_zero_noise_term_keeps_a_positive_zero():
    # With sigma = -1 and dB = 0 the noise term is +0.0, as numpy's matmul
    # sums from +0.0; a shortcut sigma[..., 0] * dB for one noise component
    # gives -0.0.  Every other term of the first step is -0.0 here (xi is
    # +0.0 only at -tau, D and b keep the sign of zero), so that sign
    # reaches the state, and a path CSV would print "-0" instead of "0".
    xi = InitialSegment(lambda t: np.full(1, 0.0 if t == -1.0 else -0.0))
    model = NsddeModel(
        1, 1, 1.0,
        neutral=lambda y: 0.5 * y,
        drift=lambda x, y, t: 0.5 * x,
        diffusion=lambda x, y, t: np.full((1, 1), -1.0),
    )
    coarse, fine = make_grid(1.0, 2.0, 0.5), make_grid(1.0, 2.0, 0.25)
    fine_noise = BrownianPath(fine, np.zeros((1, fine.total_steps, 1)))
    path = simulate(model, xi, [coarse], coarsen(fine_noise, coarse))[0]
    refined = simulate(model, xi, [coarse], fine_noise)[0]
    # a two-level ladder steps both levels in one row stack
    ladder = simulate(model, xi, [coarse, fine], fine_noise)
    # d = 2 with a (2, 1) sigma: one noise component driving both coordinates
    xi2 = InitialSegment(lambda t: np.full(2, 0.0 if t == -1.0 else -0.0), 2)
    model2 = replace(model, state_dim=2, diffusion=lambda x, y, t: np.full((2, 1), -1.0))
    ladder2 = simulate(model2, xi2, [coarse, fine], fine_noise)
    runs = [(coarse, path), (fine, refined)] + [(fine, level) for level in ladder + ladder2]
    for grid, values in runs:
        after_zero = values[grid.steps_per_delay + 1 :].ravel()
        assert [format(v, ".17g") for v in after_zero] == ["0"] * after_zero.size
