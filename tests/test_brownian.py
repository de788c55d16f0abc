"""Brownian increment generation, coupling, and coarsening."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsdde_sim import (
    DimensionMismatch,
    IncompatibleGrids,
    InvalidRange,
    NonDivisibleStep,
    coarsen,
    generate,
    make_grid,
)

GRID = make_grid(tau=1.0, horizon=2.0, delta=0.05)


def coarser(grid, factor):
    """The grid of ``grid``'s delay and horizon with ``factor`` times its step."""
    return make_grid(grid.tau, grid.horizon, grid.delta * factor)


def test_shapes_and_scaling():
    noise = generate(GRID, noise_dim=2, seed=42, path_index=[0])
    assert noise.shape == (1, GRID.total_steps, 2)
    # increments must be N(0, delta): crude but deterministic sanity bound
    assert abs(noise.var() - GRID.delta) < 0.3 * GRID.delta


def test_regeneration_is_bit_exact():
    a = generate(GRID, 1, seed=7, path_index=[3])
    b = generate(GRID, 1, seed=7, path_index=[3])
    assert np.array_equal(a, b)


def test_path_index_and_seed_decorrelate():
    base = generate(GRID, 1, seed=7, path_index=[0])
    assert not np.array_equal(base, generate(GRID, 1, 7, [1]))
    assert not np.array_equal(base, generate(GRID, 1, 8, [0]))


def test_path_order_does_not_matter():
    # stream for path 5 is identical whether or not paths 0..4 were drawn
    late = generate(GRID, 1, seed=11, path_index=[5])
    again = generate(GRID, 1, seed=11, path_index=[5])
    assert np.array_equal(late, again)


def test_stacked_paths_match_single_paths():
    # a stack draws each row from that path's own stream, in the given order,
    # and coarsens along the step axis only: every row is bitwise the
    # one-path stack of its index
    stack = generate(GRID, 2, seed=11, path_index=[5, 0, 3])
    assert stack.shape == (3, GRID.total_steps, 2)
    coarse = coarsen(stack, GRID, coarser(GRID, 4))
    for row, index in enumerate((5, 0, 3)):
        single = generate(GRID, 2, seed=11, path_index=[index])
        assert stack[row].tobytes() == single[0].tobytes()
        single_coarse = coarsen(single, GRID, coarser(GRID, 4))
        assert coarse[row].tobytes() == single_coarse[0].tobytes()


@pytest.mark.parametrize("index", [0, 3, np.int64(2)])
def test_scalar_path_index_is_rejected(index):
    # one path is a one-path stack, path_index=[i]; a bare index is an error
    with pytest.raises(InvalidRange, match="sequence"):
        generate(GRID, 1, seed=0, path_index=index)


def test_empty_path_index_is_rejected():
    with pytest.raises(InvalidRange, match="at least one path index"):
        generate(GRID, 1, seed=0, path_index=[])


@pytest.mark.parametrize("seed, index, name", [
    (1.5, 0, "seed"), (1, 1.5, "path_index"), (-1, 0, "seed"), (0, -2, "path_index"),
    ("7", 0, "seed"), (0, np.float64(3.0), "path_index"), (np.int64(-1), 0, "seed")])
def test_non_integer_or_negative_seed_or_index_is_invalid(seed, index, name):
    # the same rule as the checkers' stream: non-negative Python or numpy integers
    with pytest.raises(InvalidRange, match=f"^{name} must be a non-negative integer") as exc:
        generate(GRID, 1, seed, [index])
    assert "\n" not in str(exc.value)


@pytest.mark.parametrize("noise_dim", [0, 1.5, "2"])
def test_noise_dim_must_be_a_positive_integer(noise_dim):
    with pytest.raises(InvalidRange, match="noise_dim"):
        generate(GRID, noise_dim, 0, [0])


def test_numpy_integers_draw_as_python_ints():
    numpy_ints = generate(GRID, 1, np.uint64(3), [np.int32(2), np.int64(5)])
    assert numpy_ints.tobytes() == generate(GRID, 1, 3, [2, 5]).tobytes()


def test_coarsen_sums_blocks():
    noise = generate(GRID, 1, seed=5, path_index=[0])
    coarse = coarsen(noise, GRID, coarser(GRID, 4))
    assert coarse.shape == (1, GRID.total_steps // 4, 1)
    # block sums agree with the fine partial sums up to rounding
    np.testing.assert_allclose(
        np.cumsum(coarse, axis=1), np.cumsum(noise, axis=1)[:, 3::4], rtol=0.0, atol=1e-15
    )


def test_coarsen_composes_exactly():
    noise = generate(GRID, 2, seed=9, path_index=[1])
    half = coarser(GRID, 2)
    two_step = coarsen(coarsen(noise, GRID, half), half, coarser(GRID, 4))
    one_step = coarsen(noise, GRID, coarser(GRID, 4))
    assert np.array_equal(two_step, one_step)


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([4, 8, 12, 16, 24]),
    windows=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32),
    dim=st.integers(min_value=1, max_value=3),
)
def test_coarsen_composition_property(n, windows, seed, dim):
    grid = make_grid(0.5, 0.5 * windows, 0.5 / n)
    noise = generate(grid, dim, seed, [0])
    for f1, f2 in ((2, 2), (2, 4), (4, 2)):
        if n % (f1 * f2):
            continue
        middle, coarse = coarser(grid, f1), coarser(grid, f1 * f2)
        composed = coarsen(coarsen(noise, grid, middle), middle, coarse)
        direct = coarsen(noise, grid, coarse)
        assert np.array_equal(composed, direct)


@pytest.mark.parametrize("coarse", [
    make_grid(1.0, 2.0, 0.05),
    make_grid(2.0, 4.0, 0.2),  # the step counts of the 0.1 grid
    make_grid(1.0, 2.0, 0.25),
], ids=["finer", "other_delay", "not_nested"])
def test_coarsen_rejects_grids_it_does_not_nest_in(coarse):
    # coarsen follows DelayGrid.refinement, onto noise on the 0.1 grid
    fine = make_grid(1.0, 2.0, 0.1)
    noise = generate(fine, 1, seed=0, path_index=[0])
    with pytest.raises(IncompatibleGrids):
        coarsen(noise, fine, coarse)


@pytest.mark.parametrize("factor, error", [
    (0, InvalidRange),
    (-2, InvalidRange),
    (3, NonDivisibleStep),
    (2.5, IncompatibleGrids),
], ids=["0", "-2", "3", "2.5"])
def test_coarsen_rejects_bad_factors(factor, error):
    # the grid with ``factor`` times the 0.05 step: zero and negative steps
    # and 0.15, which does not divide the delay, give no grid at all; 0.125
    # gives 8 steps per delay, which the noise's 20 do not nest in
    noise = generate(GRID, 1, seed=0, path_index=[0])
    with pytest.raises(error):
        coarsen(noise, GRID, coarser(GRID, factor))


def test_coarsen_onto_its_own_grid_returns_the_increments():
    noise = generate(GRID, 2, seed=3, path_index=[0, 1])
    same = coarsen(noise, GRID, make_grid(1.0, 2.0, 0.05))
    assert same.tobytes() == noise.tobytes()


def test_increment_shape_validated():
    # coarsen takes increments on ``fine`` only: not on a finer or coarser
    # grid, and not a 2-D array (simulate checks the rest of the shape)
    for noise in (generate(coarser(GRID, 0.5), 1, 0, [0]), generate(coarser(GRID, 2), 1, 0, [0]),
                  np.zeros((1, GRID.total_steps))):
        with pytest.raises(DimensionMismatch, match="is not"):
            coarsen(noise, GRID, coarser(GRID, 2))
