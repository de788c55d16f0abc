"""Brownian increment generation, coupling, and coarsening."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsdde_sim import (
    BrownianPath,
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
    path = generate(GRID, noise_dim=2, seed=42, path_index=[0])
    assert path.increments.shape == (1, GRID.total_steps, 2)
    sums = path.partial_sums()
    assert sums.shape == (1, GRID.total_steps + 1, 2)
    assert (sums[:, 0] == 0.0).all()
    # increments must be N(0, delta): crude but deterministic sanity bound
    assert abs(path.increments.var() - GRID.delta) < 0.3 * GRID.delta


def test_regeneration_is_bit_exact():
    a = generate(GRID, 1, seed=7, path_index=[3])
    b = generate(GRID, 1, seed=7, path_index=[3])
    assert np.array_equal(a.increments, b.increments)


def test_path_index_and_seed_decorrelate():
    base = generate(GRID, 1, seed=7, path_index=[0])
    assert not np.array_equal(base.increments, generate(GRID, 1, 7, [1]).increments)
    assert not np.array_equal(base.increments, generate(GRID, 1, 8, [0]).increments)


def test_path_order_does_not_matter():
    # stream for path 5 is identical whether or not paths 0..4 were drawn
    late = generate(GRID, 1, seed=11, path_index=[5])
    again = generate(GRID, 1, seed=11, path_index=[5])
    assert np.array_equal(late.increments, again.increments)


def test_stacked_paths_match_single_paths():
    # a stack draws each row from that path's own stream, in the given order,
    # and coarsens and sums along the step axis only: every row is bitwise
    # the one-path stack of its index
    stack = generate(GRID, 2, seed=11, path_index=[5, 0, 3])
    assert stack.increments.shape == (3, GRID.total_steps, 2)
    coarse, sums = coarsen(stack, coarser(GRID, 4)), stack.partial_sums()
    for row, index in enumerate((5, 0, 3)):
        single = generate(GRID, 2, seed=11, path_index=[index])
        assert stack.increments[row].tobytes() == single.increments[0].tobytes()
        single_coarse = coarsen(single, coarse.grid)
        assert coarse.increments[row].tobytes() == single_coarse.increments[0].tobytes()
        assert sums[row].tobytes() == single.partial_sums()[0].tobytes()


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
    assert numpy_ints.increments.tobytes() == generate(GRID, 1, 3, [2, 5]).increments.tobytes()


def test_coarsen_sums_blocks():
    path = generate(GRID, 1, seed=5, path_index=[0])
    coarse = coarsen(path, coarser(GRID, 4))
    assert coarse.grid.steps_per_delay == GRID.steps_per_delay // 4
    assert coarse.grid.total_steps == GRID.total_steps // 4
    assert coarse.grid.tau == GRID.tau
    assert coarse.grid.horizon == GRID.horizon
    # block sums agree with the fine partial sums up to rounding
    fine_sums = path.partial_sums()
    np.testing.assert_allclose(
        coarse.partial_sums(), fine_sums[:, ::4], rtol=0.0, atol=1e-15
    )


def test_coarsen_composes_exactly():
    path = generate(GRID, 2, seed=9, path_index=[1])
    two_step = coarsen(coarsen(path, coarser(GRID, 2)), coarser(GRID, 4))
    one_step = coarsen(path, coarser(GRID, 4))
    assert np.array_equal(two_step.increments, one_step.increments)
    assert two_step.grid == one_step.grid


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([4, 8, 12, 16, 24]),
    windows=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32),
    dim=st.integers(min_value=1, max_value=3),
)
def test_coarsen_composition_property(n, windows, seed, dim):
    grid = make_grid(0.5, 0.5 * windows, 0.5 / n)
    path = generate(grid, dim, seed, [0])
    for f1, f2 in ((2, 2), (2, 4), (4, 2)):
        if n % (f1 * f2):
            continue
        coarse = coarser(grid, f1 * f2)
        composed = coarsen(coarsen(path, coarser(grid, f1)), coarse)
        direct = coarsen(path, coarse)
        assert np.array_equal(composed.increments, direct.increments)


@pytest.mark.parametrize("coarse", [
    make_grid(1.0, 2.0, 0.05),
    make_grid(2.0, 4.0, 0.2),  # the step counts of the 0.1 grid
    make_grid(1.0, 2.0, 0.25),
], ids=["finer", "other_delay", "not_nested"])
def test_coarsen_rejects_grids_it_does_not_nest_in(coarse):
    # coarsen follows DelayGrid.refinement, onto a path on the 0.1 grid
    path = generate(make_grid(1.0, 2.0, 0.1), 1, seed=0, path_index=[0])
    with pytest.raises(IncompatibleGrids):
        coarsen(path, coarse)


@pytest.mark.parametrize("factor, error", [
    (0, InvalidRange),
    (-2, InvalidRange),
    (3, NonDivisibleStep),
    (2.5, IncompatibleGrids),
], ids=["0", "-2", "3", "2.5"])
def test_coarsen_rejects_bad_factors(factor, error):
    # the grid with ``factor`` times the 0.05 step: zero and negative steps
    # and 0.15, which does not divide the delay, give no grid at all; 0.125
    # gives 8 steps per delay, which the path's 20 do not nest in
    path = generate(GRID, 1, seed=0, path_index=[0])
    with pytest.raises(error):
        coarsen(path, coarser(GRID, factor))


def test_coarsen_onto_its_own_grid_returns_the_increments():
    path = generate(GRID, 2, seed=3, path_index=[0, 1])
    same = coarsen(path, make_grid(1.0, 2.0, 0.05))
    assert same.grid == GRID
    assert same.increments.tobytes() == path.increments.tobytes()


def test_increment_shape_validated():
    with pytest.raises(DimensionMismatch):
        BrownianPath(GRID, np.zeros((1, 5, 1)))
    with pytest.raises(DimensionMismatch):
        BrownianPath(GRID, np.zeros((1, GRID.total_steps)))
    with pytest.raises(DimensionMismatch):
        BrownianPath(GRID, np.zeros((1, GRID.total_steps, 0)))
