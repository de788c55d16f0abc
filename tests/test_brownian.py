"""Brownian increment generation, coupling, and coarsening."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsdde_sim import (
    BrownianPath,
    DimensionMismatch,
    InvalidRange,
    coarsen,
    generate,
    make_grid,
)

GRID = make_grid(tau=1.0, horizon=2.0, delta=0.05)


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
    coarse, sums = coarsen(stack, 4), stack.partial_sums()
    for row, index in enumerate((5, 0, 3)):
        single = generate(GRID, 2, seed=11, path_index=[index])
        assert stack.increments[row].tobytes() == single.increments[0].tobytes()
        assert coarse.increments[row].tobytes() == coarsen(single, 4).increments[0].tobytes()
        assert sums[row].tobytes() == single.partial_sums()[0].tobytes()


@pytest.mark.parametrize("index", [0, 3, np.int64(2)])
def test_scalar_path_index_is_rejected(index):
    # one path is a one-path stack, path_index=[i]; a bare index is an error
    with pytest.raises(InvalidRange, match="sequence"):
        generate(GRID, 1, seed=0, path_index=index)


def test_coarsen_sums_blocks():
    path = generate(GRID, 1, seed=5, path_index=[0])
    coarse = coarsen(path, 4)
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
    two_step = coarsen(coarsen(path, 2), 2)
    one_step = coarsen(path, 4)
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
        composed = coarsen(coarsen(path, f1), f2)
        direct = coarsen(path, f1 * f2)
        assert np.array_equal(composed.increments, direct.increments)


@pytest.mark.parametrize("factor", [0, 1, -2, 3, 7, 2.5])
def test_coarsen_rejects_bad_factors(factor):
    # 3 and 7 do not divide steps_per_delay=20; 1, 0, negatives and
    # non-integral floats are rejected outright
    path = generate(GRID, 1, seed=0, path_index=[0])
    with pytest.raises(InvalidRange):
        coarsen(path, factor)


def test_increment_shape_validated():
    with pytest.raises(DimensionMismatch):
        BrownianPath(GRID, np.zeros((1, 5, 1)))
    with pytest.raises(DimensionMismatch):
        BrownianPath(GRID, np.zeros((1, GRID.total_steps)))
    with pytest.raises(DimensionMismatch):
        BrownianPath(GRID, np.zeros((1, GRID.total_steps, 0)))
