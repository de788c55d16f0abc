"""Grid construction and exact rational time arithmetic."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsdde_sim import (
    DelayGrid,
    IncompatibleGrids,
    InvalidRange,
    NonDivisibleStep,
    make_grid,
)


def test_basic_construction():
    grid = make_grid(tau=1.0, horizon=2.0, delta=0.1)
    assert grid.steps_per_delay == 10
    assert grid.total_steps == 20
    assert grid.tau == 1.0
    assert grid.horizon == 2.0
    assert len(grid.times) == 31  # -tau .. T inclusive


def test_times_are_correctly_rounded_rationals():
    grid = make_grid(tau=0.3, horizon=0.9, delta=0.1)
    # 0.3/3 is not representable; every node must be float(l * tau / N)
    # computed in exact arithmetic, not accumulated.
    frac = Fraction(0.3) / 3
    for l, t in enumerate(grid.times, start=-grid.steps_per_delay):
        assert t == float(l * frac)
    assert grid.times[grid.steps_per_delay] == 0.0
    assert grid.times[-1] == grid.horizon


def test_non_divisible_step_rejected():
    with pytest.raises(NonDivisibleStep):
        make_grid(tau=1.0, horizon=2.0, delta=0.3)


def test_irrational_ratio_rejected():
    # horizon/tau = pi/2: no step divides both.
    with pytest.raises(NonDivisibleStep):
        make_grid(tau=2.0, horizon=3.141592653589793, delta=0.5)


def test_tiny_grid():
    grid = make_grid(tau=0.3, horizon=0.9, delta=0.15)
    assert grid.steps_per_delay == 2
    assert grid.total_steps == 6


@pytest.mark.parametrize(
    "tau, horizon, delta",
    [
        (0.0, 2.0, 0.1),
        (-1.0, 2.0, 0.1),
        (1.0, 1.0, 0.1),   # horizon must exceed tau
        (1.0, 0.5, 0.1),
        (1.0, 2.0, 0.0),
        (1.0, 2.0, 1.5),   # delta must sit in (0, 1)
        (float("nan"), 2.0, 0.1),
        (1.0, float("inf"), 0.1),
    ],
)
def test_invalid_ranges(tau, horizon, delta):
    with pytest.raises((InvalidRange, NonDivisibleStep)):
        make_grid(tau, horizon, delta)


def test_direct_dataclass_validation():
    with pytest.raises(InvalidRange):
        DelayGrid(tau=1.0, horizon=2.0000001, steps_per_delay=10, total_steps=20)
    with pytest.raises(InvalidRange):
        DelayGrid(tau=1.0, horizon=2.0, steps_per_delay=10, total_steps=5)
    # the horizon must exceed the delay, as make_grid requires
    with pytest.raises(InvalidRange, match="total_steps > steps_per_delay"):
        DelayGrid(tau=1.0, horizon=1.0, steps_per_delay=10, total_steps=10)
    with pytest.raises(InvalidRange, match="step counts must be integers"):
        DelayGrid(tau=1.0, horizon=2.0, steps_per_delay=10.0, total_steps=20)
    for tau in (0.0, -1.0):
        with pytest.raises(InvalidRange, match="delay must be positive"):
            DelayGrid(tau=tau, horizon=2.0, steps_per_delay=1, total_steps=2)
    # a step of tau / steps_per_delay = 2 lies outside (0, 1)
    with pytest.raises(InvalidRange, match=r"step 2\.0 outside"):
        DelayGrid(tau=2.0, horizon=4.0, steps_per_delay=1, total_steps=2)


@pytest.mark.parametrize("horizon, delta", [
    (1e308, 0.5),  # horizon / delta overflows to inf
    (1e10, 1e-320),
    (1e300, 0.5),  # 2e300 steps: finite, but numpy cannot index them
])
def test_step_counts_past_the_index_limit_rejected(horizon, delta):
    with pytest.raises(InvalidRange, match="index limit"):
        make_grid(1.0, horizon, delta)


def test_total_steps_up_to_the_index_limit():
    limit = int(np.iinfo(np.intp).max)  # 2**63 - 1 on 64-bit platforms
    last = limit - limit % 2  # the largest count that fits at two steps per delay
    grid = DelayGrid(tau=1.0, horizon=last / 2, steps_per_delay=2, total_steps=last)
    assert grid.total_steps == last
    with pytest.raises(InvalidRange, match="index limit"):
        DelayGrid(tau=1.0, horizon=(last + 2) / 2, steps_per_delay=2, total_steps=last + 2)


def test_time_indexing():
    # grid indices are signed: index l is times[l + N], so -N is the left
    # end of the history window
    grid = make_grid(1.0, 2.0, 0.5)
    n = grid.steps_per_delay
    assert grid.times[-2 + n] == -1.0
    assert grid.times[0 + n] == 0.0
    assert grid.times[4 + n] == 2.0
    assert len(grid.times) == 4 + n + 1


@settings(max_examples=200)
@given(
    n=st.integers(min_value=1, max_value=60),
    windows=st.integers(min_value=2, max_value=8),
    tau=st.floats(min_value=0.05, max_value=8.0, allow_nan=False),
)
def test_grid_node_identities(n, windows, tau):
    m = n * windows
    delta = tau / n
    if not 0.0 < delta < 1.0:
        return
    grid = make_grid(tau, float(Fraction(m) * Fraction(tau) / n), delta)
    times = grid.times
    assert times[0] == -tau
    assert times[n] == 0.0
    assert times[-1] == grid.horizon
    assert all(a < b for a, b in zip(times, times[1:]))
    # node spacing never drifts: each node is the correctly rounded rational
    frac = Fraction(tau) / n
    assert times[2 * n] == float(n * frac)


@pytest.mark.parametrize("tau", [1.0, 0.3, 1 / 3, 2.5])
@pytest.mark.parametrize("n", [3, 5, 7, 15])
def test_times_match_the_fraction_formula(tau, n):
    # the times are computed with integer arithmetic; they must be bitwise
    # the correctly rounded rationals that Fraction gives, nodes N (tau)
    # and M (the horizon) included
    m = 3 * n + 2
    horizon = float(Fraction(m) * Fraction(tau) / n)
    grid = DelayGrid(tau, horizon, n, m)
    frac = Fraction(tau) / n
    expected = [float(l * frac) for l in range(-n, m + 1)]
    assert grid.times.tolist() == expected
    assert grid.times[2 * n] == tau
    assert grid.times[-1] == horizon
    assert make_grid(tau, horizon, tau / n) == grid


@pytest.mark.parametrize("coarse, fine, factor", [
    ((1.0, 2.0, 0.1), (1.0, 2.0, 0.1), 1),
    ((1.0, 2.0, 0.1), (1.0, 2.0, 0.05), 2),
    ((1.0, 2.0, 0.1), (1.0, 2.0, 0.0125), 8),
    ((0.3, 0.9, 0.1), (0.3, 0.9, 0.02), 5),
])
def test_refinement_of_nested_grids(coarse, fine, factor):
    assert make_grid(*coarse).refinement(make_grid(*fine)) == factor


@pytest.mark.parametrize("fine", [
    (0.5, 1.0, 0.05),  # another delay, with the same step counts (10 and 20)
    (1.0, 2.0, 0.04),  # 0.1 / 0.04 = 2.5 fine steps per coarse step
    (1.0, 3.0, 0.05),  # another horizon
    (1.0, 2.0, 0.2),  # coarser, not finer
])
def test_refinement_rejects_grids_that_do_not_nest(fine):
    with pytest.raises(IncompatibleGrids):
        make_grid(1.0, 2.0, 0.1).refinement(make_grid(*fine))
