"""Scheme recursion, refinement, and path-batched runs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsdde_sim import (
    DimensionMismatch,
    IncompatibleGrids,
    IncompatibleNoise,
    NonFiniteState,
    NsddeModel,
    additive_noise,
    affine_segment,
    coarsen,
    constant_segment,
    cubic_drift,
    generate,
    linear_delay_ode,
    make_grid,
    pure_neutral,
    refine_to,
    simulate,
)


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
    noise = generate(grid, 1, seed=0, path_index=0)
    path = simulate(drifted_neutral(0.5, 1.0), constant_segment(1.0), grid, noise)
    assert path.values[:, 0].tolist() == [1.0, 1.0, 1.0, 1.5, 2.0, 2.75]


def test_pure_neutral_single_step():
    # X(0.5) = conserved + 0.5 * xi(-0.5) = 1 + 0.5 * 0.5 = 1.25
    grid = make_grid(1.0, 2.0, 0.5)
    noise = generate(grid, 1, 5, 0)
    path = simulate(pure_neutral(0.5, 1.0), affine_segment(1.0, 1.0), grid, noise)
    assert path.value(1)[0] == 1.25


def test_value_uses_signed_indices():
    grid = make_grid(1.0, 2.0, 0.5)
    path = simulate(
        drifted_neutral(0.5, 1.0), constant_segment(1.0), grid, generate(grid, 1, 0, 0)
    )
    assert path.value(-2)[0] == 1.0
    assert path.value(0)[0] == 1.0
    assert path.value(1)[0] == 1.5


@pytest.mark.parametrize("delta", [0.5, 0.25, 0.125])
def test_neutral_conservation(delta):
    # X(t) - k X(t-tau) is a telescoping invariant of the recursion when
    # b = sigma = 0; it must hold to near machine precision at every node.
    k = 0.7
    grid = make_grid(1.0, 3.0, delta)
    xi = affine_segment(1.0, 1.0)
    path = simulate(pure_neutral(k, 1.0), xi, grid, generate(grid, 1, 3, 0))
    n = grid.steps_per_delay
    vals = path.values[:, 0]
    conserved = vals[n:] - k * vals[: -n]
    assert np.abs(conserved - 1.0).max() <= 1e-12


def test_linear_delay_ode_method_of_steps():
    # exact solution: 1 + t on [0, 1], 2 + (t^2 - 1)/2 on [1, 2]
    grid = make_grid(1.0, 2.0, 0.025)
    path = simulate(
        linear_delay_ode(1.0, 1.0), constant_segment(1.0), grid, generate(grid, 1, 0, 0)
    )
    assert path.values[-1, 0] == pytest.approx(3.5, abs=0.02)
    n = grid.steps_per_delay
    t = np.asarray(grid.times[n:])
    exact = np.where(t <= 1.0, 1.0 + t, 2.0 + (t * t - 1.0) / 2.0)
    err = np.abs(path.values[n:, 0] - exact).max()
    assert 0.0 < err < 0.02


def test_additive_noise_is_exact():
    grid = make_grid(1.0, 2.0, 0.1)
    noise = generate(grid, 2, seed=21, path_index=4)
    n = grid.steps_per_delay
    # starting from zero the scheme IS the running sum, bit for bit
    path = simulate(additive_noise(1.0, dim=2), constant_segment(0.0, 2), grid, noise)
    assert np.array_equal(path.values[n:], noise.partial_sums())
    # a nonzero start only changes rounding of the additions
    shifted = simulate(additive_noise(1.0, dim=2), constant_segment(3.0, 2), grid, noise)
    assert np.abs(shifted.values[n:] - (3.0 + noise.partial_sums())).max() <= 1e-12


def test_simulate_validation():
    grid = make_grid(1.0, 2.0, 0.1)
    other = make_grid(0.5, 2.0, 0.1)
    model = drifted_neutral(0.5, 1.0)
    xi = constant_segment(1.0)
    with pytest.raises(IncompatibleGrids):
        simulate(model, xi, other, generate(other, 1, 0, 0))  # delay mismatch
    with pytest.raises(IncompatibleNoise):
        simulate(model, xi, grid, generate(make_grid(1.0, 2.0, 0.05), 1, 0, 0))
    with pytest.raises(DimensionMismatch):
        simulate(model, constant_segment(1.0, dim=2), grid, generate(grid, 1, 0, 0))
    with pytest.raises(DimensionMismatch):
        simulate(model, xi, grid, generate(grid, 3, 0, 0))


def test_divergence_reports_step_and_time():
    # x |-> x + x^3 delta from x=2 overflows after eight steps at delta=1/4
    grid = make_grid(1.0, 2.0, 0.25)
    with pytest.raises(NonFiniteState) as info:
        simulate(cubic_drift(1.0), constant_segment(2.0), grid, generate(grid, 1, 0, 0))
    assert info.value.step == 8
    assert info.value.time == 2.0
    assert "step 8" in str(info.value) and "t=2" in str(info.value)


def test_reduces_to_plain_delay_euler_when_neutral_is_zero():
    # with D = 0 the scheme must coincide, bit for bit, with the textbook
    # explicit recursion written out independently here
    grid = make_grid(1.0, 2.0, 0.1)
    noise = generate(grid, 1, seed=77, path_index=0)
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
    steps = noise.increments
    dt = grid.delta
    for l in range(m):
        x, y = vals[l + n], vals[l]
        t = grid.times[l + n]
        vals[l + n + 1] = x + (-y + 0.5 * x) * dt + (0.3 * x).reshape(1, 1) @ steps[l]

    path = simulate(model, xi, grid, noise)
    assert np.array_equal(path.values, vals)


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
    fine_noise = generate(fine_grid, 1, seed=2, path_index=0)
    coarse = simulate(model, xi, coarse_grid, coarsen(fine_noise, 2))
    fine = refine_to(coarse, model, xi, fine_grid, fine_noise)
    assert fine.values[4:, 0].tolist() == [1.0, 1.25, 1.5, 1.75, 2.0, 2.375, 2.75]


def test_refine_copies_coarse_nodes_bitwise(cubic_model, unit_segment):
    coarse_grid = make_grid(1.0, 2.0, 0.1)
    fine_grid = make_grid(1.0, 2.0, 0.025)
    fine_noise = generate(fine_grid, 1, seed=13, path_index=7)
    coarse = simulate(cubic_model, unit_segment, coarse_grid, coarsen(fine_noise, 4))
    fine = refine_to(coarse, cubic_model, unit_segment, fine_grid, fine_noise)
    assert np.array_equal(fine.values[::4], coarse.values)


def test_refine_identity_at_factor_one(cubic_model, unit_segment):
    grid = make_grid(1.0, 2.0, 0.1)
    noise = generate(grid, 1, 1, 0)
    path = simulate(cubic_model, unit_segment, grid, noise)
    assert refine_to(path, cubic_model, unit_segment, grid, noise) is path


def test_refine_rejects_uncoupled_noise(cubic_model, unit_segment):
    coarse_grid = make_grid(1.0, 2.0, 0.1)
    fine_grid = make_grid(1.0, 2.0, 0.05)
    coarse = simulate(
        cubic_model, unit_segment, coarse_grid, generate(coarse_grid, 1, 1, 0)
    )
    # an independently drawn fine path does not aggregate to the coarse one
    with pytest.raises(IncompatibleNoise):
        refine_to(coarse, cubic_model, unit_segment, fine_grid, generate(fine_grid, 1, 1, 0))


def test_refine_rejects_non_nested_grids(cubic_model, unit_segment):
    coarse_grid = make_grid(1.0, 2.0, 0.1)
    coarse = simulate(
        cubic_model, unit_segment, coarse_grid, generate(coarse_grid, 1, 1, 0)
    )
    shifted = make_grid(1.0, 3.0, 0.05)
    with pytest.raises(IncompatibleGrids):
        refine_to(coarse, cubic_model, unit_segment, shifted, generate(shifted, 1, 1, 0))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), factor=st.sampled_from([2, 4, 5]))
def test_refine_node_agreement_property(seed, factor):
    from nsdde_sim import neutral_cubic_model

    model = neutral_cubic_model(0.5, -1.0, -1.0, 1.0)
    xi = constant_segment(1.0)
    fine_grid = make_grid(1.0, 2.0, 0.1 / factor)
    fine_noise = generate(fine_grid, 1, seed, 0)
    coarse = simulate(model, xi, make_grid(1.0, 2.0, 0.1), coarsen(fine_noise, factor))
    fine = refine_to(coarse, model, xi, fine_grid, fine_noise)
    assert np.array_equal(fine.values[::factor], coarse.values)


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
    batch = simulate(model, xi, coarse_grid, coarsen(fine_noise, 4))
    refined = refine_to(batch, model, xi, fine_grid, fine_noise)
    assert batch.values.shape == (6, 31, model.state_dim) and batch.finite.all()
    for p in range(6):
        single_noise = generate(fine_grid, model.noise_dim, 5, p)
        single = simulate(model, xi, coarse_grid, coarsen(single_noise, 4))
        assert batch.values[p].tobytes() == single.values.tobytes()
        single_refined = refine_to(single, model, xi, fine_grid, single_noise)
        assert refined.values[p].tobytes() == single_refined.values.tobytes()


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
    batch = simulate(model, xi, coarse_grid, coarsen(fine_noise, 2))
    refined = refine_to(batch, model, xi, fine_grid, fine_noise)
    assert 0 < batch.finite.sum() < 8
    assert np.array_equal(refined.finite, batch.finite)
    for p in range(8):
        single_noise = generate(fine_grid, 1, 0, p)
        if not batch.finite[p]:
            with pytest.raises(NonFiniteState):
                simulate(model, xi, coarse_grid, coarsen(single_noise, 2))
            continue
        single = simulate(model, xi, coarse_grid, coarsen(single_noise, 2))
        assert batch.values[p].tobytes() == single.values.tobytes()
        single_refined = refine_to(single, model, xi, fine_grid, single_noise)
        assert refined.values[p].tobytes() == single_refined.values.tobytes()
