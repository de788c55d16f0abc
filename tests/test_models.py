import math

import numpy as np
import pytest

from nsdde_sim import (
    DimensionMismatch,
    InvalidRange,
    NsddeModel,
    additive_noise,
    affine_segment,
    builtin_model,
    constant_segment,
    cubic_drift,
    generate,
    linear_delay_ode,
    make_grid,
    neutral_cubic_model,
    neutral_cubic_rates,
    pure_neutral,
    simulate,
)
from nsdde_sim.model import sample_segment

X1 = np.array([1.0])
Y1 = np.array([1.0])


def test_cubic_model_point_values():
    # Hand-evaluated: u = x - k y = 0.5, x^2 + k^2 y^2 = 1.25,
    # b = e^0 (1 + 0.5 - 0.5 * 1.25) = 0.875, sigma = e^0 * 1.5.
    m = neutral_cubic_model(k=0.5, c1=-1.0, c2=-1.0, tau=1.0)
    assert m.drift(X1, Y1, 0.0)[0] == pytest.approx(0.875, abs=0.0)
    assert m.diffusion(X1, Y1, 0.0)[0, 0] == pytest.approx(1.5, abs=0.0)
    assert m.neutral(np.array([2.0]))[0] == 1.0
    # time decay enters through exp(c1 t) only
    assert m.drift(X1, Y1, math.log(2.0))[0] == pytest.approx(0.4375, rel=1e-15)


def test_cubic_model_degenerate_k_is_plain_cubic():
    m = neutral_cubic_model(k=0.0, c1=0.0, c2=0.0, tau=1.0)
    # b(1, 5, 0) = 1 + 1 - 1 * 1 = 1 exactly; the delayed argument is inert
    assert m.drift(X1, np.array([5.0]), 0.0)[0] == 1.0
    assert m.neutral(np.array([7.0]))[0] == 0.0


@pytest.mark.parametrize("k", [-1.0, 1.0, 1.5, -2.0])
def test_cubic_model_contraction_coefficient_range(k):
    with pytest.raises(InvalidRange):
        neutral_cubic_model(k, -1.0, -1.0, 1.0)
    with pytest.raises(InvalidRange, match="k must lie in"):
        neutral_cubic_rates(k, -1.0, -1.0, 1.0, 2.0)
    with pytest.raises(InvalidRange, match="neutral coefficient k"):
        pure_neutral(k, 1.0)


@pytest.mark.parametrize("c1, c2", [(-1.0, 0.5), (0.1, 0.2), (-0.5, -1.0)])
def test_cubic_model_rate_ordering(c1, c2):
    with pytest.raises(InvalidRange):
        neutral_cubic_model(0.5, c1, c2, 1.0)


def test_linear_delay_ode_coefficients():
    m = linear_delay_ode(a=2.0, tau=1.0)
    assert m.drift(X1, np.array([3.0]), 0.7)[0] == 6.0
    assert m.neutral(np.array([4.0]))[0] == 0.0
    assert m.diffusion(X1, Y1, 0.0).shape == (1, 1)
    assert not m.diffusion(X1, Y1, 0.0).any()


def test_pure_neutral_coefficients():
    m = pure_neutral(k=0.7, tau=1.0)
    assert m.neutral(np.array([2.0]))[0] == pytest.approx(1.4, rel=1e-16)
    assert not m.drift(X1, Y1, 0.0).any()


def test_additive_noise_shape():
    m = additive_noise(tau=0.5, dim=3)
    assert m.state_dim == 3 and m.noise_dim == 3
    assert np.array_equal(m.diffusion(np.zeros(3), np.zeros(3), 0.0), np.eye(3))


def test_cubic_drift_counterexample_coefficients():
    m = cubic_drift(tau=1.0)
    assert m.drift(np.array([2.0]), Y1, 0.0)[0] == 8.0


def test_model_validation():
    with pytest.raises(InvalidRange):
        NsddeModel(0, 1, 1.0, lambda y: y, lambda x, y, t: x, lambda x, y, t: x)
    with pytest.raises(InvalidRange):
        NsddeModel(1, 1, -1.0, lambda y: y, lambda x, y, t: x, lambda x, y, t: x)


class TestBuiltinRegistry:
    def test_ids_construct(self):
        assert builtin_model("sec4", 1.0, {"k": 0.5, "c1": -1.0, "c2": -1.0}).state_dim == 1
        assert builtin_model("linear_delay_ode", 1.0, {"a": 1.0}).noise_dim == 1
        assert builtin_model("pure_neutral", 1.0, {"k": 0.7}).delay == 1.0
        assert builtin_model("additive_noise", 1.0, {}).state_dim == 1
        assert builtin_model("additive_noise", 1.0, {"dim": 2}).state_dim == 2
        assert builtin_model("cubic_drift", 1.0, {}).state_dim == 1

    def test_unknown_id_rejected(self):
        with pytest.raises(InvalidRange, match="unknown"):
            builtin_model("sec5", 1.0, {})

    def test_missing_parameter_rejected(self):
        with pytest.raises(InvalidRange):
            builtin_model("sec4", 1.0, {"k": 0.5, "c1": -1.0})

    def test_extra_parameter_rejected(self):
        with pytest.raises(InvalidRange):
            builtin_model("linear_delay_ode", 1.0, {"a": 1.0, "b": 2.0})

    def test_optional_parameter_type(self):
        with pytest.raises(InvalidRange):
            builtin_model("additive_noise", 1.0, {"dim": 2.5})


def test_constant_segment_samples():
    grid = make_grid(1.0, 2.0, 0.25)
    vals = sample_segment(constant_segment(3.0), grid, 2)
    assert vals.shape == (5, 2)
    assert (vals == 3.0).all()


def test_affine_segment_samples():
    grid = make_grid(1.0, 2.0, 0.5)
    xi = affine_segment(1.0, 1.0)  # xi(theta) = 1 + theta: 0 at -tau, 1 at 0
    vals = sample_segment(xi, grid, 1)
    assert vals[:, 0] == pytest.approx([0.0, 0.5, 1.0], abs=0.0)


def test_segment_of_the_wrong_size_fails_in_simulate():
    # values that do not broadcast to (N + 1, state_dim) name both shapes
    grid = make_grid(1.0, 2.0, 0.25)
    pair = lambda t: np.concatenate([t, -t], axis=-1)  # noqa: E731
    with pytest.raises(DimensionMismatch, match=r"\(5, 2\) do not broadcast to \(5, state_dim 1"):
        simulate(linear_delay_ode(1.0, 1.0), pair, [grid], generate(grid, 1, 0, [0]))
    path = simulate(additive_noise(1.0, 2), pair, [grid], generate(grid, 2, 0, [0]))[0]
    assert path[:5, 0].tolist() == [[t, -t] for t in grid.times[:5].tolist()]


def test_segment_rejects_non_finite_history():
    grid = make_grid(1.0, 2.0, 0.5)
    xi = lambda t: np.where(t == 0.0, math.nan, t)  # noqa: E731
    with pytest.raises(InvalidRange, match="initial segment evaluated to a non-finite value"):
        simulate(linear_delay_ode(1.0, 1.0), xi, [grid], generate(grid, 1, 0, [0]))
