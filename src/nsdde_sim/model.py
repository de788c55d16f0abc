"""Model and grid types for neutral stochastic differential delay equations.

A model bundles the neutral map ``D``, drift ``b(x, y, t)`` and diffusion
``sigma(x, y, t)`` together with the delay.  ``x`` is the current state,
``y`` the state one delay in the past.  Evaluators receive numpy arrays of
shape ``(..., state_dim)`` whose leading axes index paths, so the Euler
engine evaluates every path of a batch in one call; ``neutral`` may also get
grid nodes on them, such as the ``(cells, r, paths, state_dim)`` rows of a
delay window.  The time ``t`` is a Python float (the engine's steps), or a
float array of shape ``(..., 1)`` that broadcasts against the leading axes.
Evaluators must be pure functions that act elementwise over all leading axes:
each entry must get bitwise the result of a float-``t`` call on it alone.

Every other function of time takes the same contract: the initial segment
``xi(t)`` (:func:`sample_segment`), the rates of a condition bundle and the
perturbation weight receive a float array of times, act elementwise, and may
return a constant, which broadcasts; a vector-valued one gets ``(..., 1)`` times.
:func:`broadcast_result` is that broadcast rule, written once for every caller.

Grids tie the delay and the horizon to a common step: ``delta = tau / N``
with ``M`` steps to the horizon.  Grid times are always derived from the
index as the correctly rounded value of ``t_l = l * tau / N``, computed in
exact integer arithmetic — they are never accumulated by repeated addition,
so ``t_N == tau`` and ``t_M == horizon`` hold exactly and a delay lookback
is a pure index shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, IncompatibleGrids, InvalidRange, NonDivisibleStep

# Relative tolerance used when deciding whether a requested step divides
# the delay / horizon.
_DIVISIBILITY_RTOL = 1e-12
# The largest step count numpy can index: a platform limit.
_INDEX_LIMIT = int(np.iinfo(np.intp).max)
# The largest dimension whose (dim, dim) float matrix numpy can size: its
# bytes, not only its entries, must stay within the index limit.
_DIM_LIMIT = math.isqrt(_INDEX_LIMIT // 8)


@dataclass(frozen=True)
class DelayGrid:
    """Uniform grid on [-tau, horizon] with step tau / steps_per_delay.

    Indices run from ``-steps_per_delay`` (time ``-tau``) through ``0``
    (time ``0``) to ``total_steps`` (time ``horizon``).  The horizon is
    pinned to the rational value ``total_steps * tau / steps_per_delay``;
    use :func:`make_grid` to build a grid from a requested step.
    """

    tau: float
    horizon: float
    steps_per_delay: int
    total_steps: int

    def __post_init__(self):
        if not (isinstance(self.steps_per_delay, int) and isinstance(self.total_steps, int)):
            raise InvalidRange("step counts must be integers")
        if self.tau <= 0.0 or not math.isfinite(self.tau):
            raise InvalidRange(f"delay must be positive and finite, got {self.tau}")
        if self.steps_per_delay < 1 or self.total_steps <= self.steps_per_delay:
            raise InvalidRange("need steps_per_delay >= 1 and total_steps > steps_per_delay")
        if self.total_steps > _INDEX_LIMIT:
            raise InvalidRange(f"total_steps exceeds the index limit {_INDEX_LIMIT}")
        if not 0.0 < self.delta < 1.0:
            raise InvalidRange(f"step {self.delta!r} outside (0, 1)")
        exact = _exact_time(self.total_steps, self.tau, self.steps_per_delay)
        if self.horizon != exact:
            raise InvalidRange(
                f"horizon {self.horizon!r} is not total_steps * tau / steps_per_delay "
                f"= {exact!r}; build grids with make_grid()"
            )

    @property
    def delta(self) -> float:
        return self.tau / self.steps_per_delay

    def refinement(self, fine: DelayGrid) -> int:
        """The number of ``fine`` steps in one step of this grid.

        Raises :class:`IncompatibleGrids` unless ``fine`` shares the delay
        and the horizon and its step divides this grid's step.
        """
        factor, rest = divmod(fine.steps_per_delay, self.steps_per_delay)
        if fine.tau != self.tau or rest or fine.total_steps != factor * self.total_steps:
            raise IncompatibleGrids(f"{fine} is not nested in {self}")
        return factor

    @cached_property
    def times(self) -> np.ndarray:
        """Grid times for indices -steps_per_delay .. total_steps.

        Each entry is the correctly rounded value of ``l * tau / N``.
        """
        n = self.steps_per_delay
        num, den = self.tau.as_integer_ratio()
        den *= n
        return np.fromiter((l * num / den for l in range(-n, self.total_steps + 1)), float,
                           count=n + self.total_steps + 1)  # sized first: too large fails at once


def make_grid(tau: float, horizon: float, delta: float) -> DelayGrid:
    """Build the grid with step closest to ``delta`` dividing tau and horizon.

    ``delta`` is advisory: the actual step is ``tau / N`` with
    ``N = round(tau / delta)``.  Raises :class:`NonDivisibleStep` unless the
    rounded step counts reproduce delay and horizon to relative 1e-12, and
    :class:`InvalidRange` for nonsensical arguments.
    """
    if not (math.isfinite(tau) and math.isfinite(horizon) and math.isfinite(delta)):
        raise InvalidRange("tau, horizon and delta must be finite")
    if tau <= 0.0:
        raise InvalidRange(f"delay must be positive, got {tau}")
    if horizon <= tau:
        raise InvalidRange(f"horizon must exceed the delay, got {horizon} <= {tau}")
    if not 0.0 < delta < 1.0:
        raise InvalidRange(f"step must lie in (0, 1), got {delta}")

    if not horizon / delta <= _INDEX_LIMIT:  # also an overflow to inf
        raise InvalidRange(f"horizon {horizon} at step {delta} takes more steps than "
                           f"the index limit {_INDEX_LIMIT}")
    steps_per_delay = round(tau / delta)
    total_steps = round(horizon / delta)
    if steps_per_delay < 1 or abs(steps_per_delay * delta - tau) > _DIVISIBILITY_RTOL * tau:
        raise NonDivisibleStep(f"step {delta} does not divide the delay {tau}")
    if abs(total_steps * delta - horizon) > _DIVISIBILITY_RTOL * horizon:
        raise NonDivisibleStep(f"step {delta} does not divide the horizon {horizon}")

    exact_horizon = _exact_time(total_steps, tau, steps_per_delay)
    return DelayGrid(tau, exact_horizon, steps_per_delay, total_steps)


def _exact_time(index: int, tau: float, n: int) -> float:
    """Correctly rounded ``index * tau / n``: Python rounds int / int once."""
    num, den = tau.as_integer_ratio()
    return index * num / (den * n)


def broadcast_result(value, shape: tuple) -> np.ndarray:
    """An evaluator's result as a read-only float array of ``shape``: a constant, or a result
    without some leading axes, broadcasts; one that does not raises ``ValueError``."""
    return np.broadcast_to(np.asarray(value, dtype=float), shape)


def sample_segment(xi: Callable, grid: DelayGrid, dim: int) -> np.ndarray:
    """The segment ``xi`` at grid times -tau .. 0 as (N + 1, dim), from one call on their
    ``(N + 1, 1)`` stack.  Raises :class:`DimensionMismatch` when its values do not
    broadcast to that shape and :class:`InvalidRange` when one is not finite."""
    times = grid.times[: grid.steps_per_delay + 1, None]
    with np.errstate(all="ignore"):  # an overflow fails below, and prints nothing
        vals = np.asarray(xi(times), dtype=float)
    try:
        rows = broadcast_result(vals, (len(times), dim))
    except ValueError:
        raise DimensionMismatch(f"initial segment values of shape {vals.shape} do not "
                                f"broadcast to ({len(times)}, state_dim {dim})") from None
    if not np.isfinite(vals).all():
        raise InvalidRange("initial segment evaluated to a non-finite value")
    return rows


def constant_segment(value: float) -> Callable:
    """Segment xi(theta) = value in every coordinate."""
    return lambda t: value


def affine_segment(a: float, b: float) -> Callable:
    """Segment xi(theta) = a + b * theta in every coordinate."""
    return lambda t: a + b * t


def libm_exp(x):
    """exp of each entry of an array by libm, as :func:`math.exp`; numpy's ``exp``
    rounds some grid times differently.  A scalar gives a float."""
    if isinstance(x, np.ndarray):
        return np.fromiter(map(math.exp, x.ravel().tolist()), float, x.size).reshape(x.shape)
    return math.exp(x)


@dataclass(frozen=True)
class NsddeModel:
    """Coefficients of d[X(t) - D(X(t - tau))] = b dt + sigma dB(t).

    ``neutral`` maps (..., state_dim) -> (..., state_dim); ``drift`` maps
    (x, y, t) -> (..., state_dim); ``diffusion`` maps (x, y, t) ->
    (..., state_dim, noise_dim).  The leading axes ``...`` index paths, and
    for ``neutral`` also grid nodes: each evaluator acts elementwise over
    all of them.  ``t`` is a float, or a float array of shape ``(..., 1)``
    that broadcasts against the leading axes, one time per entry.  A result
    without the leading axes (a constant) broadcasts to every path and node.
    """

    state_dim: int
    noise_dim: int
    delay: float
    neutral: Callable[[np.ndarray], np.ndarray]
    drift: Callable[[np.ndarray, np.ndarray, float | np.ndarray], np.ndarray]
    diffusion: Callable[[np.ndarray, np.ndarray, float | np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.state_dim < 1 or self.noise_dim < 1:
            raise InvalidRange("state_dim and noise_dim must be >= 1")
        if self.delay <= 0.0 or not math.isfinite(self.delay):
            raise InvalidRange(f"delay must be positive and finite, got {self.delay}")


def neutral_cubic_model(k: float, c1: float, c2: float, tau: float) -> NsddeModel:
    """One-dimensional model with linear neutral part and cubic drift.

    D(y) = k*y with k in (-1, 1), and with u = x - k*y:

        b(x, y, t)     = exp(c1*t) * (1 + u - u*(x^2 + k^2 y^2))
                       = exp(c1*t) * (1 + x - k*y - x^3 - k^2 x y^2
                                      + k x^2 y + k^3 y^3)
        sigma(x, y, t) = exp(c2*t) * (1 + x - k*y)

    requiring c1 <= c2 <= 0.  The drift is dissipative for large states,
    which keeps the explicit scheme stable at moderate steps.
    """
    if not -1.0 < k < 1.0:
        raise InvalidRange(f"neutral coefficient k must lie in (-1, 1), got {k}")
    if not c1 <= c2 <= 0.0:
        raise InvalidRange(f"need c1 <= c2 <= 0, got c1={c1}, c2={c2}")
    ksq = k * k

    def neutral(y):
        return k * y

    def drift(x, y, t):
        u = x - k * y
        return libm_exp(c1 * t) * (1.0 + u - u * (x * x + ksq * y * y))

    def diffusion(x, y, t):
        return (libm_exp(c2 * t) * (1.0 + x - k * y))[..., None]

    return NsddeModel(1, 1, tau, neutral, drift, diffusion)


def linear_delay_ode(a: float, tau: float) -> NsddeModel:
    """Deterministic delay ODE x'(t) = a * x(t - tau): D = 0, sigma = 0."""
    zero_vec = np.zeros(1)
    zero_mat = np.zeros((1, 1))
    return NsddeModel(
        1, 1, tau,
        neutral=lambda y: zero_vec,
        drift=lambda x, y, t: a * y,
        diffusion=lambda x, y, t: zero_mat,
    )


def pure_neutral(k: float, tau: float) -> NsddeModel:
    """Model with only the neutral part: D(y) = k*y, b = 0, sigma = 0."""
    if not -1.0 < k < 1.0:
        raise InvalidRange(f"neutral coefficient k must lie in (-1, 1), got {k}")
    zero_vec = np.zeros(1)
    zero_mat = np.zeros((1, 1))
    return NsddeModel(
        1, 1, tau,
        neutral=lambda y: k * y,
        drift=lambda x, y, t: zero_vec,
        diffusion=lambda x, y, t: zero_mat,
    )


def additive_noise(tau: float, dim: int = 1) -> NsddeModel:
    """Driftless model with unit additive noise: X(t) = X(0) + B(t)."""
    zero_vec = np.zeros(dim)
    eye = np.eye(dim)
    return NsddeModel(
        dim, dim, tau,
        neutral=lambda y: zero_vec,
        drift=lambda x, y, t: zero_vec,
        diffusion=lambda x, y, t: eye,
    )


def cubic_drift(tau: float, dim: int = 1) -> NsddeModel:
    """Diagnostic model b = x^3 (componentwise), D = 0, sigma = 0.

    Grows too fast for any constant coercivity rate; used as a known
    counterexample for the condition checkers.
    """
    zero_vec = np.zeros(dim)
    zero_mat = np.zeros((dim, dim))
    return NsddeModel(
        dim, dim, tau,
        neutral=lambda y: zero_vec,
        drift=lambda x, y, t: x**3,
        diffusion=lambda x, y, t: zero_mat,
    )


# Built-in ids: (factory, required parameters, optional parameters).  The
# optional parameter is a dimension, a whole number up to :data:`_DIM_LIMIT`.
_BUILTINS = {
    "sec4": (neutral_cubic_model, {"k", "c1", "c2"}, set()),
    "linear_delay_ode": (linear_delay_ode, {"a"}, set()),
    "pure_neutral": (pure_neutral, {"k"}, set()),
    "additive_noise": (additive_noise, set(), {"dim"}),
    "cubic_drift": (cubic_drift, set(), {"dim"}),
}


def builtin_model(model_id: str, tau: float, params: dict) -> NsddeModel:
    """Construct a built-in model from its string id and flat parameter map."""
    if model_id not in _BUILTINS:
        known = ", ".join(sorted(_BUILTINS))
        raise InvalidRange(f"unknown model id {model_id!r} (known: {known})")
    factory, required, optional = _BUILTINS[model_id]
    keys = set(params)
    if not required <= keys:
        raise InvalidRange(f"model {model_id!r} missing parameters {sorted(required - keys)}")
    if not keys <= required | optional:
        raise InvalidRange(
            f"model {model_id!r} got unknown parameters {sorted(keys - required - optional)}"
        )
    for key in sorted(optional & keys):
        value = params[key]
        if isinstance(value, bool) or not 1 <= value <= _DIM_LIMIT or value != int(value):
            raise InvalidRange(f"model {model_id!r} parameter {key!r} must be a whole "
                               f"number from 1 to {_DIM_LIMIT}, got {value!r}")
    return factory(tau=tau, **{key: int(v) if key in optional else v for key, v in params.items()})
