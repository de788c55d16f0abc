"""Explicit Euler scheme for neutral stochastic delay equations.

The discrete recursion advances the difference X(t) - D(X(t - tau)):

    X(t_{l+1}) = D(X(t_{l+1} - tau)) + X(t_l) - D(X(t_l - tau))
                 + b(X(t_l), X(t_l - tau), t_l) * delta
                 + sigma(X(t_l), X(t_l - tau), t_l) @ dB_l

with X = xi on [-tau, 0].  Because the step divides the delay, the delayed
state is a pure index shift (l - N) and is always already computed, so the
scheme stays fully explicit.

:func:`refine_to` evaluates the continuous-time interpolation of a coarse
solution on a finer grid that shares the same Brownian motion: within a
coarse cell [l*D, (l+1)*D] the drift and diffusion arguments (including the
time) stay frozen at the left endpoint,

    X(t) = D(X(t - tau)) + X(l*D) - D(X(l*D - tau))
           + b(...) * (t - l*D) + sigma(...) @ (B(t) - B(l*D)),

which reproduces the discrete values at the coarse nodes exactly and needs
only fine-grid quantities (the delayed term recurses forward in time
through already-interpolated values).

Both advance every path of a :class:`~nsdde_sim.brownian.BrownianPath`
stack together: one time loop, and one coefficient call per step for all
paths.  Evaluators therefore receive states of shape ``(..., state_dim)``
with leading path axes and the time as a Python float, and must act
elementwise over the path axes, so that each path's values are bitwise
those of a one-path run.  A single path is a stack of one.  A path of a
stack that blows up is reported through :attr:`PathGrid.finite` and leaves
the other paths untouched; a single path raises :class:`NonFiniteState`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .brownian import BrownianPath, coarsen
from .errors import (
    DimensionMismatch,
    IncompatibleGrids,
    IncompatibleNoise,
    InvalidRange,
    NonFiniteState,
)
from .model import DelayGrid, InitialSegment, NsddeModel


@dataclass(frozen=True)
class PathGrid:
    """One solution path, or a stack of paths, sampled on a delay grid.

    ``values[..., l + N, :]`` is the state at grid index ``l`` for
    ``l = -N .. M`` (indices up to 0 hold the sampled initial segment);
    leading axes index paths as in ``noise``, the Brownian path or stack
    that drove the solution.  A single path fails construction with
    :class:`NonFiniteState` if any entry is NaN or infinite — diverged paths
    are reported, never silently kept; a stack marks them in :attr:`finite`.
    """

    grid: DelayGrid
    values: np.ndarray
    noise: BrownianPath

    def __post_init__(self):
        n_rows = self.grid.steps_per_delay + self.grid.total_steps + 1
        lead = self.noise.increments.shape[:-2]
        if self.values.ndim != len(lead) + 2 or self.values.shape[:-1] != lead + (n_rows,):
            raise DimensionMismatch(
                f"values shape {self.values.shape} does not match grid ({n_rows} rows) "
                f"and noise paths {lead}"
            )
        if not lead:
            finite = np.isfinite(self.values).all(axis=1)
            if not finite.all():
                bad = int(np.argmin(finite)) - self.grid.steps_per_delay
                raise NonFiniteState(bad, self.grid.time(bad))

    @property
    def state_dim(self) -> int:
        return self.values.shape[-1]

    @property
    def finite(self) -> np.ndarray:
        """Per path: True when every value of the path is finite."""
        return np.isfinite(self.values).all(axis=(-2, -1))

    def value(self, index: int) -> np.ndarray:
        """State at signed grid index in [-steps_per_delay, total_steps]."""
        if not -self.grid.steps_per_delay <= index <= self.grid.total_steps:
            raise InvalidRange(f"index {index} outside grid")
        return self.values[..., index + self.grid.steps_per_delay, :]


def simulate(
    model: NsddeModel, xi: InitialSegment, grid: DelayGrid, noise: BrownianPath
) -> PathGrid:
    """Run the explicit scheme over the grid for every path of ``noise``.

    Evaluators must return arrays broadcastable to ``(..., state_dim)`` for
    drift/neutral and ``(..., state_dim, noise_dim)`` for the diffusion.  A
    single path raises :class:`NonFiniteState` with the first offending
    step if it blows up.
    """
    if model.delay != grid.tau:
        raise IncompatibleGrids(f"model delay {model.delay} != grid delay {grid.tau}")
    if noise.grid != grid:
        raise IncompatibleNoise("noise was generated on a different grid")
    if noise.noise_dim != model.noise_dim:
        raise DimensionMismatch(
            f"noise dimension {noise.noise_dim} != model noise_dim {model.noise_dim}"
        )
    if xi.dim != model.state_dim:
        raise DimensionMismatch(f"segment dimension {xi.dim} != state_dim {model.state_dim}")

    n_delay, n_steps = grid.steps_per_delay, grid.total_steps
    steps = _time_major(noise.increments)
    vals = np.empty((n_delay + n_steps + 1, steps.shape[1], model.state_dim))
    vals[: n_delay + 1] = xi.sample(grid)[:, None]

    neutral, drift, diffusion = model.neutral, model.drift, model.diffusion
    times = grid.times.tolist()
    dt = grid.delta
    with np.errstate(all="ignore"):
        # D(X(t_l - tau)) at step l is D(X(t_{l+1} - tau)) of step l - 1
        d_lag = neutral(vals[0])
        for l in range(n_steps):
            il = l + n_delay
            x = vals[il]
            y = vals[l]
            t = times[il]
            d_next = neutral(vals[l + 1])
            vals[il + 1] = (
                d_next + x - d_lag
                + drift(x, y, t) * dt
                + _noise_term(diffusion(x, y, t), steps[l])
            )
            d_lag = d_next
    return PathGrid(grid, _path_major(vals, noise), noise)


def refine_to(
    path: PathGrid,
    model: NsddeModel,
    xi: InitialSegment,
    fine_grid: DelayGrid,
    fine_noise: BrownianPath,
) -> PathGrid:
    """Evaluate the continuous interpolation of ``path`` on a nested finer grid.

    Every path of a stack is refined together.  ``fine_noise`` must
    coarsen exactly (bitwise) onto the increments that produced ``path`` —
    the interpolation is only meaningful against the same Brownian motion.
    Coarse grid values are copied, so the refined path agrees with ``path``
    at coarse nodes bit-exactly.  With equal steps the input path is
    returned unchanged.
    """
    coarse = path.grid
    if fine_grid.tau != coarse.tau or model.delay != coarse.tau:
        raise IncompatibleGrids("grids must share the delay")
    if fine_grid.steps_per_delay % coarse.steps_per_delay:
        raise IncompatibleGrids(
            f"fine steps per delay {fine_grid.steps_per_delay} not a multiple "
            f"of coarse {coarse.steps_per_delay}"
        )
    factor = fine_grid.steps_per_delay // coarse.steps_per_delay
    if fine_grid.total_steps != factor * coarse.total_steps:
        raise IncompatibleGrids("grids do not share the horizon")
    if fine_noise.grid != fine_grid:
        raise IncompatibleNoise("fine noise was generated on a different grid")
    if fine_noise.noise_dim != model.noise_dim or xi.dim != model.state_dim:
        raise DimensionMismatch("state or noise dimensions disagree")
    if model.state_dim != path.state_dim:
        raise DimensionMismatch("model state_dim does not match the path")
    if factor == 1:
        if not np.array_equal(fine_noise.increments, path.noise.increments):
            raise IncompatibleNoise("noise does not match the increments that drove the path")
        return path
    if not np.array_equal(coarsen(fine_noise, factor).increments, path.noise.increments):
        raise IncompatibleNoise("noise does not coarsen onto the increments that drove the path")

    n_fine, n_coarse = fine_grid.steps_per_delay, coarse.steps_per_delay
    cells = coarse.total_steps
    cvals = _time_major(path.values)
    out = np.empty((n_fine + fine_grid.total_steps + 1, cvals.shape[1], model.state_dim))
    out[: n_fine + 1] = xi.sample(fine_grid)[:, None]

    neutral, drift, diffusion = model.neutral, model.drift, model.diffusion
    bsum = _time_major(fine_noise.partial_sums())
    times = fine_grid.times.tolist()
    # Exact in-cell offsets r * tau / n_fine for r = 1 .. factor - 1.
    frac_tau = Fraction(coarse.tau)
    offs = [float(r * frac_tau / n_fine) for r in range(factor)]

    with np.errstate(all="ignore"):
        for l in range(cells):
            j0 = l * factor
            x = cvals[l + n_coarse]
            y = cvals[l]
            t0 = times[j0 + n_fine]
            base = x - neutral(y)
            bval = drift(x, y, t0)
            sval = diffusion(x, y, t0)
            b0 = bsum[j0]
            for r in range(1, factor):
                j = j0 + r
                out[j + n_fine] = (
                    neutral(out[j]) + base + bval * offs[r]
                    + _noise_term(sval, bsum[j] - b0)
                )
            out[j0 + factor + n_fine] = cvals[l + 1 + n_coarse]
    return PathGrid(fine_grid, _path_major(out, fine_noise), fine_noise)


def _time_major(arr: np.ndarray) -> np.ndarray:
    """View a ``(..., rows, dim)`` stack as ``(rows, paths, dim)``."""
    return np.moveaxis(arr.reshape((-1,) + arr.shape[-2:]), 1, 0)


def _path_major(vals: np.ndarray, noise: BrownianPath) -> np.ndarray:
    """Inverse of :func:`_time_major`: restore the path axes of ``noise``."""
    lead = noise.increments.shape[:-2]
    return np.ascontiguousarray(np.moveaxis(vals, 1, 0)).reshape(lead + vals.shape[::2])


def _noise_term(sigma: np.ndarray, db: np.ndarray) -> np.ndarray:
    """sigma @ dB per path: ``(..., d, k)`` matrices times ``(paths, k)`` increments."""
    return (sigma @ db[..., None])[..., 0]
