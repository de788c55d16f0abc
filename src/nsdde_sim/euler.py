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
stack together.  Every delayed argument of a delay window lies in the
window before, so each window takes one ``neutral`` call for all its nodes
and paths; :func:`simulate` adds one drift and one diffusion call per step,
and :func:`refine_to`, which freezes the values the step recorded in
:attr:`PathGrid.steps`, none.  Evaluators therefore receive states of shape
``(..., state_dim)`` and the time as a Python float, and must act
elementwise over all leading axes (paths, and for ``neutral`` also nodes),
so that each path's values are bitwise those of a one-path,
one-node-at-a-time run.  Results stay in the time-major layout the loops
fill, ``(rows, paths, state_dim)``.  A path that blows up is reported
through :attr:`PathGrid.finite` and leaves the other paths untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .brownian import BrownianPath, coarsen
from .errors import DimensionMismatch, IncompatibleGrids, IncompatibleNoise, InvalidRange
from .model import DelayGrid, InitialSegment, NsddeModel


@dataclass(frozen=True)
class PathGrid:
    """A stack of solution paths sampled on the delay grid of their noise.

    ``values`` has shape ``(N + M + 1, paths, state_dim)``:
    ``values[l + N]`` is the state at grid index ``l`` for ``l = -N .. M``
    (indices up to 0 hold the sampled initial segment), and path ``p`` is
    the one driven by row ``p`` of ``noise``.  A path that turned NaN or
    infinite is kept and marked in :attr:`finite` (the studies of
    :mod:`nsdde_sim.analysis` also drop a huge but finite one).

    ``steps`` is ``(drift (M, paths, d), diffusion (M, paths, d, k))``, the
    coefficients step ``l`` evaluated, in the same layout.
    :func:`simulate` records them for :func:`refine_to`; a path built any
    other way has ``None``.
    """

    values: np.ndarray
    noise: BrownianPath
    steps: tuple[np.ndarray, np.ndarray] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        n_rows = self.grid.steps_per_delay + self.grid.total_steps + 1
        n_paths = len(self.noise.increments)
        if self.values.ndim != 3 or self.values.shape[:2] != (n_rows, n_paths):
            raise DimensionMismatch(
                f"values shape {self.values.shape} does not match grid ({n_rows} rows) "
                f"and noise ({n_paths} paths)"
            )

    @property
    def grid(self) -> DelayGrid:
        """The grid of the driving noise, which the values are sampled on."""
        return self.noise.grid

    @property
    def state_dim(self) -> int:
        return self.values.shape[-1]

    @property
    def finite(self) -> np.ndarray:
        """Per path: True when every value of the path is finite."""
        return np.isfinite(self.values).all(axis=(0, 2))


def simulate(
    model: NsddeModel, xi: InitialSegment, grid: DelayGrid, noise: BrownianPath
) -> PathGrid:
    """Run the explicit scheme over the grid for every path of ``noise``.

    Evaluators must return arrays broadcastable to ``(..., state_dim)`` for
    drift/neutral and ``(..., state_dim, noise_dim)`` for the diffusion.  A
    path that blows up is marked in :attr:`PathGrid.finite`.  The drift and
    diffusion of every step are recorded in :attr:`PathGrid.steps`.
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
    dbs = np.moveaxis(noise.increments, 1, 0)
    shape = (dbs.shape[1], model.state_dim)
    vals = np.empty((n_delay + n_steps + 1,) + shape)
    vals[: n_delay + 1] = xi.sample(grid)[:, None]
    b_steps = np.empty((n_steps,) + shape)
    s_steps = np.empty((n_steps,) + shape + (model.noise_dim,))

    neutral, drift, diffusion = model.neutral, model.drift, model.diffusion
    times = grid.times.tolist()
    dt = grid.delta
    with np.errstate(all="ignore"):
        for w in range(0, n_steps, n_delay):
            end = min(w + n_delay, n_steps)
            # D(X(t_l - tau)) for l = w .. end: every row is one delay back,
            # so the whole window's lookups are known before it starts
            lag = vals[w : end + 1]
            d_lag = np.broadcast_to(neutral(lag), lag.shape)
            for l in range(w, end):
                il = l + n_delay
                x = vals[il]
                y = vals[l]
                t = times[il]
                b = b_steps[l] = drift(x, y, t)
                s = s_steps[l] = diffusion(x, y, t)
                vals[il + 1] = (
                    d_lag[l + 1 - w] + x - d_lag[l - w] + b * dt + _noise_term(s, dbs[l])
                )
    return PathGrid(vals, noise, (b_steps, s_steps))


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
    The drift and diffusion of each coarse cell are the ones the step
    recorded in :attr:`PathGrid.steps`, so only ``neutral`` is evaluated;
    a path without them is rejected.  Coarse grid values are copied, so the
    refined path agrees with ``path`` at coarse nodes bit-exactly.  With
    equal steps the input path is returned unchanged.
    """
    coarse = path.grid
    if path.steps is None:
        raise InvalidRange("path has no recorded step coefficients; refine a path from simulate")
    if model.delay != coarse.tau:
        raise IncompatibleGrids(f"model delay {model.delay} != grid delay {coarse.tau}")
    factor = coarse.refinement(fine_grid)
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
    cvals, (b_steps, s_steps) = path.values, path.steps
    shape = cvals.shape[1:]
    out = np.empty((n_fine + fine_grid.total_steps + 1,) + shape)
    out[: n_fine + 1] = xi.sample(fine_grid)[:, None]
    out[n_fine::factor] = cvals[n_coarse:]
    # Fine row (c, r) is out[c * factor + r]: cell l fills (l + n_coarse, r)
    # for r = 1 .. factor - 1, and its delayed rows are (l, r).
    rows = out[:-1].reshape((-1, factor) + shape)
    bsum = np.moveaxis(fine_noise.partial_sums(), 1, 0)
    bsum = bsum[:-1].reshape((cells, factor) + bsum.shape[1:])
    # Exact in-cell offsets r * tau / n_fine for r = 1 .. factor - 1.
    offs = fine_grid.times[n_fine + 1 : n_fine + factor, None, None]

    with np.errstate(all="ignore"):
        base = cvals[n_coarse:-1] - model.neutral(cvals[:cells])
        # One delay window of cells per pass: its delayed rows all lie in
        # the window before, which is complete.
        for l0 in range(0, cells, n_coarse):
            cell = slice(l0, min(l0 + n_coarse, cells))
            rows[l0 + n_coarse : cell.stop + n_coarse, 1:] = (
                model.neutral(rows[cell, 1:]) + base[cell, None] + b_steps[cell, None] * offs
                + _noise_term(s_steps[cell, None], bsum[cell, 1:] - bsum[cell, :1])
            )
    return PathGrid(out, fine_noise)


def _noise_term(sigma: np.ndarray, db: np.ndarray) -> np.ndarray:
    """sigma @ dB per path: ``(..., d, k)`` matrices times ``(paths, k)`` increments."""
    return (sigma @ db[..., None])[..., 0]
