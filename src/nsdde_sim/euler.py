"""Explicit Euler scheme for neutral stochastic delay equations.

The discrete recursion advances the difference X(t) - D(X(t - tau)):

    X(t_{l+1}) = D(X(t_{l+1} - tau)) + X(t_l) - D(X(t_l - tau))
                 + b(X(t_l), X(t_l - tau), t_l) * delta
                 + sigma(X(t_l), X(t_l - tau), t_l) @ dB_l

with X = xi on [-tau, 0].  Because the step divides the delay, the delayed
state is a pure index shift (l - N) and is always already computed, so the
scheme stays fully explicit.

:func:`simulate` steps on its grid with the block sums of noise drawn on a
nested finer grid, and returns the scheme's continuous-time interpolation
on that finer grid: within a cell [l*D, (l+1)*D] the drift and diffusion
arguments (including the time) stay frozen at the left endpoint,

    X(t) = D(X(t - tau)) + X(l*D) - D(X(l*D - tau))
           + b(...) * (t - l*D) + sigma(...) @ (B(t) - B(l*D)),

which reproduces the discrete values at the cell nodes exactly and needs
only fine-grid quantities (the delayed term recurses forward in time
through already-interpolated values).

Every path of a :class:`~nsdde_sim.brownian.BrownianPath` stack advances
together.  Every delayed argument of a delay window lies in the window
before, so each window takes one ``neutral`` call for all its nodes and
paths, one more for its in-cell nodes on a finer noise grid, and one drift
and one diffusion call per step.  Evaluators therefore receive states of
shape ``(..., state_dim)`` and the time as a Python float, and must act
elementwise over all leading axes (paths, and for ``neutral`` also nodes),
so that each path's values are bitwise those of a one-path,
one-node-at-a-time run.  Results stay in the time-major layout the loops
fill, ``(rows, paths, state_dim)``.  A path that blows up is reported
through :attr:`PathGrid.finite` and leaves the other paths untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .brownian import BrownianPath, coarsen
from .errors import DimensionMismatch, IncompatibleGrids
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
    """

    values: np.ndarray
    noise: BrownianPath

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
    def finite(self) -> np.ndarray:
        """Per path: True when every value of the path is finite."""
        return np.isfinite(self.values).all(axis=(0, 2))


def simulate(
    model: NsddeModel, xi: InitialSegment, grid: DelayGrid, noise: BrownianPath
) -> PathGrid:
    """Run the explicit scheme on ``grid`` for every path of ``noise``.

    ``noise.grid`` must nest in ``grid`` (:meth:`DelayGrid.refinement`, else
    :class:`IncompatibleGrids`).  The scheme is driven by
    ``coarsen(noise, grid)`` and its values are returned on ``noise.grid``:
    bitwise the scheme's at the nodes of ``grid``, and its continuous
    interpolation in between.  Evaluators must return arrays broadcastable
    to ``(..., state_dim)`` for drift/neutral and
    ``(..., state_dim, noise_dim)`` for the diffusion.  A path that blows
    up is marked in :attr:`PathGrid.finite`.
    """
    if model.delay != grid.tau:
        raise IncompatibleGrids(f"model delay {model.delay} != grid delay {grid.tau}")
    factor = grid.refinement(noise.grid)
    if noise.noise_dim != model.noise_dim:
        raise DimensionMismatch(
            f"noise dimension {noise.noise_dim} != model noise_dim {model.noise_dim}"
        )
    if xi.dim != model.state_dim:
        raise DimensionMismatch(f"segment dimension {xi.dim} != state_dim {model.state_dim}")

    fine = noise.grid
    n_delay, n_steps = grid.steps_per_delay, grid.total_steps
    dbs = np.moveaxis(coarsen(noise, grid).increments, 1, 0)
    shape = (dbs.shape[1], model.state_dim)
    out = np.empty((fine.steps_per_delay + fine.total_steps + 1,) + shape)
    out[: fine.steps_per_delay + 1] = xi.sample(fine)[:, None]
    # The nodes of grid are every factor-th row: correctly rounded times
    # make them sample xi exactly as xi.sample(grid) does.
    vals = out[::factor]
    b_win = np.empty((n_delay,) + shape)
    s_win = np.empty((n_delay,) + shape + (model.noise_dim,))
    if factor > 1:
        # Fine row (c, r) is out[c * factor + r]: cell l fills (l + n_delay, r)
        # for r = 1 .. factor - 1, and its delayed rows are (l, r).
        rows = out[:-1].reshape((-1, factor) + shape)
        bsum = np.moveaxis(noise.partial_sums(), 1, 0)
        bsum = bsum[:-1].reshape((n_steps, factor) + bsum.shape[1:])
        # Exact in-cell offsets r * tau / N_fine for r = 1 .. factor - 1.
        offs = fine.times[fine.steps_per_delay + 1 : fine.steps_per_delay + factor, None, None]

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
                b = b_win[l - w] = drift(x, y, t)
                s = s_win[l - w] = diffusion(x, y, t)
                vals[il + 1] = (
                    d_lag[l + 1 - w] + x - d_lag[l - w] + b * dt + _noise_term(s, dbs[l])
                )
            if factor > 1:
                # the in-cell nodes of this window, from its own d_lag,
                # drift and diffusion; their delayed rows lie in the
                # window before, which is complete
                cells, k = slice(w, end), end - w
                base = vals[w + n_delay : end + n_delay] - d_lag[:k]
                rows[w + n_delay : end + n_delay, 1:] = (
                    neutral(rows[cells, 1:]) + base[:, None] + b_win[:k, None] * offs
                    + _noise_term(s_win[:k, None], bsum[cells, 1:] - bsum[cells, :1])
                )
    return PathGrid(out, noise)


def _noise_term(sigma: np.ndarray, db: np.ndarray) -> np.ndarray:
    """sigma @ dB per path: ``(..., d, k)`` matrices times ``(paths, k)`` increments."""
    return (sigma @ db[..., None])[..., 0]
