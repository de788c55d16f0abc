"""Explicit Euler scheme for neutral stochastic delay equations.

The discrete recursion advances the difference X(t) - D(X(t - tau)):

    X(t_{l+1}) = D(X(t_{l+1} - tau)) + X(t_l) - D(X(t_l - tau))
                 + b(X(t_l), X(t_l - tau), t_l) * delta
                 + sigma(X(t_l), X(t_l - tau), t_l) @ dB_l

with X = xi on [-tau, 0].  Because the step divides the delay, the delayed
state is a pure index shift (l - N) and is always already computed, so the
scheme stays fully explicit.

:func:`simulate` runs a ladder of nested grids on one noise.  Each level
steps on its grid with the block sums of noise drawn on a nested finer
grid, and returns the scheme's continuous-time interpolation on that finer
grid: within a cell [l*D, (l+1)*D] the drift and diffusion arguments
(including the time) stay frozen at the left endpoint,

    X(t) = D(X(t - tau)) + X(l*D) - D(X(l*D - tau))
           + b(...) * (t - l*D) + sigma(...) @ (B(t) - B(l*D)),

which reproduces the discrete values at the cell nodes exactly and needs
only fine-grid quantities (the delayed term recurses forward in time
through already-interpolated values).

Every path of a :class:`~nsdde_sim.brownian.BrownianPath` stack, and every
level of a ladder, advances together.  The levels share their time nodes:
level j steps at fine index l exactly when its refinement divides l, so
one loop over the steps of the finest level makes one drift and one
diffusion call per step for all levels due there.  Every delayed argument
of a delay window lies in the window before, so each window takes one
``neutral`` call for every level's nodes and in-cell nodes alike.
Evaluators therefore receive states of shape ``(..., state_dim)`` and the
time as a Python float, and must act elementwise over all leading axes
(levels and paths, and for ``neutral`` also nodes), so that each path's
values are bitwise those of a one-path, one-node-at-a-time run.  States
are stored time-major across levels, ``(rows, levels, paths, state_dim)``
finest first: the levels due at a step are one contiguous row slice, and
the update is written into it in place.  Each level's ``values`` is a
strided view of its rows.  With one noise component sigma dB is a
product, bitwise the matmul.  A path that blows up is reported through
:attr:`PathGrid.finite` and leaves the other paths untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .brownian import BrownianPath, coarsen
from .errors import DimensionMismatch, IncompatibleGrids, InvalidRange
from .model import DelayGrid, InitialSegment, NsddeModel


@dataclass(frozen=True)
class PathGrid:
    """A stack of solution paths sampled on the delay grid of their noise.

    ``values`` (from :func:`simulate`, a strided view) has shape ``(N + M + 1, paths, state_dim)``:
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
    model: NsddeModel, xi: InitialSegment, grids: Sequence[DelayGrid], noise: BrownianPath
) -> list[PathGrid]:
    """Run the explicit scheme on every grid of ``grids`` for every path of ``noise``.

    ``grids`` is a non-empty ladder in :func:`~nsdde_sim.analysis.ladder_grids`
    order: each grid nests in the next and all nest in ``noise.grid``
    (:meth:`DelayGrid.refinement`, else :class:`IncompatibleGrids`).  The
    ``j``-th returned :class:`PathGrid` is level ``j``, driven by
    ``coarsen(noise, grids[j])`` and sampled on ``noise.grid``: bitwise the
    scheme's values at the nodes of ``grids[j]``, its continuous
    interpolation in between, and bitwise the one-grid run
    ``simulate(model, xi, [grids[j]], noise)``.  Evaluators must return
    arrays broadcastable to ``(..., state_dim)`` for drift/neutral and
    ``(..., state_dim, noise_dim)`` for the diffusion.  A path that blows
    up is marked in :attr:`PathGrid.finite`.
    """
    if isinstance(grids, DelayGrid):
        raise InvalidRange(f"simulate needs a sequence of grids, not the bare {grids}; pass [grid]")
    grids = list(grids)
    if not grids:
        raise InvalidRange("simulate needs a non-empty sequence of grids")
    if model.delay != grids[0].tau:
        raise IncompatibleGrids(f"model delay {model.delay} != grid delay {grids[0].tau}")
    for coarse, finer in zip(grids, grids[1:]):
        coarse.refinement(finer)
    levels = grids[::-1]  # finest first
    factors = [grid.refinement(noise.grid) for grid in levels]
    if noise.noise_dim != model.noise_dim:
        raise DimensionMismatch(
            f"noise dimension {noise.noise_dim} != model noise_dim {model.noise_dim}"
        )
    if xi.dim != model.state_dim:
        raise DimensionMismatch(f"segment dimension {xi.dim} != state_dim {model.state_dim}")

    fine = noise.grid
    n_delay, n_steps = fine.steps_per_delay, fine.total_steps
    n_levels, n_paths, k = len(levels), len(noise.increments), model.noise_dim
    shape = (n_paths, model.state_dim)
    deltas = np.array([np.full(shape, grid.delta) for grid in levels])  # b * dt needs no broadcast
    # Each delay window steps in one pattern: at offset s the levels j < m,
    # whose factors divide s, step on rows o .. o + m - 1 of the packed
    # arrays, keeping b and sigma when one of them refines.  Correctly
    # rounded fine times are every level's own, so each reads t and samples
    # xi as on its own grid.
    starts = np.arange(0, n_delay, factors[0])
    counts = (starts[:, None] % factors == 0).sum(axis=1)
    firsts = np.cumsum(counts) - counts
    prefix = [(slice(0, m), deltas[:m], factors[m - 1] > 1) for m in range(1, n_levels + 1)]
    sched = [(s, m, slice(o, o + m)) + prefix[m - 1]
             for s, m, o in zip(starts.tolist(), counts.tolist(), firsts.tolist())]
    ends = (firsts + counts).tolist()
    packed = ends[-1]
    lev = np.arange(packed) - np.repeat(firsts, counts)
    lag_rows = np.repeat(starts, counts) + np.array(factors)[lev]
    mine = [np.flatnonzero(lev == j) for j in range(n_levels)]
    incs = [np.moveaxis(coarsen(noise, grid).increments, 1, 0) for grid in levels]
    dbs = incs[0]  # one level packs as it is, with no transposing copy
    if n_levels > 1:
        dbs = np.empty((sum(g.total_steps for g in levels), n_paths, k))
        for j, grid in enumerate(levels):
            c, per = np.arange(grid.total_steps), grid.steps_per_delay
            dbs[c // per * packed + mine[j][c % per]] = incs[j]

    out = np.empty((n_delay + n_steps + 1, n_levels) + shape)
    out[: n_delay + 1] = xi.sample(fine)[:, None, None]
    if factors[-1] > 1:
        b_win = np.empty((packed,) + shape)
        s_win = np.empty((packed,) + shape + (k,))
        bsum = np.moveaxis(noise.partial_sums(), 1, 0)
    neutral, drift, diffusion = model.neutral, model.drift, model.diffusion
    times = fine.times.tolist()
    step = factors[0]
    with np.errstate(all="ignore"):
        for w in range(0, n_steps, n_delay):
            span = min(n_delay, n_steps - w)
            # D of every level's fine rows one delay back: the node lags of
            # the window's steps and the in-cell lags, all already computed
            lag = out[w : w + span + 1]
            d_lag = np.broadcast_to(neutral(lag), lag.shape)
            steps = sched[: -(-span // step)]
            used = ends[len(steps) - 1]
            d_next = d_lag[lag_rows[:used], lev[:used]]
            db = dbs[w // n_delay * packed :]
            for s, m, rows, lv, dt, keep in steps:
                il = w + s + n_delay
                x, y, t = out[il, lv], out[il - n_delay, lv], times[il]
                b = drift(x, y, t)
                sg = diffusion(x, y, t)
                if keep:
                    b_win[rows] = b
                    s_win[rows] = sg
                # (D_next + x) - D_prev + b dt + sigma dB, in place: row il + step lies
                # past the lag rows w .. w + span, so no evaluator's view aliases it
                new = out[il + step, lv]
                np.add(d_next[rows], x, out=new)
                new -= d_lag[s, lv]
                new += b * dt
                new += _noise_term(sg, db[rows])
                if m < n_levels:  # the others carry their node to the next row
                    out[il + step, m:] = out[il, m:]
            for j, f in enumerate(factors):
                if f == 1:
                    continue
                # the in-cell rows of level j's cells in this window
                cells, picks = span // f, mine[j][: span // f]
                cell = out[w + n_delay : w + span + n_delay, j].reshape((cells, f) + shape)
                lags = d_lag[:span, j].reshape((cells, f) + shape)
                sums = bsum[w : w + span].reshape((cells, f, n_paths, k))
                cell[:, 1:] = (
                    lags[:, 1:] + (cell[:, :1] - lags[:, :1])
                    + b_win[picks, None] * fine.times[n_delay + 1 : n_delay + f, None, None]
                    + _noise_term(s_win[picks, None], sums[:, 1:] - sums[:, :1])
                )
    return [PathGrid(out[:, j], noise) for j in range(n_levels - 1, -1, -1)]


def _noise_term(sigma: np.ndarray, db: np.ndarray) -> np.ndarray:
    """sigma @ dB per path: ``(..., d, k)`` matrices times ``(..., k)`` increments.

    For k = 1 a product plus +0.0, bitwise the matmul, which sums from +0.0."""
    if db.shape[-1] == 1:
        return sigma[..., 0] * db + 0.0
    return (sigma @ db[..., None])[..., 0]
