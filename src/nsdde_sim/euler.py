"""Explicit Euler scheme for neutral stochastic delay equations.

The discrete recursion advances the difference X(t) - D(X(t - tau)):

    X(t_{l+1}) = D(X(t_{l+1} - tau)) + X(t_l) - D(X(t_l - tau))
                 + b(X(t_l), X(t_l - tau), t_l) * delta
                 + sigma(X(t_l), X(t_l - tau), t_l) @ dB_l

with X = xi on [-tau, 0].  Because the step divides the delay, the delayed
state is a pure index shift (l - N) and is always already computed, so the
scheme stays fully explicit.

:func:`simulate` runs a ladder of nested grids on one noise, drawn on the
finest level's grid.  Each level steps on its grid with the block sums of
that noise, and returns the scheme's continuous-time interpolation on the
finest grid: within a cell [l*D, (l+1)*D] the drift and diffusion arguments
(including the time) stay frozen at the left endpoint,

    X(t) = D(X(t - tau)) + X(l*D) - D(X(l*D - tau))
           + b(...) * (t - l*D) + sigma(...) @ (B(t) - B(l*D)),

which reproduces the discrete values at the cell nodes exactly and needs
only fine-grid quantities (the delayed term recurses forward in time
through already-interpolated values).

Every path of a noise stack, and every level of a ladder, advances
together.  The levels share their time nodes: level j steps at fine index
l exactly when its refinement divides l, so one loop over the steps of the
finest level makes one drift and one diffusion call per step for all
levels due there.  Every delayed argument of a delay window lies in the
window before, so each window takes one ``neutral`` call for every level's
nodes and in-cell nodes alike.  Evaluators therefore receive states of
shape ``(..., state_dim)`` and the step's time as a Python float (the float
case of the contract of :mod:`nsdde_sim.model`; the initial segment gets its
times as one array), and must act elementwise over all leading axes (levels
and paths, and for ``neutral`` also nodes), so that each path's values are
bitwise those of a one-path, one-node-at-a-time run.  States
are stored time-major across levels, ``(rows, levels, paths, state_dim)``
finest first: the levels due at a step are one contiguous row slice, and
the update is written into it in place.  Each level :func:`simulate`
returns is a strided view of its rows.  With one noise component sigma dB
is a product, bitwise the matmul.  A path that blows up keeps its NaN or
inf values and leaves the other paths untouched.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .brownian import coarsen
from .errors import DimensionMismatch, IncompatibleGrids, InvalidRange
from .model import DelayGrid, NsddeModel, broadcast_result, sample_segment


def simulate(
    model: NsddeModel, xi: Callable, grids: Sequence[DelayGrid], noise: np.ndarray
) -> list[np.ndarray]:
    """Run the explicit scheme on every grid of ``grids`` for every path of ``noise``.

    ``grids`` is a non-empty ladder in :func:`~nsdde_sim.analysis.ladder_grids`
    order: each grid nests in the next (:meth:`DelayGrid.refinement`, else
    :class:`IncompatibleGrids`).  ``noise`` holds the increments on the
    finest grid ``grids[-1]``, ``(paths, M, noise_dim)`` with at least one
    path (:class:`DimensionMismatch` otherwise).  The ``j``-th returned
    array is level ``j``, driven by ``coarsen(noise, grids[-1], grids[j])``
    and sampled on ``grids[-1]``: a strided ``(N + M + 1, paths,
    state_dim)`` view of one buffer shared by all levels, whose row ``l + N``
    is fine index ``l = -N .. M`` (rows up to ``N`` hold the segment ``xi``
    from one call, :func:`~nsdde_sim.model.sample_segment`) and whose path
    ``p`` is driven by row ``p`` of ``noise``.  It
    is bitwise the scheme's values at the nodes of ``grids[j]``, its
    continuous interpolation in between, and bitwise level 0 of
    ``simulate(model, xi, grids[j:], noise)``.
    Evaluators must return arrays broadcastable to ``(..., state_dim)`` for
    drift/neutral and ``(..., state_dim, noise_dim)`` for the diffusion.  A
    path that blows up keeps its NaN or inf values.
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
    levels, fine, k = grids[::-1], grids[-1], model.noise_dim  # finest first
    factors = [grid.refinement(fine) for grid in levels]
    if noise.ndim != 3 or not len(noise) or noise.shape[1:] != (fine.total_steps, k):
        raise DimensionMismatch(f"noise shape {noise.shape} is not (paths >= 1, "
                                f"{fine.total_steps}, noise_dim {k}) on the finest grid")
    start = sample_segment(xi, fine, model.state_dim)

    n_delay, n_steps = fine.steps_per_delay, fine.total_steps
    n_levels, n_paths = len(levels), len(noise)
    shape = (n_paths, model.state_dim)
    deltas = np.array([np.full(shape, grid.delta) for grid in levels])  # b * dt needs no broadcast
    # Each delay window steps in one pattern: at offset s the levels j < m,
    # whose factors divide s, step on rows o .. o + m - 1 of the packed
    # arrays, keeping b and sigma when one of them refines.  Correctly
    # rounded fine times are every level's own, so each reads t and samples
    # xi as on its own grid.
    starts = np.arange(n_delay)
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
    dbs = np.empty((sum(g.total_steps for g in levels), n_paths, k))
    for j, grid in enumerate(levels):
        c, per = np.arange(grid.total_steps), grid.steps_per_delay
        dbs[c // per * packed + mine[j][c % per]] = coarsen(noise, fine, grid).swapaxes(0, 1)

    out = np.empty((n_delay + n_steps + 1, n_levels) + shape)
    out[: n_delay + 1] = start[:, None, None]
    if factors[-1] > 1:
        b_win = np.empty((packed,) + shape)
        s_win = np.empty((packed,) + shape + (k,))
        bsum = np.zeros((n_steps + 1, n_paths, k))  # B(t_l) - B(0)
        np.cumsum(noise.swapaxes(0, 1), axis=0, out=bsum[1:])
    neutral, drift, diffusion = model.neutral, model.drift, model.diffusion
    times = fine.times.tolist()
    with np.errstate(all="ignore"):
        for w in range(0, n_steps, n_delay):
            span = min(n_delay, n_steps - w)
            # D of every level's fine rows one delay back: the node lags of
            # the window's steps and the in-cell lags, all already computed
            lag = out[w : w + span + 1]
            d_lag = broadcast_result(neutral(lag), lag.shape)
            used = ends[span - 1]
            d_next = d_lag[lag_rows[:used], lev[:used]]
            db = dbs[w // n_delay * packed :]
            for s, m, rows, lv, dt, keep in sched[:span]:
                il = w + s + n_delay
                x, y, t = out[il, lv], out[il - n_delay, lv], times[il]
                b = drift(x, y, t)
                sg = diffusion(x, y, t)
                if keep:
                    b_win[rows] = b
                    s_win[rows] = sg
                # (D_next + x) - D_prev + b dt + sigma dB, in place: row il + 1 lies
                # past the lag rows w .. w + span, so no evaluator's view aliases it
                new = out[il + 1, lv]
                np.add(d_next[rows], x, out=new)
                new -= d_lag[s, lv]
                new += b * dt
                new += _noise_term(sg, db[rows])
                if m < n_levels:  # the others carry their node to the next row
                    out[il + 1, m:] = out[il, m:]
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
    return [out[:, j] for j in range(n_levels - 1, -1, -1)]


def _noise_term(sigma: np.ndarray, db: np.ndarray) -> np.ndarray:
    """sigma @ dB per path: ``(..., d, k)`` matrices times ``(..., k)`` increments.

    For k = 1 a product plus +0.0, bitwise the matmul, which sums from +0.0."""
    if db.shape[-1] == 1:
        return sigma[..., 0] * db + 0.0
    return (sigma @ db[..., None])[..., 0]
