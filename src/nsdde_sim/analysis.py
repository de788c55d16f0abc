"""Monte Carlo studies built on the coupled Euler scheme.

The central construction: per path, increments are generated once at the
finest step of a ladder, every level is simulated on its grid from them
(one :func:`nsdde_sim.euler.simulate` call steps all levels together,
driving each by their block sums and sampling it on the finest grid), and
levels are compared pathwise in the sup norm over grid points.  Convergence in probability is
then read off the exceedance fractions P(sup-difference > epsilon) along
the ladder.

The studies take the ladder as grids, coarsest first, each nested in the
next, as :func:`ladder_grids` builds and validates them once per run:
``converge_study(model, xi, grids, epsilon, n_paths, seed, radius)``,
``perturbation_integrability(model, xi, grids, n_paths, seed, radius,
weight)`` and ``estimate_moments(model, xi, grid, n_paths, seed, radius)``.
Every study is one per-block reduction handed to one ladder driver, which
runs the paths in blocks of :data:`PATH_BLOCK`, decides divergence for
every study, and reports the diverged paths via ``diverged_count`` instead
of averaging them in.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .brownian import generate
from .errors import DegenerateSampling, DimensionMismatch, InvalidRange
from .euler import simulate
from .model import DelayGrid, NsddeModel, make_grid

# Paths per engine call.  Memory grows with levels x PATH_BLOCK x grid
# points; every shipped config fits in one block.
PATH_BLOCK = 1024

# Default sup |X| over [0, horizon] beyond which a path counts as diverged
# (the config's truncation_radius).
TRUNCATION_RADIUS = 3.0e6


def path_blocks(n_paths: int) -> list[range]:
    """Consecutive index ranges of at most :data:`PATH_BLOCK` paths covering
    0 .. n_paths - 1."""
    return [range(start, min(start + PATH_BLOCK, n_paths))
            for start in range(0, n_paths, PATH_BLOCK)]


def ladder_grids(tau: float, horizon: float, ladder) -> list[DelayGrid]:
    """One grid per ladder step, each nested in the next."""
    if len(ladder) < 1:
        raise InvalidRange("ladder must contain at least one step")
    if any(d2 >= d1 for d1, d2 in zip(ladder, ladder[1:])):
        raise InvalidRange(f"ladder must be strictly decreasing, got {list(ladder)}")
    grids = [make_grid(tau, horizon, d) for d in ladder]
    for g1, g2 in zip(grids, grids[1:]):
        g1.refinement(g2)
    return grids


def check_radius(radius: float) -> None:
    """Reject a radius past sqrt(float max), where |X|**2 overflows to inf."""
    if not 0.0 < radius <= math.sqrt(sys.float_info.max):
        raise InvalidRange(f"truncation radius must lie in (0, 1.34e154], got {radius!r}")


def _ladder_study(model: NsddeModel, xi: Callable, grids, n_paths: int, seed: int,
                  radius: float, reduce, names) -> list[np.ndarray]:
    """Run the coupled ladder in blocks of paths and keep each slot's reduction.

    Per block the finest increments are generated once, and one
    :func:`~nsdde_sim.euler.simulate` call steps every level on its grid and
    samples it on the finest.  A path diverged at a level when its sup |X|
    over [0, horizon] on the finest grid exceeds ``radius`` or is not a
    number.  ``reduce(levels)`` gets one ``(values, kept)`` pair per level:
    ``values`` is the engine's time-major view, shape (M + 1, paths,
    state_dim) on [0, horizon], and ``kept`` is False on the paths that
    diverged there.  It returns one ``(stats, kept)`` pair per slot (a
    level or a level pair), ``stats`` holding every path's statistics along
    its first axis; it runs with floating-point warnings off, as it reduces
    the diverged paths too.  Returned are each slot's kept rows of every
    block, in path order; a slot with none raises
    :class:`DegenerateSampling`, named by ``names[slot]``.
    """
    if n_paths < 1:
        raise InvalidRange("n_paths must be >= 1")
    check_radius(radius)
    fine = grids[-1]
    skip = fine.steps_per_delay
    blocks = []
    for indices in path_blocks(n_paths):
        noise = generate(fine, model.noise_dim, seed, indices)
        levels = [values[skip:] for values in simulate(model, xi, grids, noise)]
        with np.errstate(all="ignore"):  # a diverged path squares to inf or NaN
            kept = [np.sqrt(np.einsum("ipj,ipj->ip", v, v).max(axis=0)) <= radius for v in levels]
            blocks.append([stats[ok] for stats, ok in reduce(list(zip(levels, kept)))])
    slots = [np.concatenate(slot) for slot in zip(*blocks)]
    for name, stats in zip(names, slots):
        if not len(stats):
            raise DegenerateSampling(f"every simulated path diverged at {name}")
    return slots


@dataclass(frozen=True)
class LevelPairRow:
    """Sup-difference statistics between two consecutive ladder levels."""

    level_pair: str
    delta_coarse: float
    delta_fine: float
    epsilon: float
    n_paths: int
    exceed_count: int
    diverged_count: int
    sup_diffs: np.ndarray  # per-path sup differences, diverged paths omitted

    @property
    def p_hat(self) -> float:
        return self.exceed_count / (self.n_paths - self.diverged_count)

    @property
    def mean_sup_diff(self) -> float:
        return float(self.sup_diffs.mean())

    @property
    def max_sup_diff(self) -> float:
        return float(self.sup_diffs.max())

    @property
    def suspect(self) -> bool:
        """True when more than 1% of paths diverged at this level pair.

        Such a row is still reported, but its statistics rest on a
        conditioned sample and should not be trusted at face value.
        """
        return self.diverged_count > 0.01 * self.n_paths


def converge_study(
    model: NsddeModel,
    xi: Callable,
    grids,
    epsilon: float,
    n_paths: int,
    seed: int,
    radius: float = TRUNCATION_RADIUS,
) -> tuple[LevelPairRow, ...]:
    """Coupled refinement study across a ladder of nested grids, coarsest first.

    For every path the same finest-grid increments drive all levels, each
    sampled on the finest grid, and consecutive levels are compared by
    their sup difference over grid points in [0, horizon], over the paths
    that diverged at neither level.  Returns one row per level pair.
    """
    if len(grids) < 2:
        raise InvalidRange("a convergence study needs at least two ladder levels")
    if not epsilon > 0.0:
        raise InvalidRange(f"epsilon must be positive, got {epsilon}")

    def pair_sups(levels):
        # reduce every path; the driver then drops the diverged ones
        # (masking the path axis of (times, paths, d) values first gathers strided);
        # the root of the largest square is np.linalg.norm's sup, bitwise, one sqrt a path
        sups = []
        for (lo, lo_ok), (hi, hi_ok) in zip(levels, levels[1:]):
            diff = lo - hi
            sups.append((np.sqrt(np.add.reduce(diff * diff, axis=-1).max(axis=0)), lo_ok & hi_ok))
        return sups

    pairs = [f"{i}-{i + 1}" for i in range(len(grids) - 1)]
    names = [f"level pair {pair} (steps {lo.delta:g} and {hi.delta:g})"
             for pair, lo, hi in zip(pairs, grids, grids[1:])]
    slots = _ladder_study(model, xi, grids, n_paths, seed, radius, pair_sups, names)
    return tuple(
        LevelPairRow(
            level_pair=pair,
            delta_coarse=lo.delta,
            delta_fine=hi.delta,
            epsilon=epsilon,
            n_paths=n_paths,
            exceed_count=int((sups > epsilon).sum()),
            diverged_count=n_paths - sups.size,
            sup_diffs=sups,
        )
        for pair, lo, hi, sups in zip(pairs, grids, grids[1:], slots)
    )


def exceedance_trend_ok(rows: tuple[LevelPairRow, ...]) -> bool:
    """True when exceedance fractions are non-increasing along the ladder,
    allowing upticks within 1.96 pooled binomial standard errors."""
    for lo, hi in zip(rows, rows[1:]):
        n1 = lo.n_paths - lo.diverged_count
        n2 = hi.n_paths - hi.diverged_count
        p1, p2 = lo.p_hat, hi.p_hat
        band = 1.96 * np.sqrt(p1 * (1 - p1) / n1 + p2 * (1 - p2) / n2)
        if p2 - p1 > band + 1e-12:
            return False
    return True


@dataclass(frozen=True)
class PerturbationRow:
    level: int
    delta: float
    n_paths: int
    mean_abs_integral: float
    mean_weighted_integral: float
    diverged_count: int

    # the rule of LevelPairRow.suspect: more than 1% of the level's paths diverged
    suspect = LevelPairRow.suspect


def perturbation_integrability(
    model: NsddeModel,
    xi: Callable,
    grids,
    n_paths: int,
    seed: int,
    radius: float,
    weight: Callable[[np.ndarray], np.ndarray],
) -> tuple[PerturbationRow, ...]:
    """Mean integrals of the deviation from the last coarse node, one row per level.

    For each level of the ladder ``grids``, sampled on the finest grid, the deviation
    p(t) = X(floor-to-coarse(t)) - X(t) is integrated over
    [0, min(horizon, first time |X| > radius/3)], both plainly and with the
    time weight applied, over the paths that did not diverge there.  ``weight``
    is called once, on the fine times of [0, horizon].
    Quadrature is per fine interval with the interval's own coarse anchor,
    so the piecewise behaviour of p at coarse nodes is integrated exactly
    (it gives the closed form c*M*delta^2/2 for constant drift to rounding).
    """
    if not grids:
        raise InvalidRange("ladder must contain at least one step")
    fine = grids[-1]
    delta_f = fine.delta
    times = fine.times[fine.steps_per_delay :]
    weights = np.broadcast_to(np.asarray(weight(times), dtype=float), times.shape)
    threshold = radius / 3.0
    factors = [g.refinement(fine) for g in grids]

    def integrals(levels):
        out = []
        for (level, kept), f in zip(levels, factors):
            exceeded = np.linalg.norm(level, axis=-1) > threshold
            exceeded[-1] = True  # a path that stays inside runs to the horizon
            stops = exceeded.argmax(axis=0)
            # fine intervals j -> j + 1 by coarse cell, (cells, f, paths, d) as
            # the engine fills them: a cell's first node anchors its intervals
            cells = (-1, f) + level.shape[1:]
            lo, hi = level[:-1].reshape(cells), level[1:].reshape(cells)
            left = np.linalg.norm(lo[:, :1] - lo, axis=-1).reshape(fine.total_steps, -1).T
            right = np.linalg.norm(lo[:, :1] - hi, axis=-1).reshape(fine.total_steps, -1).T
            # (2, paths, M): each path's integrands are contiguous
            terms = np.stack([left + right, left * weights[:-1] + right * weights[1:]])
            block = np.empty((stops.size, 2))
            for stop in set(stops.tolist()):
                # summed along the contiguous last axis, in the pairwise
                # order of a one-path sum
                same = stops == stop
                block[same] = terms[:, same, :stop].sum(axis=-1).T
            out.append((0.5 * delta_f * block, kept))
        return out

    names = [f"level {level} (step {grid.delta:g})" for level, grid in enumerate(grids)]
    slots = _ladder_study(model, xi, grids, n_paths, seed, radius, integrals, names)
    rows = []
    for level, (grid, sums) in enumerate(zip(grids, slots)):
        # (2, paths), so the means are pairwise sums along a contiguous path axis
        abs_mean, w_mean = sums.T.copy().mean(axis=1).tolist()
        rows.append(PerturbationRow(level, grid.delta, n_paths, abs_mean, w_mean,
                                    n_paths - len(sums)))
    return tuple(rows)


@dataclass(frozen=True)
class MomentReport:
    """Second-moment summaries of |X| over [0, horizon].

    ``sup_mean_square`` is the largest grid-time mean of |X(t)|^2 and
    ``std_error`` its Monte Carlo standard error at the attaining time
    ``sup_time``; ``mean_sup_square`` averages the pathwise suprema.
    """

    delta: float
    n_paths: int
    diverged_count: int
    sup_mean_square: float
    mean_sup_square: float
    std_error: float
    sup_time: float


def estimate_moments(
    model: NsddeModel,
    xi: Callable,
    grid: DelayGrid,
    n_paths: int,
    seed: int,
    radius: float = TRUNCATION_RADIUS,
) -> MomentReport:
    """Estimate sup-of-mean-square and mean-of-sup-square over the times of ``grid``.

    Diverged paths are left out of every estimate; fewer than two kept
    paths raise :class:`DegenerateSampling`.
    """
    if n_paths < 2:
        raise InvalidRange("need n_paths >= 2 for a standard error")
    n0 = grid.steps_per_delay

    def square_curves(levels):
        # C-ordered (paths, times), so the mean below adds one path at a time
        ((level, kept),) = levels
        return [(np.einsum("ipj,ipj->pi", level, level, order="C"), kept)]

    (stacked,) = _ladder_study(model, xi, [grid], n_paths, seed, radius, square_curves,
                               [f"level 0 (step {grid.delta:g})"])
    used = stacked.shape[0]
    if used < 2:
        raise DegenerateSampling("only one simulated path did not diverge; "
                                 "a standard error needs two")
    mean_curve = stacked.mean(axis=0)
    peak = int(np.argmax(mean_curve))
    spread = float(stacked[:, peak].std(ddof=1))
    return MomentReport(
        delta=grid.delta,
        n_paths=n_paths,
        diverged_count=n_paths - used,
        sup_mean_square=float(mean_curve[peak]),
        mean_sup_square=float(stacked.max(axis=1).mean()),
        std_error=spread / np.sqrt(used),
        sup_time=float(grid.times[n0 + peak]),
    )


def check_contraction_sup_bound(values: np.ndarray, grid: DelayGrid, neutral,
                                kappa: float) -> np.ndarray:
    """Prefix inequality tying sup |X| to sup |X - D(X_delayed)|, with p = 2.

    For every prefix L >= 0 checks

        sup_{l<=L} |X(t_l)|^2 <= kappa/(1-kappa) * ||xi||^2
                                 + sup_{l<=L} |X(t_l) - D(X(t_l - tau))|^2
                                   / (1-kappa)^2

    where ||xi|| is the sup over the sampled initial segment.  Holds for
    any path of a model whose neutral map is a kappa-contraction with
    D(0) = 0.  ``values`` is a time-major stack on ``grid`` as
    :func:`~nsdde_sim.euler.simulate` returns it, ``(N + M + 1, paths,
    state_dim)``, else :class:`DimensionMismatch`.  ``neutral`` is called
    once on its (M + 1, paths, state_dim) block of delayed states.  Returns
    ``ok``, one entry per path: True where the path is finite and no prefix
    violates.  A diverged path is therefore never ok.
    """
    if not 0.0 < kappa < 1.0:
        raise InvalidRange(f"kappa must lie in (0, 1), got {kappa}")
    n0, n_steps = grid.steps_per_delay, grid.total_steps
    if values.ndim != 3 or len(values) != n0 + n_steps + 1:
        raise DimensionMismatch(f"values shape {values.shape} does not match grid "
                                f"({len(grid.times)} rows)")
    states = values[n0:]
    delayed = values[: n_steps + 1]
    with np.errstate(all="ignore"):  # a diverged path makes inf and NaN
        norms = np.linalg.norm(values, axis=-1)
        seg_norm = norms[: n0 + 1].max(axis=0)
        diff_norms = np.linalg.norm(states - np.asarray(neutral(delayed), dtype=float), axis=-1)

        sup_state = np.maximum.accumulate(norms[n0:], axis=0)
        sup_diff = np.maximum.accumulate(diff_norms, axis=0)
        lhs = sup_state**2.0
        rhs = (kappa / (1.0 - kappa)) * seg_norm**2.0 + sup_diff**2.0 / (1.0 - kappa) ** 2.0
        bad = lhs > rhs + 1e-9 * np.maximum(1.0, rhs)
    return np.isfinite(values).all(axis=(0, 2)) & ~bad.any(axis=0)
