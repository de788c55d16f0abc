"""Monte Carlo studies built on the coupled Euler scheme.

The central construction: per path, increments are generated once at the
finest step of a ladder, every level is driven by their block sums onto its
grid (:func:`nsdde_sim.brownian.coarsen`, with the factor of
:meth:`~nsdde_sim.model.DelayGrid.refinement`), each coarser level's
solution is interpolated back onto the finest grid, and levels are compared
pathwise in the sup norm over grid points.  Convergence in probability is
then read off the exceedance fractions P(sup-difference > epsilon) along
the ladder.

Every study reduces from one ladder driver that runs the paths in blocks of
:data:`PATH_BLOCK` and hands them on in path index order.  It also decides
divergence for every study: a path whose sup |X| over [0, horizon] exceeds
the truncation radius, or is not finite, is left out of every aggregate and
reported separately via ``diverged_count``, never silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .brownian import coarsen, generate
from .errors import DegenerateSampling, InvalidRange
from .euler import PathGrid, refine_to, simulate
from .model import DelayGrid, InitialSegment, NsddeModel, make_grid

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
    if not 0.0 < radius <= np.sqrt(np.finfo(float).max):
        raise InvalidRange(f"truncation radius must lie in (0, 1.34e154], got {radius!r}")


def _ladder_paths(model: NsddeModel, xi: InitialSegment, grids, n_paths: int, seed: int,
                  radius: float):
    """Yield, per block of paths, every level's solution on the finest grid.

    Per block the finest increments are generated once; every level is
    driven by ``coarsen(fine_noise, grid)`` and simulated, and each level
    but the finest is refined onto the finest grid.  The
    yielded list holds one ``(values, kept)`` pair per level: ``values`` is
    the engine's time-major view, shape (M + 1, paths, state_dim) on
    [0, horizon], and ``kept`` is False for a path that diverged at that
    level: its sup |X| there exceeds ``radius`` or is not a number.  A
    one-level ladder yields the simulated paths themselves.
    """
    if n_paths < 1:
        raise InvalidRange("n_paths must be >= 1")
    check_radius(radius)
    fine = grids[-1]
    skip = fine.steps_per_delay
    for indices in path_blocks(n_paths):
        fine_noise = generate(fine, model.noise_dim, seed, indices)
        levels = []
        for grid in grids:
            path = simulate(model, xi, grid, coarsen(fine_noise, grid))
            if grid is not fine:
                path = refine_to(path, model, xi, fine, fine_noise)
            values = path.values[skip:]
            with np.errstate(all="ignore"):  # a diverged path squares to inf or NaN
                sup = np.sqrt(np.einsum("ipj,ipj->ip", values, values).max(axis=0))
            levels.append((values, sup <= radius))
        yield levels


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
        valid = self.n_paths - self.diverged_count
        return self.exceed_count / valid if valid else 0.0

    @property
    def mean_sup_diff(self) -> float:
        return float(self.sup_diffs.mean()) if self.sup_diffs.size else 0.0

    @property
    def max_sup_diff(self) -> float:
        return float(self.sup_diffs.max()) if self.sup_diffs.size else 0.0

    @property
    def suspect(self) -> bool:
        """True when more than 1% of paths diverged at this level pair.

        Such a row is still reported, but its statistics rest on a
        conditioned sample and should not be trusted at face value.
        """
        return self.diverged_count > 0.01 * self.n_paths


@dataclass(frozen=True)
class ConvergenceTable:
    rows: tuple


def converge_study(
    model: NsddeModel,
    xi: InitialSegment,
    horizon: float,
    ladder,
    epsilon: float,
    n_paths: int,
    seed: int,
    radius: float = TRUNCATION_RADIUS,
) -> ConvergenceTable:
    """Coupled refinement study across a ladder of nested steps.

    For every path the same finest-grid increments drive all levels; each
    level is refined onto the finest grid and consecutive levels are
    compared by their sup difference over grid points in [0, horizon]; a
    path that diverged at either level is left out of that pair, and a
    pair with no path left raises :class:`DegenerateSampling`.
    """
    if len(ladder) < 2:
        raise InvalidRange("a convergence study needs at least two ladder levels")
    if not epsilon > 0.0:
        raise InvalidRange(f"epsilon must be positive, got {epsilon}")
    grids = ladder_grids(model.delay, horizon, ladder)
    pair_sups = [[] for _ in grids[1:]]
    for levels in _ladder_paths(model, xi, grids, n_paths, seed, radius):
        for sups, (lo, lo_ok), (hi, hi_ok) in zip(pair_sups, levels, levels[1:]):
            # reduce every path, then drop the diverged ones (masking the
            # path axis of (times, paths, d) values first gathers strided)
            with np.errstate(all="ignore"):
                sup = np.linalg.norm(lo - hi, axis=-1).max(axis=0)
            sups.append(sup[lo_ok & hi_ok])
    rows = []
    for pair_index in range(len(grids) - 1):
        sups = np.concatenate(pair_sups[pair_index])
        if not sups.size:
            raise DegenerateSampling(
                f"every simulated path diverged at level pair {pair_index}-{pair_index + 1} "
                f"(steps {grids[pair_index].delta:g} and {grids[pair_index + 1].delta:g})")
        rows.append(
            LevelPairRow(
                level_pair=f"{pair_index}-{pair_index + 1}",
                delta_coarse=grids[pair_index].delta,
                delta_fine=grids[pair_index + 1].delta,
                epsilon=epsilon,
                n_paths=n_paths,
                exceed_count=int((sups > epsilon).sum()),
                diverged_count=n_paths - sups.size,
                sup_diffs=sups,
            )
        )
    return ConvergenceTable(tuple(rows))


def exceedance_trend_ok(table: ConvergenceTable, z: float = 1.96) -> bool:
    """True when exceedance fractions are non-increasing along the ladder,
    allowing upticks within a z-score band of the pooled binomial error."""
    for lo, hi in zip(table.rows, table.rows[1:]):
        n1 = max(lo.n_paths - lo.diverged_count, 1)
        n2 = max(hi.n_paths - hi.diverged_count, 1)
        p1, p2 = lo.p_hat, hi.p_hat
        band = z * np.sqrt(p1 * (1 - p1) / n1 + p2 * (1 - p2) / n2)
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


@dataclass(frozen=True)
class PerturbationTable:
    rows: tuple


def perturbation_integrability(
    model: NsddeModel,
    xi: InitialSegment,
    horizon: float,
    ladder,
    n_paths: int,
    seed: int,
    radius: float,
    weight: Callable[[float], float],
) -> PerturbationTable:
    """Mean integrals of the deviation from the last coarse node, per level.

    For each ladder level the solution is refined onto the finest grid and
    the deviation p(t) = X(floor-to-coarse(t)) - X(t) is integrated over
    [0, min(horizon, first time |X| > radius/3)], both plainly and with the
    time weight applied, over the paths with sup |X| <= radius; a level
    with no such path raises :class:`DegenerateSampling`.  Quadrature
    is per fine interval with the interval's own coarse anchor, so the
    piecewise behaviour of p at coarse nodes is integrated exactly (it
    gives the closed form c*M*delta^2/2 for constant drift to rounding).
    """
    grids = ladder_grids(model.delay, horizon, ladder)
    fine = grids[-1]
    delta_f = fine.delta
    weights = np.array([float(weight(float(t))) for t in fine.times[fine.steps_per_delay :]])
    threshold = radius / 3.0

    # interval anchors: coarse cell start for each fine interval j -> j+1
    interval_idx = np.arange(fine.total_steps)
    factors = [g.refinement(fine) for g in grids]
    anchor_per_level = [(interval_idx // f) * f for f in factors]

    level_sums = [[] for _ in grids]
    # a huge but finite path overflows the norms past its stop
    with np.errstate(all="ignore"):
        for levels in _ladder_paths(model, xi, grids, n_paths, seed, radius):
            for sums, (level, kept), anchors in zip(level_sums, levels, anchor_per_level):
                exceeded = np.linalg.norm(level, axis=-1) > threshold
                exceeded[-1] = True  # a path that stays inside runs to the horizon
                stops = exceeded.argmax(axis=0)[kept]
                # (paths, M) rows: each path's integrands are contiguous
                left = np.linalg.norm(level[anchors] - level[:-1], axis=-1).T[kept]
                right = np.linalg.norm(level[anchors] - level[1:], axis=-1).T[kept]
                terms = np.stack([left + right, left * weights[:-1] + right * weights[1:]])
                block = np.empty((2, stops.size))
                for stop in set(stops.tolist()):
                    # summed along the contiguous last axis, in the pairwise
                    # order of a one-path sum
                    same = stops == stop
                    block[:, same] = terms[:, same, :stop].sum(axis=-1)
                sums.append(0.5 * delta_f * block)
    rows = []
    for level, (grid, sums) in enumerate(zip(grids, level_sums)):
        sums = np.concatenate(sums, axis=1)
        if not sums.size:
            raise DegenerateSampling(
                f"every simulated path diverged at level {level} (step {grid.delta:g})")
        abs_mean, w_mean = sums.mean(axis=1).tolist()
        rows.append(PerturbationRow(level, grid.delta, n_paths, abs_mean, w_mean,
                                    n_paths - sums.shape[1]))
    return PerturbationTable(tuple(rows))


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
    xi: InitialSegment,
    horizon: float,
    delta: float,
    n_paths: int,
    seed: int,
    radius: float = TRUNCATION_RADIUS,
) -> MomentReport:
    """Estimate sup-of-mean-square and mean-of-sup-square over grid times.

    A path whose sup |X| over [0, horizon] exceeds ``radius`` counts as
    diverged and is left out of every estimate.
    """
    if n_paths < 2:
        raise InvalidRange("need n_paths >= 2 for a standard error")
    grid = make_grid(model.delay, horizon, delta)
    n0 = grid.steps_per_delay
    curves = []
    for ((level, kept),) in _ladder_paths(model, xi, [grid], n_paths, seed, radius):
        # C-ordered (paths, times), so the mean below adds one path at a
        # time; diverged paths are dropped after the reduction, as above
        with np.errstate(all="ignore"):
            curves.append(np.einsum("ipj,ipj->pi", level, level, order="C")[kept])
    stacked = np.concatenate(curves)
    used = stacked.shape[0]
    if not used:
        raise DegenerateSampling("every simulated path diverged")
    mean_curve = stacked.mean(axis=0)
    peak = int(np.argmax(mean_curve))
    spread = float(stacked[:, peak].std(ddof=1)) if used > 1 else 0.0
    return MomentReport(
        delta=grid.delta,
        n_paths=n_paths,
        diverged_count=n_paths - used,
        sup_mean_square=float(mean_curve[peak]),
        mean_sup_square=float(stacked.max(axis=1).mean()),
        std_error=spread / np.sqrt(used),
        sup_time=float(grid.times[n0 + peak]),
    )


def power_split_bound(a, b, p: float, epsilon: float):
    """Both sides of |a+b|^p <= (1 + eps^(1/(p-1)))^(p-1) (|a|^p + |b|^p / eps).

    Accepts scalars or arrays; returns (lhs, rhs) elementwise.  Valid for
    p > 1 and epsilon > 0.
    """
    if not p > 1.0:
        raise InvalidRange(f"p must exceed 1, got {p}")
    if not epsilon > 0.0:
        raise InvalidRange(f"epsilon must be positive, got {epsilon}")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    lhs = np.abs(a + b) ** p
    # the constant can overflow double precision for p near 1; the bound
    # then holds trivially, so saturate to inf rather than raise
    with np.errstate(over="ignore", invalid="ignore"):
        constant = (1.0 + np.float64(epsilon) ** (1.0 / (p - 1.0))) ** (p - 1.0)
        term = np.abs(a) ** p + np.abs(b) ** p / epsilon
        rhs = constant * term
    if np.isinf(constant):
        rhs = np.where(term == 0.0, 0.0, rhs)
    return lhs, rhs


def check_contraction_sup_bound(
    path: PathGrid, neutral, kappa: float, p: float = 2.0
) -> tuple[np.ndarray, np.ndarray]:
    """Prefix inequality tying sup |X| to sup |X - D(X_delayed)|.

    For every prefix L >= 0 checks

        sup_{l<=L} |X(t_l)|^p <= kappa/(1-kappa) * ||xi||^p
                                 + sup_{l<=L} |X(t_l) - D(X(t_l - tau))|^p
                                   / (1-kappa)^p

    where ||xi|| is the sup over the sampled initial segment.  Holds for
    any path of a model whose neutral map is a kappa-contraction with
    D(0) = 0.  ``neutral`` is called once on the (M + 1, paths, state_dim)
    block of delayed states of the stack ``path``.  Returns ``(ok, first)``,
    one entry per path: ``first`` is the first violating prefix index, or
    -1 where no prefix violates, and ``ok`` is True where the path is finite
    and no prefix violates.  A diverged path is therefore never ok.
    """
    if not 0.0 < kappa < 1.0:
        raise InvalidRange(f"kappa must lie in (0, 1), got {kappa}")
    if not p > 1.0:
        raise InvalidRange(f"p must exceed 1, got {p}")
    n0 = path.grid.steps_per_delay
    states = path.values[n0:]
    delayed = path.values[: path.grid.total_steps + 1]
    with np.errstate(all="ignore"):  # a diverged path makes inf and NaN
        norms = np.linalg.norm(path.values, axis=-1)
        seg_norm = norms[: n0 + 1].max(axis=0)
        diff_norms = np.linalg.norm(states - np.asarray(neutral(delayed), dtype=float), axis=-1)

        sup_state = np.maximum.accumulate(norms[n0:], axis=0)
        sup_diff = np.maximum.accumulate(diff_norms, axis=0)
        lhs = sup_state**p
        rhs = (kappa / (1.0 - kappa)) * seg_norm**p + sup_diff**p / (1.0 - kappa) ** p
        bad = lhs > rhs + 1e-9 * np.maximum(1.0, rhs)
    violated = bad.any(axis=0)
    return path.finite & ~violated, np.where(violated, bad.argmax(axis=0), -1)
