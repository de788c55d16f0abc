"""Brownian increments on delay grids, with coupled coarse/fine refinement.

Stream derivation is pinned so results are reproducible and order
independent: path ``i`` draws from a Philox(4x64-10) bit generator keyed by
``SeedSequence(entropy=seed, spawn_key=(path_index,))``, transformed by
numpy's ziggurat ``standard_normal`` and scaled by ``sqrt(delta)``.  Paths
can therefore be generated in any order, or stacked into one array, without
changing any stream: row ``p`` of a stack is bitwise the single path.

Refinement works by aggregation: increments are generated at the finest
grid in play and coarser drivers are obtained by summing blocks of fine
increments (:func:`coarsen`).  All levels then share one underlying
Brownian motion, which is what makes pathwise comparison of schemes across
step sizes meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, IncompatibleFactor, InvalidRange
from .model import DelayGrid


@dataclass(frozen=True)
class BrownianPath:
    """Increments of one Brownian path, or of a stack of paths, over a grid.

    ``increments[..., l, j]`` is component ``j`` of B(t_{l+1}) - B(t_l) for
    l = 0 .. total_steps - 1.  A single path has shape
    ``(total_steps, noise_dim)`` and an ``int`` ``path_index``; a stack adds
    a leading path axis and records one index per row in a tuple.  ``seed``
    and ``path_index`` record the streams the paths were drawn from
    (coarsened paths keep the originals).
    """

    grid: DelayGrid
    noise_dim: int
    increments: np.ndarray
    seed: int
    path_index: int | tuple[int, ...]

    def __post_init__(self):
        if self.noise_dim < 1:
            raise InvalidRange("noise_dim must be >= 1")
        lead = () if np.ndim(self.path_index) == 0 else (len(self.path_index),)
        if self.increments.shape != lead + (self.grid.total_steps, self.noise_dim):
            raise DimensionMismatch(
                f"increments shape {self.increments.shape} does not match "
                f"{lead + (self.grid.total_steps, self.noise_dim)}"
            )

    def path(self, row: int) -> BrownianPath:
        """Row ``row`` of a stack as a single path."""
        return BrownianPath(
            self.grid, self.noise_dim, self.increments[row], self.seed, self.path_index[row]
        )

    def partial_sums(self) -> np.ndarray:
        """B(t_l) - B(0) for l = 0 .. total_steps, shape (..., M + 1, noise_dim)."""
        out = np.zeros(self.increments.shape[:-2] + (self.grid.total_steps + 1, self.noise_dim))
        np.cumsum(self.increments, axis=-2, out=out[..., 1:, :])
        return out

    def to_bytes(self) -> bytes:
        """Increments as little-endian float64, row-major [path][step][component]
        ([step][component] for a single path)."""
        return np.ascontiguousarray(self.increments, dtype="<f8").tobytes()


def generate(
    grid: DelayGrid, noise_dim: int, seed: int, path_index: int | Sequence[int]
) -> BrownianPath:
    """Draw the increments of path ``path_index`` from the stream family ``seed``.

    Given a sequence of indices, every path is drawn from its own stream and
    the paths are stacked along a leading axis in sequence order.  Each
    component of each increment is an independent draw from N(0, delta).
    Regenerating with identical arguments is bit-exact.
    """
    if noise_dim < 1:
        raise InvalidRange("noise_dim must be >= 1")
    single = np.ndim(path_index) == 0
    indices = (path_index,) if single else tuple(path_index)
    if not indices:
        raise InvalidRange("need at least one path index")
    if seed < 0 or min(indices) < 0:
        raise InvalidRange("seed and path_index must be non-negative integers")
    increments = np.empty((len(indices), grid.total_steps, noise_dim))
    for row, index in zip(increments, indices):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
        np.random.Generator(np.random.Philox(ss)).standard_normal(out=row)
    increments *= math.sqrt(grid.delta)
    if single:
        return BrownianPath(grid, noise_dim, increments[0], seed, path_index)
    return BrownianPath(grid, noise_dim, increments, seed, indices)


def coarsen(path: BrownianPath, factor: int) -> BrownianPath:
    """Aggregate blocks of ``factor`` fine increments into one coarse driver.

    Coarse increment ``l`` is the sum of fine increments
    ``factor*l .. factor*l + factor - 1`` of the same path, so both sample
    the same underlying Brownian motion.  ``factor`` must be an integer
    >= 2 dividing both the delay and the horizon step counts.
    """
    if factor != int(factor) or factor < 2:
        raise IncompatibleFactor(f"factor must be an integer >= 2, got {factor}")
    factor = int(factor)
    grid = path.grid
    if grid.total_steps % factor or grid.steps_per_delay % factor:
        raise IncompatibleFactor(
            f"factor {factor} does not divide step counts "
            f"({grid.steps_per_delay} per delay, {grid.total_steps} total)"
        )
    coarse_grid = DelayGrid(
        grid.tau, grid.horizon, grid.steps_per_delay // factor, grid.total_steps // factor
    )
    lead = path.increments.shape[:-2]
    blocks = path.increments.reshape(
        lead + (grid.total_steps // factor, factor, path.noise_dim)
    )
    return BrownianPath(
        coarse_grid, path.noise_dim, _pairwise_block_sum(blocks), path.seed, path.path_index
    )


def _pairwise_block_sum(blocks: np.ndarray) -> np.ndarray:
    """Sum axis -2 by pairing adjacent entries, so that coarsening by 2 twice
    is bit-identical to coarsening by 4 in one go."""
    while blocks.shape[-2] > 1:
        width = blocks.shape[-2]
        paired = blocks[..., 0 : width - 1 : 2, :] + blocks[..., 1::2, :]
        if width % 2:
            paired = np.concatenate([paired, blocks[..., -1:, :]], axis=-2)
        blocks = paired
    return blocks[..., 0, :]
