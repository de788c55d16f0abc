"""Brownian increments on delay grids, with coupled coarse/fine refinement.

Stream derivation is pinned so results are reproducible and order
independent: path ``i`` draws from a Philox(4x64-10) bit generator keyed by
``SeedSequence(entropy=seed, spawn_key=(path_index,))``, transformed by
numpy's ziggurat ``standard_normal`` and scaled by ``sqrt(delta)``.  Paths
can therefore be stacked in any order and number: the row of path ``i`` is
bitwise the same in every stack, and a stack stores no seed or index.

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

from .errors import DimensionMismatch, InvalidRange
from .model import DelayGrid


@dataclass(frozen=True)
class BrownianPath:
    """Increments of a stack of Brownian paths over a grid.

    ``increments[p, l, j]`` is component ``j`` of B(t_{l+1}) - B(t_l) on
    row ``p``, for l = 0 .. total_steps - 1, so the shape is
    ``(paths, total_steps, noise_dim)``.  No provenance is stored: the seed
    and path indices a stack was drawn for stay with the caller.
    """

    grid: DelayGrid
    increments: np.ndarray

    def __post_init__(self):
        shape = self.increments.shape
        if len(shape) != 3 or shape[1] != self.grid.total_steps or 0 in shape:
            raise DimensionMismatch(f"increments shape {shape} is not (paths, "
                                    f"{self.grid.total_steps}, noise_dim), all >= 1")

    @property
    def noise_dim(self) -> int:
        return self.increments.shape[-1]

    def partial_sums(self) -> np.ndarray:
        """B(t_l) - B(0) for l = 0 .. total_steps, shape (paths, M + 1, noise_dim)."""
        out = np.zeros((len(self.increments), self.grid.total_steps + 1, self.noise_dim))
        np.cumsum(self.increments, axis=1, out=out[:, 1:])
        return out


def generate(
    grid: DelayGrid, noise_dim: int, seed: int, path_index: Sequence[int]
) -> BrownianPath:
    """Draw the increments of the paths ``path_index`` from the stream family ``seed``.

    Every path is drawn from its own stream and the paths are stacked along
    the leading axis in sequence order.  Each component of each increment
    is an independent draw from N(0, delta).  Regenerating with identical
    arguments is bit-exact.
    """
    if noise_dim < 1:
        raise InvalidRange("noise_dim must be >= 1")
    try:
        indices = tuple(path_index)
    except TypeError:
        raise InvalidRange(f"path_index must be a sequence, got {path_index!r}") from None
    if not indices:
        raise InvalidRange("need at least one path index")
    if seed < 0 or min(indices) < 0:
        raise InvalidRange("seed and path_index must be non-negative integers")
    increments = np.empty((len(indices), grid.total_steps, noise_dim))
    for row, index in zip(increments, indices):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
        np.random.Generator(np.random.Philox(ss)).standard_normal(out=row)
    increments *= math.sqrt(grid.delta)
    return BrownianPath(grid, increments)


def coarsen(path: BrownianPath, grid: DelayGrid) -> BrownianPath:
    """Aggregate the increments of ``path`` onto the coarser ``grid``.

    With ``factor = grid.refinement(path.grid)``, coarse increment ``l`` is
    the sum of fine increments ``factor*l .. factor*l + factor - 1`` of the
    same path, so both sample the same underlying Brownian motion.  A grid
    that ``path.grid`` does not nest in raises :class:`IncompatibleGrids`;
    the equal grid gives factor 1 and the path's own increments.
    """
    factor = grid.refinement(path.grid)
    blocks = path.increments.reshape((len(path.increments), -1, factor, path.noise_dim))
    return BrownianPath(grid, _pairwise_block_sum(blocks))


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
