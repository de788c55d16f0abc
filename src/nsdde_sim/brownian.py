"""Brownian increments on delay grids, with coupled coarse/fine refinement.

Stream derivation is pinned so results are reproducible and order
independent: path ``i`` draws from a Philox(4x64-10) bit generator keyed by
``SeedSequence(entropy=seed, spawn_key=(path_index,))``, transformed by
numpy's ziggurat ``standard_normal`` and scaled by ``sqrt(delta)``.  Paths
can therefore be stacked in any order and any number without changing any
stream: the row of path ``i`` is bitwise the same in every stack.

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
    ``(paths, total_steps, noise_dim)``.  ``seed`` and ``path_index`` record
    the streams the rows were drawn from, one index per row (coarsened
    paths keep the originals).
    """

    grid: DelayGrid
    noise_dim: int
    increments: np.ndarray
    seed: int
    path_index: tuple[int, ...]

    def __post_init__(self):
        if self.noise_dim < 1:
            raise InvalidRange("noise_dim must be >= 1")
        if not isinstance(self.path_index, tuple):
            raise InvalidRange(f"path_index must be a tuple, got {self.path_index!r}")
        shape = (len(self.path_index), self.grid.total_steps, self.noise_dim)
        if self.increments.shape != shape:
            raise DimensionMismatch(
                f"increments shape {self.increments.shape} does not match {shape}"
            )

    def partial_sums(self) -> np.ndarray:
        """B(t_l) - B(0) for l = 0 .. total_steps, shape (paths, M + 1, noise_dim)."""
        out = np.zeros((len(self.path_index), self.grid.total_steps + 1, self.noise_dim))
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
    return BrownianPath(grid, noise_dim, increments, seed, indices)


def coarsen(path: BrownianPath, factor: int) -> BrownianPath:
    """Aggregate blocks of ``factor`` fine increments into one coarse driver.

    Coarse increment ``l`` is the sum of fine increments
    ``factor*l .. factor*l + factor - 1`` of the same path, so both sample
    the same underlying Brownian motion.  ``factor`` must be an integer
    >= 2 dividing both the delay and the horizon step counts.
    """
    if factor != int(factor) or factor < 2:
        raise InvalidRange(f"factor must be an integer >= 2, got {factor}")
    factor = int(factor)
    grid = path.grid
    if grid.total_steps % factor or grid.steps_per_delay % factor:
        raise InvalidRange(
            f"factor {factor} does not divide step counts "
            f"({grid.steps_per_delay} per delay, {grid.total_steps} total)"
        )
    coarse_grid = DelayGrid(
        grid.tau, grid.horizon, grid.steps_per_delay // factor, grid.total_steps // factor
    )
    blocks = path.increments.reshape(
        (len(path.path_index), grid.total_steps // factor, factor, path.noise_dim)
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
