"""Brownian increments on delay grids, with coupled coarse/fine refinement.

Stream derivation is pinned so results are reproducible and order
independent: path ``i`` draws from a Philox(4x64-10) bit generator keyed by
``SeedSequence(entropy=seed, spawn_key=(path_index,))``, transformed by
numpy's ziggurat ``standard_normal`` and scaled by ``sqrt(delta)``.  Paths
can therefore be stacked in any order and number: the row of path ``i`` is
bitwise the same in every stack, and a stack stores no seed, index or
grid.  The streams are computed in :mod:`nsdde_sim.philox`, bitwise equal to
numpy's, so no command imports ``numpy.random``.

Refinement works by aggregation: increments are generated at the finest
grid in play and coarser drivers are obtained by summing blocks of fine
increments (:func:`coarsen`).  All levels then share one underlying
Brownian motion, which is what makes pathwise comparison of schemes across
step sizes meaningful.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidRange
from .model import DelayGrid
from .philox import non_negative, standard_normal


def generate(
    grid: DelayGrid, noise_dim: int, seed: int, path_index: Sequence[int]
) -> np.ndarray:
    """Draw the increments of the paths ``path_index`` from the stream family ``seed``.

    Returns the ``(paths, total_steps, noise_dim)`` array whose entry
    ``[p, l, j]`` is component ``j`` of B(t_{l+1}) - B(t_l) on the stream
    of the ``p``-th index: every path is drawn from its own stream and the
    paths are stacked along the leading axis in sequence order.  Each
    component of each increment is an independent draw from N(0, delta).
    Regenerating with identical arguments is bit-exact.  ``noise_dim``,
    ``seed`` and every index must be non-negative Python or numpy integers
    (:class:`InvalidRange` otherwise).
    """
    if non_negative(noise_dim, "noise_dim") < 1:
        raise InvalidRange("noise_dim must be >= 1")
    try:
        indices = [non_negative(i, "path_index") for i in path_index]
    except TypeError:
        raise InvalidRange(f"path_index must be a sequence, got {path_index!r}") from None
    if not indices:
        raise InvalidRange("need at least one path index")
    draws = standard_normal(non_negative(seed, "seed"), indices, grid.total_steps * noise_dim)
    draws *= math.sqrt(grid.delta)
    return draws.reshape((len(indices), grid.total_steps, noise_dim))


def coarsen(noise: np.ndarray, fine: DelayGrid, grid: DelayGrid) -> np.ndarray:
    """Aggregate the increments ``noise`` on ``fine`` onto the coarser ``grid``.

    With ``factor = grid.refinement(fine)``, coarse increment ``l`` is the
    sum of fine increments ``factor*l .. factor*l + factor - 1`` of the same
    path, so both sample the same underlying Brownian motion.  A grid that
    ``fine`` does not nest in raises :class:`IncompatibleGrids`, and
    ``noise`` without ``fine.total_steps`` steps :class:`DimensionMismatch`;
    the equal grid gives factor 1 and the increments themselves.
    """
    factor = grid.refinement(fine)
    if noise.ndim != 3 or noise.shape[1] != fine.total_steps:
        raise DimensionMismatch(f"noise shape {noise.shape} is not (paths, "
                                f"{fine.total_steps}, noise_dim)")
    blocks = noise.reshape((len(noise), -1, factor, noise.shape[2]))
    return _pairwise_block_sum(blocks)


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
