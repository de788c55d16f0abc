"""The draws of numpy's ``default_rng(seed)``, bitwise, without importing ``numpy.random``.

That generator is PCG64 with the XSL-RR output (O'Neill, *PCG*, HMC-CS-2014-0905),
started from ``SeedSequence(seed).generate_state(4, uint64)``.  Its outputs are made
by 128-bit jump-ahead on (hi, lo) ``uint64`` arrays.  A double is (output >> 11) *
2**-53; a bounded integer is Lemire's draw (ACM TOMACS 29, 2019) on a 32-bit half,
low half first, the high half held for the next integer draw, and a rejected half
moves on to the next half.  Every checker of a run seeds alike and reads a prefix
of one stream, so the streams of a run share one block of outputs, grown on demand.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from .errors import InvalidRange
from .philox import M32, mulhilo, non_negative, seed_state

M64, M128 = 2**64 - 1, 2**128 - 1
MULT = 0x2360ED051FC65DA44385DF649FCCF645
ROW = 128  # outputs per row of the jump-ahead


def _seed(seed: int) -> tuple[int, int]:
    """PCG64's state before its first output, and its increment, for ``SeedSequence(seed)``."""
    words = seed_state(seed, None, 8)[0].tolist()  # generate_state(4, uint64), 32 bits a word
    state = sum(word << 32 * i for i, word in enumerate(words))
    start = (state & M64) << 64 | state >> 64 & M64
    stream = (state >> 128 & M64) << 64 | state >> 192
    inc = (stream << 1 | 1) & M128
    return ((inc + start) * MULT + inc) & M128, inc  # a step from 0, plus start, a step


def _step(hi, lo, mh, ml, ch, cl):
    """(hi, lo) of the 128-bit ``m * s + c`` for states s = (hi, lo), all ``uint64``
    arrays that broadcast."""
    top, low = mulhilo(lo, ml)
    new = low + cl
    return top + lo * mh + hi * ml + ch + (new < cl), new


def _jumps(inc: int) -> tuple:
    """M**ROW and C_ROW, and (hi, lo) arrays of M**j and C_j for j = 1 .. ROW: j steps
    from the state s reach M**j s + C_j."""
    table, m, c = [], 1, 0
    for _ in range(ROW):
        m, c = m * MULT & M128, (c * MULT + inc) & M128
        table.append((m >> 64, m & M64, c >> 64, c & M64))
    return m, c, *np.array(table, dtype=np.uint64).T


def _outputs(state: int, jumps: tuple, count: int):
    """The state after, and the outputs of, the next ``count`` steps rounded up to rows
    of ROW."""
    m, c, *table = jumps
    starts = [state]
    for _ in range(-(-count // ROW)):
        starts.append((m * starts[-1] + c) & M128)
    words = np.array([(s >> 64, s & M64) for s in starts[:-1]], dtype=np.uint64)
    hi, lo = _step(words[:, :1], words[:, 1:], *table)  # a row per start
    x, rot = hi ^ lo, hi >> 58  # XSL-RR: the halves xor-ed, rotated right by the top 6 bits
    return starts[-1], (x >> rot | x << (np.uint64(64) - rot & 63)).reshape(-1)


def uniform(raw: np.ndarray, low: float, high: float) -> np.ndarray:
    """``Generator.uniform(low, high)`` from each raw output."""
    return low + (high - low) * ((raw >> 11) * 2.0**-53)


class Stream:
    """``default_rng(seed)``'s ``uniform`` and ``integers`` calls, in call order.

    A stream and those :meth:`restart` makes from it share the outputs generated."""

    def __init__(self, seed):
        self.seed, self.pos = non_negative(seed, "seed"), 0
        self.held = None  # the high half that waits for the next integer draw
        state, inc = _seed(self.seed)
        # the state after the outputs generated, its _jumps, and those read-only outputs
        self.block = [state, _jumps(inc), np.empty(0, dtype=np.uint64)]

    def restart(self) -> Stream:
        """A stream of the same seed from its first draw, sharing this one's outputs."""
        fresh = copy.copy(self)  # shallow: the block is shared
        fresh.pos, fresh.held = 0, None
        return fresh

    def peek(self, count: int) -> np.ndarray:
        state, jumps, out = self.block
        end = self.pos + count
        if len(out) < end:  # grow the shared block
            state, more = _outputs(state, jumps, end - len(out))
            out = np.concatenate([out, more])
            out.flags.writeable = False
            self.block[:] = state, jumps, out
        return out[self.pos : end]

    def take(self, count: int) -> np.ndarray:
        out = self.peek(count)
        self.pos += count
        return out

    def uniform(self, low: float, high: float, size: tuple) -> np.ndarray:
        return uniform(self.take(math.prod(size)), low, high).reshape(size)

    def integers(self, low: int, high: int, size: int) -> np.ndarray:
        return low + self.interleaved(high - low, size, 0)[0]

    def interleaved(self, n: int, size: int, width: int):
        """``size`` times ``integers(0, n)`` then ``width`` raw outputs: the integers, and
        the outputs as ``(size, width)``.

        With no half held, pairs of draws read one output for their two integers and
        then their rows, up to the first rejected half.  A draw that starts on a held
        half or on a rejected one goes half by half."""
        if not 1 <= n <= 2**32:
            raise InvalidRange(f"integer draws need 1 <= high - low <= 2**32, got {n}")
        idx, rows = np.zeros(size, dtype=np.int64), np.empty((size, width), dtype=np.uint64)
        threshold, i = (2**32 - n) % n, 0
        while i < size:
            if n > 1 and self.held is None:  # numpy draws nothing for n == 1
                pairs = (size - i + 1) // 2
                block = self.peek(pairs * (1 + 2 * width)).reshape(pairs, -1)
                halves = np.stack([block[:, 0] & M32, block[:, 0] >> 32], 1).reshape(-1)
                scaled = halves[: size - i] * np.uint64(n)
                bad = np.flatnonzero((scaled & M32) < threshold)
                run = int(bad[0]) if bad.size else size - i
                idx[i : i + run] = scaled[:run] >> 32
                rows[i : i + run] = block[:, 1:].reshape(2 * pairs, width)[:run]
                self.take((run + 1) // 2 + run * width)
                self.held = int(halves[run]) if run % 2 else None
                i += run
                if i == size:
                    break
            while n > 1:
                if self.held is None:
                    out = int(self.take(1)[0])
                    half, self.held = out & M32, out >> 32
                else:
                    half, self.held = self.held, None
                if half * n & M32 >= threshold:
                    idx[i] = half * n >> 32
                    break
            rows[i] = self.take(width)
            i += 1
        return idx, rows
