"""The draws of numpy's ``default_rng(seed)``, bitwise, without importing ``numpy.random``.

That generator is PCG64 with the XSL-RR output (O'Neill, *PCG*, HMC-CS-2014-0905),
started from ``SeedSequence(seed).generate_state(4, uint64)``.  Its outputs are made
by 128-bit jump-ahead on (hi, lo) ``uint64`` arrays.  A double is (output >> 11) *
2**-53; a bounded integer is Lemire's draw (ACM TOMACS 29, 2019) on a 32-bit half,
low half first, the high half held for the next integer draw, and a rejected half
moves on to the next half.  Every checker of a run seeds alike and reads a prefix
of one stream, so the outputs of the last seed are kept, and grown on demand.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import InvalidRange

M32, M64, M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
MULT = 0x2360ED051FC65DA44385DF649FCCF645
ROW = 128  # outputs per row of the jump-ahead

_kept: dict = {}  # seed -> (state after the outputs, its _jumps, read-only outputs)


def _seed(seed: int) -> tuple[int, int]:
    """PCG64's state before its first output, and its increment, for ``SeedSequence(seed)``."""
    words = [seed >> k & M32 for k in range(0, seed.bit_length() or 1, 32)]
    hash_a = INIT_A

    def hashmix(value):
        nonlocal hash_a
        value = (value ^ hash_a) * (hash_a := hash_a * MULT_A & M32) & M32
        return value ^ value >> 16

    def mix(x, y):
        value = (MIX_MULT_L * x - MIX_MULT_R * y) & M32
        return value ^ value >> 16

    pool = [hashmix(w) for w in (words + [0, 0, 0])[:4]]
    for src, dst in itertools.permutations(range(4), 2):  # each word into every other one
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        pool = [mix(p, hashmix(word)) for p in pool]
    hash_b, state = INIT_B, 0  # generate_state(4, uint64) as a little-endian 256-bit int
    for i in range(8):
        value = (pool[i % 4] ^ hash_b) * (hash_b := hash_b * MULT_B & M32) & M32
        state |= (value ^ value >> 16) << 32 * i
    start = (state & M64) << 64 | state >> 64 & M64
    stream = (state >> 128 & M64) << 64 | state >> 192
    inc = (stream << 1 | 1) & M128
    return ((inc + start) * MULT + inc) & M128, inc  # a step from 0, plus start, a step


def _step(hi, lo, mh, ml, ch, cl):
    """(hi, lo) of the 128-bit ``m * s + c`` for states s = (hi, lo), all ``uint64``
    arrays that broadcast; the high half of lo * ml is built from 32-bit limbs."""
    a0, a1, b0, b1 = lo & M32, lo >> 32, ml & M32, ml >> 32
    mid = a1 * b0 + (a0 * b0 >> 32)
    new = lo * ml + cl
    return (a1 * b1 + (mid >> 32) + (a0 * b1 + (mid & M32) >> 32) + lo * mh + hi * ml + ch
            + (new < cl)), new


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


def _raw(seed: int, count: int) -> np.ndarray:
    """At least the first ``count`` raw outputs of ``default_rng(seed)``, read-only."""
    if seed not in _kept:
        state, inc = _seed(seed)
        _kept.clear()
        _kept[seed] = state, _jumps(inc), np.empty(0, dtype=np.uint64)
    state, jumps, out = _kept[seed]
    if len(out) < count:
        state, more = _outputs(state, jumps, count - len(out))
        out = np.concatenate([out, more])
        out.flags.writeable = False
        _kept[seed] = state, jumps, out
    return out


def uniform(raw: np.ndarray, low: float, high: float) -> np.ndarray:
    """``Generator.uniform(low, high)`` from each raw output."""
    return low + (high - low) * ((raw >> 11) * 2.0**-53)


class Stream:
    """``default_rng(seed)``'s ``uniform`` and ``integers`` calls, in call order."""

    def __init__(self, seed):
        if not isinstance(seed, (int, np.integer)) or seed < 0:
            raise InvalidRange(f"seed must be a non-negative integer, got {seed!r}")
        self.seed, self.pos = int(seed), 0
        self.held = None  # the high half that waits for the next integer draw

    def peek(self, count: int) -> np.ndarray:
        return _raw(self.seed, self.pos + count)[self.pos : self.pos + count]

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
