"""The checkers' PCG64 stream against numpy's ``default_rng``, bitwise."""

import numpy as np
import pytest

from nsdde_sim import (InvalidRange, check_conditions, make_grid, neutral_cubic_model,
                       neutral_cubic_rates)
from nsdde_sim.conditions import _interleaved_draws
from nsdde_sim.pcg64 import Stream

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**128 + 5, 20260815]
COUNTS = [1, 2, 3, 1000, 100_001]


@pytest.mark.parametrize("seed", SEEDS)
def test_raw_outputs_are_numpys(seed):
    want = np.random.default_rng(seed).bit_generator.random_raw(COUNTS[-1])
    stream = Stream(seed)
    for count in COUNTS:  # each count grows the shared block
        assert stream.restart().peek(count).tobytes() == want[:count].tobytes()
    for count in COUNTS:  # each count generated afresh
        assert Stream(seed).peek(count).tobytes() == want[:count].tobytes()


# odd integer sizes leave a half buffered for the next integer call
CALLS = [("integers", 1), ("uniform", (2, 3)), ("integers", 3), ("integers", 1),
         ("uniform", (5,)), ("integers", 4), ("integers", 7), ("uniform", (1, 1))]


@pytest.mark.parametrize("n", [1, 2, 21, 3 * 2**30, 2**32])
@pytest.mark.parametrize("seed", [0, 7, 2**64 + 1, 20260815])
def test_draws_are_the_generator_calls(n, seed):
    rng, stream = np.random.default_rng(seed), Stream(seed)
    for name, size in CALLS:
        args = (0, n) if name == "integers" else (-1.5, 2.0)
        want = getattr(rng, name)(*args, size=size)
        got = getattr(stream, name)(*args, size)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert stream.peek(3).tobytes() == rng.bit_generator.random_raw(3).tobytes()


def test_a_rejected_half_moves_on_to_the_next_half():
    n = 3 * 2**30  # rejects every half that is a multiple of 4
    first = {s: int(np.random.default_rng(s).bit_generator.random_raw()) for s in range(100)}
    low_rejected = next(s for s, raw in first.items() if raw % 4 == 0)
    held_rejected = next(s for s, raw in first.items() if raw % 4 and (raw >> 32) % 4 == 0)
    for seed in (low_rejected, held_rejected):
        rng, stream = np.random.default_rng(seed), Stream(seed)
        for size in (1, 1, 2, 5, 1):
            want = rng.integers(0, n, size=size)
            assert stream.integers(0, n, size).tobytes() == want.tobytes()
        assert stream.peek(1).tobytes() == rng.bit_generator.random_raw(1).tobytes()


@pytest.mark.parametrize("seed", [-1, 1.5, "7", None, [3]])
def test_a_negative_or_non_integer_seed_is_invalid(seed):
    model, grid = neutral_cubic_model(0.5, -1.0, -1.0, 1.0), make_grid(1.0, 2.0, 0.5)
    spec = neutral_cubic_rates(0.5, -1.0, -1.0, 1.0, 1.0)
    for draw in (lambda: Stream(seed),
                 lambda: check_conditions(model, spec, grid, 10, seed)):
        with pytest.raises(InvalidRange) as exc:
            draw()
        assert "seed" in str(exc.value) and "\n" not in str(exc.value)


def test_integer_ranges_past_32_bits_are_invalid():
    with pytest.raises(InvalidRange, match="2\\*\\*32"):
        Stream(0).integers(0, 2**32 + 1, 1)
    with pytest.raises(InvalidRange, match="2\\*\\*32"):
        _interleaved_draws(Stream(0), 2**32 + 1, 1.0, 1, 3)
