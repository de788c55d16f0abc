"""The Brownian draws against numpy's per-path Philox streams, bitwise."""

import math

import numpy as np
import pytest

from nsdde_sim import generate, make_grid, philox

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**128 + 5, 2**200, 20260815]
PATHS = [0, 1, 7, 2**32 - 1, 2**32, 2**40, 3]  # 2**32 and 2**40 are two-word spawn keys
GRID = make_grid(tau=0.5, horizon=1.0, delta=0.025)


def numpy_normals(seed, index, count):
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.Philox(sequence)).standard_normal(count)


@pytest.mark.parametrize("noise_dim", [1, 3])
@pytest.mark.parametrize("seed", SEEDS)
def test_generate_is_numpys_per_path_loop(seed, noise_dim):
    steps = GRID.total_steps
    want = np.stack([numpy_normals(seed, i, steps * noise_dim) for i in PATHS])
    want = want.reshape(len(PATHS), steps, noise_dim) * math.sqrt(GRID.delta)
    assert generate(GRID, noise_dim, seed, PATHS).tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [0, 2**32, 2**128 + 5, 2**200])
@pytest.mark.parametrize("spawn", [None, [0], [2**32 - 1, 2**32, 2**40, 2**64, 2**70 + 11, 5]])
def test_seed_state_is_seed_sequences(seed, spawn):
    for words in (4, 8):
        got = philox.seed_state(seed, spawn, words)
        for row, key in zip(got, spawn or [None]):
            extra = {} if key is None else {"spawn_key": (key,)}
            want = np.random.SeedSequence(entropy=seed, **extra).generate_state(words)
            assert row.tobytes() == want.tobytes()


def test_long_streams_take_the_wedge_and_the_tail():
    count = 100_000
    got = philox.standard_normal(20260815, [0, 2**40], count)
    for row, index in zip(got, [0, 2**40]):
        assert row.tobytes() == numpy_normals(20260815, index, count).tobytes()
    # only the tail gives |z| > r; a wedge draw is |rabs * wi| of an output that
    # failed its strip's ki bound in a strip other than 0
    assert (np.abs(got) > philox.TAIL_R).any()
    sequence = np.random.SeedSequence(entropy=20260815, spawn_key=(0,))
    raw = np.random.Philox(sequence).random_raw(count)
    idx, rabs = (raw & 0xFF).astype(np.intp), raw >> 9 & (2**52 - 1)
    slow = (rabs >= philox.KI[idx]) & (idx > 0)
    assert np.isin(rabs[slow] * philox.WI[idx[slow]], np.abs(got[0])).any()


def test_a_short_row_gives_none_or_the_right_draws():
    # every cut of the outputs, including ones that end inside a wedge or tail
    # test, gives numpy's first draws or None, never other draws
    state = philox.seed_state(7, range(64), 4).astype(np.uint64)
    keys = state[:, 0::2] | state[:, 1::2] << 32
    want = np.stack([numpy_normals(7, i, 40) for i in range(64)])
    outcomes = set()
    for blocks in range(10, 16):
        draws = philox._ziggurat(philox._philox(keys, blocks), 40)
        outcomes.add(draws is None)
        assert draws is None or draws.tobytes() == want.tobytes()
    assert outcomes == {True, False}


def test_chunks_and_retries_do_not_change_the_draws(monkeypatch):
    want = philox.standard_normal(3, range(9), 50)
    calls = []

    def short_first(raw, count):  # the first try of every chunk runs short
        calls.append(raw.shape)
        return None if len(calls) % 2 else real(raw, count)

    real = philox._ziggurat
    monkeypatch.setattr(philox, "CHUNK", 256)  # 3 paths of 84 outputs per chunk
    monkeypatch.setattr(philox, "_ziggurat", short_first)
    assert philox.standard_normal(3, range(9), 50).tobytes() == want.tobytes()
    assert [rows for rows, _ in calls] == [3, 3] * 3
    assert calls[1][1] == 2 * calls[0][1]
