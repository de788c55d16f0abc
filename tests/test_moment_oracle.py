"""The explicit scheme's exact second moments for a linear model, against the engine.

For D(y) = K y, b = A x + B y and sigma = C x + E y the scheme is a linear
recursion driven by independent increments, so its second moments follow
exactly from a recursion of their own.  Monte Carlo means of X^2 from the
engine must then lie within a few standard errors of them.
"""

import numpy as np
import pytest

from nsdde_sim import (
    NsddeModel,
    constant_segment,
    estimate_moments,
    generate,
    make_grid,
    simulate,
)

GRID = make_grid(1.0, 2.0, 0.1)
XI = constant_segment(1.0)
STABLE = dict(K=0.5, A=-1.0, B=0.3, C=0.6, E=0.4)
GROWING = {**STABLE, "A": 0.2}
PATHS = 4096


def linear_model(K, A, B, C, E, tau):
    """D(y) = K y, b = A x + B y and sigma = C x + E y, with d = k = 1."""
    return NsddeModel(
        1, 1, tau,
        neutral=lambda y: K * y,
        drift=lambda x, y, t: A * x + B * y,
        diffusion=lambda x, y, t: (C * x + E * y)[..., None],
    )


def exact_scheme_moments(K, A, B, C, E, xi, grid):
    """E[X_l^2] of the explicit scheme at each of ``grid.times``.

    With N steps per delay the scheme reads

        X_{l+1} = K X_{l+1-N} + (1 + A delta) X_l + (B delta - K) X_{l-N}
                  + (C X_l + E X_{l-N}) dB_l,

    and dB_l has mean 0 and variance delta and is independent of every X_j
    with j <= l.  So E[X_{l+1} X_j] is the same combination of moments already
    known, and E[X_{l+1}^2] adds delta E[(C X_l + E X_{l-N})^2].  Up to t = 0
    the state is the deterministic xi.
    """
    n, delta = grid.steps_per_delay, grid.delta
    size = n + grid.total_steps + 1
    start = xi.sample(grid)[:, 0]
    moments = np.zeros((size, size))  # E[X_i X_j], row i holding grid index i - n
    moments[: n + 1, : n + 1] = np.outer(start, start)
    for r in range(n + 1, size):
        mean, noise = np.zeros(r), np.zeros(r)
        mean[r - n] += K  # X_{l+1-N}, which is X_l itself when N = 1
        mean[r - 1] += 1.0 + A * delta
        mean[r - 1 - n] += B * delta - K
        noise[r - 1], noise[r - 1 - n] = C, E
        known = moments[:r, :r]
        moments[r, :r] = moments[:r, r] = mean @ known
        moments[r, r] = mean @ known @ mean + delta * (noise @ known @ noise)
    return np.diag(moments).copy()


def test_exact_moments_of_the_stable_case():
    exact = exact_scheme_moments(**STABLE, xi=XI, grid=GRID)
    assert exact[: GRID.steps_per_delay + 1].tolist() == [1.0] * (GRID.steps_per_delay + 1)
    assert exact[-1] == pytest.approx(0.507143, abs=5e-7)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_engine_second_moments_match_the_recursion(seed):
    exact = exact_scheme_moments(**GROWING, xi=XI, grid=GRID)
    assert exact[-1] == pytest.approx(19.3936, abs=5e-5)
    assert int(np.argmax(exact)) == len(exact) - 1  # the supremum is at T
    model = linear_model(**GROWING, tau=GRID.tau)
    n = GRID.steps_per_delay

    # simulate: the mean of X^2 at every grid time after 0, where X is random
    path = simulate(model, XI, [GRID], generate(GRID, 1, seed, range(PATHS)))[0]
    squares = path.values[n + 1 :, :, 0] ** 2
    se = squares.std(axis=1, ddof=1) / np.sqrt(PATHS)
    z = (squares.mean(axis=1) - exact[n + 1 :]) / se
    assert np.abs(z).max() <= 4.0, z

    # estimate_moments: its sup-of-mean-square at the time it attains it
    report = estimate_moments(model, XI, GRID.horizon, GRID.delta, PATHS, seed)
    assert report.diverged_count == 0
    at = n + round(report.sup_time / GRID.delta)
    z_sup = (report.sup_mean_square - exact[at]) / report.std_error
    assert abs(z_sup) <= 4.0, z_sup
