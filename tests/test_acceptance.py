"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Every criterion is exercised at its stated tolerance; seeds are fixed so
the whole module is deterministic.  Criteria follow the library's public
guarantees (exact oracles, coupled-ladder trends, condition suite,
inequality sweeps, moment stability, byte-identical CLI reruns).
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from nsdde_sim import (
    InvalidRange,
    NsddeModel,
    additive_noise,
    affine_segment,
    check_conditions,
    check_contraction_sup_bound,
    constant_rate,
    constant_segment,
    ConditionSpec,
    converge_study,
    cubic_drift,
    estimate_moments,
    exceedance_trend_ok,
    generate,
    linear_delay_ode,
    make_grid,
    neutral_cubic_model,
    neutral_cubic_rates,
    perturbation_integrability,
    pure_neutral,
    simulate,
)
from nsdde_sim.analysis import ladder_grids
from nsdde_sim.cli import main as cli_main

SEED = 20260815
SEC4 = dict(k=0.5, c1=-1.0, c2=-1.0, tau=1.0)
LADDER = ladder_grids(1.0, 2.0, [0.1, 0.05, 0.025, 0.0125])


def power_split_bound(a, b, p: float, epsilon: float):
    """Both sides of |a+b|^p <= (1 + eps^(1/(p-1)))^(p-1) (|a|^p + |b|^p / eps).

    The paper's power-split inequality, which criterion 08 sweeps.  Accepts
    scalars or arrays; returns (lhs, rhs) elementwise.  Valid for p > 1 and
    epsilon > 0.
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


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {label}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_hand_recursion_oracle():
    grid = make_grid(1.0, 1.5, 0.5)
    model = NsddeModel(
        1, 1, 1.0,
        neutral=lambda y: 0.5 * y,
        drift=lambda x, y, t: np.ones(1),
        diffusion=lambda x, y, t: np.zeros((1, 1)),
    )
    path = simulate(model, constant_segment(1.0), [grid], generate(grid, 1, SEED, [0]))[0]
    got = path[3:, 0, 0].tolist()
    _report(1, "hand recursion oracle", got == [1.5, 2.0, 2.75], f"X={got}")


def test_criterion_02_deterministic_first_order_convergence():
    start = time.perf_counter()
    model = linear_delay_ode(1.0, 1.0)
    xi = constant_segment(1.0)

    def max_grid_error(delta: float) -> float:
        grid = make_grid(1.0, 2.0, delta)
        path = simulate(model, xi, [grid], generate(grid, 1, SEED, [0]))[0]
        t = np.asarray(grid.times[grid.steps_per_delay:])
        exact = np.where(t <= 1.0, 1.0 + t, 2.0 + (t * t - 1.0) / 2.0)
        assert exact[-1] == 3.5
        return float(np.abs(path[grid.steps_per_delay:, 0, 0] - exact).max())

    errors = {d: max_grid_error(d) for d in (0.1, 0.05, 0.025, 0.0125)}
    ratios = [errors[d] / errors[d / 2] for d in (0.1, 0.05, 0.025)]
    elapsed = time.perf_counter() - start
    ok = all(1.6 <= r <= 2.4 for r in ratios) and elapsed < 1.0
    _report(2, "deterministic first-order convergence",
            ok, f"ratios={[round(r, 3) for r in ratios]}, {elapsed:.2f}s")


def test_criterion_03_additive_noise_exactness():
    rows = converge_study(
        additive_noise(1.0), constant_segment(0.0), LADDER[:3],
        epsilon=1e-3, n_paths=100, seed=SEED,
    )
    worst = max(row.max_sup_diff for row in rows)
    _report(3, "additive-noise exactness across coupled ladder",
            worst <= 1e-12, f"max sup-diff={worst:.3g}")


def test_criterion_04_neutral_conservation():
    k = 0.7
    xi = affine_segment(1.0, 1.0)  # xi(theta) = 1 + theta
    worst = 0.0
    for delta in (0.1, 0.05, 0.025):
        grid = make_grid(1.0, 2.0, delta)
        n = grid.steps_per_delay
        for index in range(100):
            path = simulate(
                pure_neutral(k, 1.0), xi, [grid], generate(grid, 1, SEED, [index])
            )[0]
            vals = path[:, 0, 0]
            conserved = vals[n:] - k * vals[:-n]
            worst = max(worst, float(np.abs(conserved - 1.0).max()))
    _report(4, "neutral conservation at every grid point",
            worst <= 1e-12, f"max deviation={worst:.3g}")


def test_criterion_05_cubic_model_cauchy_trend():
    start = time.perf_counter()
    model = neutral_cubic_model(**SEC4)
    rows = converge_study(
        model, constant_segment(1.0), LADDER,
        epsilon=0.1, n_paths=1000, seed=SEED,
    )
    elapsed = time.perf_counter() - start
    p_hats = [round(row.p_hat, 4) for row in rows]
    diverged = sum(row.diverged_count for row in rows)
    ok = exceedance_trend_ok(rows) and diverged == 0 and elapsed < 60.0
    _report(5, "probability-trend over coupled ladder", ok,
            f"p_hat={p_hats}, diverged={diverged}, {elapsed:.1f}s")


def test_criterion_06_perturbation_integrability():
    model = neutral_cubic_model(**SEC4)
    rates = neutral_cubic_rates(box_radius=2.0, **SEC4)
    rows = perturbation_integrability(
        model, constant_segment(1.0), LADDER,
        n_paths=1000, seed=SEED, radius=6.0, weight=rates.local_rate,
    )
    integrals = [row.mean_abs_integral for row in rows]
    decreasing = all(a > b for a, b in zip(integrals, integrals[1:]))

    ramp = NsddeModel(
        1, 1, 1.0,
        neutral=lambda y: np.zeros(1),
        drift=lambda x, y, t: np.ones(1),
        diffusion=lambda x, y, t: np.zeros((1, 1)),
    )
    saw = perturbation_integrability(
        ramp, constant_segment(0.0), LADDER,
        n_paths=1, seed=SEED, radius=1e9, weight=constant_rate(1.0),
    )
    rel_errs = []
    for row in saw:
        m = round(2.0 / row.delta)
        expected = m * row.delta**2 / 2.0
        rel_errs.append(abs(row.mean_abs_integral - expected) / expected)
    exact = max(rel_errs) <= 1e-10
    _report(6, "perturbation integrals shrink, sawtooth closed form",
            decreasing and exact,
            f"integrals={[round(v, 5) for v in integrals]}, saw rel err={max(rel_errs):.2g}")


def test_criterion_07_condition_suite():
    model = neutral_cubic_model(**SEC4)
    rates = neutral_cubic_rates(box_radius=2.0, **SEC4)
    grid = make_grid(1.0, 2.0, 0.1)
    samples = 10_000
    reports = check_conditions(model, rates, grid, samples, SEED)[0]

    suite = dict(zip(["C4", "C2", "C3", "H"], reports))
    all_pass = all(rep.verdict == "pass" for rep in suite.values())

    flat = ConditionSpec(
        kappa=0.5,
        growth_rate=constant_rate(1.0),
        growth_rate_delayed=constant_rate(0.0),
        local_rate=constant_rate(1.0),
        local_rate_delayed=constant_rate(0.0),
        growth_delay_factor=1.0,
        local_delay_factor=1.0,
        box_radius=2.0,
    )
    cubic_flat = check_conditions(cubic_drift(1.0), flat, grid, samples, SEED)[0][1]

    # D(y) = y^2 must fail regardless of sampling: the fixed probe pair
    # (2, 0) alone produces |4 - 0| > 0.9 * 2
    square = NsddeModel(
        1, 1, 1.0,
        neutral=lambda y: y * y,
        drift=lambda x, y, t: np.zeros(1),
        diffusion=lambda x, y, t: np.zeros((1, 1)),
    )
    square_big, square_probe = (
        check_conditions(square, replace(flat, kappa=0.9), grid, n, SEED)[0][0]
        for n in (samples, 1))
    probe_seen = any(
        v.inputs.get("x") == [2.0] and v.inputs.get("y") == [0.0]
        for v in square_probe.violations
    )

    ok = (
        all_pass
        and square_big.verdict == "fail"
        and probe_seen
        and cubic_flat.verdict == "fail"
    )
    verdicts = {cid: rep.verdict for cid, rep in suite.items()}
    _report(7, "condition suite verdicts", ok,
            f"{verdicts}, square={square_big.verdict}, cubic flat={cubic_flat.verdict}")


def test_criterion_08_inequality_sweeps():
    rng = np.random.default_rng(SEED)
    violations = 0
    total = 0
    for _ in range(100):
        p = float(rng.uniform(1.05, 5.0))
        epsilon = float(10.0 ** rng.uniform(-3.0, 1.0))
        a = rng.uniform(-10.0, 10.0, size=1000)
        b = rng.uniform(-10.0, 10.0, size=1000)
        lhs, rhs = power_split_bound(a, b, p, epsilon)
        violations += int((lhs > rhs * (1.0 + 1e-12)).sum())
        total += a.size

    model = neutral_cubic_model(**SEC4)
    rates = neutral_cubic_rates(box_radius=2.0, **SEC4)
    xi = constant_segment(1.0)
    grid = make_grid(1.0, 2.0, 0.025)
    paths = simulate(model, xi, [grid], generate(grid, 1, SEED, range(1000)))[0]
    ok = check_contraction_sup_bound(paths, grid, model.neutral, rates.kappa)
    witnesses = int((~ok).sum())
    _report(8, "power-split sweep and pathwise sup bound",
            violations == 0 and total == 100_000 and witnesses == 0,
            f"{total} tuples, {violations} violations, {witnesses} path witnesses")


def test_criterion_09_moment_stability():
    model = neutral_cubic_model(**SEC4)
    xi = constant_segment(1.0)
    fine = estimate_moments(model, xi, LADDER[2], 1000, SEED)
    finer = estimate_moments(model, xi, LADDER[3], 1000, SEED)
    change = abs(fine.sup_mean_square - finer.sup_mean_square) / fine.sup_mean_square
    stable = np.isfinite(fine.sup_mean_square) and change < 0.10

    brownian = estimate_moments(
        additive_noise(1.0), constant_segment(0.0), make_grid(1.0, 2.0, 0.05), 1000, SEED
    )
    within = abs(brownian.sup_mean_square - 2.0) <= 3.0 * brownian.std_error
    _report(9, "second-moment stability", stable and within,
            f"sup mean square {fine.sup_mean_square:.4f} -> {finer.sup_mean_square:.4f} "
            f"({100 * change:.1f}%), brownian {brownian.sup_mean_square:.3f} "
            f"+- 3*{brownian.std_error:.3f}")


def test_criterion_10_cli_reproducibility(tmp_path):
    base = {
        "model": {"id": "sec4", "params": {"k": 0.5, "c1": -1.0, "c2": -1.0}},
        "tau": 1.0,
        "horizon": 2.0,
        "ladder": [0.1, 0.05],
        "epsilon": 0.1,
        "n_paths": 10,
        "seed": SEED,
        "xi": {"kind": "constant", "value": 1.0},
        "samples": 200,
    }
    runs = {
        "simulate": {**base, "ladder": [0.1]},
        "converge": base,
        "moments": {**base, "ladder": [0.05]},
        "perturbation": base,
        "check": base,
    }
    identical = True
    for command, doc in runs.items():
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps(doc))
        dirs = [tmp_path / f"{command}_a", tmp_path / f"{command}_b"]
        for out in dirs:
            code = cli_main([command, "--config", str(cfg), "--output", str(out)])
            assert code == 0, f"{command} exited {code}"
        names = sorted(p.name for p in dirs[0].iterdir())
        if names != sorted(p.name for p in dirs[1].iterdir()):
            identical = False
        for name in names:
            if (dirs[0] / name).read_bytes() != (dirs[1] / name).read_bytes():
                identical = False
    _report(10, "byte-identical CLI reruns", identical,
            f"{len(runs)} subcommands compared")
