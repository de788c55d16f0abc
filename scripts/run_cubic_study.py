#!/usr/bin/env python3
"""End-to-end study of the built-in cubic neutral model.

Runs the full pipeline on one parameter set: verify the structural
conditions on a sampled box, estimate second moments on two step sizes,
measure the coupled-path convergence ladder, and tabulate the perturbation
integrals.  Everything is seeded, so reruns reproduce the numbers exactly.

Usage::

    python3 scripts/run_cubic_study.py [--paths 500] [--seed 20260815]
"""

import argparse
import time

from nsdde_sim import (
    check_contraction_sup_bound,
    check_coercivity,
    check_contraction,
    check_integrability,
    check_monotonicity,
    constant_segment,
    converge_study,
    estimate_moments,
    exceedance_trend_ok,
    generate,
    make_grid,
    neutral_cubic_model,
    neutral_cubic_rates,
    perturbation_integrability,
    simulate,
)

K, C1, C2, TAU, HORIZON = 0.5, -1.0, -1.0, 1.0, 2.0
LADDER = [0.1, 0.05, 0.025, 0.0125]
BOX = 2.0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--paths", type=int, default=500)
    ap.add_argument("--seed", type=int, default=20260815)
    ap.add_argument("--samples", type=int, default=10000)
    args = ap.parse_args()

    model = neutral_cubic_model(K, C1, C2, TAU)
    rates = neutral_cubic_rates(K, C1, C2, TAU, BOX)
    xi = constant_segment(1.0)
    grid = make_grid(TAU, HORIZON, LADDER[0])

    print(f"cubic neutral model: k={K}, c1={C1}, c2={C2}, tau={TAU}, T={HORIZON}")
    print(f"rate bundle: kappa={rates.kappa}, delay factors "
          f"(growth={rates.growth_delay_factor:.6g}, local={rates.local_delay_factor})")

    print("\n== structural conditions ==")
    t0 = time.perf_counter()
    reports = [
        check_contraction(model.neutral, rates.kappa, BOX, args.samples, args.seed),
        check_coercivity(model, rates, grid, args.samples, args.seed),
        check_monotonicity(model, rates, grid, args.samples, args.seed),
        check_integrability(model, grid, BOX, args.samples, args.seed),
    ]
    for rep in reports:
        extra = f", integral ~ {rep.estimate:.4g}" if rep.estimate is not None else ""
        print(f"  {rep.condition_id}: {rep.verdict} "
              f"({rep.samples_tested} samples, {len(rep.violations)} violations{extra})")
    print(f"  [{time.perf_counter() - t0:.2f}s]")

    print("\n== second moments ==")
    for delta in (LADDER[-2], LADDER[-1]):
        rep = estimate_moments(model, xi, HORIZON, delta, args.paths, args.seed)
        print(f"  delta={delta:<7g} sup_t E|X|^2 = {rep.sup_mean_square:.5f} "
              f"(se {rep.std_error:.4f}, peak t={rep.sup_time:g}), "
              f"E sup |X|^2 = {rep.mean_sup_square:.5f}, "
              f"diverged {rep.diverged_count}/{rep.n_paths}")

    print("\n== coupled-path convergence ==")
    t0 = time.perf_counter()
    table = converge_study(model, xi, HORIZON, LADDER, 0.1, args.paths, args.seed)
    for row in table.rows:
        print(f"  levels {row.level_pair}: P(sup diff > 0.1) ~ {row.p_hat:.3f} "
              f"({row.exceed_count}/{row.n_paths}), mean sup {row.mean_sup_diff:.5f}, "
              f"diverged {row.diverged_count}")
    trend = "non-increasing" if exceedance_trend_ok(table) else "NOT non-increasing"
    print(f"  exceedance trend: {trend}  [{time.perf_counter() - t0:.2f}s]")

    print("\n== perturbation integrals ==")
    ptable = perturbation_integrability(
        model, xi, HORIZON, LADDER, args.paths, args.seed,
        radius=3.0 * BOX, weight=rates.local_rate,
    )
    for row in ptable.rows:
        print(f"  delta={row.delta:<7g} E int |p| = {row.mean_abs_integral:.6f}, "
              f"weighted = {row.mean_weighted_integral:.6f}, "
              f"diverged {row.diverged_count}")

    print("\n== pathwise contraction bound (p=2) ==")
    fine = make_grid(TAU, HORIZON, LADDER[-1])
    n_bound = min(args.paths, 200)
    paths = simulate(model, xi, fine, generate(fine, model.noise_dim, args.seed, range(n_bound)))
    ok, _ = check_contraction_sup_bound(paths, model.neutral, rates.kappa)
    print(f"  violations on {n_bound} paths: {int((paths.finite & ~ok).sum())}, "
          f"diverged {int((~paths.finite).sum())}")


if __name__ == "__main__":
    main()
