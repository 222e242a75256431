"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import json
import math
import time

import numpy as np
import pytest

from thermalwigner import (
    ChannelParams,
    convolve_evolve,
    default_extent,
    eval_fock_diagonal_wigner,
    eval_q_function,
    eval_spats_wigner_evolved,
    eval_spats_wigner_initial,
    evolve_fock_diagonal,
    fokker_planck_evolve,
    pnw_radial,
    pnw_spats_analytic,
    random_zero_vacuum_state,
    sample_grid,
    spats_weights,
    threshold_general,
    threshold_numeric_spats,
    threshold_spats,
)
from thermalwigner.cli import EXIT_OK, main


def report(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {number} ({name}): {status} ({detail})")
    assert passed, f"criterion {number} ({name}): {detail}"


def test_criterion_1_reduction_identity():
    started = time.perf_counter()
    axis = np.linspace(-6.0, 6.0, 201)
    qq, pp = np.meshgrid(axis, axis, indexing="ij")
    worst = 0.0
    for bar_n in (0.0, 3.0 / 7.0, 1.0, 5.0):
        initial = eval_spats_wigner_initial(qq, pp, bar_n)
        for n in (0.0, 0.5, 2.0):
            evolved = eval_spats_wigner_evolved(qq, pp, ChannelParams(n, 0.0), bar_n)
            worst = max(worst, float(np.max(np.abs(evolved - initial))))
    elapsed = time.perf_counter() - started
    report(
        1,
        "reduction identity",
        worst < 1e-12 and elapsed < 1.0,
        f"max diff {worst:.3e} < 1e-12, runtime {elapsed:.2f}s < 1s",
    )


def vanish_point(n, bar_n):
    """First decay time at which the analytic volume reaches zero (bisection)."""
    lo, hi = 0.0, 1.0
    assert pnw_spats_analytic(ChannelParams(n, lo), bar_n).volume > 0.0
    assert pnw_spats_analytic(ChannelParams(n, hi), bar_n).volume == 0.0
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if pnw_spats_analytic(ChannelParams(n, mid), bar_n).volume > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_2_negativity_decay_curves():
    started = time.perf_counter()
    seeds = (0.0, 3.0 / 7.0, 1.0)
    worst_intercept = 0.0
    monotone = True
    for n, target in ((0.5, math.log(1.5)), (0.0, math.log(2.0))):
        for bar_n in seeds:
            worst_intercept = max(worst_intercept, abs(vanish_point(n, bar_n) - target))
            lattice = np.linspace(0.0, 1.05 * target, 50)
            volumes = [
                pnw_spats_analytic(ChannelParams(n, float(gt)), bar_n).volume for gt in lattice
            ]
            monotone &= bool(np.all(np.diff(volumes) <= 1e-12))
    at_zero = [pnw_spats_analytic(ChannelParams(0.5, 0.0), bn).volume for bn in seeds]
    ordered = at_zero[0] > at_zero[1] > at_zero[2]
    elapsed = time.perf_counter() - started
    report(
        2,
        "negativity decay curves",
        worst_intercept < 1e-4 and monotone and ordered and elapsed < 10.0,
        f"x-intercept error {worst_intercept:.2e} < 1e-4, monotone={monotone}, "
        f"ordering={ordered}, runtime {elapsed:.2f}s < 10s",
    )


def test_criterion_3_golden_negativity_values():
    golden_loss = 2.0 * math.exp(-0.5) - 1.0
    analytic_loss = pnw_spats_analytic(ChannelParams(0.0, 0.0), 0.0).volume
    numeric_loss = pnw_radial(lambda r: eval_spats_wigner_initial(r, 0.0, 0.0), 6.0).volume

    golden_half = 0.038401044095206536
    analytic_half = pnw_spats_analytic(ChannelParams(0.5, 0.0), 1.0).volume
    numeric_half = pnw_radial(lambda r: eval_spats_wigner_initial(r, 0.0, 1.0), 6.0).volume

    checks = (
        abs(analytic_loss - golden_loss) < 1e-9,
        abs(numeric_loss - golden_loss) < 1e-6,
        abs(analytic_half - golden_half) < 1e-6,
        abs(numeric_half - analytic_half) < 1e-6,
    )
    report(
        3,
        "golden negativity values",
        all(checks),
        f"analytic {analytic_loss:.9f} vs 2e^(-1/2)-1 (err {abs(analytic_loss-golden_loss):.1e}), "
        f"quadrature err {abs(numeric_loss-golden_loss):.1e}; "
        f"seed-1 value {analytic_half:.9f} (err {abs(analytic_half-golden_half):.1e}, "
        f"oracle gap {abs(numeric_half-analytic_half):.1e})",
    )


def test_criterion_4_oracle_triangle():
    started = time.perf_counter()
    bar_n, n, gamma_t = 1.0, 0.5, 0.3
    channel = ChannelParams(n, gamma_t)

    def initial(q, p):
        return eval_spats_wigner_initial(q, p, bar_n)

    # (a) closed form vs (b) convolution, which converges to 1e-9
    probe = np.linspace(-5.0, 5.0, 11)
    err_ab = max(
        abs(convolve_evolve(initial, channel, q, p) - float(eval_spats_wigner_evolved(q, p, channel, bar_n)))
        for q in probe
        for p in probe
    )

    # (a) vs (c) finite differences at 241x241, exact in time
    grid = sample_grid(initial, -6.0, 6.0, -6.0, 6.0, 241, 241)
    fd = fokker_planck_evolve(grid, channel)
    qq, pp = np.meshgrid(fd.q_axis, fd.p_axis, indexing="ij")
    exact = eval_spats_wigner_evolved(qq, pp, channel, bar_n)
    err_ac = float(np.max(np.abs(fd.values - exact)))

    # (a) vs (d) Fock-basis channel map + Laguerre series
    evolved_state = evolve_fock_diagonal(spats_weights(bar_n), channel, step_tol=1e-11)
    fock = eval_fock_diagonal_wigner(qq, pp, evolved_state)
    err_ad = float(np.max(np.abs(fock - exact)))

    elapsed = time.perf_counter() - started
    report(
        4,
        "oracle triangle",
        err_ab < 1e-8 and err_ac < 1e-3 and err_ad < 1e-6 and elapsed < 60.0,
        f"closed-convolution {err_ab:.2e} < 1e-8, closed-FD {err_ac:.2e} < 1e-3, "
        f"closed-Fock {err_ad:.2e} < 1e-6, runtime {elapsed:.1f}s < 60s",
    )


def test_criterion_5_threshold_law():
    law_residual = 0.0
    spread = 0.0
    for n in (0.0, 0.5, 1.0, 2.0):
        roots = []
        for bar_n in (0.0, 3.0 / 7.0, 1.0, 10.0):
            rep = threshold_numeric_spats(n, bar_n)
            law_residual = max(law_residual, rep.residual)
            roots.append(rep.gamma_t_c_numeric)
        spread = max(spread, max(roots) - min(roots))
    consistency = max(
        abs(threshold_general(threshold_spats(0.0), n) - threshold_spats(n))
        for n in (0.0, 0.25, 0.5, 1.0, 5.0)
    )
    report(
        5,
        "threshold law",
        law_residual < 1e-8 and spread < 1e-8 and consistency < 1e-14,
        f"bisection residual {law_residual:.2e} < 1e-8, seed-occupancy spread {spread:.2e} < 1e-8, "
        f"loss-channel mapping consistency {consistency:.2e} < 1e-14",
    )


def test_criterion_6_zero_vacuum_theorem(tmp_path):
    started = time.perf_counter()
    out = tmp_path / "theorem.jsonl"
    code = main(["verify", "--suite", "theorem", "--seed", "1", "--out", str(out)])
    rows = [json.loads(line) for line in out.read_text().splitlines()][1:]

    count_ok = len(rows) == 150
    origin_ok = all(abs(r["w_origin_at_threshold"]) < 1e-9 for r in rows)
    minimum_ok = all(r["min_w_at_threshold"] > -1e-9 for r in rows)
    identity_ok = all(r["q_identity_residual"] < 1e-9 for r in rows)
    all_passed = all(r["passed"] for r in rows)

    # the identity constant is forced by normalization: integral(W) / integral(Q0(sqrt2 .)) =
    # e^(gt_c) = 2 in the loss channel
    state = random_zero_vacuum_state(1, 12)
    evolved = evolve_fock_diagonal(state, ChannelParams(0.0, math.log(2.0)), step_tol=1e-12)
    axis = np.linspace(-6.0, 6.0, 241)
    qq, pp = np.meshgrid(axis, axis, indexing="ij")
    w_mass = np.trapezoid(np.trapezoid(eval_fock_diagonal_wigner(qq, pp, evolved), axis, axis=1), axis)
    scale = math.sqrt(2.0)
    q_mass = np.trapezoid(np.trapezoid(eval_q_function(scale * qq, scale * pp, state), axis, axis=1), axis)
    constant_ok = abs(w_mass / q_mass - math.exp(threshold_spats(0.0))) < 1e-6

    elapsed = time.perf_counter() - started
    report(
        6,
        "zero-vacuum theorem",
        code == EXIT_OK
        and count_ok
        and origin_ok
        and minimum_ok
        and identity_ok
        and all_passed
        and constant_ok
        and elapsed < 120.0,
        f"{len(rows)} cases, |W(0,0)| < 1e-9: {origin_ok}, min > -1e-9: {minimum_ok}, "
        f"Q-identity < 1e-9: {identity_ok}, c = {w_mass / q_mass:.9f} (vs 2 within 1e-6), "
        f"runtime {elapsed:.1f}s < 120s",
    )


def test_criterion_7_normalization():
    worst = 0.0
    cases = []

    # closed-form evolved grids at default extent/resolution
    for bar_n, n, gamma_t in ((1.0, 0.5, 0.3), (0.0, 0.0, 0.2), (3.0 / 7.0, 0.5, 0.405), (5.0, 2.0, 1.0)):
        channel = ChannelParams(n, gamma_t)
        extent = default_extent(bar_n, n)
        grid = sample_grid(
            lambda q, p: eval_spats_wigner_evolved(q, p, channel, bar_n),
            -extent, extent, -extent, extent, 201, 201,
        )
        cases.append(("closed", bar_n, n, gamma_t, grid.trapezoid_integral()))

    # finite-difference evolved grid at default extent/resolution
    bar_n, n, gamma_t = 1.0, 0.5, 0.3
    extent = default_extent(bar_n, n)
    initial = sample_grid(
        lambda q, p: eval_spats_wigner_initial(q, p, bar_n),
        -extent, extent, -extent, extent, 201, 201,
    )
    fd = fokker_planck_evolve(initial, ChannelParams(n, gamma_t))
    cases.append(("fokker-planck", bar_n, n, gamma_t, fd.trapezoid_integral()))

    # Fock-basis evolved grid
    evolved_state = evolve_fock_diagonal(spats_weights(bar_n), ChannelParams(n, gamma_t))
    fock_grid = sample_grid(
        lambda q, p: eval_fock_diagonal_wigner(q, p, evolved_state),
        -extent, extent, -extent, extent, 201, 201,
    )
    cases.append(("fock-basis", bar_n, n, gamma_t, fock_grid.trapezoid_integral()))

    for _route, _bn, _n, _gt, integral in cases:
        worst = max(worst, abs(integral - 1.0))
    report(
        7,
        "normalization",
        worst < 1e-6,
        f"{len(cases)} evolved grids, worst |integral - 1| = {worst:.2e} < 1e-6",
    )
