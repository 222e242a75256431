import dataclasses
import decimal
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thermalwigner import (
    ChannelParams,
    FockDiagonalState,
    NonConvergenceError,
    TheoremReport,
    ThresholdReport,
    convolve_evolve,
    eval_fock_diagonal_wigner,
    eval_q_function,
    eval_spats_wigner_evolved,
    evolve_fock_diagonal,
    random_zero_vacuum_state,
    sample_grid,
    spats_weights,
    thermal_weights,
    threshold_general,
    threshold_numeric_spats,
    threshold_spats,
    verify_zero_vacuum_theorem,
)
from thermalwigner.threshold import BISECTION_TOL


def s_parametrized_wigner(weights, n, gamma_t, r):
    """Evolved W_t(r) of a Fock-diagonal state from its s-parametrized quasiprobability.

    W_t(r) = e^(gt) sum_l p_l 2/(pi(1-s)) ((s+1)/(s-1))^l e^(-2x/(1-s))
    L_l(4x/(1-s^2)), with s = -(2n+1)(e^(gt)-1) and x = e^(gt) r^2
    (Cahill & Glauber, Phys. Rev. 177, 1882 (1969)); s = 0 is W and s = -1,
    reached at gt_c, is Q.  With u = (s+1)/(s-1) and z = 4x/(1-s)^2 the
    product u^l L_l(4x/(1-s^2)) is sum_k C(l, k) u^(l-k) z^k / k!, which is
    finite at s = -1, where only k = l survives: the Q series x^l/l!.  So
    |1+s| near 0 needs no branch.  Independent of the library's Fock route:
    it keeps the input's cutoff and evaluates no Laguerre recurrence.
    """
    e = math.exp(gamma_t)
    s = -(2.0 * n + 1.0) * (e - 1.0)
    u = (s + 1.0) / (s - 1.0)
    x = e * np.asarray(r, dtype=float) ** 2
    z = 4.0 * x / (1.0 - s) ** 2
    total = np.zeros_like(x)
    for l, p_l in enumerate(weights):
        for k in range(l + 1):
            total += p_l * math.comb(l, k) * u ** (l - k) * z**k / math.factorial(k)
    return e * 2.0 / (math.pi * (1.0 - s)) * np.exp(-2.0 * x / (1.0 - s)) * total


def lee_law_decimal(n, gamma=None):
    """ln((e^gamma + 2n) / (1 + 2n)) by decimal arithmetic; e^gamma = 2 when gamma is None.

    Carries 50 digits plus those by which gamma and 1/(1 + 2n) lie below 1,
    so the ratio's excess over 1, about (e^gamma - 1) / (1 + 2n), keeps 50.
    """
    with decimal.localcontext() as ctx:
        g, two_n = decimal.Decimal(0.0 if gamma is None else gamma), 2 * decimal.Decimal(n)
        ctx.prec = 50 + max(0, -g.adjusted()) + max(0, two_n.adjusted() + 1)
        growth = decimal.Decimal(2) if gamma is None else g.exp()
        return float(((growth + two_n) / (1 + two_n)).ln())


class TestThresholdSpats:
    def test_loss_channel_is_ln_two(self):
        assert threshold_spats(0.0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_half_photon_channel(self):
        assert threshold_spats(0.5) == pytest.approx(math.log(1.5), abs=1e-15)

    def test_monotone_decrease_in_channel_occupancy(self):
        assert threshold_spats(100.0) < threshold_spats(10.0) < threshold_spats(1.0)

    def test_negative_occupancy_rejected(self):
        with pytest.raises(ValueError):
            threshold_spats(-0.1)

    def test_overflowing_occupancy_rejected(self):
        # 2 + 2n and 1 + 2n both overflow, so the ratio would be nan
        with pytest.raises(ValueError, match="n = 1e"):
            threshold_spats(1e308)


class TestThresholdGeneral:
    @pytest.mark.parametrize("n", [0.0, 0.25, 0.5, 1.0, 5.0])
    def test_consistency_with_spats_law(self, n):
        assert abs(threshold_general(threshold_spats(0.0), n) - threshold_spats(n)) < 1e-14

    def test_identity_for_loss_channel(self):
        assert threshold_general(0.37, 0.0) == pytest.approx(0.37, abs=1e-15)

    @pytest.mark.parametrize("n", [0.0, 0.5, 3.0])
    def test_zero_maps_to_zero(self, n):
        assert threshold_general(0.0, n) == 0.0

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            threshold_general(-0.1, 0.5)
        with pytest.raises(ValueError):
            threshold_general(0.5, -0.1)

    def test_overflowing_arguments_rejected(self):
        with pytest.raises(ValueError, match="gamma_tc_loss = 800"):
            threshold_general(800.0, 0.5)
        with pytest.raises(ValueError, match="n = 1e"):
            threshold_general(0.7, 1e308)
        # e^709 + 2n would overflow, but e^709 - 1 and 1 + 2n are finite
        value = threshold_general(709.0, 8e307)
        assert value == pytest.approx(lee_law_decimal(8e307, 709.0), rel=1e-15, abs=0.0)
        assert value == pytest.approx(0.4145, abs=1e-4)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(gamma=st.floats(0.0, 50.0), log10_n=st.floats(-6.0, 15.0))
    def test_law_matches_decimal_arithmetic(self, gamma, log10_n):
        # ln of the ratio itself loses digits as the ratio nears 1 at large n
        n = 10.0**log10_n
        assert threshold_general(gamma, n) == pytest.approx(
            lee_law_decimal(n, gamma), rel=1e-15, abs=0.0
        )
        assert threshold_spats(n) == pytest.approx(lee_law_decimal(n), rel=1e-15, abs=0.0)


class TestThresholdNumeric:
    @pytest.mark.parametrize("bar_n", [0.0, 3.0 / 7.0, 1.0])
    def test_half_photon_channel_roots(self, bar_n):
        report = threshold_numeric_spats(0.5, bar_n)
        assert report.gamma_t_c_numeric == pytest.approx(math.log(1.5), abs=1e-9)
        assert report.residual < 1e-9

    def test_loss_channel_root(self):
        report = threshold_numeric_spats(0.0, 1.0)
        assert report.gamma_t_c_numeric == pytest.approx(math.log(2.0), abs=1e-9)

    def test_two_photon_channel_root(self):
        report = threshold_numeric_spats(2.0, 1.0)
        assert report.gamma_t_c_numeric == pytest.approx(math.log(6.0 / 5.0), abs=1e-9)

    @pytest.mark.parametrize("bar_n", [0.0, 1.0, 10.0])
    @pytest.mark.parametrize("n", [1e7, 1e8, 1e12, 1e15])
    def test_large_channel_occupancy_within_half_width(self, n, bar_n):
        # kappa's unfactored three-term form cancels at these n (residual 1.3e-9
        # at n = 1e7, no bracket from 1e8); the factored form keeps the root
        assert threshold_numeric_spats(n, bar_n).residual < BISECTION_TOL

    def test_occupancy_past_exact_one_plus_two_n_raises(self):
        # from n = 2^52 on, 1 + 2n is not exact and kappa(0) is no longer negative
        with pytest.raises(NonConvergenceError):
            threshold_numeric_spats(1e16, 1.0)

    def test_huge_seed_root(self):
        # the origin value's pi xi^3 overflows here; the sign of kappa does not
        report = threshold_numeric_spats(0.5, 1e103)
        assert report.gamma_t_c_numeric == pytest.approx(math.log(1.5), abs=1e-9)

    @pytest.mark.parametrize("n", [0.0, 0.5, 1.0])
    def test_root_independent_of_seed_occupancy(self, n):
        roots = [
            threshold_numeric_spats(n, bar_n).gamma_t_c_numeric
            for bar_n in (0.0, 3.0 / 7.0, 1.0, 10.0)
        ]
        assert max(roots) - min(roots) < 1e-8

    def test_report_serializes(self):
        report = threshold_numeric_spats(0.5, 1.0)
        payload = report.to_json_dict()
        assert set(payload) == {
            "gamma_t_c_analytic",
            "gamma_t_c_numeric",
            "method",
            "residual",
        }
        assert payload["method"] == "origin-sign-root"

    def test_theorem_report_serializes(self):
        report = verify_zero_vacuum_theorem(spats_weights(1.0), 0.0)
        assert set(report.to_json_dict()) == {
            "state_id",
            "n",
            "w_origin_at_threshold",
            "min_w_at_threshold",
            "q_identity_residual",
            "passed",
            "state_family",
        }


class TestAroundThreshold:
    @pytest.mark.parametrize("bar_n", [0.0, 3.0 / 7.0, 1.0, 10.0])
    @pytest.mark.parametrize("n", [0.0, 0.5, 1.0])
    def test_origin_negative_just_before_threshold(self, n, bar_n):
        gt = 0.99 * threshold_spats(n)
        assert float(eval_spats_wigner_evolved(0.0, 0.0, ChannelParams(n, gt), bar_n)) < 0.0

    @pytest.mark.parametrize("bar_n", [0.0, 1.0])
    @pytest.mark.parametrize("n", [0.0, 0.5])
    def test_grid_non_negative_just_after_threshold(self, n, bar_n):
        channel = ChannelParams(n, 1.01 * threshold_spats(n))
        grid = sample_grid(
            lambda q, p: eval_spats_wigner_evolved(q, p, channel, bar_n),
            -6.0,
            6.0,
            -6.0,
            6.0,
            201,
            201,
        )
        assert grid.values.min() >= -1e-10


class TestSParametrizedOracle:
    RADII = np.linspace(0.0, 6.0, 61)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        draws=st.lists(st.floats(0.0, 1.0, allow_subnormal=False), min_size=2, max_size=12),
        with_vacuum=st.booleans(),
        n=st.floats(0.0, 2.0),
        gamma_t=st.floats(0.0, 1.5),
    )
    def test_fock_route_matches_oracle(self, draws, with_vacuum, n, gamma_t):
        weights = np.array(draws)
        if not with_vacuum:
            weights[0] = 0.0
        assume(weights.sum() > 0.0)
        weights /= weights.sum()
        evolved = evolve_fock_diagonal(
            FockDiagonalState(weights), ChannelParams(n, gamma_t), step_tol=1e-13
        )
        fock = eval_fock_diagonal_wigner(self.RADII, 0.0, evolved)
        oracle = s_parametrized_wigner(weights, n, gamma_t, self.RADII)
        assert np.max(np.abs(fock - oracle)) < 1e-12

    @pytest.mark.parametrize("n", [0.0, 0.5, 2.0])
    def test_is_lee_identity_at_threshold(self, n):
        # s = -1 exactly at gt_c: the oracle is e^(gt_c) Q_0(e^(gt_c/2) r)
        state = random_zero_vacuum_state(3, 8)
        gamma_t_c = threshold_spats(n)
        oracle = s_parametrized_wigner(state.weights, n, gamma_t_c, self.RADII)
        q0 = eval_q_function(math.exp(gamma_t_c / 2.0) * self.RADII, 0.0, state)
        assert np.max(np.abs(oracle - math.exp(gamma_t_c) * q0)) < 1e-13


class TestThresholdSharpness:
    """W_t(0) is negative just below gt_c for states with enough one-photon weight.

    At gt = gt_c (1 - delta) the origin value is
    2/(pi eta (1+v)) sum_l p_l c^l with eta = e^(-gt), v = (2n+1)(e^(gt)-1)
    and c = -(1-v)/(1+v), the s-parametrized oracle at r = 0.  For a
    zero-vacuum state c is small and negative, so the l = 1 term wins, and
    W_t(0) < 0, whenever p_1 |c| > sum_{l>=2} p_l |c|^l.  That is where the
    check stops: a state with a tiny p_1 stays positive at the origin at this
    delta (seed 7 at n = 0 gives +5.4e-9), and its negativity sits off the
    origin at r ~ sqrt(delta), or closer to gt_c than delta.
    """

    DELTA = 1e-3

    @pytest.mark.parametrize("n", [0.0, 0.5, 1.0])
    def test_origin_negative_just_below_threshold(self, n):
        gamma_t = threshold_spats(n) * (1.0 - self.DELTA)
        v = (2.0 * n + 1.0) * math.expm1(gamma_t)
        c = -(1.0 - v) / (1.0 + v)
        covered = 0
        for seed in range(40):
            state = random_zero_vacuum_state(seed, 12)
            evolved = evolve_fock_diagonal(state, ChannelParams(n, gamma_t), step_tol=1e-13)
            w0 = float(eval_fock_diagonal_wigner(0.0, 0.0, evolved))
            p = state.weights
            origin = 2.0 * math.exp(gamma_t) / (math.pi * (1.0 + v)) * sum(
                p_l * c**l for l, p_l in enumerate(p)
            )
            assert abs(w0 - origin) < 1e-11
            assert origin == pytest.approx(
                float(s_parametrized_wigner(p, n, gamma_t, 0.0)), abs=1e-15
            )
            if p[1] * abs(c) > sum(p[l] * abs(c) ** l for l in range(2, len(p))):
                assert w0 < 0.0, (seed, w0)
                covered += 1
        # the condition is not vacuous on these states
        assert covered >= 30

    def test_small_one_photon_weight_stays_positive_at_this_delta(self):
        n = 0.0
        gamma_t = threshold_spats(n) * (1.0 - self.DELTA)
        evolved = evolve_fock_diagonal(
            random_zero_vacuum_state(7, 12), ChannelParams(n, gamma_t), step_tol=1e-13
        )
        assert 0.0 < float(eval_fock_diagonal_wigner(0.0, 0.0, evolved)) < 1e-8


class TestZeroVacuumTheorem:
    def test_spats_seed_one_in_loss_channel(self):
        report = verify_zero_vacuum_theorem(spats_weights(1.0), 0.0, state_id="spats-1")
        assert report.passed
        assert abs(report.w_origin_at_threshold) < 1e-9
        assert report.q_identity_residual < 1e-9

    def test_single_photon_identity_closed_form(self):
        # |1> at gt = ln 2 in the loss channel: W = (4 r^2 / pi) e^(-2 r^2)
        state = spats_weights(0.0)
        evolved = evolve_fock_diagonal(state, ChannelParams(0.0, math.log(2.0)), step_tol=1e-12)
        for r in (0.0, 0.3, 1.0, 2.0):
            w = float(eval_fock_diagonal_wigner(r, 0.0, evolved))
            closed = (4.0 * r * r / math.pi) * math.exp(-2.0 * r * r)
            assert abs(w - closed) < 1e-9
            q0 = float(eval_q_function(math.sqrt(2.0) * r, 0.0, state))
            assert abs(w - 2.0 * q0) < 1e-9

    @pytest.mark.parametrize("n", [0.0, 0.5, 2.0])
    def test_identity_also_holds_via_convolution_route(self, n):
        # convolution of the one-photon Wigner function vs the Q-series,
        # two fully independent code paths
        state = spats_weights(0.0)
        gamma_t_c = threshold_spats(n)
        channel = ChannelParams(n, gamma_t_c)
        scale = math.exp(gamma_t_c / 2.0)
        for q, p in [(0.0, 0.0), (0.5, -0.3), (1.2, 0.8)]:
            conv = convolve_evolve(
                lambda a, b: eval_fock_diagonal_wigner(a, b, state), channel, q, p
            )
            q0 = float(eval_q_function(scale * q, scale * p, state))
            assert abs(conv - math.exp(gamma_t_c) * q0) < 1e-8

    @pytest.mark.parametrize("n", [0.0, 0.5, 1.0, 2.0])
    def test_identity_constant_forced_by_normalization(self, n):
        # both sides integrate to 1, so the constant c in
        # W = c * Q0(e^(gt_c/2) .) is forced: c = e^(gt_c)
        state = random_zero_vacuum_state(11, 12)
        gamma_t_c = threshold_spats(n)
        evolved = evolve_fock_diagonal(state, ChannelParams(n, gamma_t_c), step_tol=1e-12)
        axis = np.linspace(-6.0, 6.0, 241)
        qq, pp = np.meshgrid(axis, axis, indexing="ij")
        w = eval_fock_diagonal_wigner(qq, pp, evolved)
        scale = math.exp(gamma_t_c / 2.0)
        q0 = eval_q_function(scale * qq, scale * pp, state)
        w_mass = np.trapezoid(np.trapezoid(w, axis, axis=1), axis)
        q_mass = np.trapezoid(np.trapezoid(q0, axis, axis=1), axis)
        assert w_mass / q_mass == pytest.approx(math.exp(gamma_t_c), abs=1e-6)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n", [0.0, 0.5, 1.0])
    def test_random_states_pass(self, seed, n):
        state = random_zero_vacuum_state(seed, 12)
        report = verify_zero_vacuum_theorem(state, n, state_id=f"seed-{seed}")
        assert report.passed
        assert abs(report.w_origin_at_threshold) < 1e-9
        assert report.min_w_at_threshold > -1e-9
        assert report.q_identity_residual < 1e-9

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        draws=st.lists(
            st.floats(0.0, 1.0, allow_subnormal=False), min_size=1, max_size=24
        ).filter(lambda draws: sum(draws) > 0.0),
        n=st.floats(0.0, 5.0),
    )
    def test_random_weights_pass_at_every_occupancy(self, draws, n):
        weights = np.array([0.0, *draws])
        report = verify_zero_vacuum_theorem(FockDiagonalState(weights / weights.sum()), n)
        assert report.passed, report

    def test_nonzero_vacuum_population_rejected(self):
        with pytest.raises(ValueError):
            verify_zero_vacuum_theorem(thermal_weights(1.0), 0.0)

    def test_report_records_restriction_to_fock_diagonal_states(self):
        report = verify_zero_vacuum_theorem(spats_weights(0.5), 0.5)
        assert report.state_family == "fock-diagonal"
        assert report.to_json_dict()["state_family"] == "fock-diagonal"


class TestReportsStoreOnlyMeasurements:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
    @pytest.mark.parametrize("field", ["gamma_t_c_analytic", "gamma_t_c_numeric"])
    def test_threshold_report_rejects_non_finite_or_negative_times(self, field, bad):
        values = {"gamma_t_c_analytic": 0.5, "gamma_t_c_numeric": 0.5, field: bad}
        with pytest.raises(ValueError, match=field):
            ThresholdReport(**values)

    def test_threshold_residual_is_derived(self):
        assert [f.name for f in dataclasses.fields(ThresholdReport)] == [
            "gamma_t_c_analytic",
            "gamma_t_c_numeric",
        ]
        report = ThresholdReport(gamma_t_c_analytic=0.75, gamma_t_c_numeric=0.5)
        assert report.residual == 0.25
        assert report.to_json_dict()["residual"] == 0.25

    @pytest.mark.parametrize(
        "origin, minimum, q_residual, passed",
        [
            (0.0, 0.0, 0.0, True),
            (-5e-10, -5e-10, 5e-10, True),
            (2e-9, 0.0, 0.0, False),
            (0.0, -2e-9, 0.0, False),
            (0.0, 0.0, 2e-9, False),
        ],
    )
    def test_theorem_verdict_is_derived_from_the_tolerances(
        self, origin, minimum, q_residual, passed
    ):
        assert [f.name for f in dataclasses.fields(TheoremReport)] == [
            "state_id",
            "n",
            "w_origin_at_threshold",
            "min_w_at_threshold",
            "q_identity_residual",
        ]
        report = TheoremReport("case", 0.5, origin, minimum, q_residual)
        assert report.passed is passed
        assert report.to_json_dict()["passed"] is passed
