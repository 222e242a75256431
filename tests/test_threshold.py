import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermalwigner import (
    ChannelParams,
    FockDiagonalState,
    convolve_evolve,
    eval_fock_diagonal_wigner,
    eval_fock_wigner,
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


class TestThresholdNumeric:
    @pytest.mark.parametrize("bar_n", [0.0, 3.0 / 7.0, 1.0])
    def test_half_photon_channel_roots(self, bar_n):
        report = threshold_numeric_spats(0.5, bar_n, tol=1e-10)
        assert report.gamma_t_c_numeric == pytest.approx(math.log(1.5), abs=1e-9)
        assert report.residual < 1e-9

    def test_loss_channel_root(self):
        report = threshold_numeric_spats(0.0, 1.0, tol=1e-10)
        assert report.gamma_t_c_numeric == pytest.approx(math.log(2.0), abs=1e-9)

    def test_two_photon_channel_root(self):
        report = threshold_numeric_spats(2.0, 1.0, tol=1e-10)
        assert report.gamma_t_c_numeric == pytest.approx(math.log(6.0 / 5.0), abs=1e-9)

    @pytest.mark.parametrize("n", [0.0, 0.5, 1.0])
    def test_root_independent_of_seed_occupancy(self, n):
        roots = [
            threshold_numeric_spats(n, bar_n, tol=1e-10).gamma_t_c_numeric
            for bar_n in (0.0, 3.0 / 7.0, 1.0, 10.0)
        ]
        assert max(roots) - min(roots) < 1e-8

    @pytest.mark.parametrize("tol", [1e-13, 1e-2])
    def test_tolerance_domain(self, tol):
        with pytest.raises(ValueError):
            threshold_numeric_spats(0.5, 1.0, tol=tol)

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
            conv = convolve_evolve(lambda a, b: eval_fock_wigner(a, b, 1), channel, q, p)
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
