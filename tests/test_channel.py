import math

import numpy as np
import pytest

from thermalwigner import channel as channel_module
from thermalwigner import (
    ChannelParams,
    FokkerPlanckSpec,
    NonConvergenceError,
    convolve_evolve,
    eval_spats_wigner_evolved,
    eval_spats_wigner_initial,
    eval_thermal_wigner,
    fd_stability_limit,
    fokker_planck_evolve,
    sample_grid,
)


def spats_initial(bar_n):
    return lambda q, p: eval_spats_wigner_initial(q, p, bar_n)


class TestConvolveEvolve:
    def test_closed_form_oracle_at_origin(self):
        channel = ChannelParams(0.5, 0.3)
        value = convolve_evolve(spats_initial(1.0), channel, 0.0, 0.0)
        expected = float(eval_spats_wigner_evolved(0.0, 0.0, channel, 1.0))
        assert abs(value - expected) < 1e-8

    @pytest.mark.parametrize("q,p", [(0.0, 0.0), (1.0, -0.5), (2.5, 1.5), (-3.0, 0.2)])
    def test_closed_form_oracle_off_origin(self, q, p):
        channel = ChannelParams(0.5, 0.3)
        value = convolve_evolve(spats_initial(1.0), channel, q, p)
        expected = float(eval_spats_wigner_evolved(q, p, channel, 1.0))
        assert abs(value - expected) < 1e-8

    @pytest.mark.parametrize("bar_n,n,gamma_t", [(1.0, 0.0, 0.5), (0.3, 0.5, 0.2), (2.0, 1.0, 1.0)])
    def test_thermal_input_stays_thermal(self, bar_n, n, gamma_t):
        # Gaussian-convolution oracle: mean photon number n + (nbar - n) e^(-gt)
        channel = ChannelParams(n, gamma_t)
        effective = n + (bar_n - n) * math.exp(-gamma_t)
        for q, p in [(0.0, 0.0), (0.7, -1.3), (2.0, 2.0)]:
            value = convolve_evolve(lambda a, b: eval_thermal_wigner(a, b, bar_n), channel, q, p)
            assert abs(value - float(eval_thermal_wigner(q, p, effective))) < 1e-8

    def test_identity_limit_at_tiny_decay_time(self):
        channel = ChannelParams(0.5, 1e-8)
        value = convolve_evolve(spats_initial(1.0), channel, 0.4, -0.2)
        assert abs(value - float(eval_spats_wigner_initial(0.4, -0.2, 1.0))) < 1e-6

    def test_zero_decay_time_bypasses_quadrature(self):
        channel = ChannelParams(0.5, 0.0)
        value = convolve_evolve(spats_initial(1.0), channel, 0.4, -0.2)
        assert value == float(eval_spats_wigner_initial(0.4, -0.2, 1.0))

    def test_positive_input_gives_positive_output(self):
        channel = ChannelParams(0.5, 0.4)
        for q in np.linspace(-4.0, 4.0, 9):
            value = convolve_evolve(lambda a, b: eval_thermal_wigner(a, b, 1.0), channel, q, 0.5)
            assert value >= 0.0

    def test_radial_symmetry_at_matched_radii(self):
        channel = ChannelParams(0.5, 0.3)
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        for r in (0.5, 1.0, 2.0):
            on_axis = convolve_evolve(spats_initial(1.0), channel, r, 0.0)
            diagonal = convolve_evolve(
                spats_initial(1.0), channel, r * inv_sqrt2, r * inv_sqrt2
            )
            assert abs(on_axis - diagonal) < 1e-8

    def test_non_convergence_reports_estimates(self, monkeypatch):
        # an unreachable tolerance, and one doubling so the test stays fast
        monkeypatch.setattr(channel_module, "_QUAD_ORDER", 8)
        monkeypatch.setattr(channel_module, "_ABS_TOL", 1e-16)
        monkeypatch.setattr(channel_module, "_MAX_DOUBLINGS", 1)
        with pytest.raises(NonConvergenceError) as excinfo:
            convolve_evolve(spats_initial(1.0), ChannelParams(0.5, 0.3), 0.0, 0.0)
        assert "last" in excinfo.value.diagnostics
        assert "error_estimate" in excinfo.value.diagnostics


class TestFokkerPlanckSpec:
    def test_invalid_dt_rejected(self):
        with pytest.raises(ValueError):
            FokkerPlanckSpec(dt=0.0)

    def test_stability_limit_formula(self):
        # dt <= 0.25 dx^2 / D with D = (2n+1)/8
        assert fd_stability_limit(0.05, 0.5) == pytest.approx(0.25 * 0.0025 / 0.25, rel=1e-12)


class TestFokkerPlanckEvolve:
    def make_grid(self, bar_n=1.0, extent=6.0, points=241):
        return sample_grid(
            spats_initial(bar_n), -extent, extent, -extent, extent, points, points
        )

    def test_zero_decay_time_returns_input(self):
        grid = self.make_grid(points=41)
        assert fokker_planck_evolve(grid, ChannelParams(0.5, 0.0)) is grid

    def test_matches_closed_form(self):
        grid = self.make_grid()
        channel = ChannelParams(0.5, 0.3)
        out = fokker_planck_evolve(grid, channel)
        qq, pp = np.meshgrid(out.q_axis, out.p_axis, indexing="ij")
        exact = eval_spats_wigner_evolved(qq, pp, channel, 1.0)
        assert np.max(np.abs(out.values - exact)) < 1e-3

    def test_thermal_decay_matches_moment_law(self):
        grid = sample_grid(
            lambda q, p: eval_thermal_wigner(q, p, 1.0), -6.0, 6.0, -6.0, 6.0, 241, 241
        )
        out = fokker_planck_evolve(grid, ChannelParams(0.0, 1.0))
        qq, pp = np.meshgrid(out.q_axis, out.p_axis, indexing="ij")
        exact = eval_thermal_wigner(qq, pp, math.exp(-1.0))
        assert np.max(np.abs(out.values - exact)) < 1e-3

    def test_adi_accepts_large_steps(self):
        grid = self.make_grid(points=121)
        limit = fd_stability_limit(grid.dq, 0.5)
        spec = FokkerPlanckSpec(dt=10.0 * limit)
        out = fokker_planck_evolve(grid, ChannelParams(0.5, 0.3), spec)
        assert np.all(np.isfinite(out.values))

    def test_mass_conserved_over_unit_decay_time(self):
        grid = self.make_grid(extent=8.0, points=201)
        out = fokker_planck_evolve(grid, ChannelParams(0.5, 1.0))
        drift = out.trapezoid_integral() - 1.0
        assert abs(drift) < 1e-3

    def test_edge_mass_loss_small_on_adequate_grid(self):
        grid = self.make_grid(extent=8.0, points=201)
        out = fokker_planck_evolve(grid, ChannelParams(0.5, 0.3))
        assert abs(out.trapezoid_integral() - grid.trapezoid_integral()) < 1e-4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_input_detected_with_step_index(self):
        # The solver's per-step check, not the linear solve, reports either poison.
        grid = self.make_grid(points=41)
        for poison in (np.inf, np.nan):
            poisoned = grid.with_values(
                np.where(np.arange(41)[:, None] == 20, poison, grid.values)
            )
            with pytest.raises(NonConvergenceError) as excinfo:
                fokker_planck_evolve(poisoned, ChannelParams(0.5, 0.1))
            assert excinfo.value.diagnostics["step_index"] == 0


class TestOracleCrossAgreement:
    def test_convolution_and_fd_agree(self):
        # both independent routes land on the same function
        channel = ChannelParams(0.5, 0.3)
        grid = sample_grid(spats_initial(1.0), -6.0, 6.0, -6.0, 6.0, 241, 241)
        fd = fokker_planck_evolve(grid, channel)
        for q, p in [(0.0, 0.0), (1.5, 0.0), (0.0, -2.0)]:
            iq = int(round((q - fd.q_min) / fd.dq))
            ip = int(round((p - fd.p_min) / fd.dp))
            conv = convolve_evolve(spats_initial(1.0), channel, q, p)
            assert abs(conv - fd.values[iq, ip]) < 2e-3
