import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermalwigner import channel as channel_module
from thermalwigner import (
    ChannelParams,
    FokkerPlanckSpec,
    NonConvergenceError,
    WignerGrid,
    convolve_evolve,
    eval_spats_wigner_evolved,
    eval_spats_wigner_initial,
    eval_thermal_wigner,
    fd_stability_limit,
    fokker_planck_evolve,
    sample_grid,
    threshold_spats,
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

    @pytest.mark.parametrize(
        "q,p,expected",
        [
            (0.0, 0.0, -0.01885216233736762),
            (0.7, -0.4, 0.0623928874221453),
            (2.0, 1.5, 0.01177698063743519),
        ],
    )
    def test_values_frozen_bitwise(self, q, p, expected):
        # frozen from the quadrature on meshgrid node planes; a column and a
        # row of nodes run every element through the same operations
        assert convolve_evolve(spats_initial(1.0), ChannelParams(0.5, 0.3), q, p) == expected

    def test_initial_gets_a_column_and_a_row_of_nodes(self):
        shapes = []

        def recording(q, p):
            shapes.append((q.shape, p.shape))
            return eval_spats_wigner_initial(q, p, 1.0)

        convolve_evolve(recording, ChannelParams(0.5, 0.3), 0.7, -0.4)
        assert len(shapes) >= 2
        assert shapes == [((k, 1), (1, k)) for k in (16 * 2**i for i in range(len(shapes)))]

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

    def test_semigroup(self):
        # exact in time: evolving 0.2 then 0.3 is evolving 0.5
        grid = self.make_grid(bar_n=0.5, extent=8.0)
        twice = fokker_planck_evolve(
            fokker_planck_evolve(grid, ChannelParams(1.0, 0.2)), ChannelParams(1.0, 0.3)
        )
        once = fokker_planck_evolve(grid, ChannelParams(1.0, 0.5))
        assert np.max(np.abs(twice.values - once.values)) < 1e-12

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        bar_n=st.floats(0.0, 1.0),
        n=st.floats(0.0, 2.0),
        fraction=st.floats(0.0, 1.2),
    )
    @example(bar_n=0.0, n=0.0, fraction=1.0)
    @example(bar_n=1.0, n=2.0, fraction=5.0 / threshold_spats(2.0))
    def test_matches_closed_form_over_parameter_box(self, bar_n, n, fraction):
        # gamma_t in [0, 1.2 gamma_t_c], plus one case at gamma_t = 5.  Time is
        # exact, so the error is the second-order spatial one: it peaks at
        # 0.48 dq^2 (1.2e-3 here) in the first example, bar_n = n = 0 at
        # gamma_t_c, and falls 4x per halving of dq there.
        channel = ChannelParams(n, fraction * threshold_spats(n))
        out = fokker_planck_evolve(self.make_grid(bar_n), channel)
        qq, pp = np.meshgrid(out.q_axis, out.p_axis, indexing="ij")
        exact = eval_spats_wigner_evolved(qq, pp, channel, bar_n)
        assert np.max(np.abs(out.values - exact)) < 0.5 * out.dq**2

    def test_mass_conserved_over_unit_decay_time(self):
        grid = self.make_grid(extent=8.0, points=201)
        out = fokker_planck_evolve(grid, ChannelParams(0.5, 1.0))
        drift = out.trapezoid_integral() - 1.0
        assert abs(drift) < 1e-3

    def test_edge_mass_loss_small_on_adequate_grid(self):
        grid = self.make_grid(extent=8.0, points=201)
        out = fokker_planck_evolve(grid, ChannelParams(0.5, 0.3))
        assert abs(out.trapezoid_integral() - grid.trapezoid_integral()) < 1e-4

    def test_edge_mass_loss_on_small_grid_raises(self):
        # bar_n 1, n 2 at 0.9 gamma_t_c: extent 3 loses 2.5e-2 of the mass
        grid = self.make_grid(extent=3.0, points=121)
        with pytest.raises(NonConvergenceError, match="enlarge the grid extent") as excinfo:
            fokker_planck_evolve(grid, ChannelParams(2.0, 0.9 * threshold_spats(2.0)))
        diagnostics = excinfo.value.diagnostics
        assert diagnostics["drift"] == pytest.approx(-2.47e-2, abs=1e-4)
        assert diagnostics["bound"] == channel_module.EDGE_MASS_LOSS_BOUND
        assert diagnostics["q_extent"] == diagnostics["p_extent"] == (-3.0, 3.0)

    def test_unequal_axes_match_closed_form_and_transpose(self):
        # q and p axes differ, so each gets its own exponential
        channel = ChannelParams(0.5, 0.3)
        grid = sample_grid(spats_initial(1.0), -6.0, 6.0, -8.0, 8.0, 241, 321)
        out = fokker_planck_evolve(grid, channel)
        exact = eval_spats_wigner_evolved(out.q_axis[:, None], out.p_axis[None, :], channel, 1.0)
        assert np.max(np.abs(out.values - exact)) < 0.5 * out.dq**2

        swapped = WignerGrid(-8.0, 8.0, -6.0, 6.0, grid.values.T)
        out_swapped = fokker_planck_evolve(swapped, channel)
        # the same products summed in another order, so equal only to rounding
        ulp = np.spacing(np.max(np.abs(out.values)))
        assert np.max(np.abs(out_swapped.values - out.values.T)) <= 32 * ulp

    def test_non_finite_input_reports_point_count(self):
        grid = self.make_grid(points=41)
        for poison in (np.inf, np.nan):
            poisoned = grid.with_values(
                np.where(np.arange(41)[:, None] == 20, poison, grid.values)
            )
            with pytest.raises(NonConvergenceError) as excinfo:
                fokker_planck_evolve(poisoned, ChannelParams(0.5, 0.1))
            assert excinfo.value.diagnostics["non_finite_points"] == 41

    def test_given_time_step_rejected(self):
        grid = self.make_grid(points=41)
        with pytest.raises(ValueError, match="takes no step"):
            fokker_planck_evolve(grid, ChannelParams(0.5, 0.1), FokkerPlanckSpec(dt=0.01))


def axis_generator(points, lo, hi, n, gamma_t):
    axis = np.linspace(lo, hi, points)
    return gamma_t * channel_module._axis_operator(axis, (2.0 * n + 1.0) / 8.0)


class TestScaledSquaringExpm:
    # scaling the squarings by powers of two keeps every normal-range bit
    @pytest.mark.parametrize(
        "n,gamma_t",
        [
            (0.5, 0.3),  # the verify --suite oracles channel
            (0.0, 0.2),
            (0.0, 1.2 * math.log(2.0)),
            (1.3, 0.7 * threshold_spats(1.3)),
            (2.0, 1.2 * threshold_spats(2.0)),
        ],
    )
    def test_bitwise_equal_to_scipy_on_oracle_grid(self, n, gamma_t):
        from scipy.linalg import expm

        operator = axis_generator(241, -6.0, 6.0, n, gamma_t)
        assert np.array_equal(channel_module._expm(operator), expm(operator))

    @pytest.mark.parametrize(
        "points,lo,hi,n,gamma_t",
        [
            (points, lo, hi, n, gamma_t)
            for points, lo, hi in [(3, -6.0, 6.0), (5, -6.0, 6.0), (5, -3.0, 8.0), (41, -1.0, 20.0)]
            for n in (0.0, 2.0, 1000.0)
            for gamma_t in (1e-3, 1.0, 5.0, 50.0)
        ]
        + [(401, -6.0, 6.0, 0.5, 5.0), (401, -6.0, 6.0, 1000.0, 5.0)],
    )
    def test_close_to_scipy(self, points, lo, hi, n, gamma_t):
        # where scipy squares fewer times the two differ by rounding only
        from scipy.linalg import expm

        operator = axis_generator(points, lo, hi, n, gamma_t)
        ours, reference = channel_module._expm(operator), expm(operator)
        assert np.all(np.isfinite(ours))
        assert np.max(np.abs(ours - reference)) <= 1e-12 * np.max(np.abs(reference))

    def test_two_point_axis_is_the_identity(self):
        # both rows are Dirichlet edges, so the operator is zero
        operator = axis_generator(2, -1.0, 1.0, 0.5, 1.0)
        assert np.array_equal(channel_module._expm(operator), np.eye(2))


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
