import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermalwigner import (
    ChannelParams,
    FockDiagonalState,
    WignerGrid,
    default_extent,
    eval_fock_diagonal_wigner,
    eval_q_function,
    eval_spats_wigner_evolved,
    eval_spats_wigner_initial,
    eval_thermal_wigner,
    evolve_fock_diagonal,
    evolved_coefficients,
    sample_grid,
    spats_weights,
    thermal_weights,
)

RNG = np.random.default_rng(2024)
RANDOM_POINTS = RNG.uniform(-4.0, 4.0, size=(100, 2))


def fock(l):
    """The Fock state |l> as a one-hot state; a cutoff is at least 1."""
    weights = np.zeros(max(l, 1) + 1)
    weights[l] = 1.0
    return FockDiagonalState(weights)


class TestThermalWigner:
    def test_vacuum_peak(self):
        assert eval_thermal_wigner(0.0, 0.0, 0.0) == pytest.approx(2.0 / math.pi, abs=1e-15)

    def test_half_photon_peak(self):
        assert eval_thermal_wigner(0.0, 0.0, 0.5) == pytest.approx(1.0 / math.pi, abs=1e-15)

    def test_strictly_positive(self):
        q, p = RANDOM_POINTS.T
        assert np.all(eval_thermal_wigner(q, p, 1.3) > 0.0)

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            eval_thermal_wigner(0.0, 0.0, -1.0)


class TestSpatsWignerInitial:
    def test_single_photon_origin(self):
        assert eval_spats_wigner_initial(0.0, 0.0, 0.0) == pytest.approx(-2.0 / math.pi, abs=1e-15)

    def test_single_photon_node(self):
        # node at 4 r^2 = 1
        assert eval_spats_wigner_initial(0.5, 0.0, 0.0) == pytest.approx(0.0, abs=1e-16)

    def test_origin_seed_one(self):
        assert eval_spats_wigner_initial(0.0, 0.0, 1.0) == pytest.approx(
            -2.0 / (9.0 * math.pi), abs=1e-15
        )


class TestEvolvedCoefficients:
    @pytest.mark.parametrize("bar_n", [0.0, 3.0 / 7.0, 1.0, 5.0])
    @pytest.mark.parametrize("n", [0.0, 0.5, 2.0])
    def test_time_zero_reduction(self, bar_n, n):
        c = evolved_coefficients(ChannelParams(n, 0.0), bar_n)
        assert c.xi == pytest.approx(1.0 + 2.0 * bar_n, abs=1e-12)
        assert c.zeta == 0.0
        assert c.kappa == pytest.approx(-(4.0 * bar_n + 2.0), abs=1e-12)

    @pytest.mark.parametrize("bar_n", [0.0, 1.0, 10.0])
    @pytest.mark.parametrize("n", [0.0, 0.5, 1.0])
    def test_kappa_vanishes_at_threshold(self, bar_n, n):
        gt_c = math.log((2.0 + 2.0 * n) / (1.0 + 2.0 * n))
        c = evolved_coefficients(ChannelParams(n, gt_c), bar_n)
        assert abs(c.kappa) < 1e-12

    @pytest.mark.parametrize("seed", range(20))
    def test_zeta_is_gamma_t_times_xi(self, seed):
        rng = np.random.default_rng(seed)
        bar_n = float(rng.uniform(0.0, 5.0))
        n = float(rng.uniform(0.0, 2.0))
        gt = float(rng.uniform(0.0, 3.0))
        c = evolved_coefficients(ChannelParams(n, gt), bar_n)
        assert abs(c.zeta - gt * c.xi) < 1e-12 * max(1.0, abs(c.zeta))

    @pytest.mark.parametrize("bar_n", [0.0, 0.5, 1.0, 5.0])
    @pytest.mark.parametrize("gt", [0.0, 0.1, 0.5, 2.0])
    def test_xi_lower_bound(self, bar_n, gt):
        for n in (0.0, 0.5, 2.0):
            c = evolved_coefficients(ChannelParams(n, gt), bar_n)
            assert c.xi >= 1.0 + 2.0 * bar_n - 1e-14


class TestSpatsWignerEvolved:
    LATTICE = [0.0, 3.0 / 7.0, 0.5, 1.0, 5.0]

    @pytest.mark.parametrize("bar_n", LATTICE)
    @pytest.mark.parametrize("n", LATTICE)
    def test_time_zero_reduces_to_initial(self, bar_n, n):
        q, p = RANDOM_POINTS.T
        evolved = eval_spats_wigner_evolved(q, p, ChannelParams(n, 0.0), bar_n)
        initial = eval_spats_wigner_initial(q, p, bar_n)
        assert np.max(np.abs(evolved - initial)) < 1e-12

    @pytest.mark.parametrize("n,bar_n", [(0.0, 1.0), (0.5, 0.0), (1.0, 10.0)])
    def test_origin_vanishes_at_threshold(self, n, bar_n):
        gt_c = math.log((2.0 + 2.0 * n) / (1.0 + 2.0 * n))
        value = eval_spats_wigner_evolved(0.0, 0.0, ChannelParams(n, gt_c), bar_n)
        assert abs(value) < 1e-12

    def test_origin_matches_coefficient_ratio(self):
        # xi = 3, kappa = -6 at gt = 0 for bar_n = 1: value = kappa/(pi xi^3)
        value = eval_spats_wigner_evolved(0.0, 0.0, ChannelParams(0.5, 0.0), 1.0)
        assert value == pytest.approx(-6.0 / (27.0 * math.pi), abs=1e-15)
        assert value == pytest.approx(eval_spats_wigner_initial(0.0, 0.0, 1.0), abs=1e-15)

    @pytest.mark.parametrize("n", [0.0, 0.5])
    @pytest.mark.parametrize("bar_n", [0.0, 1.0])
    def test_long_time_limit_is_thermal(self, n, bar_n):
        axis = np.linspace(-5.0, 5.0, 101)
        qq, pp = np.meshgrid(axis, axis, indexing="ij")
        late = eval_spats_wigner_evolved(qq, pp, ChannelParams(n, 20.0), bar_n)
        target = eval_thermal_wigner(qq, pp, n)
        assert np.max(np.abs(late - target)) < 1e-6


class TestFockWigner:
    @pytest.mark.parametrize("l", range(7))
    def test_origin_parity(self, l):
        expected = (2.0 / math.pi) * (-1.0) ** l
        assert eval_fock_diagonal_wigner(0.0, 0.0, fock(l)) == pytest.approx(expected, abs=1e-14)

    def test_one_photon_matches_spats_zero_seed(self):
        q, p = RANDOM_POINTS.T
        series = eval_fock_diagonal_wigner(q, p, fock(1))
        assert np.max(np.abs(series - eval_spats_wigner_initial(q, p, 0.0))) < 1e-12

    def test_vacuum_matches_thermal_zero(self):
        q, p = RANDOM_POINTS.T
        series = eval_fock_diagonal_wigner(q, p, fock(0))
        assert np.max(np.abs(series - eval_thermal_wigner(q, p, 0.0))) < 1e-15

    def test_high_index_bounded_at_the_grid_corner(self):
        # |L_l(x) e^(-x/2)| <= 1 for x >= 0, so |W_l| <= 2/pi everywhere
        t = np.linspace(-5.0, 5.0, 401)
        with np.errstate(over="raise", invalid="raise"):
            values = eval_fock_diagonal_wigner(t, t, fock(300))
        assert np.max(np.abs(values)) <= 2.0 / math.pi

    @pytest.mark.parametrize("l", [501])
    def test_index_domain(self, l):
        # one above LAGUERRE_MAX_INDEX
        with pytest.raises(ValueError):
            eval_fock_diagonal_wigner(0.0, 0.0, fock(l))


class TestFockDiagonalWigner:
    def test_series_matches_spats_closed_form(self):
        state = spats_weights(1.0)
        q, p = RANDOM_POINTS.T
        series = eval_fock_diagonal_wigner(q, p, state)
        closed = eval_spats_wigner_initial(q, p, 1.0)
        assert np.max(np.abs(series - closed)) < 1e-9

    def test_series_matches_thermal_closed_form(self):
        state = thermal_weights(0.5)
        q, p = RANDOM_POINTS.T
        series = eval_fock_diagonal_wigner(q, p, state)
        closed = eval_thermal_wigner(q, p, 0.5)
        assert np.max(np.abs(series - closed)) < 1e-9

    def test_vacuum_origin(self):
        assert eval_fock_diagonal_wigner(0.0, 0.0, thermal_weights(0.0)) == pytest.approx(
            2.0 / math.pi, abs=1e-15
        )

    @pytest.mark.parametrize("n_mean", [0.0, 1.0, 2.5, 5.0, 10.0])
    def test_hot_thermal_series_finite_to_the_grid_corner(self, n_mean):
        # the diagonal of the default grid reaches r = sqrt(2) * default_extent,
        # where the unscaled L_l(4 r^2) overflows for n_mean = 10
        extent = default_extent(n_mean)
        t = np.linspace(-extent, extent, 801)
        with np.errstate(over="raise", invalid="raise"):
            series = eval_fock_diagonal_wigner(t, t, thermal_weights(n_mean))
        closed = eval_thermal_wigner(t, t, n_mean)
        peak = eval_thermal_wigner(0.0, 0.0, n_mean)
        assert np.max(np.abs(series - closed)) <= 2e-14 * peak

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        bar_n=st.floats(0.0, 3.0),
        n=st.floats(0.0, 2.0),
        gamma_t=st.floats(0.0, 1.5),
    )
    def test_fock_route_matches_closed_form(self, bar_n, n, gamma_t):
        # Fock-basis channel map + Laguerre series against the evolved closed form
        channel = ChannelParams(n, gamma_t)
        evolved = evolve_fock_diagonal(spats_weights(bar_n), channel, step_tol=1e-11)
        axis = np.linspace(-default_extent(bar_n, n), default_extent(bar_n, n), 41)
        qq, pp = np.meshgrid(axis, axis, indexing="ij")
        series = eval_fock_diagonal_wigner(qq, pp, evolved)
        closed = eval_spats_wigner_evolved(qq, pp, channel, bar_n)
        assert np.max(np.abs(series - closed)) < 1e-9


class TestQFunction:
    def test_vacuum_origin(self):
        assert eval_q_function(0.0, 0.0, thermal_weights(0.0)) == pytest.approx(
            1.0 / math.pi, abs=1e-15
        )

    @pytest.mark.parametrize("bar_n", [0.0, 0.5, 1.0])
    def test_zero_vacuum_states_vanish_at_origin(self, bar_n):
        assert eval_q_function(0.0, 0.0, spats_weights(bar_n)) == 0.0

    def test_non_negative_everywhere(self):
        q, p = RANDOM_POINTS.T
        for seed in (1, 2, 3):
            state = spats_weights(float(seed) / 2.0)
            assert np.all(eval_q_function(q, p, state) >= 0.0)

    @pytest.mark.parametrize("n_mean", [0.0, 0.5, 2.0])
    def test_thermal_closed_form_oracle(self, n_mean):
        # independent closed form: Q_thermal = exp(-r^2/(1+n)) / (pi (1+n))
        q, p = RANDOM_POINTS.T
        series = eval_q_function(q, p, thermal_weights(n_mean))
        r2 = q * q + p * p
        closed = np.exp(-r2 / (1.0 + n_mean)) / (math.pi * (1.0 + n_mean))
        assert np.max(np.abs(series - closed)) < 1e-12

    @pytest.mark.parametrize("n_mean", [0.0, 2.5, 5.0, 10.0, 20.0])
    def test_hot_thermal_series_finite_to_the_grid_corner(self, n_mean):
        extent = default_extent(n_mean)
        t = np.linspace(-extent, extent, 801)
        with np.errstate(over="raise", invalid="raise"):
            series = eval_q_function(t, t, thermal_weights(n_mean))
        closed = np.exp(-2.0 * t * t / (1.0 + n_mean)) / (math.pi * (1.0 + n_mean))
        assert np.max(np.abs(series - closed)) <= 1e-14 / (math.pi * (1.0 + n_mean))


EVALUATORS = [
    lambda q, p: eval_thermal_wigner(q, p, 0.7),
    lambda q, p: eval_spats_wigner_initial(q, p, 1.0),
    lambda q, p: eval_spats_wigner_evolved(q, p, ChannelParams(0.5, 0.3), 1.0),
    lambda q, p: eval_fock_diagonal_wigner(q, p, fock(3)),
    lambda q, p: eval_fock_diagonal_wigner(q, p, spats_weights(0.5)),
    lambda q, p: eval_q_function(q, p, spats_weights(0.5)),
]


@pytest.mark.parametrize("evaluator", EVALUATORS)
def test_rotational_symmetry_is_exact(evaluator):
    for q, p in RANDOM_POINTS[:25]:
        reference = evaluator(q, p)
        assert evaluator(p, q) == reference
        assert evaluator(-q, -p) == reference


class TestWignerGrid:
    def test_constant_evaluator_unit_square(self):
        grid = sample_grid(lambda q, p: np.ones_like(q), 0.0, 1.0, 0.0, 1.0, 11, 17)
        assert grid.trapezoid_integral() == pytest.approx(1.0, abs=1e-14)

    def test_vacuum_normalization(self):
        grid = sample_grid(
            lambda q, p: eval_thermal_wigner(q, p, 0.0), -5.0, 5.0, -5.0, 5.0, 201, 201
        )
        assert grid.trapezoid_integral() == pytest.approx(1.0, abs=1e-6)

    def test_spats_normalization(self):
        grid = sample_grid(
            lambda q, p: eval_spats_wigner_initial(q, p, 1.0), -6.0, 6.0, -6.0, 6.0, 241, 241
        )
        assert grid.trapezoid_integral() == pytest.approx(1.0, abs=1e-6)

    def test_row_major_layout(self):
        grid = sample_grid(lambda q, p: q + 10.0 * p, 0.0, 1.0, 0.0, 2.0, 3, 5)
        assert grid.values[1, 0] == pytest.approx(grid.q_axis[1], abs=1e-15)
        assert grid.values[0, 2] == pytest.approx(10.0 * grid.p_axis[2], abs=1e-15)

    def test_non_broadcasting_evaluator_rejected(self):
        # the evaluator is called once on the coordinate arrays, never per point
        def scalar_only(q, p):
            return float(q) * float(p)

        with pytest.raises(TypeError):
            sample_grid(scalar_only, -1.0, 1.0, -1.0, 1.0, 5, 5)
        with pytest.raises(ValueError, match="shape"):
            sample_grid(lambda q, p: 0.5, -1.0, 1.0, -1.0, 1.0, 5, 5)

    def test_cell_area_recorded(self):
        grid = sample_grid(lambda q, p: q * 0.0, 0.0, 1.0, 0.0, 1.0, 5, 3)
        assert grid.cell_area == pytest.approx(0.25 * 0.5, abs=1e-15)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            WignerGrid(1.0, 0.0, 0.0, 1.0, 2, 2, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            WignerGrid(0.0, 1.0, 0.0, 1.0, 1, 2, np.zeros((1, 2)))
        with pytest.raises(ValueError):
            WignerGrid(0.0, 1.0, 0.0, 1.0, 2, 2, np.zeros((3, 2)))

    def test_with_values_keeps_geometry(self):
        grid = sample_grid(lambda q, p: q * 0.0, 0.0, 1.0, 0.0, 1.0, 4, 4)
        other = grid.with_values(np.ones((4, 4)))
        assert other.cell_area == grid.cell_area
        assert other.values[0, 0] == 1.0

    def test_values_immutable(self):
        grid = sample_grid(lambda q, p: q * 0.0, 0.0, 1.0, 0.0, 1.0, 4, 4)
        with pytest.raises(ValueError):
            grid.values[0, 0] = 5.0


@pytest.mark.parametrize(
    "bar_n,n,expected",
    [(0.0, 0.0, 5.0), (1.0, 0.5, 5.0 * math.sqrt(3.0)), (0.0, 2.0, 5.0 * math.sqrt(5.0))],
)
def test_default_extent(bar_n, n, expected):
    assert default_extent(bar_n, n) == pytest.approx(expected, abs=1e-12)
