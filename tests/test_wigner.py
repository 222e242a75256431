import dataclasses
import decimal
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
    threshold_spats,
)
from thermalwigner.wigner import _laguerre_series

RNG = np.random.default_rng(2024)
RANDOM_POINTS = RNG.uniform(-4.0, 4.0, size=(100, 2))


def printed_zeta(channel, bar_n):
    """The printed closed form's zeta = 2(nbar-n) gt + (1+2n) gt e^(gt)."""
    gt, n = channel.gamma_t, channel.n
    return 2.0 * (bar_n - n) * gt + (1.0 + 2.0 * n) * gt * math.exp(gt)


def kappa_error_ratio(n, bar_n, gamma_t):
    """|kappa - printed kappa| / (2 xi (m e^(gt) + 2(1+n))), the reference in 50-digit decimals.

    The printed kappa is -8(nbar-n)(1+n) + 2 m^2 e^(2gt) + 4(nbar m - m^2) e^(gt),
    m = 1+2n, evaluated at the exact float inputs; the scale bounds the size of
    the terms of kappa's factorization.
    """
    library = evolved_coefficients(ChannelParams(n, gamma_t), bar_n).kappa
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        n, b = decimal.Decimal(n), decimal.Decimal(bar_n)
        u = decimal.Decimal(gamma_t).exp()
        m = 1 + 2 * n
        dn = b - n
        printed = -8 * dn * (1 + n) + 2 * m * m * u * u + 4 * (b * m - m * m) * u
        scale = 2 * (2 * dn + m * u) * (m * u + 2 * (1 + n))
        return float(abs(decimal.Decimal(library) - printed) / scale)


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
        assert c.kappa == pytest.approx(-(4.0 * bar_n + 2.0), abs=1e-12)

    def test_only_xi_and_kappa_are_stored(self):
        c = evolved_coefficients(ChannelParams(0.5, 0.3), 1.0)
        assert dataclasses.asdict(c) == {"xi": c.xi, "kappa": c.kappa}

    @pytest.mark.parametrize("bar_n", [0.0, 1.0, 10.0])
    @pytest.mark.parametrize("n", [0.0, 0.5, 1.0])
    def test_kappa_vanishes_at_threshold(self, bar_n, n):
        gt_c = math.log((2.0 + 2.0 * n) / (1.0 + 2.0 * n))
        c = evolved_coefficients(ChannelParams(n, gt_c), bar_n)
        assert abs(c.kappa) < 1e-12

    @pytest.mark.parametrize("seed", range(20))
    def test_zeta_is_gamma_t_times_xi(self, seed):
        # the printed third coefficient, which the library folds into e^(gt)
        rng = np.random.default_rng(seed)
        bar_n = float(rng.uniform(0.0, 5.0))
        n = float(rng.uniform(0.0, 2.0))
        gt = float(rng.uniform(0.0, 3.0))
        zeta = printed_zeta(ChannelParams(n, gt), bar_n)
        c = evolved_coefficients(ChannelParams(n, gt), bar_n)
        assert abs(zeta - gt * c.xi) < 1e-12 * max(1.0, abs(zeta))

    @pytest.mark.parametrize("bar_n", [0.0, 0.5, 1.0, 5.0])
    @pytest.mark.parametrize("gt", [0.0, 0.1, 0.5, 2.0])
    def test_xi_lower_bound(self, bar_n, gt):
        for n in (0.0, 0.5, 2.0):
            c = evolved_coefficients(ChannelParams(n, gt), bar_n)
            assert c.xi >= 1.0 + 2.0 * bar_n - 1e-14

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(n=st.floats(0.0, 10.0), bar_n=st.floats(0.0, 30.0), gamma_t=st.floats(0.0, 2.0))
    def test_kappa_matches_printed_polynomial(self, n, bar_n, gamma_t):
        assert kappa_error_ratio(n, bar_n, gamma_t) <= 1e-15

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(n=st.floats(0.0, 10.0), bar_n=st.floats(0.0, 30.0), offset=st.floats(-1e-3, 1e-3))
    def test_kappa_matches_printed_polynomial_near_threshold(self, n, bar_n, offset):
        # the printed polynomial cancels here; its factorization does not
        gamma_t = threshold_spats(n) * (1.0 + offset)
        assert kappa_error_ratio(n, bar_n, gamma_t) <= 1e-15


class TestSpatsWignerEvolved:
    LATTICE = [0.0, 3.0 / 7.0, 0.5, 1.0, 5.0]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        bar_n=st.floats(0.0, 10.0),
        n=st.floats(0.0, 5.0),
        gamma_t=st.floats(0.0, 5.0),
    )
    def test_matches_printed_zeta_form(self, bar_n, n, gamma_t):
        # [kappa + 8(1+nbar) e^(gt) r^2] / (pi xi^3) * exp((zeta - 2 e^(gt) r^2)/xi)
        channel = ChannelParams(n, gamma_t)
        c = evolved_coefficients(channel, bar_n)
        zeta = printed_zeta(channel, bar_n)
        u = math.exp(gamma_t)
        r = np.linspace(0.0, 1.5 * default_extent(bar_n, n), 50)
        r2 = r * r
        printed = (c.kappa + 8.0 * (1.0 + bar_n) * u * r2) / (math.pi * c.xi**3)
        printed = printed * np.exp((zeta - 2.0 * u * r2) / c.xi)
        library = eval_spats_wigner_evolved(r, 0.0, channel, bar_n)
        assert np.max(np.abs(library - printed)) <= 1e-13 * np.max(np.abs(printed))

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

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        bar_n=st.floats(0.0, 3.0),
        n=st.floats(0.0, 2.0),
        gamma_t=st.floats(0.0, 1.5),
    )
    def test_evolved_q_is_a_normalized_density(self, bar_n, n, gamma_t):
        evolved = evolve_fock_diagonal(
            spats_weights(bar_n), ChannelParams(n, gamma_t), step_tol=1e-11
        )
        extent = default_extent(bar_n, n)
        grid = sample_grid(
            lambda q, p: eval_q_function(q, p, evolved), -extent, extent, -extent, extent, 201, 201
        )
        assert np.all(grid.values >= 0.0)
        assert abs(grid.trapezoid_integral() - 1.0) < 1e-6

        # W of the same state integrates to its trace as well, sign changes and all
        def wigner(q, p):
            return eval_fock_diagonal_wigner(q, p, evolved)

        w_grid = sample_grid(wigner, -extent, extent, -extent, extent, 201, 201)
        assert abs(w_grid.trapezoid_integral() - 1.0) < 1e-9

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


# The evaluators before they computed in place, one expression each: the
# in-place forms must give the same bits, dtype and scalar-or-array type.
def formula_thermal(q, p, n_mean):
    r2 = np.square(q) + np.square(p)
    m = 1.0 + 2.0 * n_mean
    return 2.0 / (math.pi * m) * np.exp(-2.0 * r2 / m)


def formula_initial(q, p, bar_n):
    r2 = np.square(q) + np.square(p)
    m = 1.0 + 2.0 * bar_n
    poly = 4.0 * (1.0 + bar_n) * r2 / m**3 - 1.0 / m**2
    return (2.0 / math.pi) * poly * np.exp(-2.0 * r2 / m)


def formula_evolved(q, p, channel, bar_n):
    c = evolved_coefficients(channel, bar_n)
    u = math.exp(channel.gamma_t)
    slope = 8.0 * (1.0 + bar_n) * u
    norm = math.pi * c.xi**3
    r2 = np.square(q) + np.square(p)
    return u * ((c.kappa + slope * r2) / norm) * np.exp(-2.0 * u * r2 / c.xi)


def formula_laguerre_series(x, coefficients):
    x = np.asarray(x, dtype=float)
    prev = np.exp(-0.5 * x)
    cur = (1.0 - x) * prev
    acc = coefficients[0] * prev + coefficients[1] * cur
    for k in range(1, coefficients.size - 1):
        prev, cur = cur, ((2.0 * k + 1.0 - x) * cur - k * prev) / (k + 1.0)
        acc = acc + coefficients[k + 1] * cur
    return acc


def formula_fock_diagonal(q, p, state):
    r2 = np.square(q) + np.square(p)
    signs = (-1.0) ** np.arange(state.weights.size)
    return (2.0 / math.pi) * formula_laguerre_series(4.0 * r2, signs * state.weights)


def formula_q(q, p, state):
    r2 = np.asarray(np.square(q) + np.square(p), dtype=float)
    term = np.exp(-r2)
    acc = state.weights[0] * term
    for l in range(1, state.weights.size):
        term = term * r2 / l
        acc = acc + state.weights[l] * term
    return acc / math.pi


def assert_same_bits(new, old):
    assert type(new) is type(old)
    new, old = np.asarray(new), np.asarray(old)
    assert new.dtype == old.dtype and new.shape == old.shape
    assert np.array_equal(new, old) and new.tobytes() == old.tobytes()


LAYOUTS = ("column-row", "row-column", "planes", "array-float", "floats", "0-d")


def points(layout, seed, extent):
    """A (q, p) pair in one of the ways callers pass them."""
    rng = np.random.default_rng(seed)
    q, p = rng.uniform(-extent, extent, size=(2, 7))
    if layout == "column-row":
        return q[:, None], p[None, :5]
    if layout == "row-column":
        return q[None, :], p[:5, None]
    if layout == "planes":
        return tuple(np.meshgrid(q, p, indexing="ij"))
    if layout == "array-float":
        return q, float(p[0])
    if layout == "floats":
        return float(q[0]), float(p[0])
    return np.array(q[0]), np.array(p[0])


def random_fock_state(seed, cutoff):
    weights = np.random.default_rng(seed).random(cutoff + 1)
    return FockDiagonalState(weights / weights.sum())


class TestInPlaceEvaluation:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        layout=st.sampled_from(LAYOUTS),
        seed=st.integers(0, 2**32 - 1),
        extent=st.floats(0.1, 12.0),
        bar_n=st.floats(0.0, 3.0),
        n=st.floats(0.0, 2.0),
        gamma_t=st.floats(0.0, 1.5),
    )
    def test_closed_forms_match_their_formulas_bitwise(
        self, layout, seed, extent, bar_n, n, gamma_t
    ):
        q, p = points(layout, seed, extent)
        assert_same_bits(eval_thermal_wigner(q, p, n), formula_thermal(q, p, n))
        assert_same_bits(eval_spats_wigner_initial(q, p, bar_n), formula_initial(q, p, bar_n))
        channel = ChannelParams(n, gamma_t)
        assert_same_bits(
            eval_spats_wigner_evolved(q, p, channel, bar_n),
            formula_evolved(q, p, channel, bar_n),
        )

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        layout=st.sampled_from(LAYOUTS),
        seed=st.integers(0, 2**32 - 1),
        extent=st.floats(0.1, 12.0),
        cutoff=st.integers(1, 60),
    )
    def test_fock_series_match_their_formulas_bitwise(self, layout, seed, extent, cutoff):
        q, p = points(layout, seed, extent)
        state = random_fock_state(seed, cutoff)
        assert_same_bits(eval_fock_diagonal_wigner(q, p, state), formula_fock_diagonal(q, p, state))
        assert_same_bits(eval_q_function(q, p, state), formula_q(q, p, state))
        x = 4.0 * (np.square(q) + np.square(p))
        if layout in ("floats", "0-d"):
            x = float(x) if layout == "floats" else np.array(x)
        signed = state.weights * (-1.0) ** np.arange(cutoff + 1)
        assert_same_bits(_laguerre_series(x, signed), formula_laguerre_series(x, signed))

    @pytest.mark.parametrize("layout", ["column-row", "planes", "array-float"])
    @pytest.mark.parametrize("evaluator", EVALUATORS)
    def test_inputs_are_not_written(self, evaluator, layout):
        q, p = points(layout, 7, 4.0)
        q, p = np.array(q), np.array(p)
        before = q.copy(), p.copy()
        for a in (q, p):
            a.setflags(write=False)  # a write would raise
        evaluator(q, p)
        assert np.array_equal(q, before[0]) and np.array_equal(p, before[1])

    def test_laguerre_series_does_not_write_its_argument(self):
        x = np.linspace(0.0, 40.0, 9)
        x.setflags(write=False)
        _laguerre_series(x, spats_weights(1.0).weights)
        assert np.array_equal(x, np.linspace(0.0, 40.0, 9))

    @pytest.mark.parametrize("evaluator", EVALUATORS)
    def test_python_floats_give_a_numpy_float(self, evaluator):
        assert type(evaluator(0.3, -1.2)) is np.float64
        assert type(evaluator(np.array(0.3), np.array(-1.2))) is np.float64

    @pytest.mark.parametrize("layout", ["column-row", "planes"])
    @pytest.mark.parametrize("evaluator", EVALUATORS)
    def test_integer_arrays_give_float64(self, evaluator, layout):
        q, p = points(layout, 11, 4.0)
        q, p = np.round(q).astype(np.int64), np.round(p).astype(np.int64)
        values = evaluator(q, p)
        assert values.dtype == np.float64
        assert_same_bits(values, evaluator(q.astype(float), p.astype(float)))


class TestWignerGrid:
    def test_constant_evaluator_unit_square(self):
        grid = sample_grid(lambda q, p: np.ones_like(q * p), 0.0, 1.0, 0.0, 1.0, 11, 17)
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

    def test_evaluator_gets_a_column_and_a_row(self):
        shapes = []

        def evaluator(q, p):
            shapes.append((q.shape, p.shape))
            return q + p

        grid = sample_grid(evaluator, 0.0, 1.0, 0.0, 2.0, 3, 5)
        assert shapes == [((3, 1), (1, 5))]
        assert (grid.n_q, grid.n_p) == (3, 5)

    def test_non_broadcasting_evaluator_rejected(self):
        # the evaluator is called once on the coordinate arrays, never per point
        def scalar_only(q, p):
            return float(q) * float(p)

        with pytest.raises(TypeError):
            sample_grid(scalar_only, -1.0, 1.0, -1.0, 1.0, 5, 5)
        with pytest.raises(ValueError, match="shape"):
            sample_grid(lambda q, p: 0.5, -1.0, 1.0, -1.0, 1.0, 5, 5)
        with pytest.raises(ValueError, match="broadcast"):
            sample_grid(lambda q, p: np.exp(-q * q), -1.0, 1.0, -1.0, 1.0, 5, 5)

    def test_transposed_result_rejected(self):
        with pytest.raises(ValueError, match=r"\(5, 3\) where its inputs broadcast to \(3, 5\)"):
            sample_grid(lambda q, p: (q + p).T, 0.0, 1.0, 0.0, 2.0, 3, 5)

    def test_cell_area_recorded(self):
        grid = sample_grid(lambda q, p: q * p * 0.0, 0.0, 1.0, 0.0, 1.0, 5, 3)
        assert grid.dq * grid.dp == pytest.approx(0.25 * 0.5, abs=1e-15)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            WignerGrid(1.0, 0.0, 0.0, 1.0, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            WignerGrid(0.0, 1.0, 0.0, 1.0, np.zeros((1, 2)))
        with pytest.raises(ValueError):
            WignerGrid(0.0, 1.0, 0.0, 1.0, np.zeros(4))
        with pytest.raises(ValueError):
            sample_grid(lambda q, p: q * p, 0.0, 1.0, 0.0, 1.0, 2, 1)

    def test_shape_comes_from_the_values(self):
        grid = WignerGrid(0.0, 1.0, -1.0, 1.0, np.zeros((3, 5)))
        assert (grid.n_q, grid.n_p) == (3, 5)
        assert (grid.dq, grid.dp) == (0.5, 0.5)
        assert grid.q_axis.tolist() == [0.0, 0.5, 1.0]

    def test_with_values_keeps_geometry(self):
        grid = sample_grid(lambda q, p: q * p * 0.0, 0.0, 1.0, 0.0, 1.0, 4, 4)
        other = grid.with_values(np.ones((4, 4)))
        assert (other.q_min, other.q_max, other.p_min, other.p_max) == (0.0, 1.0, 0.0, 1.0)
        assert (other.dq, other.dp) == (grid.dq, grid.dp)
        assert other.values[0, 0] == 1.0
        with pytest.raises(ValueError, match="grid shape"):
            grid.with_values(np.ones((4, 5)))

    def test_values_immutable(self):
        grid = sample_grid(lambda q, p: q * p * 0.0, 0.0, 1.0, 0.0, 1.0, 4, 4)
        with pytest.raises(ValueError):
            grid.values[0, 0] = 5.0


@pytest.mark.parametrize(
    "bar_n,n,expected",
    [(0.0, 0.0, 5.0), (1.0, 0.5, 5.0 * math.sqrt(3.0)), (0.0, 2.0, 5.0 * math.sqrt(5.0))],
)
def test_default_extent(bar_n, n, expected):
    assert default_extent(bar_n, n) == pytest.approx(expected, abs=1e-12)
