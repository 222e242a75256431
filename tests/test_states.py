import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from thermalwigner import (
    ChannelParams,
    FockDiagonalState,
    NonConvergenceError,
    evolve_fock_diagonal,
    mean_photon,
    random_zero_vacuum_state,
    spats_weights,
    thermal_weights,
    vacuum_population,
)


def birth_death_rhs(p, n):
    """dp_l/d(gt) = (n+1)[(l+1)p_{l+1} - l p_l] + n[l p_{l-1} - (l+1)p_l]."""
    l = np.arange(p.size, dtype=float)
    up = np.append(p[1:], 0.0)  # p_{l+1}
    down = np.insert(p[:-1], 0, 0.0)  # p_{l-1}
    return (n + 1.0) * ((l + 1.0) * up - l * p) + n * (l * down - (l + 1.0) * p)


def padded(weights, size):
    out = np.zeros(size)
    out[: weights.size] = weights
    return out


def brute_force_spats_mean(bar_n, terms=6000):
    """Independent series oracle: sum l^2 x^l / (nbar (nbar+1)), x = nbar/(1+nbar)."""
    if bar_n == 0.0:
        return 1.0
    x = bar_n / (1.0 + bar_n)
    l = np.arange(1, terms, dtype=float)
    return float(np.sum(l * l * x**l) / (bar_n * (bar_n + 1.0)))


class TestChannelParams:
    def test_loss_channel_is_n_zero(self):
        ch = ChannelParams(0.0, 1.0)
        assert ch.n == 0.0

    @pytest.mark.parametrize("n,gt", [(-0.1, 0.0), (0.0, -1e-9), (np.nan, 0.0), (0.0, np.inf)])
    def test_invalid_params_rejected(self, n, gt):
        with pytest.raises(ValueError):
            ChannelParams(n, gt)


class TestFockDiagonalState:
    def test_weights_are_immutable(self):
        state = thermal_weights(1.0)
        with pytest.raises(ValueError):
            state.weights[0] = 0.3

    def test_cutoff_below_one_rejected(self):
        with pytest.raises(ValueError):
            FockDiagonalState(np.array([1.0]))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            FockDiagonalState(np.array([1.1, -0.1]))

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            FockDiagonalState(np.array([0.5, 0.4]))


class TestSpatsWeights:
    def test_zero_seed_is_single_photon(self):
        state = spats_weights(0.0)
        assert state.weights[1] == 1.0
        assert state.weights[0] == 0.0
        assert np.all(state.weights[2:] == 0.0)

    def test_seed_one_first_weights(self):
        # direct evaluation of l * (1/2)^l / 2
        state = spats_weights(1.0)
        assert state.weights[1] == pytest.approx(1.0 / 4.0, abs=1e-15)
        assert state.weights[2] == pytest.approx(1.0 / 4.0, abs=1e-15)
        assert state.weights[3] == pytest.approx(3.0 / 16.0, abs=1e-15)

    def test_seed_one_normalized_at_cutoff(self):
        state = spats_weights(1.0)
        assert abs(state.weights.sum() - 1.0) < 1e-12

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            spats_weights(-0.5)

    @pytest.mark.parametrize(
        "bar_n,cutoff",
        [(0.0, 1), (0.05, 11), (3.0 / 7.0, 29), (1.0, 51), (3.0, 126), (10.0, 391), (30.0, 1171)],
    )
    def test_cutoff_pinned(self, bar_n, cutoff):
        assert spats_weights(bar_n).cutoff == cutoff

    def test_large_seed_is_finite_and_evolves(self):
        # the cutoff is 391; nbar^(l-1) / (1+nbar)^(l+1) overflows from l near 300
        state = spats_weights(10.0)
        assert abs(state.weights.sum() - 1.0) < 1e-12
        assert mean_photon(state) == pytest.approx(21.0, abs=1e-9)
        step_tol = 1e-10
        evolved = evolve_fock_diagonal(state, ChannelParams(0.5, 0.4), step_tol=step_tol)
        assert abs(evolved.weights.sum() - state.weights.sum()) < step_tol


class TestThermalWeights:
    def test_zero_is_vacuum(self):
        state = thermal_weights(0.0)
        assert state.weights.tolist() == [1.0, 0.0]

    def test_geometric_weights(self):
        state = thermal_weights(1.0)
        assert state.weights[0] == pytest.approx(0.5, abs=1e-15)
        assert state.weights[1] == pytest.approx(0.25, abs=1e-15)
        assert state.weights[2] == pytest.approx(0.125, abs=1e-15)

    @pytest.mark.parametrize("n_mean", [0.0, 0.3, 1.0, 4.5])
    def test_mean_photon_roundtrip(self, n_mean):
        assert mean_photon(thermal_weights(n_mean)) == pytest.approx(n_mean, abs=1e-10)

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            thermal_weights(-1.0)

    @pytest.mark.parametrize(
        "n_mean,cutoff", [(0.0, 1), (0.5, 28), (1.0, 45), (10.0, 351), (50.0, 1774)]
    )
    def test_cutoff_pinned(self, n_mean, cutoff):
        assert thermal_weights(n_mean).cutoff == cutoff


@pytest.mark.parametrize("weights, name", [(spats_weights, "bar_n"), (thermal_weights, "n_mean")])
def test_occupancy_without_cutoff_raises(weights, name):
    # n/(1+n) rounds to 1 here, so no moment tail falls below the tolerance
    with pytest.raises(ValueError, match=f"{name} = 1e\\+17"):
        weights(1e17)


def tails(p, cutoff):
    """(mass, first moment) of the weight formula ``p(l)`` beyond ``cutoff``, summed far past it."""
    l = np.arange(cutoff + 1, 50 * cutoff + 4000, dtype=float)
    terms = p(l)
    return math.fsum(terms), math.fsum(l * terms)


class TestCutoffRule:
    """The cutoff is the least L >= 1 whose first-moment tail is below 1e-12.

    The tails are summed from the weight formulas, not taken from the
    library's closed forms; the mass tail follows the moment tail below 1e-12.
    """

    @staticmethod
    def check(state, p):
        cutoff = state.cutoff
        mass, moment = tails(p, cutoff)
        assert mass < 1e-12 and moment < 1e-12
        if cutoff > 1:
            assert tails(p, cutoff - 1)[1] >= 1e-12

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.floats(math.log(1e-6), math.log(30.0)).map(math.exp))
    def test_spats(self, bar_n):
        x = bar_n / (1.0 + bar_n)
        self.check(spats_weights(bar_n), lambda l: l * x ** (l - 1.0) / (1.0 + bar_n) ** 2)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.floats(math.log(1e-6), math.log(30.0)).map(math.exp))
    def test_thermal(self, n_mean):
        x = n_mean / (1.0 + n_mean)
        self.check(thermal_weights(n_mean), lambda l: x**l / (1.0 + n_mean))


class TestScalarObservables:
    def test_vacuum_mean_photon(self):
        assert mean_photon(thermal_weights(0.0)) == 0.0

    @pytest.mark.parametrize("bar_n", [0.0, 3.0 / 7.0, 1.0, 5.0])
    def test_spats_mean_photon(self, bar_n):
        expected = 2.0 * bar_n + 1.0
        assert mean_photon(spats_weights(bar_n)) == pytest.approx(expected, abs=1e-10)
        assert brute_force_spats_mean(bar_n) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("bar_n", [0.0, 0.5, 1.0, 7.0])
    def test_spats_vacuum_population_is_zero(self, bar_n):
        assert vacuum_population(spats_weights(bar_n)) == 0.0

    def test_vacuum_population_values(self):
        assert vacuum_population(thermal_weights(0.0)) == 1.0
        assert vacuum_population(thermal_weights(1.0)) == pytest.approx(0.5, abs=1e-15)


class TestRandomZeroVacuumState:
    @pytest.mark.parametrize("seed", [1, 17, 123456])
    def test_vacuum_population_zero(self, seed):
        assert vacuum_population(random_zero_vacuum_state(seed, 12)) == 0.0

    def test_normalized(self):
        state = random_zero_vacuum_state(5, 20)
        assert abs(state.weights.sum() - 1.0) < 1e-12

    def test_deterministic(self):
        a = random_zero_vacuum_state(99, 12)
        b = random_zero_vacuum_state(99, 12)
        assert np.array_equal(a.weights, b.weights)

    def test_different_seeds_differ(self):
        a = random_zero_vacuum_state(1, 12)
        b = random_zero_vacuum_state(2, 12)
        assert not np.array_equal(a.weights, b.weights)

    def test_cutoff_below_one_rejected(self):
        with pytest.raises(ValueError):
            random_zero_vacuum_state(1, 0)


class TestEvolveFockDiagonal:
    def test_zero_time_is_identity(self):
        state = spats_weights(1.0)
        assert evolve_fock_diagonal(state, ChannelParams(0.5, 0.0)) is state

    @pytest.mark.parametrize("n,bar_n,gamma_t", [(0.0, 1.0, 0.7), (0.5, 2.0, 0.3), (1.0, 0.4, 1.1)])
    def test_first_moment_law(self, n, bar_n, gamma_t):
        # d<l>/d(gt) = n - <l>  =>  <l>(t) = n + (nbar - n) e^(-gt)
        state = thermal_weights(bar_n)
        evolved = evolve_fock_diagonal(state, ChannelParams(n, gamma_t))
        expected = n + (bar_n - n) * np.exp(-gamma_t)
        assert mean_photon(evolved) == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("n", [0.0, 0.5])
    def test_long_time_reaches_thermal_stationary_state(self, n):
        state = spats_weights(1.0)
        evolved = evolve_fock_diagonal(state, ChannelParams(n, 20.0))
        target = thermal_weights(n)
        size = min(evolved.weights.size, target.weights.size)
        assert np.max(np.abs(evolved.weights[:size] - target.weights[:size])) < 1e-6
        assert np.all(np.abs(evolved.weights[size:]) < 1e-6)

    @pytest.mark.parametrize("n,gamma_t", [(0.0, 0.4), (0.5, 0.4), (1.0, 1.0)])
    def test_probability_conservation(self, n, gamma_t):
        state = spats_weights(1.0)
        evolved = evolve_fock_diagonal(state, ChannelParams(n, gamma_t))
        assert abs(evolved.weights.sum() - state.weights.sum()) < 1e-9

    def test_positivity_preserved(self):
        state = random_zero_vacuum_state(3, 12)
        evolved = evolve_fock_diagonal(state, ChannelParams(0.5, 0.6))
        assert np.all(evolved.weights >= 0.0)

    @pytest.mark.parametrize("n", [0.0, 0.5])
    def test_semigroup_property(self, n):
        state = spats_weights(1.0)
        two_legs = evolve_fock_diagonal(
            evolve_fock_diagonal(state, ChannelParams(n, 0.3)), ChannelParams(n, 0.5)
        )
        one_leg = evolve_fock_diagonal(state, ChannelParams(n, 0.8))
        size = min(two_legs.weights.size, one_leg.weights.size)
        assert np.max(np.abs(two_legs.weights[:size] - one_leg.weights[:size])) < 1e-8

    def test_cutoff_enlarged_for_upward_diffusion(self):
        state = random_zero_vacuum_state(7, 12)
        evolved = evolve_fock_diagonal(state, ChannelParams(1.0, 0.5), step_tol=1e-12)
        assert evolved.cutoff > state.cutoff
        assert abs(evolved.weights.sum() - 1.0) < 1e-10

    def test_step_tol_domain(self):
        with pytest.raises(ValueError):
            evolve_fock_diagonal(spats_weights(1.0), ChannelParams(0.0, 0.1), step_tol=0.0)

    @pytest.mark.parametrize("n,gamma_t", [(0.0, 0.7), (0.5, 0.4), (1.0, 1.3)])
    def test_time_derivative_solves_birth_death_equations(self, n, gamma_t):
        state = random_zero_vacuum_state(11, 10)
        h = 1e-4

        def at(gt):
            return evolve_fock_diagonal(state, ChannelParams(n, gt), step_tol=1e-14).weights

        later, now, earlier = at(gamma_t + h), at(gamma_t), at(gamma_t - h)
        size = max(later.size, now.size, earlier.size) + 1
        slope = (padded(later, size) - padded(earlier, size)) / (2.0 * h)
        rhs = birth_death_rhs(padded(now, size), n)
        assert np.max(np.abs(slope - rhs)) < 1e-7

    @pytest.mark.parametrize(
        "state,n,gamma_t",
        [
            (spats_weights(1.0), 0.5, 0.3),
            (random_zero_vacuum_state(4, 16), 1.0, 0.8),
            (thermal_weights(2.0), 0.0, 1.5),
        ],
    )
    def test_matches_integrated_birth_death_equations(self, state, n, gamma_t):
        evolved = evolve_fock_diagonal(state, ChannelParams(n, gamma_t), step_tol=1e-12)
        # generous zero padding so the reference loses no mass through its top level
        size = max(state.weights.size, evolved.weights.size) + 40
        sol = solve_ivp(
            lambda _t, p: birth_death_rhs(p, n),
            (0.0, gamma_t),
            padded(state.weights, size),
            method="DOP853",
            rtol=1e-12,
            atol=1e-15,
        )
        assert sol.success
        reference = sol.y[:, -1]
        assert np.max(np.abs(padded(evolved.weights, size) - reference)) < 1e-10

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.floats(0.0, 2.0),
        gamma_t=st.floats(0.0, 3.0),
        split=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        cutoff=st.integers(1, 40),
    )
    def test_channel_map_properties(self, n, gamma_t, split, seed, cutoff):
        step_tol = 1e-12
        state = random_zero_vacuum_state(seed, cutoff)
        evolved = evolve_fock_diagonal(state, ChannelParams(n, gamma_t), step_tol=step_tol)
        assert np.all(evolved.weights >= 0.0)
        assert abs(evolved.weights.sum() - state.weights.sum()) < step_tol
        expected = n + (mean_photon(state) - n) * np.exp(-gamma_t)
        assert mean_photon(evolved) == pytest.approx(expected, abs=1e-9)
        first = evolve_fock_diagonal(state, ChannelParams(n, split * gamma_t), step_tol=step_tol)
        two_legs = evolve_fock_diagonal(
            first, ChannelParams(n, gamma_t - split * gamma_t), step_tol=step_tol
        )
        # each leg drops less than step_tol, and the map is an L1 contraction
        size = max(two_legs.weights.size, evolved.weights.size)
        l1 = np.sum(np.abs(padded(two_legs.weights, size) - padded(evolved.weights, size)))
        assert l1 < 3.0 * step_tol

    def test_loosely_truncated_input_state_evolves(self):
        # initial mass deficit from a coarse tail_tol must not be mistaken
        # for mass leaking through the truncation during evolution; cutting
        # the seed-2 SPATS at level 52 drops 1.3e-8 of its mass
        state = FockDiagonalState(spats_weights(2.0).weights[:53], tail_tol=1e-6)
        evolved = evolve_fock_diagonal(state, ChannelParams(0.5, 0.4), step_tol=1e-10)
        assert abs(evolved.weights.sum() - state.weights.sum()) < 1e-9
