"""Fock-diagonal density operators and their evolution in a thermal channel.

States are photon-number mixtures rho = sum_l p_l |l><l|.  This family is
closed under the damped-oscillator master equation with a thermal bath, whose
diagonal part is the birth-death rate system

    dp_l/d(gamma*t) = (n+1) [(l+1) p_{l+1} - l p_l] + n [l p_{l-1} - (l+1) p_l].

``evolve_fock_diagonal`` solves it exactly: the channel factors into pure loss
followed by a quantum-limited amplifier, which act on populations as a
binomial and a negative-binomial matrix.  The output Fock cutoff is the
smallest level whose dropped tail mass is below the caller's ``step_tol``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

DEFAULT_TAIL_TOL = 1e-12


def _check_nonnegative(name: str, value: float) -> None:
    """Refuse a parameter that is not a finite number >= 0, naming it."""
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class ChannelParams:
    """Thermal dissipative channel.

    Parameters
    ----------
    n : float
        Mean thermal photon number of the bath; ``n = 0`` is the pure
        photon-loss channel.
    gamma_t : float
        Dimensionless decay time (dissipation rate times elapsed time).
    """

    n: float
    gamma_t: float

    def __post_init__(self):
        _check_nonnegative("channel n", self.n)
        _check_nonnegative("gamma_t", self.gamma_t)


@dataclass(frozen=True)
class FockDiagonalState:
    """Photon-number-diagonal state: ``weights[l]`` is the population of |l>.

    The retained weights account for all but ``tail_tol`` of the unit mass;
    the cutoff (highest retained index) is ``len(weights) - 1`` and is at
    least 1.  Instances are immutable values.
    """

    weights: np.ndarray
    tail_tol: float = DEFAULT_TAIL_TOL

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 2:
            raise ValueError("weights must be 1-D with cutoff >= 1")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if w.min() < 0.0:
            raise ValueError(f"negative population: min weight = {w.min():.3e}")
        total = float(w.sum())
        if not (1.0 - self.tail_tol <= total <= 1.0 + self.tail_tol):
            raise ValueError(
                f"weights sum to {total!r}, outside 1 +/- {self.tail_tol:g}"
            )
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def cutoff(self) -> int:
        return self.weights.size - 1


def _geometric_ratio(name: str, occupancy: float) -> float:
    """x = n/(1+n); ``ValueError`` where x rounds to 1, whose moment tails never fall."""
    _check_nonnegative(name, occupancy)
    x = occupancy / (1.0 + occupancy)
    if x == 1.0:
        raise ValueError(f"{name} = {occupancy} rounds n/(1+n) to 1: no cutoff exists")
    return x


def _cutoff(moment_tail: Callable[[int], float]) -> int:
    """Least L >= 1 whose first-moment tail sum_{l>L} l p_l is below ``DEFAULT_TAIL_TOL``.

    Every dropped level has l >= L + 1 >= 2, so the moment tail is at least
    twice the dropped mass sum_{l>L} p_l, which is then below the tolerance too.
    """
    cutoff = 1
    while moment_tail(cutoff) >= DEFAULT_TAIL_TOL:
        cutoff += 1
    return cutoff


def _spats_tail_moment(cutoff: int, x: float, bar_n: float) -> float:
    """First-moment mass sum_{l>L} l p_l of the photon-added thermal weights, x = nbar/(1+nbar).

    x^(L+1) (1+nbar)^2 / nbar = x^L (1+nbar): no division by nbar, and 0 at nbar = 0.
    """
    one_minus_x = 1.0 / (1.0 + bar_n)
    poly = cutoff**2 * one_minus_x**2 + 2.0 * cutoff * one_minus_x + 1.0 + x
    return x**cutoff * poly * (1.0 + bar_n)


def spats_weights(bar_n: float) -> FockDiagonalState:
    """Populations of the single photon-added thermal state (SPATS).

    p_l = l * nbar^(l-1) / (1 + nbar)^(l+1) for l >= 1 and p_0 = 0, where
    ``bar_n`` is the mean photon number of the thermal seed.  ``bar_n = 0``
    gives exactly the one-photon Fock state.  The cutoff is the smallest
    index at which the tail of the first moment falls below
    ``DEFAULT_TAIL_TOL`` = 1e-12; the tail mass, at most half of it, is then
    below 1e-12 too, and the truncated mean photon number is accurate to 1e-12.
    The cutoff grows like nbar ln(1e12 nbar); from nbar of about 1e16 on,
    where nbar/(1+nbar) rounds to 1, ``ValueError`` is raised instead.
    """
    x = _geometric_ratio("bar_n", bar_n)
    cutoff = _cutoff(lambda L: _spats_tail_moment(L, x, bar_n))
    # l x^(l-1) / (1+nbar)^2 with x = nbar/(1+nbar) < 1: no power overflows
    l = np.arange(1, cutoff + 1, dtype=float)
    w = np.zeros(cutoff + 1)
    w[1:] = l * x ** (l - 1.0) / (1.0 + bar_n) ** 2
    return FockDiagonalState(w)


def thermal_weights(n_mean: float) -> FockDiagonalState:
    """Bose-Einstein populations p_l = n^l / (1+n)^(l+1) of a thermal state.

    The cutoff is the smallest index L at which the first-moment tail
    x^(L+1) ((L+1) - L x) (1+n), x = n/(1+n), falls below
    ``DEFAULT_TAIL_TOL`` = 1e-12, so the truncated mean photon number stays
    accurate; the geometric tail mass x^(L+1), at most half of it, is then
    below 1e-12 too.  ``n_mean = 0`` gives the vacuum, weights [1, 0].  The
    cutoff grows like n ln(1e12 n); from n of about 1e16 on, where n/(1+n)
    rounds to 1, ``ValueError`` is raised instead.
    """
    x = _geometric_ratio("n_mean", n_mean)
    cutoff = _cutoff(lambda L: x ** (L + 1) * ((L + 1) - L * x) * (1.0 + n_mean))
    l = np.arange(cutoff + 1, dtype=float)
    w = x ** l / (1.0 + n_mean)
    return FockDiagonalState(w)


def mean_photon(state: FockDiagonalState) -> float:
    """Mean photon number sum_l l p_l of the retained weights."""
    l = np.arange(state.weights.size, dtype=float)
    return float(np.dot(l, state.weights))


def vacuum_population(state: FockDiagonalState) -> float:
    """Population p_0 of the vacuum component."""
    return float(state.weights[0])


def random_zero_vacuum_state(rng_seed: int, cutoff: int) -> FockDiagonalState:
    """Reproducible random state with exactly zero vacuum population.

    Weights on indices 1..cutoff are squared unit-normal draws, normalized to
    unit sum; they are strictly positive with probability one and fully
    determined by ``rng_seed``.
    """
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    rng = np.random.default_rng(rng_seed)
    draws = rng.normal(size=cutoff) ** 2
    w = np.zeros(cutoff + 1)
    w[1:] = draws / draws.sum()
    return FockDiagonalState(w, tail_tol=DEFAULT_TAIL_TOL)


def _binomial_rows(p: float, width: int):
    """Yield the Binomial(j, p) pmfs on 0..width-1 for j = 0, 1, 2, ...

    Pascal's rule ``P_j(m) = (1-p) P_{j-1}(m) + p P_{j-1}(m-1)`` mixes
    non-negative numbers only, so no entry overflows, cancels or goes
    negative.  Truncating the rows at ``width`` leaves the retained entries
    exact, since entry m depends only on entries m and m-1 of the row above.
    """
    row = np.zeros(width)
    row[0] = 1.0
    while True:
        yield row
        nxt = (1.0 - p) * row
        nxt[1:] += p * row[:-1]
        row = nxt


def evolve_fock_diagonal(
    state: FockDiagonalState,
    channel: ChannelParams,
    step_tol: float = 1e-10,
) -> FockDiagonalState:
    """Evolve a Fock-diagonal state through the thermal channel.

    Applies the exact channel map.  With eta = e^{-gamma_t} and
    N = n (1 - eta), the thermal attenuator is a pure-loss channel of
    transmissivity tau = eta / (1 + N) followed by a quantum-limited
    amplifier of gain 1 + N (Caruso, Giovannetti & Holevo, NJP 8, 310
    (2006)).  On populations the loss step is the binomial matrix
    C(l, m) tau^m (1-tau)^(l-m) and the amplifier step the negative-binomial
    matrix C(k, m) (1-a)^(m+1) a^(k-m) with a = N / (1 + N).  Both matrices
    are non-negative, so the evolved populations are too, and the map solves
    the birth-death rate system of the module docstring exactly.

    The output cutoff is the smallest level K whose dropped mass,
    the exact amplifier tail sum_m q_m P(Binomial(K+1, 1-a) <= m) over the
    lossy populations q, is below ``step_tol``; the result therefore carries
    ``tail_tol = state.tail_tol + step_tol`` (at least ``DEFAULT_TAIL_TOL``).
    """
    if not (0.0 < step_tol <= 1e-3):
        raise ValueError(f"step_tol must be in (0, 1e-3], got {step_tol}")
    gamma_t = channel.gamma_t
    if gamma_t == 0.0:
        return state

    eta = math.exp(-gamma_t)
    noise = channel.n * -math.expm1(-gamma_t)
    tau = eta / (1.0 + noise)
    a = noise / (1.0 + noise)

    size = state.weights.size
    loss = np.empty((size, size))
    for target, row in zip(loss, _binomial_rows(tau, size)):
        target[:] = row
    lossy = state.weights @ loss
    # The amplifier sends level m to level k with probability
    # (1-a) P(Binomial(k, 1-a) = m), and above level k with probability
    # P(Binomial(k+1, 1-a) <= m); summed over m, the latter weighs each
    # Binomial(k+1, 1-a) outcome j with the lossy mass at or above j.
    lossy_at_or_above = np.cumsum(lossy[::-1])[::-1]
    rows = _binomial_rows(1.0 - a, size)
    row = next(rows)
    out = []
    while True:
        out.append((1.0 - a) * (row @ lossy))
        row = next(rows)
        # a state keeps at least levels 0 and 1
        if len(out) >= 2 and row @ lossy_at_or_above < step_tol:
            break

    tail_tol = max(state.tail_tol + step_tol, DEFAULT_TAIL_TOL)
    return FockDiagonalState(np.array(out), tail_tol=tail_tol)
