"""Phase-space quasiprobability evaluators and uniform sampling grids.

All evaluators take the quadrature pair (q, p) as numpy arrays (or scalars),
broadcast over them, and depend on position only through r^2 = q^2 + p^2.
The Wigner normalization is the displaced-parity convention, W(0,0) = +-2/pi
for Fock states; no alternative hbar scaling is supported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .states import ChannelParams, FockDiagonalState, _check_nonnegative

# Highest Fock index the Laguerre three-term recurrence is trusted for;
# larger indices are refused rather than silently degraded.
LAGUERRE_MAX_INDEX = 500

DEFAULT_GRID_POINTS = 201


@dataclass(frozen=True)
class EvolvedSpatsCoefficients:
    """Coefficients (xi, kappa) of the evolved SPATS Wigner closed form.

    xi scales the Gaussian width and kappa controls the sign at the origin:
    the Wigner function has a negative disk exactly while kappa < 0.  As
    kappa = 2 xi (m e^(gt) - 2(1+n)), m = 1+2n, and xi >= 1 + 2 nbar > 0,
    that sign does not depend on nbar.  The printed closed form has a third
    coefficient, zeta = 2(nbar-n) gt + (1+2n) gt e^(gt), which equals gt * xi
    identically; the evaluators use e^(zeta/xi) = e^(gt) and need only these two.
    """

    xi: float
    kappa: float


def evolved_coefficients(channel: ChannelParams, bar_n: float) -> EvolvedSpatsCoefficients:
    """Closed-form coefficients of the SPATS Wigner function after decay.

    With u = e^(gt) and m = 1+2n, xi = 2(nbar-n) + m u, and the printed
    kappa -8(nbar-n)(1+n) + 2 m^2 u^2 + 4(nbar m - m^2) u is computed as its
    factorization 2 xi (m u - 2(1+n)), which does not cancel.  The second
    factor is -(1+s) with s = -(2n+1)(u-1), the ordering parameter of Lee's
    identity (module ``threshold``); it does not involve nbar, and xi > 0, so
    kappa crosses zero at ln((2+2n)/(1+2n)) for every bar_n.  At gamma_t = 0,
    xi = 1 + 2*bar_n and kappa = -(4*bar_n + 2).
    """
    _check_nonnegative("bar_n", bar_n)
    u = math.exp(channel.gamma_t)
    dn = bar_n - channel.n
    m = 1.0 + 2.0 * channel.n
    xi = 2.0 * dn + m * u
    kappa = 2.0 * xi * (m * u - 2.0 * (1.0 + channel.n))
    return EvolvedSpatsCoefficients(xi=xi, kappa=kappa)


def eval_thermal_wigner(q, p, n_mean: float):
    """Thermal-state Wigner function 2/(pi*(1+2n)) * exp(-2 r^2/(1+2n))."""
    _check_nonnegative("n_mean", n_mean)
    r2 = np.square(q) + np.square(p)
    m = 1.0 + 2.0 * n_mean
    return 2.0 / (math.pi * m) * np.exp(-2.0 * r2 / m)


def eval_spats_wigner_initial(q, p, bar_n: float):
    """Wigner function of the single photon-added thermal state before decay.

    (2/pi) * [4(1+nbar) r^2/(1+2nbar)^3 - 1/(1+2nbar)^2] * exp(-2 r^2/(1+2nbar));
    negative on the disk r < sqrt((1+2nbar)/(4+4nbar)).
    """
    _check_nonnegative("bar_n", bar_n)
    r2 = np.square(q) + np.square(p)
    m = 1.0 + 2.0 * bar_n
    poly = 4.0 * (1.0 + bar_n) * r2 / m**3 - 1.0 / m**2
    return (2.0 / math.pi) * poly * np.exp(-2.0 * r2 / m)


def eval_spats_wigner_evolved(q, p, channel: ChannelParams, bar_n: float):
    """Wigner function of the SPATS after decay time ``channel.gamma_t``.

    Uses the closed form e^(gt) [kappa + 8(1+nbar) e^(gt) r^2] / (pi xi^3)
    * exp(-2 e^(gt) r^2/xi), the printed form with its factor e^(zeta/xi)
    = e^(gt) moved into the amplitude; at gamma_t = 0 it reduces pointwise
    to :func:`eval_spats_wigner_initial`.
    """
    return _spats_evolved_evaluator(channel, bar_n)(q, p)


def _spats_evolved_evaluator(channel: ChannelParams, bar_n: float) -> Callable:
    """The (q, p) evaluator of :func:`eval_spats_wigner_evolved`, coefficients computed once."""
    c = evolved_coefficients(channel, bar_n)
    u = math.exp(channel.gamma_t)
    # hoisted in Python's left-to-right order, so they round as they would inline
    slope = 8.0 * (1.0 + bar_n) * u
    norm = math.pi * c.xi**3
    if not math.isfinite(norm):  # pi * xi**3 goes inf silently; xi**3 raises from 2.8e102
        raise OverflowError(f"pi xi^3 overflows at xi = {c.xi}")

    def evaluate(q, p):
        r2 = np.square(q) + np.square(p)
        # u = 1 at gamma_t = 0 leaves every operation on u exact
        return u * ((c.kappa + slope * r2) / norm) * np.exp(-2.0 * u * r2 / c.xi)

    return evaluate


def _laguerre_series(x, coefficients: np.ndarray):
    """sum_l coefficients[l] * L_l(x) * e^(-x/2) by the three-term recurrence.

    The recurrence runs on the Laguerre functions L_l(x) e^(-x/2), which are
    bounded by 1 for x >= 0, so it cannot overflow where L_l(x) alone would.
    There are at least 2 coefficients: a state's cutoff is at least 1.
    """
    x = np.asarray(x, dtype=float)
    prev = np.exp(-0.5 * x)
    cur = (1.0 - x) * prev
    acc = coefficients[0] * prev + coefficients[1] * cur
    for k in range(1, coefficients.size - 1):
        prev, cur = cur, ((2.0 * k + 1.0 - x) * cur - k * prev) / (k + 1.0)
        acc = acc + coefficients[k + 1] * cur
    return acc


def eval_fock_diagonal_wigner(q, p, state: FockDiagonalState):
    """Wigner function of a Fock-diagonal state: sum_l p_l W_{|l>}(q, p).

    The Fock state |l> has W_{|l>} = (2/pi)(-1)^l L_l(4 r^2) e^(-2 r^2); pass a
    one-hot state for it (a cutoff is at least 1, so |0> is weights [1, 0]).
    """
    if state.cutoff > LAGUERRE_MAX_INDEX:
        raise ValueError(
            f"state cutoff {state.cutoff} exceeds the Laguerre recurrence bound "
            f"{LAGUERRE_MAX_INDEX}"
        )
    r2 = np.square(q) + np.square(p)
    signs = (-1.0) ** np.arange(state.weights.size)
    return (2.0 / math.pi) * _laguerre_series(4.0 * r2, signs * state.weights)


def eval_q_function(q, p, state: FockDiagonalState):
    """Husimi Q function (1/pi) <alpha|rho|alpha> with alpha = q + i p.

    For Fock-diagonal states this is (1/pi) e^(-r^2) sum_l p_l r^(2l)/l!,
    which is non-negative everywhere and vanishes at the origin exactly when
    the vacuum population is zero.
    """
    r2 = np.asarray(np.square(q) + np.square(p), dtype=float)
    # the Poisson terms e^(-r^2) r^(2l)/l! stay below 1 where r^(2l)/l! overflows
    term = np.exp(-r2)
    acc = state.weights[0] * term
    for l in range(1, state.weights.size):
        term = term * r2 / l
        acc = acc + state.weights[l] * term
    return acc / math.pi


def _checked(values, shape: tuple) -> np.ndarray:
    """Evaluator output as a float array, which must have the broadcast shape of its inputs."""
    values = np.asarray(values, dtype=float)
    if values.shape != shape:
        raise ValueError(
            f"evaluator returned shape {values.shape} where its inputs broadcast to {shape}; "
            "evaluators must broadcast over numpy arrays"
        )
    return values


@dataclass(frozen=True)
class WignerGrid:
    """Uniform phase-space sampling of a quasiprobability function.

    ``values[i, j]`` is the sample at (q_axis[i], p_axis[j]) (row-major in q);
    its shape (n_q, n_p), at least 2 points per axis, fixes the axes.
    """

    q_min: float
    q_max: float
    p_min: float
    p_max: float
    values: np.ndarray

    def __post_init__(self):
        for name in ("q_min", "q_max", "p_min", "p_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not (self.q_min < self.q_max and self.p_min < self.p_max):
            raise ValueError("grid extents must be ordered")
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 2 or min(vals.shape) < 2:
            raise ValueError(f"need 2-D values with at least 2 points per axis, got {vals.shape}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n_q(self) -> int:
        return self.values.shape[0]

    @property
    def n_p(self) -> int:
        return self.values.shape[1]

    @property
    def dq(self) -> float:
        return (self.q_max - self.q_min) / (self.n_q - 1)

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / (self.n_p - 1)

    @property
    def q_axis(self) -> np.ndarray:
        return np.linspace(self.q_min, self.q_max, self.n_q)

    @property
    def p_axis(self) -> np.ndarray:
        return np.linspace(self.p_min, self.p_max, self.n_p)

    def trapezoid_integral(self) -> float:
        """Trapezoidal integral of the sampled values over the full extent."""
        return float(np.trapezoid(np.trapezoid(self.values, self.p_axis, axis=1), self.q_axis))

    def with_values(self, values: np.ndarray) -> "WignerGrid":
        """Copy of this grid geometry, shape included, carrying new sample values."""
        if np.shape(values) != self.values.shape:
            raise ValueError(f"values shape {np.shape(values)} != grid shape {self.values.shape}")
        return replace(self, values=values)


def sample_grid(
    evaluator: Callable,
    q_min: float,
    q_max: float,
    p_min: float,
    p_max: float,
    n_q: int,
    n_p: int,
) -> WignerGrid:
    """Sample ``evaluator(q, p)`` on a uniform grid.

    The evaluator is called once, on a column of q values of shape (n_q, 1)
    and a row of p values of shape (1, n_p), and must return their broadcast
    shape (n_q, n_p); a result of any other shape raises ``ValueError``.
    """
    qs = np.linspace(q_min, q_max, n_q)
    ps = np.linspace(p_min, p_max, n_p)
    values = _checked(evaluator(qs[:, None], ps[None, :]), (n_q, n_p))
    return WignerGrid(q_min=q_min, q_max=q_max, p_min=p_min, p_max=p_max, values=values)


def default_extent(bar_n: float = 0.0, n: float = 0.0) -> float:
    """Half-width capturing all but ~1e-8 of the Gaussian-tailed mass."""
    return max(5.0, 5.0 * math.sqrt(1.0 + 2.0 * max(bar_n, n)))
