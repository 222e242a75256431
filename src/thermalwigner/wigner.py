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

from .states import ChannelParams, FockDiagonalState

# Highest Fock index the Laguerre three-term recurrence is trusted for;
# larger indices are refused rather than silently degraded.
LAGUERRE_MAX_INDEX = 500

DEFAULT_GRID_POINTS = 201


@dataclass(frozen=True)
class EvolvedSpatsCoefficients:
    """Coefficients (xi, zeta, kappa) of the evolved SPATS Wigner closed form.

    xi scales the Gaussian width, zeta equals gamma_t * xi identically, and
    kappa controls the sign at the origin: the Wigner function has a negative
    disk exactly while kappa < 0.
    """

    xi: float
    zeta: float
    kappa: float


def evolved_coefficients(channel: ChannelParams, bar_n: float) -> EvolvedSpatsCoefficients:
    """Closed-form coefficients of the SPATS Wigner function after decay.

    At gamma_t = 0 they reduce to xi = 1 + 2*bar_n, zeta = 0,
    kappa = -(4*bar_n + 2); kappa crosses zero at the threshold decay time
    ln((2+2n)/(1+2n)) for every bar_n.
    """
    if not (math.isfinite(bar_n) and bar_n >= 0.0):
        raise ValueError(f"bar_n must be finite and >= 0, got {bar_n}")
    gt = channel.gamma_t
    u = math.exp(gt)
    dn = bar_n - channel.n
    m = 1.0 + 2.0 * channel.n
    xi = 2.0 * dn + m * u
    zeta = 2.0 * dn * gt + m * gt * u
    kappa = -8.0 * dn * (1.0 + channel.n) + 2.0 * m * m * u * u + 4.0 * (bar_n * m - m * m) * u
    return EvolvedSpatsCoefficients(xi=xi, zeta=zeta, kappa=kappa)


def eval_thermal_wigner(q, p, n_mean: float):
    """Thermal-state Wigner function 2/(pi*(1+2n)) * exp(-2 r^2/(1+2n))."""
    if not (math.isfinite(n_mean) and n_mean >= 0.0):
        raise ValueError(f"n_mean must be finite and >= 0, got {n_mean}")
    r2 = np.square(q) + np.square(p)
    m = 1.0 + 2.0 * n_mean
    return 2.0 / (math.pi * m) * np.exp(-2.0 * r2 / m)


def eval_spats_wigner_initial(q, p, bar_n: float):
    """Wigner function of the single photon-added thermal state before decay.

    (2/pi) * [4(1+nbar) r^2/(1+2nbar)^3 - 1/(1+2nbar)^2] * exp(-2 r^2/(1+2nbar));
    negative on the disk r < sqrt((1+2nbar)/(4+4nbar)).
    """
    if not (math.isfinite(bar_n) and bar_n >= 0.0):
        raise ValueError(f"bar_n must be finite and >= 0, got {bar_n}")
    r2 = np.square(q) + np.square(p)
    m = 1.0 + 2.0 * bar_n
    poly = 4.0 * (1.0 + bar_n) * r2 / m**3 - 1.0 / m**2
    return (2.0 / math.pi) * poly * np.exp(-2.0 * r2 / m)


def eval_spats_wigner_evolved(q, p, channel: ChannelParams, bar_n: float):
    """Wigner function of the SPATS after decay time ``channel.gamma_t``.

    Uses the closed form [kappa + 8(1+nbar) e^(gt) r^2] / (pi xi^3)
    * exp((zeta - 2 e^(gt) r^2)/xi); at gamma_t = 0 it reduces pointwise to
    :func:`eval_spats_wigner_initial`.
    """
    return _spats_evolved_evaluator(channel, bar_n)(q, p)


def _spats_evolved_evaluator(channel: ChannelParams, bar_n: float) -> Callable:
    """The (q, p) evaluator of :func:`eval_spats_wigner_evolved`, coefficients computed once."""
    c = evolved_coefficients(channel, bar_n)
    u = math.exp(channel.gamma_t)
    # hoisted in Python's left-to-right order, so they round as they would inline
    slope = 8.0 * (1.0 + bar_n) * u
    norm = math.pi * c.xi**3

    def evaluate(q, p):
        r2 = np.square(q) + np.square(p)
        amp = (c.kappa + slope * r2) / norm
        return amp * np.exp((c.zeta - 2.0 * u * r2) / c.xi)

    return evaluate


def _laguerre_series(x, coefficients: np.ndarray):
    """sum_l coefficients[l] * L_l(x) * e^(-x/2) by the three-term recurrence.

    The recurrence runs on the Laguerre functions L_l(x) e^(-x/2), which are
    bounded by 1 for x >= 0, so it cannot overflow where L_l(x) alone would.
    """
    x = np.asarray(x, dtype=float)
    prev = np.exp(-0.5 * x)
    acc = coefficients[0] * prev
    if coefficients.size == 1:
        return acc
    cur = (1.0 - x) * prev
    acc = acc + coefficients[1] * cur
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


@dataclass(frozen=True)
class WignerGrid:
    """Uniform phase-space sampling of a quasiprobability function.

    ``values[i, j]`` is the sample at (q_axis[i], p_axis[j]) (row-major in q).
    """

    q_min: float
    q_max: float
    p_min: float
    p_max: float
    n_q: int
    n_p: int
    values: np.ndarray

    def __post_init__(self):
        for name in ("q_min", "q_max", "p_min", "p_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not (self.q_min < self.q_max and self.p_min < self.p_max):
            raise ValueError("grid extents must be ordered")
        if self.n_q < 2 or self.n_p < 2:
            raise ValueError("need at least 2 points per axis")
        vals = np.array(self.values, dtype=float)
        if vals.shape != (self.n_q, self.n_p):
            raise ValueError(f"values shape {vals.shape} != ({self.n_q}, {self.n_p})")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def dq(self) -> float:
        return (self.q_max - self.q_min) / (self.n_q - 1)

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / (self.n_p - 1)

    @property
    def cell_area(self) -> float:
        """Area of one cell, from the first spacing of each sampled axis."""
        q_axis, p_axis = self.q_axis, self.p_axis
        return (q_axis[1] - q_axis[0]) * (p_axis[1] - p_axis[0])

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
        """Copy of this grid geometry carrying new sample values."""
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

    The evaluator is called once with the full (n_q, n_p) coordinate arrays
    and must broadcast over them; a result of any other shape raises
    ``ValueError``.
    """
    qs = np.linspace(q_min, q_max, n_q)
    ps = np.linspace(p_min, p_max, n_p)
    qq, pp = np.meshgrid(qs, ps, indexing="ij")
    return WignerGrid(
        q_min=q_min,
        q_max=q_max,
        p_min=p_min,
        p_max=p_max,
        n_q=n_q,
        n_p=n_p,
        values=evaluator(qq, pp),
    )


def default_extent(bar_n: float = 0.0, n: float = 0.0) -> float:
    """Half-width capturing all but ~1e-8 of the Gaussian-tailed mass."""
    return max(5.0, 5.0 * math.sqrt(1.0 + 2.0 * max(bar_n, n)))
