"""Threshold decay times and the zero-vacuum-population theorem.

The Wigner function of an evolved photon-added thermal state turns
non-negative at gamma_t_c = ln((2+2n)/(1+2n)), a value set by the channel
occupancy n alone.  The same threshold governs every state with zero vacuum
population.  The channel scales W by sqrt(eta), eta = e^(-gamma_t), and
smooths it with a Gaussian of variance (1-eta)(2n+1)/4 per quadrature, while
the Husimi Q function is W smoothed with variance 1/4.  At
eta_c = e^(-gamma_t_c) = (1+2n)/(2+2n) the two smoothings coincide, so for
every n and every initial state

    W_{gamma_t_c}(r) = e^(gamma_t_c) * Q_0(e^(gamma_t_c/2) * r),

which is non-negative, and whose origin value is proportional to the initial
vacuum population (C. T. Lee, Phys. Rev. A 44, R2775 (1991)).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import ClassVar

import numpy as np

from .errors import NonConvergenceError
from .states import (
    ChannelParams,
    FockDiagonalState,
    _check_nonnegative,
    evolve_fock_diagonal,
    vacuum_population,
)
from .wigner import eval_fock_diagonal_wigner, eval_q_function, evolved_coefficients

_BRACKET_HIGH = 2.0
# Half-width at which threshold_numeric_spats stops bisecting: 34 halvings
# of [0, _BRACKET_HIGH].
BISECTION_TOL = 1e-10

# Settings of verify_zero_vacuum_theorem, the same for every caller.
STEP_TOL = 1e-12  # tail mass the Fock channel map may drop
TOL_ORIGIN = 1e-9
TOL_MIN = 1e-9
TOL_Q = 1e-9
# Radial lattice covering the square [-6, 6]^2 (corner radius 6*sqrt(2)) at
# spacing 0.0071.
RADIAL_EXTENT = 6.0 * math.sqrt(2.0)
RADIAL_POINTS = 1201


@dataclass(frozen=True)
class ThresholdReport:
    """Analytic vs numeric threshold decay time for one channel setting.

    ``method`` names the one root finder, :func:`threshold_numeric_spats`.
    """

    method: ClassVar[str] = "origin-sign-root"

    gamma_t_c_analytic: float
    gamma_t_c_numeric: float

    def __post_init__(self):
        _check_nonnegative("gamma_t_c_analytic", self.gamma_t_c_analytic)
        _check_nonnegative("gamma_t_c_numeric", self.gamma_t_c_numeric)

    @property
    def residual(self) -> float:
        return abs(self.gamma_t_c_analytic - self.gamma_t_c_numeric)

    def to_json_dict(self) -> dict:
        return {**asdict(self), "residual": self.residual, "method": self.method}


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of one zero-vacuum-population theorem check.

    ``min_w_at_threshold`` is the minimum over the radial lattice, and
    ``q_identity_residual`` the largest deviation on it from the identity
    W_{gamma_t_c}(r) = e^(gamma_t_c) * Q_0(e^(gamma_t_c/2) * r), which holds
    at every n (Lee 1991).  ``passed`` holds when the three measured numbers
    are within ``TOL_ORIGIN``, ``TOL_MIN`` and ``TOL_Q``.  ``state_family``
    records that only Fock-diagonal representatives are sampled; states with
    coherences are outside this check.
    """

    state_family: ClassVar[str] = "fock-diagonal"

    state_id: str
    n: float
    w_origin_at_threshold: float
    min_w_at_threshold: float
    q_identity_residual: float

    @property
    def passed(self) -> bool:
        return (
            abs(self.w_origin_at_threshold) < TOL_ORIGIN
            and self.min_w_at_threshold > -TOL_MIN
            and self.q_identity_residual < TOL_Q
        )

    def to_json_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed, "state_family": self.state_family}


def threshold_spats(n: float) -> float:
    """Threshold decay time ln((2+2n)/(1+2n)) = log1p(1/(1+2n)); ``ValueError`` for n > ~9e307."""
    return threshold_general(math.log(2.0), n)


def threshold_general(gamma_tc_loss: float, n: float) -> float:
    """Map a photon-loss-channel threshold to channel occupancy n.

    Returns ln((e^(gamma_tc_loss) + 2n) / (1 + 2n)); the identity map for
    n = 0 and zero whenever gamma_tc_loss is zero.  In initial-state units the
    channel smooths W with variance (2n+1)(e^(gamma_t) - 1)/4 (Lee 1991), so
    the threshold is where that reaches its n = 0 value (e^(gamma_tc_loss) - 1)/4;
    zero-vacuum states have e^(gamma_tc_loss) = 2 (:func:`threshold_spats`).
    Computed as log1p(expm1(gamma_tc_loss) / (1 + 2n)), accurate to rounding at
    any n; ``ValueError`` names an argument at which expm1 or 1 + 2n overflows.
    """
    _check_nonnegative("gamma_tc_loss", gamma_tc_loss)
    _check_nonnegative("n", n)
    try:
        excess = math.expm1(gamma_tc_loss)
    except OverflowError:
        raise ValueError(f"gamma_tc_loss = {gamma_tc_loss} overflows e^(gamma_tc_loss)") from None
    m = 1.0 + 2.0 * n
    if not math.isfinite(m):
        raise ValueError(f"n = {n} overflows the threshold law")
    return math.log1p(excess / m)


def threshold_numeric_spats(n: float, bar_n: float) -> ThresholdReport:
    """Locate the threshold decay time by bisection on [0, 2] to ``BISECTION_TOL``.

    Bisects the sign of kappa = 2 xi (m e^(gt) - 2(1+n)), m = 1+2n, which is
    that of the evolved Wigner value at the origin, e^(gt) kappa / (pi xi^3),
    without forming pi xi^3.  As xi >= 1 + 2 bar_n > 0, it is the sign of the
    second factor, which grows with gt and does not involve bar_n: the switch
    is monotone by construction.  The residual is within the half-width for
    n below 2^52 (about 4.5e15), where 1 + 2n is exact.  The half-width is
    absolute and gamma_t_c ~ 1/(2n), so the relative error is up to about
    2n * 1e-10: from n ~ 5e9 no digit is correct.  One method is enough: the
    negativity volume is positive exactly while kappa < 0, so bisecting on it
    would switch at the same decay time and check nothing new.

    Raises
    ------
    NonConvergenceError
        If the bracket does not straddle the switch, as it may from n = 2^52 on.
    """

    def still_negative(gt: float) -> bool:
        return evolved_coefficients(ChannelParams(n, gt), bar_n).kappa < 0.0

    lo, hi = 0.0, _BRACKET_HIGH
    if not still_negative(lo) or still_negative(hi):
        raise NonConvergenceError(
            "bisection bracket does not straddle the threshold",
            bracket=(lo, hi),
            n=n,
            bar_n=bar_n,
        )
    while (hi - lo) / 2.0 >= BISECTION_TOL:
        mid = (lo + hi) / 2.0
        if still_negative(mid):
            lo = mid
        else:
            hi = mid
    return ThresholdReport(
        gamma_t_c_analytic=threshold_spats(n), gamma_t_c_numeric=(lo + hi) / 2.0
    )


def verify_zero_vacuum_theorem(
    state: FockDiagonalState,
    n: float,
    state_id: str = "state",
) -> TheoremReport:
    """Check the zero-vacuum-population theorem on one Fock-diagonal state.

    Evolves the state to gamma_t_c through the exact Fock-basis channel map
    (dropping at most ``STEP_TOL`` of tail mass).  W and Q depend on (q, p)
    only through r, so both are sampled once on ``RADIAL_POINTS`` radii in
    [0, ``RADIAL_EXTENT``].  The check passes when (a) W(0) vanishes within
    ``TOL_ORIGIN``, (b) the minimum of W stays above ``-TOL_MIN``, and (c) W
    equals e^(gamma_t_c) Q_0(e^(gamma_t_c/2) r) within ``TOL_Q`` pointwise,
    an identity exact at every n (Lee 1991, see the module docstring).
    Raises ``ValueError`` if the state's vacuum population is not zero.
    """
    if vacuum_population(state) != 0.0:
        raise ValueError(
            f"state must have zero vacuum population, got p_0 = {vacuum_population(state)}"
        )

    gamma_t_c = threshold_spats(n)
    evolved = evolve_fock_diagonal(state, ChannelParams(n, gamma_t_c), step_tol=STEP_TOL)

    radii = np.linspace(0.0, RADIAL_EXTENT, RADIAL_POINTS)
    w = eval_fock_diagonal_wigner(radii, 0.0, evolved)
    q0 = eval_q_function(math.exp(gamma_t_c / 2.0) * radii, 0.0, state)
    return TheoremReport(
        state_id=state_id,
        n=n,
        w_origin_at_threshold=float(w[0]),
        min_w_at_threshold=float(w.min()),
        q_identity_residual=float(np.max(np.abs(w - math.exp(gamma_t_c) * q0))),
    )
