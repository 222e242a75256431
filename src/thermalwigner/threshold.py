"""Threshold decay times and the zero-vacuum-population theorem.

The Wigner function of an evolved photon-added thermal state turns
non-negative at gamma_t_c = ln((2+2n)/(1+2n)), a value set by the channel
occupancy n alone.  The same threshold governs every state with zero vacuum
population: at gamma_t_c the evolved Wigner function is a rescaled Husimi Q
function of the initial state, hence non-negative, and its origin value is
proportional to the initial vacuum population.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import ClassVar

import numpy as np

from .errors import NonConvergenceError
from .states import (
    ChannelParams,
    FockDiagonalState,
    evolve_fock_diagonal,
    mean_photon,
    vacuum_population,
)
from .wigner import eval_fock_diagonal_wigner, eval_q_function, eval_spats_wigner_evolved

_BISECTION_MAX_ITER = 60
_BRACKET_HIGH = 2.0

# Forced by normalization: if W(.,gt_c) = c * Q0(sqrt(2) .) with both sides
# integrating to 1, then c = 2 in the photon-loss channel.
Q_IDENTITY_CONSTANT = 2.0


@dataclass(frozen=True)
class ThresholdReport:
    """Analytic vs numeric threshold decay time for one channel setting.

    ``method`` names the one root finder, :func:`threshold_numeric_spats`.
    """

    method: ClassVar[str] = "origin-sign-root"

    gamma_t_c_analytic: float
    gamma_t_c_numeric: float
    residual: float

    def __post_init__(self):
        if self.gamma_t_c_analytic < 0.0 or self.gamma_t_c_numeric < 0.0:
            raise ValueError("threshold decay times must be >= 0")

    def to_json_dict(self) -> dict:
        return {**asdict(self), "method": self.method}


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of one zero-vacuum-population theorem check.

    ``q_identity_residual`` is filled only for the photon-loss channel, where
    the evolved Wigner function must equal Q_IDENTITY_CONSTANT times the
    initial Q function at sqrt(2)-scaled arguments.  ``state_family`` records
    that only Fock-diagonal representatives are sampled; states with
    coherences are outside this check.
    """

    state_id: str
    n: float
    w_origin_at_threshold: float
    min_w_at_threshold: float
    q_identity_residual: float | None
    passed: bool
    state_family: str = field(default="fock-diagonal")

    def to_json_dict(self) -> dict:
        return asdict(self)


def threshold_spats(n: float) -> float:
    """Threshold decay time ln((2+2n)/(1+2n)) in a channel with occupancy n."""
    if not (math.isfinite(n) and n >= 0.0):
        raise ValueError(f"n must be finite and >= 0, got {n}")
    return math.log((2.0 + 2.0 * n) / (1.0 + 2.0 * n))


def threshold_general(gamma_tc_loss: float, n: float) -> float:
    """Map a photon-loss-channel threshold to channel occupancy n.

    Returns ln((e^(gamma_tc_loss) + 2n) / (1 + 2n)); the identity map for
    n = 0 and zero whenever gamma_tc_loss is zero.
    """
    if not (math.isfinite(gamma_tc_loss) and gamma_tc_loss >= 0.0):
        raise ValueError(f"gamma_tc_loss must be finite and >= 0, got {gamma_tc_loss}")
    if not (math.isfinite(n) and n >= 0.0):
        raise ValueError(f"n must be finite and >= 0, got {n}")
    return math.log((math.exp(gamma_tc_loss) + 2.0 * n) / (1.0 + 2.0 * n))


def threshold_numeric_spats(
    n: float,
    bar_n: float,
    tol: float = 1e-10,
) -> ThresholdReport:
    """Locate the threshold decay time by bisection on [0, 2].

    Bisects the sign of the evolved Wigner value at the origin, which is the
    sign of kappa, a monotone switch on the bracket for every tested
    parameter range.  One method is enough: the negativity volume is positive
    exactly while kappa < 0, so bisecting on it would switch at the same
    decay time and check nothing new.

    Raises
    ------
    NonConvergenceError
        If the bracket does not straddle the switch.
    """
    if not (1e-12 <= tol <= 1e-3):
        raise ValueError(f"tol must be in [1e-12, 1e-3], got {tol}")

    def still_negative(gt: float) -> bool:
        return float(eval_spats_wigner_evolved(0.0, 0.0, ChannelParams(n, gt), bar_n)) < 0.0

    lo, hi = 0.0, _BRACKET_HIGH
    if not still_negative(lo) or still_negative(hi):
        raise NonConvergenceError(
            "bisection bracket does not straddle the threshold",
            bracket=(lo, hi),
            n=n,
            bar_n=bar_n,
        )
    for _ in range(_BISECTION_MAX_ITER):
        if (hi - lo) / 2.0 < tol:
            break
        mid = (lo + hi) / 2.0
        if still_negative(mid):
            lo = mid
        else:
            hi = mid
    numeric = (lo + hi) / 2.0
    analytic = threshold_spats(n)
    return ThresholdReport(
        gamma_t_c_analytic=analytic,
        gamma_t_c_numeric=numeric,
        residual=abs(analytic - numeric),
    )


def verify_zero_vacuum_theorem(
    state: FockDiagonalState,
    n: float,
    state_id: str = "state",
    extent: float = 6.0,
    resolution: int = 201,
    tol_origin: float = 1e-9,
    tol_min: float = 1e-9,
    tol_q: float = 1e-9,
    step_tol: float = 1e-12,
) -> TheoremReport:
    """Check the zero-vacuum-population theorem on one Fock-diagonal state.

    Evolves the state to the threshold decay time through the exact Fock-basis
    channel map, then checks (a) the Wigner origin value vanishes within
    ``tol_origin``, (b) the grid minimum stays above ``-tol_min``, and, for
    the photon-loss channel only, (c) the evolved Wigner function equals
    ``Q_IDENTITY_CONSTANT`` times the initial Q function at sqrt(2)-scaled
    arguments within ``tol_q`` pointwise.

    The state must have exactly zero vacuum population (and it always has a
    finite mean photon number, being a finite mixture).
    """
    if vacuum_population(state) != 0.0:
        raise ValueError(
            f"state must have zero vacuum population, got p_0 = {vacuum_population(state)}"
        )
    if not math.isfinite(mean_photon(state)):
        raise ValueError("state must have a finite mean photon number")

    gamma_t_c = threshold_spats(n)
    evolved = evolve_fock_diagonal(state, ChannelParams(n, gamma_t_c), step_tol=step_tol)

    w_origin = float(eval_fock_diagonal_wigner(0.0, 0.0, evolved))

    axis = np.linspace(-extent, extent, resolution)
    qq, pp = np.meshgrid(axis, axis, indexing="ij")
    w_grid = eval_fock_diagonal_wigner(qq, pp, evolved)
    min_w = float(w_grid.min())

    q_residual = None
    if n == 0.0:
        scale = math.sqrt(2.0)
        q_grid = eval_q_function(scale * qq, scale * pp, state)
        q_residual = float(np.max(np.abs(w_grid - Q_IDENTITY_CONSTANT * q_grid)))

    passed = (
        abs(w_origin) < tol_origin
        and min_w > -tol_min
        and (q_residual is None or q_residual < tol_q)
    )
    return TheoremReport(
        state_id=state_id,
        n=n,
        w_origin_at_threshold=w_origin,
        min_w_at_threshold=min_w,
        q_identity_residual=q_residual,
        passed=passed,
    )
