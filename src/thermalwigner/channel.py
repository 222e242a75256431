"""Two independent routes through the thermal channel for arbitrary Wigner
functions: exact Gaussian-kernel convolution quadrature and direct integration
of the drift-diffusion (Fokker-Planck) equation

    dW/d(gamma*t) = (1/2)(d_q q + d_p p) W + ((2n+1)/8) (d_q^2 + d_p^2) W.

The convolution quadrature has fixed settings, given in
:func:`convolve_evolve`.  The equation is discretized in space by conservative
finite differences on the input's uniform grid and solved exactly in time, by
one matrix exponential per axis.  Both routes serve as oracles for closed-form
results and for each other.  Only the equation's route needs scipy: it imports
``scipy.linalg`` on first use.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import NonConvergenceError
from .states import ChannelParams
from .wigner import WignerGrid, eval_thermal_wigner

logger = logging.getLogger(__name__)

EDGE_MASS_LOSS_BOUND = 1e-4
_QUAD_ORDER = 16
_ABS_TOL = 1e-9
_MAX_DOUBLINGS = 7


@functools.lru_cache(maxsize=32)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def convolve_evolve(initial: Callable, channel: ChannelParams, q: float, p: float) -> float:
    """Evolved Wigner value at (q, p) by convolution with the bath kernel.

    Computes  e^(gt) * integral of W_T(x, y) * initial((q - sqrt(1-e^(-gt)) x)
    / sqrt(e^(-gt)), ...) dx dy  over the truncated kernel support, where W_T
    is the thermal Wigner function of the bath.  ``initial`` must accept
    broadcasting numpy arrays.  At gamma_t = 0 the integral is bypassed and
    the initial evaluator is returned directly.

    The kernel integral is truncated at 6 standard deviations of the bath
    kernel.  The Gauss-Legendre order starts at 16 and doubles until two
    successive estimates agree within 1e-9.

    Raises
    ------
    NonConvergenceError
        If 7 order doublings never bring two estimates within 1e-9.
    """
    gt = channel.gamma_t
    if gt == 0.0:
        return float(initial(q, p))
    radius = 6.0 * math.sqrt((1.0 + 2.0 * channel.n) / 4.0)
    decay = math.exp(-gt)
    root_decay = math.sqrt(decay)
    root_mix = math.sqrt(1.0 - decay)
    prefactor = math.exp(gt)

    order = _QUAD_ORDER
    previous = None
    estimate = None
    for _ in range(_MAX_DOUBLINGS + 1):
        nodes, weights = _gauss_legendre(order)
        x = nodes * radius
        w = weights * radius
        xx, yy = np.meshgrid(x, x, indexing="ij")
        kern = eval_thermal_wigner(xx, yy, channel.n)
        shifted = initial((q - root_mix * xx) / root_decay, (p - root_mix * yy) / root_decay)
        estimate = prefactor * float(np.einsum("i,j,ij->", w, w, kern * shifted))
        if previous is not None and abs(estimate - previous) < _ABS_TOL:
            return estimate
        previous = estimate
        order *= 2
    raise NonConvergenceError(
        "convolution quadrature did not converge",
        last=estimate,
        previous=previous,
        error_estimate=abs(estimate - previous),
        abs_tol=_ABS_TOL,
        final_order=order // 2,
    )


@dataclass(frozen=True)
class FokkerPlanckSpec:
    """Finite-difference time control; it sets nothing.

    :func:`fokker_planck_evolve` solves exactly in time and takes no step, so
    it accepts ``FokkerPlanckSpec()`` and rejects a given ``dt``.
    """

    dt: float | None = None

    def __post_init__(self):
        if self.dt is not None and not self.dt > 0.0:
            raise ValueError(f"dt must be positive when given, got {self.dt}")


def fd_stability_limit(dx: float, n: float) -> float:
    """Explicit-step bound dt <= 0.25 dx^2 / D with D = (2n+1)/8 in gamma-t units.

    No library routine uses it: :func:`fokker_planck_evolve` takes no time
    step.
    """
    return 0.25 * dx * dx / ((2.0 * n + 1.0) / 8.0)


def _axis_operator(axis: np.ndarray, diffusion: float) -> np.ndarray:
    """Tridiagonal conservative discretization of d/dx[(x/2) W + D dW/dx].

    Returns the dense matrix; its boundary rows are zero (Dirichlet).  Fluxes
    use centered averages at the half points, so interior mass changes only
    through the edge fluxes.
    """
    size = axis.size
    h = axis[1] - axis[0]
    half = (axis[:-1] + axis[1:]) / 2.0
    op = np.zeros((size, size))
    rows = np.arange(1, size - 1)
    # dW_i/dt = (J_{i+1/2} - J_{i-1/2}) / h with
    # J_{i+1/2} = (x_{i+1/2}/4)(W_i + W_{i+1}) + D (W_{i+1} - W_i)/h
    op[rows, rows + 1] = (half[1:] / 4.0 + diffusion / h) / h
    op[rows, rows] = (half[1:] / 4.0 - half[:-1] / 4.0 - 2.0 * diffusion / h) / h
    op[rows, rows - 1] = (-half[:-1] / 4.0 + diffusion / h) / h
    return op


def fokker_planck_evolve(
    initial: WignerGrid,
    channel: ChannelParams,
    spec: FokkerPlanckSpec | None = None,
) -> WignerGrid:
    """Evolve the grid by the drift-diffusion equation from 0 to ``channel.gamma_t``.

    The equation is discretized in space only, by a conservative
    finite-difference operator A per axis, and the semi-discrete system is
    solved exactly in time.  The two axis operators commute, so the solution
    is  W(gamma_t) = E_q W_0 E_p^T  with  E = expm(gamma_t * A), computed once
    per distinct axis by scaling and squaring; no time step is taken.  The
    boundary is Dirichlet zero: the input's edge rows and columns are zeroed.
    The mass crossing the boundary is logged and expected to stay below 1e-4
    on a properly sized grid.  ``scipy.linalg`` is imported on first use.

    Raises
    ------
    ValueError
        If ``spec`` gives a time step ``dt``; there is no step to set.
    NonConvergenceError
        If the input grid holds non-finite values (with their count,
        ``non_finite_points``); it is the only way the result can be
        non-finite.
    """
    from scipy.linalg import expm

    if spec is not None and spec.dt is not None:
        raise ValueError(
            f"fokker_planck_evolve integrates exactly in time and takes no step; "
            f"remove FokkerPlanckSpec(dt={spec.dt})"
        )
    gamma_t = channel.gamma_t
    if gamma_t == 0.0:
        return initial

    non_finite = int(np.count_nonzero(~np.isfinite(initial.values)))
    if non_finite:
        raise NonConvergenceError(
            "finite-difference input grid is not finite", non_finite_points=non_finite
        )

    diffusion = (2.0 * channel.n + 1.0) / 8.0
    q_axis, p_axis = initial.q_axis, initial.p_axis
    exp_q = expm(gamma_t * _axis_operator(q_axis, diffusion))
    if np.array_equal(p_axis, q_axis):
        exp_p = exp_q
    else:
        exp_p = expm(gamma_t * _axis_operator(p_axis, diffusion))

    values = initial.values.copy()
    values[[0, -1], :] = 0.0
    values[:, [0, -1]] = 0.0
    result = initial.with_values(exp_q @ values @ exp_p.T)
    drift = result.trapezoid_integral() - initial.trapezoid_integral()
    logger.info(
        "fokker_planck_evolve: exact exponential, mass drift %.3e (bound %.0e)",
        drift,
        EDGE_MASS_LOSS_BOUND,
    )
    if abs(drift) > EDGE_MASS_LOSS_BOUND:
        logger.warning(
            "fokker_planck_evolve: boundary mass loss %.3e exceeds %.0e; "
            "enlarge the grid extent",
            drift,
            EDGE_MASS_LOSS_BOUND,
        )
    return result
