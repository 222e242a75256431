"""Two independent routes through the thermal channel for arbitrary Wigner
functions: exact Gaussian-kernel convolution quadrature and direct integration
of the drift-diffusion (Fokker-Planck) equation

    dW/d(gamma*t) = (1/2)(d_q q + d_p p) W + ((2n+1)/8) (d_q^2 + d_p^2) W.

The convolution quadrature has fixed settings, given in
:func:`convolve_evolve`.  The equation is integrated by one scheme,
Strang-split Crank-Nicolson on a uniform grid.  Both routes serve as oracles
for closed-form results and for each other.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import solve_banded

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
    """Finite-difference control; grid geometry comes from the input grid.

    The scheme is always Strang-split Crank-Nicolson, which is stable for any
    step.  ``dt = None`` takes the explicit stability bound 0.25*dq^2/D as the
    step, which is also a good accuracy choice for the implicit scheme.
    """

    dt: float | None = None

    def __post_init__(self):
        if self.dt is not None and not self.dt > 0.0:
            raise ValueError(f"dt must be positive when given, got {self.dt}")


def fd_stability_limit(dx: float, n: float) -> float:
    """Explicit-step bound dt <= 0.25 dx^2 / D with D = (2n+1)/8 in gamma-t units.

    :func:`fokker_planck_evolve` uses it as its default step.
    """
    return 0.25 * dx * dx / ((2.0 * n + 1.0) / 8.0)


def _axis_operator(axis: np.ndarray, diffusion: float):
    """Tridiagonal conservative discretization of d/dx[(x/2) W + D dW/dx].

    Returns (lower, diagonal, upper) coefficient arrays; boundary rows are
    zero (Dirichlet).  Fluxes use centered averages at the half points, so
    interior mass changes only through the edge fluxes.
    """
    size = axis.size
    h = axis[1] - axis[0]
    half = (axis[:-1] + axis[1:]) / 2.0
    lower = np.zeros(size)
    diag = np.zeros(size)
    upper = np.zeros(size)
    # dW_i/dt = (J_{i+1/2} - J_{i-1/2}) / h with
    # J_{i+1/2} = (x_{i+1/2}/4)(W_i + W_{i+1}) + D (W_{i+1} - W_i)/h
    upper[1:-1] = (half[1:] / 4.0 + diffusion / h) / h
    diag[1:-1] = (half[1:] / 4.0 - half[:-1] / 4.0 - 2.0 * diffusion / h) / h
    lower[1:-1] = (-half[:-1] / 4.0 + diffusion / h) / h
    return lower, diag, upper


def _apply_operator(values: np.ndarray, op, axis: int) -> np.ndarray:
    lower, diag, upper = op
    moved = np.moveaxis(values, axis, 0)
    out = np.zeros_like(moved)
    out[1:-1] = (
        lower[1:-1, None] * moved[:-2]
        + diag[1:-1, None] * moved[1:-1]
        + upper[1:-1, None] * moved[2:]
    )
    return np.moveaxis(out, 0, axis)


def _crank_nicolson_matrix(op, step: float) -> np.ndarray:
    """Banded (I - step/2 * A) for solve_banded, Dirichlet rows pinned."""
    lower, diag, upper = op
    size = diag.size
    ab = np.zeros((3, size))
    ab[0, 1:] = -0.5 * step * upper[:-1]
    ab[1, :] = 1.0 - 0.5 * step * diag
    ab[2, :-1] = -0.5 * step * lower[1:]
    ab[1, 0] = ab[1, -1] = 1.0
    ab[0, 1] = 0.0
    ab[2, -2] = 0.0
    return ab


def _cn_sweep(values: np.ndarray, op, matrix: np.ndarray, step: float, axis: int) -> np.ndarray:
    """One Crank-Nicolson substep along ``axis``."""
    rhs = values + 0.5 * step * _apply_operator(values, op, axis)
    moved = np.moveaxis(rhs, axis, 0).copy()
    moved[0] = 0.0
    moved[-1] = 0.0
    # The per-step check in fokker_planck_evolve reports a non-finite solution
    # with its step index, so the solve does not check its input.
    solved = solve_banded((1, 1), matrix, moved, check_finite=False)
    return np.moveaxis(solved, 0, axis)


def fokker_planck_evolve(
    initial: WignerGrid,
    channel: ChannelParams,
    spec: FokkerPlanckSpec | None = None,
) -> WignerGrid:
    """Integrate the drift-diffusion equation from 0 to ``channel.gamma_t``.

    Each step splits the two directions (Strang) and treats each 1-D
    advection-diffusion operator with Crank-Nicolson tridiagonal solves, so
    the scheme is unconditionally stable.  The boundary is Dirichlet zero; the
    mass crossing it is logged and expected to stay below 1e-4 on a properly
    sized grid.

    Raises
    ------
    NonConvergenceError
        If the solution stops being finite, including from a non-finite
        input grid (with the index of the step that produced it).
    """
    if spec is None:
        spec = FokkerPlanckSpec()
    gamma_t = channel.gamma_t
    if gamma_t == 0.0:
        return initial

    diffusion = (2.0 * channel.n + 1.0) / 8.0
    dt = spec.dt
    if dt is None:
        dt = fd_stability_limit(min(initial.dq, initial.dp), channel.n)
    n_steps = max(1, math.ceil(gamma_t / dt))
    dt = gamma_t / n_steps

    op_q = _axis_operator(initial.q_axis, diffusion)
    op_p = _axis_operator(initial.p_axis, diffusion)
    cn_q_half = _crank_nicolson_matrix(op_q, dt / 2.0)
    cn_p_full = _crank_nicolson_matrix(op_p, dt)

    values = initial.values.copy()
    mass_before = initial.trapezoid_integral()
    for step_index in range(n_steps):
        values = _cn_sweep(values, op_q, cn_q_half, dt / 2.0, axis=0)
        values = _cn_sweep(values, op_p, cn_p_full, dt, axis=1)
        values = _cn_sweep(values, op_q, cn_q_half, dt / 2.0, axis=0)
        if not np.all(np.isfinite(values)):
            raise NonConvergenceError(
                "finite-difference solution became non-finite", step_index=step_index
            )

    result = initial.with_values(values)
    drift = result.trapezoid_integral() - mass_before
    logger.info(
        "fokker_planck_evolve: %d steps of dt=%.3e, mass drift %.3e (bound %.0e)",
        n_steps,
        dt,
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
