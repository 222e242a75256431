"""Volume of the negative part of a Wigner function.

The volume is |integral of W over the region where W < 0|, the negativity
indicator of Kenfack and Zyczkowski, J. Opt. B 6, 396 (2004).  For the evolved
photon-added thermal family it has a closed form.  Otherwise the caller picks
the numeric path: :func:`pnw_radial` integrates a radial profile W(r) in one
dimension (every state of this library is Fock-diagonal and so radial), and
:func:`pnw_numeric` integrates any evaluator W(q, p) over the plane.  Both
call their evaluator on numpy arrays and reject a result that does not
broadcast.  Only :func:`pnw_radial` needs scipy: it imports ``scipy.integrate``
and ``scipy.optimize`` on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonConvergenceError
from .states import ChannelParams, _check_nonnegative
from .wigner import _checked, evolved_coefficients

_RADIAL_SCAN_POINTS = 4097
# largest summed quadrature error estimate pnw_radial accepts
RADIAL_ABS_TOL = 1e-8
# resolution doublings of pnw_numeric before it gives up
_MAX_REFINEMENTS = 4

_METHODS = ("analytic", "quadrature")


@dataclass(frozen=True)
class NegativityResult:
    """Negative-region descriptor.

    ``volume`` is the (non-negative) negativity volume; it is zero exactly
    when no negative region was detected.  ``region_radius`` is set when the
    negative region is a disk centered at the origin.
    """

    volume: float
    region_radius: float | None
    method: str

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        _check_nonnegative("volume", self.volume)
        if self.region_radius is not None and not self.region_radius > 0.0:
            raise ValueError("region_radius must be positive when present")


def pnw_spats_analytic(channel: ChannelParams, bar_n: float) -> NegativityResult:
    """Closed-form negativity volume of the evolved SPATS.

    While kappa < 0 the negative region is the disk on which the bracket of
    the closed form is negative, of radius sqrt(-kappa e^(-gt) / (8 (1+nbar))),
    and the volume is -[kappa/(2 xi) + 2(1+nbar)(1 - e^(kappa/(4(1+nbar) xi)))] / xi.
    From the threshold decay time on, kappa >= 0 and the volume is 0.
    """
    c = evolved_coefficients(channel, bar_n)
    if c.kappa >= 0.0:
        return NegativityResult(volume=0.0, region_radius=None, method="analytic")
    radius = math.sqrt(-c.kappa * math.exp(-channel.gamma_t) / (8.0 * (1.0 + bar_n)))
    exponent = c.kappa / (4.0 * (1.0 + bar_n) * c.xi)
    # The printed bracket kappa/(2 xi) + 2(1+nbar)(1 - e^A) with
    # A = kappa/(4(1+nbar) xi) equals -2(1+nbar)(expm1(A) - A) exactly; the
    # rearranged form cannot cancel to a negative volume as A -> 0 at the
    # threshold (expm1(x) - x >= 0 for every real x).
    bracket = -2.0 * (1.0 + bar_n) * (math.expm1(exponent) - exponent)
    volume = -bracket / c.xi
    return NegativityResult(volume=volume, region_radius=radius, method="analytic")


def _check_extent(name: str, extent: float) -> None:
    if not (math.isfinite(extent) and extent > 0.0):
        raise ValueError(f"{name} must be finite and > 0, got {extent}")


def pnw_radial(profile: Callable, r_max: float) -> NegativityResult:
    """Negativity volume of a rotationally symmetric Wigner function.

    ``profile(r)`` is W along the q axis, W(r, 0); being a function of r
    alone it can only describe a radial Wigner function.  It is called once
    on an array of radii, over which it must broadcast, and then on single
    radii.  Sign changes on that scan of [0, ``r_max``] are refined to the
    radii that bound the negative annuli, and each annulus is integrated as
    2 pi r W(r) by adaptive quadrature to 1e-10, absolute and relative.  The
    tolerance on the summed error estimates is the constant
    ``RADIAL_ABS_TOL`` = 1e-8.  ``scipy.integrate`` and ``scipy.optimize``
    are imported on first use.

    Raises
    ------
    NonConvergenceError
        When the summed quadrature error estimates exceed ``RADIAL_ABS_TOL``.
    """
    from scipy.integrate import quad
    from scipy.optimize import brentq

    _check_extent("r_max", r_max)
    radii = np.linspace(0.0, r_max, _RADIAL_SCAN_POINTS)
    values = _checked(profile(radii), radii.shape)

    # a root on a scan node leaves a zero there, which no product of neighbours
    # makes negative; a change of sign class keeps it (brentq accepts a zero endpoint)
    negative = values < 0.0
    crossings = np.flatnonzero(negative[:-1] != negative[1:])
    roots = [brentq(profile, radii[i], radii[i + 1]) for i in crossings]
    edges = [0.0, *roots, r_max]
    # all scan nodes between two roots share a sign class: take each segment's first
    starts_negative = negative[np.r_[0, crossings + 1]]
    segments = [(a, b) for a, b, neg in zip(edges[:-1], edges[1:], starts_negative) if neg]
    if not segments:
        return NegativityResult(volume=0.0, region_radius=None, method="quadrature")

    total = 0.0
    quad_error = 0.0
    for a, b in segments:
        value, err = quad(
            lambda r: 2.0 * math.pi * r * profile(r),
            a,
            b,
            epsabs=1e-10,
            epsrel=1e-10,
            limit=200,
        )
        total += value
        quad_error += err
    if quad_error > RADIAL_ABS_TOL:
        raise NonConvergenceError(
            "radial quadrature error above tolerance",
            error_estimate=quad_error,
            abs_tol=RADIAL_ABS_TOL,
            estimate=abs(total),
        )
    region_radius = segments[0][1] if len(segments) == 1 and segments[0][0] == 0.0 else None
    return NegativityResult(volume=abs(total), region_radius=region_radius, method="quadrature")


def _masked_cell_sum(evaluator: Callable, extent: float, resolution: int) -> float:
    """Midpoint-rule integral of W over the cell centers where W < 0, in absolute value.

    W gets the centers as a q column and a p row and must return their broadcast shape.
    """
    h = 2.0 * extent / resolution
    centers = -extent + h * (np.arange(resolution) + 0.5)
    values = _checked(evaluator(centers[:, None], centers[None, :]), (resolution, resolution))
    return abs(float(values[values < 0.0].sum()) * h * h)


def pnw_numeric(
    evaluator: Callable,
    extent: float,
    base_resolution: int = 201,
    abs_tol: float = 1e-6,
) -> NegativityResult:
    """Negativity volume of a Gaussian-tailed Wigner evaluator on [-extent, extent]^2.

    ``evaluator(q, p)`` gets, once per resolution r, a column of q values of
    shape (r, 1) and a row of p values of shape (1, r), and must return their
    broadcast shape (r, r); it may have any symmetry (use :func:`pnw_radial`
    for a radial one).  The plain midpoint rule sums W over the cell centers
    where W < 0.  The resolution is doubled, at most 4 times, until the last
    three estimates agree to ``abs_tol``; the newest is returned.

    Raises
    ------
    ValueError
        For a non-positive ``extent`` or ``abs_tol``, a ``base_resolution``
        below 2, or an evaluator result not of the broadcast shape.
    NonConvergenceError
        When 4 doublings do not reach ``abs_tol``; the last two estimates ride
        along in the diagnostics.
    """
    _check_extent("extent", extent)
    if not abs_tol > 0.0:
        raise ValueError(f"abs_tol must be > 0, got {abs_tol}")
    if base_resolution < 2:
        raise ValueError(f"base_resolution must be >= 2, got {base_resolution}")
    # The masked rule's error comes from the kink at the nodal curve and
    # oscillates with where the curve falls in the cells, so it is not
    # monotone in the resolution: two estimates can agree by chance while
    # both are off by more than abs_tol.  A third estimate guards against it.
    estimates = []
    resolution = base_resolution
    for _ in range(_MAX_REFINEMENTS + 1):
        estimates.append(_masked_cell_sum(evaluator, extent, resolution))
        last_three = estimates[-3:]
        if len(last_three) == 3 and max(last_three) - min(last_three) < abs_tol:
            return NegativityResult(volume=estimates[-1], region_radius=None, method="quadrature")
        resolution *= 2
    raise NonConvergenceError(
        "sign-masked quadrature did not converge",
        last=estimates[-1],
        previous=estimates[-2],
        abs_tol=abs_tol,
        final_resolution=resolution // 2,
    )
