"""Exception types shared by the numerical routines."""

from __future__ import annotations


class NonConvergenceError(RuntimeError):
    """A numerical routine failed to reach its tolerance or met bad input.

    Raised by quadrature that does not converge, by a bisection bracket that
    misses its root, by a non-finite Fokker-Planck input grid, and by a
    Fokker-Planck grid too small to hold the evolved mass.  Carries a
    ``diagnostics`` dict (last estimates, tolerance, final resolution or
    order, count of non-finite points, mass drift, ...) so callers can report
    the failure precisely.
    """

    def __init__(self, message: str, **diagnostics):
        super().__init__(message)
        self.diagnostics = dict(diagnostics)

    def __str__(self) -> str:
        base = super().__str__()
        if self.diagnostics:
            detail = ", ".join(f"{k}={v!r}" for k, v in sorted(self.diagnostics.items()))
            return f"{base} [{detail}]"
        return base
