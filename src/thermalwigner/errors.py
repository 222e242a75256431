"""Exception types shared by the numerical routines."""

from __future__ import annotations


class NonConvergenceError(RuntimeError):
    """A quadrature, ODE, or refinement loop failed to reach its tolerance.

    Carries a ``diagnostics`` dict (last estimates, step index, grid size, ...)
    so callers can report the failure precisely.
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
