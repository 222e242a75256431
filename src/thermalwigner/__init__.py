"""Phase-space numerics for photon-added thermal states in thermal channels.

Builds Fock-diagonal states, evaluates their Wigner and Husimi Q functions,
evolves Wigner functions through a thermal dissipative channel by independent
routes (closed form, Gaussian-kernel convolution, drift-diffusion finite
differences, Fock-basis channel map), quantifies Wigner negativity volume,
and verifies the threshold-decay-time laws.
"""

from .channel import (
    FokkerPlanckSpec,
    convolve_evolve,
    fd_stability_limit,
    fokker_planck_evolve,
)
from .errors import NonConvergenceError
from .negativity import (
    NegativityResult,
    pnw_numeric,
    pnw_radial,
    pnw_spats_analytic,
)
from .states import (
    ChannelParams,
    FockDiagonalState,
    evolve_fock_diagonal,
    mean_photon,
    random_zero_vacuum_state,
    spats_weights,
    thermal_weights,
    vacuum_population,
)
from .threshold import (
    TheoremReport,
    ThresholdReport,
    threshold_general,
    threshold_numeric_spats,
    threshold_spats,
    verify_zero_vacuum_theorem,
)
from .wigner import (
    EvolvedSpatsCoefficients,
    WignerGrid,
    default_extent,
    eval_fock_diagonal_wigner,
    eval_q_function,
    eval_spats_wigner_evolved,
    eval_spats_wigner_initial,
    eval_thermal_wigner,
    evolved_coefficients,
    sample_grid,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelParams",
    "EvolvedSpatsCoefficients",
    "FockDiagonalState",
    "FokkerPlanckSpec",
    "NegativityResult",
    "NonConvergenceError",
    "TheoremReport",
    "ThresholdReport",
    "WignerGrid",
    "convolve_evolve",
    "default_extent",
    "eval_fock_diagonal_wigner",
    "eval_q_function",
    "eval_spats_wigner_evolved",
    "eval_spats_wigner_initial",
    "eval_thermal_wigner",
    "evolve_fock_diagonal",
    "evolved_coefficients",
    "fd_stability_limit",
    "fokker_planck_evolve",
    "mean_photon",
    "pnw_numeric",
    "pnw_radial",
    "pnw_spats_analytic",
    "random_zero_vacuum_state",
    "sample_grid",
    "spats_weights",
    "thermal_weights",
    "threshold_general",
    "threshold_numeric_spats",
    "threshold_spats",
    "vacuum_population",
    "verify_zero_vacuum_theorem",
    "__version__",
]
