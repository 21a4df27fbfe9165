"""Desk-scale simulation toolkit for microwave quantum radar pipelines:
Gaussian-state entanglement generation (electro-opto-mechanical and
opto-electronic converters, Josephson parametric amplifier), entanglement
criteria, channel degradation, and correlation-based quantum-illumination
detection with ROC analysis.

Quadrature convention throughout: x = (a + a^dag)/sqrt(2),
p = -i(a - a^dag)/sqrt(2), hbar = 1, vacuum variance 1/2, mode ordering
(x1, p1, x2, p2, ...).
"""

from .channels import (
    GaussianChannel,
    ThermalProfile,
    amplifier_channel,
    attenuation_channel,
    n_eff_closed,
    n_eff_general,
    round_trip,
    target_channel,
)
from .criteria import (
    BipartiteBlocks,
    CriteriaReport,
    StandardFormParams,
    discord_reports,
    gaussian_discord,
    lambda_sph,
    standard_form,
    two_eta,
    two_eta_values,
)
from .gaussian import (
    GaussianState,
    apply_channel,
    partial_transpose,
    sample,
    symplectic_eigenvalues,
    symplectic_form,
    thermal_state,
    vacuum_state,
    von_neumann_entropy,
    wigner,
)
from .langevin import (
    BathSpec,
    LinearLangevinModel,
    diffusion_from_baths,
    is_stable,
    propagate_cov,
    steady_state_cov,
    thermal_occupation,
)
from .receiver import (
    QiScenario,
    RocCurve,
    ci_baseline,
    correlation_coefficient,
    roc_curve,
    run_detection,
    tmsv_cm,
)

__version__ = "0.1.0"
