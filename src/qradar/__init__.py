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
    gaussian_discord,
    lambda_sph,
    two_eta,
)
from .gaussian import (
    GaussianState,
    apply_channel,
    sample,
    symplectic_eigenvalues,
    symplectic_form,
    vacuum_state,
    wigner,
)
from .langevin import (
    LinearLangevinModel,
    diffusion_from_baths,
    is_stable,
    steady_state_cov,
    thermal_occupation,
)
from .receiver import (
    QiScenario,
    RocCurve,
    ci_baseline,
    roc_curve,
    run_detection,
    tmsv_cm,
)

__version__ = "0.1.0"
