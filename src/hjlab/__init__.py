"""hjlab: a numerical laboratory for 1D viscous Hamilton-Jacobi homogenization.

The package computes effective Hamiltonians of

    du/dt = a(x) d2u/dx2 + G(du/dx) + beta * V(x)

in stationary random media via certified one-sided corrector profiles,
and cross-checks the result against a monotone finite-difference solver.
"""

from .corrector import (
    CorrectorProfile,
    ThetaEstimate,
    burn_in_length,
    choose_dx,
    corrector_profile,
    estimate_theta,
    residual_series,
    save_profile,
)
from .effective import (
    EffectiveH,
    LambdaInversion,
    build_effective_H,
    effective_reference,
    invert_theta,
    kappa_tilde,
    save_effective,
    save_theta_curve,
)
from .environment import (
    KINDS,
    EnvRealization,
    HillWitness,
    check_singular_hill,
    find_hill,
    generate_env,
    reflect,
    s_at,
    sample_many,
    save_env,
    write_csv,
)
from .errors import (
    BracketExitError,
    CertificateError,
    ConfigError,
    FlatPieceError,
    GlueError,
    HillError,
    ScientificError,
    SignError,
    StabilityError,
    WindowError,
)
from .hamiltonian import (
    AsymPowerG,
    ContractionModulus,
    GrowthCertificate,
    GrowthReport,
    LogQuasiconvexG,
    PowerG,
    TabulatedG,
    bracket,
    make_G,
    monotonicity_modulus,
    validate_growth,
)
from .pde import (
    EvolveResult,
    SchemeConfig,
    SweepResult,
    cfl_gradient_range,
    diffusion_solver,
    evolve,
    godunov_flux,
    homogenize_sweep,
    save_sweep,
    stable_dt,
    sweep_ladder,
)
from .probe import (
    GluedProfile,
    SignReport,
    build_glued_profile,
    find_low_slope_points,
    residual_probe,
    save_probe,
)

__version__ = "0.1.0"
