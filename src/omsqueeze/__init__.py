"""Steady-state two-mode squeezing and entanglement in a doubly resonant
optomechanical cavity driven by two two-tone laser pairs and an intracavity
nondegenerate parametric pump.

The pipeline: physical inputs -> kappa-normalized model -> 8x8 drift and
diffusion matrices -> Routh-Hurwitz / eigenvalue stability -> steady-state
covariance (Lyapunov solve, cross-checked by time integration) -> squeezing
and logarithmic-negativity metrics -> parameter sweeps.
"""

from .dynamics import Trajectory, evolve_to_steady, integrate
from .errors import (
    ConvergenceError,
    DivergenceError,
    EmptySweepError,
    PhysicalityError,
    ThresholdError,
    UnstableSystemError,
)
from .lyapunov import LyapunovSolution, solve_lyapunov
from .matrices import (
    QUADRATURES,
    build_diffusion,
    build_drift,
    coupling_coefficients,
    covariance_from_json,
    covariance_to_json,
    initial_covariance,
    symplectic_form,
)
from .metrics import (
    COHERENT_BOUND,
    METRIC_COLUMNS,
    metric_row,
    squeezing_db,
)
from .params import (
    HBAR,
    K_BOLTZMANN,
    DirectCouplings,
    ModelParams,
    PhysicalParams,
    PowerDrive,
    as_direct_drive,
    derive_model,
    drive_amplitude,
    effective_couplings,
    steady_cavity_amplitude,
    thermal_occupation,
    wrap_phase,
)
from .presets import (
    FIGURE_NAMES,
    TracePreset,
    appendix_c_params,
    coupling_base,
    figure_preset,
    paper_base,
    param_preset,
)
from .stability import (
    RhscCoefficients,
    StabilityReport,
    analyze,
    drift_eigenvalues,
    rhsc_check,
    rhsc_coefficients,
)
from .sweep import (
    AXIS_NAMES,
    GridPoint,
    SweepAxis,
    SweepResult,
    SweepSpec,
    apply_overrides,
    find_optimum,
    run_sweep,
)

__version__ = "0.1.0"
