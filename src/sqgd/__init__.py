"""Pseudo-spectral solver for the dispersive critical surface
quasi-geostrophic equation on the 2-torus, with a numerical certificate
suite tracking the quantities its maximum-principle theory controls: the
L2 norm, the sup-norm envelope, the Chebyshev measure bound, and
preservation of a family of moduli of continuity.
"""

from .config import RunConfig, build_config, parse_config_file
from .diagnostics import (
    DiagnosticsRecord,
    SampleConfig,
    chebyshev_check,
    energy_budget,
    norms,
    sample,
)
from .fields import ScalarField
from .grid import TWO_PI, Grid
from .initial import gaussian_bump, random_smooth, single_mode, two_mode
from .integrator import (
    BlowUpError,
    SolverState,
    StepControl,
    cfl_dt,
    exp_phi,
    linear_symbol_grid,
    run,
    step,
)
from .modulus import (
    AuditReport,
    ModulusCertificate,
    ModulusParams,
    PairWitness,
    audit_breakthrough,
    breakthrough_b,
    calibrate_c_omega,
    check_modulus,
    minimal_b,
    modulus_inverse,
    modulus_slope,
    scaled_modulus,
    scaled_modulus_slope,
    velocity_modulus,
)
from .operators import (
    advect,
    gradient,
    half_laplacian,
    riesz_transform,
    velocity,
)
from .snapshot import SnapshotError, read_snapshot, write_snapshot

__version__ = "0.1.0"
