"""Angular momentum of one-photon wavefunctions.

Operators (momentum, spin, orbital and total angular momentum, helicity) act
on transverse vector amplitudes v(k) sampled on spherical quadrature grids
and held in the local frame (eps_+, eps_-, khat) of each node.
The package also builds the standard eigenmode families, analyzes spin
uncertainty, and synthesizes real-space fields for cross-checks of the
constants of motion.

PHOTON_ANGMOM_THREADS sets the number of cores the package uses; unset, it
is every CPU this process may run on.  The package splits field synthesis
over that many worker threads and pins BLAS/OpenMP to one thread, so the
two do not compete for cores.  The pin must act before numpy first loads,
which is why it is applied here; if numpy was imported first, the package
runs one worker (see `photon_angmom.parallel`).
"""

from . import parallel as _parallel

_parallel.configure()

from .grid import GridSpec, WaveVectorGrid, angular_integrate, build_grid, integrate
from .polarization import eps_minus, eps_plus, helicity_basis
from .wavefunction import (
    WaveFunction,
    inner_product,
    norm,
    normalize,
    random_state,
    transverse_residual,
)
from .vsh import VshExpansion, analyze, legendre_normalized, scalar_ylm, synthesize, vsh_pair
from .operators import (
    ObservableReport,
    apply_J,
    apply_J3_azimuthal,
    apply_J_squared,
    apply_L,
    apply_P,
    apply_S,
    apply_W,
    azimuthal_window,
    expansion_inner,
    observable_report,
)
from .modes import (
    PARAXIAL_WARN_THRESHOLD,
    ModeSpec,
    ThetaDistribution,
    build_mode,
    scalar_lg,
    theta_distribution,
)
from .synthesis import (
    FieldSnapshot,
    SpaceTimeLattice,
    com_convergence_shift,
    cube_lattice,
    divergence_residual,
    export_fields,
    export_slice,
    k_space_com,
    real_space_com,
    synthesize_fields,
)

__all__ = [
    "GridSpec",
    "WaveVectorGrid",
    "build_grid",
    "integrate",
    "angular_integrate",
    "eps_plus",
    "eps_minus",
    "helicity_basis",
    "WaveFunction",
    "inner_product",
    "norm",
    "normalize",
    "random_state",
    "transverse_residual",
    "VshExpansion",
    "analyze",
    "synthesize",
    "legendre_normalized",
    "scalar_ylm",
    "vsh_pair",
    "ObservableReport",
    "apply_P",
    "apply_S",
    "apply_W",
    "apply_J",
    "apply_J_squared",
    "apply_J3_azimuthal",
    "apply_L",
    "azimuthal_window",
    "expansion_inner",
    "observable_report",
    "ModeSpec",
    "ThetaDistribution",
    "PARAXIAL_WARN_THRESHOLD",
    "build_mode",
    "scalar_lg",
    "theta_distribution",
    "SpaceTimeLattice",
    "FieldSnapshot",
    "cube_lattice",
    "synthesize_fields",
    "real_space_com",
    "k_space_com",
    "com_convergence_shift",
    "divergence_residual",
    "export_fields",
    "export_slice",
]

__version__ = "0.1.0"
