"""Hopf bifurcations and symmetric periodic orbits on a torus of
unidirectionally coupled FitzHugh-Nagumo cells.

The lattice is an N x N array (N an odd prime) of planar cells

    x' = x(a - x)(x - 1) - y
    y' = b x - c y

with each cell's x pulled toward its right and upper neighbours with
weights gamma and delta, periodic in both directions.  The package
provides the closed-form origin spectrum, the critical parameter
values where stability is lost, the symmetry classification of the
bifurcating periodic solutions, and numerical tools (integration,
orbit detection, spatio-temporal classification) to verify them.
"""

from .errors import (
    BracketError,
    ClassificationError,
    DegenerateCouplingWarning,
    DimensionMismatchError,
    DomainError,
    InvarianceError,
    LatticeSizeError,
    StiffnessError,
)
from .model import (
    CellParams,
    LatticeParams,
    assemble_jacobian_origin,
    from_grids,
    infer_n,
    rhs_cell,
    state_dim,
    to_grids,
)
from .symmetry import (
    IsotropySubgroup,
    act,
    canonical_mode,
    fix_modes,
    fix_projection,
    isotropy_of,
    mode_index_set,
    predict_hopf_symmetries,
)
from .spectral import (
    EigenRecord,
    analytic_eigenvalues,
    analytic_eigenvector,
    coupling_symbol,
    eigenvalue_grids,
    genericity_violations,
    symbol_grid,
    spectrum_report,
)
from .bifurcation import (
    HopfReport,
    critical_a,
    hopf_crossing,
    hopf_report_at_critical,
    locate_stability_loss,
    lyapunov_coefficient_sync,
    origin_stability,
    psi,
    resonant_coupling,
    theta_n,
)
from .probe import ProbeSettings, branch_criticality_probe
from .simulate import (
    PeriodicOrbit,
    Trajectory,
    classify_spatiotemporal,
    detect_periodic_orbit,
    integrate,
    reduced_integrate_fix,
)
from .cli import parse_and_dispatch

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "ClassificationError",
    "DegenerateCouplingWarning",
    "DimensionMismatchError",
    "DomainError",
    "InvarianceError",
    "LatticeSizeError",
    "StiffnessError",
    "CellParams",
    "LatticeParams",
    "assemble_jacobian_origin",
    "from_grids",
    "infer_n",
    "rhs_cell",
    "state_dim",
    "to_grids",
    "IsotropySubgroup",
    "act",
    "canonical_mode",
    "fix_modes",
    "fix_projection",
    "isotropy_of",
    "mode_index_set",
    "predict_hopf_symmetries",
    "EigenRecord",
    "analytic_eigenvalues",
    "analytic_eigenvector",
    "coupling_symbol",
    "eigenvalue_grids",
    "genericity_violations",
    "spectrum_report",
    "symbol_grid",
    "HopfReport",
    "ProbeSettings",
    "branch_criticality_probe",
    "critical_a",
    "hopf_crossing",
    "hopf_report_at_critical",
    "locate_stability_loss",
    "lyapunov_coefficient_sync",
    "origin_stability",
    "psi",
    "resonant_coupling",
    "theta_n",
    "PeriodicOrbit",
    "Trajectory",
    "classify_spatiotemporal",
    "detect_periodic_orbit",
    "integrate",
    "reduced_integrate_fix",
    "parse_and_dispatch",
    "__version__",
]
