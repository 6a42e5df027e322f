"""isomlab: a desk-scale numerical laboratory for isomonodromic deformations.

Linear systems dY/dz = (Lambda + A(u)/z) Y and Fuchsian systems: formal
solutions, Levelt forms, Stokes-ray geometry, Stokes and connection matrices
by complex-path integration, isomonodromy and Schlesinger flows, and
verification pipelines for data constancy and the coalescence limit.
"""

from .errors import (
    AdmissibilityError,
    CoincidentPointsError,
    EigenSolverError,
    InputFormatError,
    IntegrationError,
    IsomlabError,
    JordanChainError,
    ResonanceError,
    SectorError,
    WallError,
)
from .formal import (
    FormalSolution,
    IrregularSystem,
    check_resonances,
    compute_formal_coefficients,
    eval_truncated_formal,
    formal_monodromy,
    optimal_truncation,
)
from .fuchsian import (
    FuchsianSystem,
    fuchs_monodromy,
    integrate_schlesinger,
    kv_family,
    max_integer_spread,
    pole_levelt,
    product_relation_residual,
    schlesinger_residual,
    schlesinger_rhs,
)
from .geometry import (
    CellReport,
    RaySet,
    SectorFrame,
    classify_point,
    epsilon_bound,
    is_admissible,
    same_cell,
    sector_bounds,
    stokes_ray_directions,
)
from .isoflow import (
    DeformationState,
    DiagonalGauge,
    LaurentCoefficients,
    UPath,
    integrability_residual,
    integrate_flow,
    laurent_reduce,
    omega_zero_part,
    vanishing_order_check,
)
from .levelt import (
    LeveltData,
    build_levelt_solution,
    compute_levelt_exponents,
    eval_levelt,
    monodromy_exponential,
)
from .matrixcore import (
    EigenClusters,
    JordanData,
    cluster_eigenvalues,
    matrix_power,
    similar_to_jordan,
    solve_sylvester,
)
from .odeengine import (
    PathPoint,
    SolutionHandle,
    StokesConfig,
    StokesResult,
    actual_solution,
    connection_matrix,
    integrate_path,
    monodromy_loop,
    stokes_matrix,
)
from .verify import (
    CoalescenceReport,
    MonodromyDataSet,
    collect_data,
    data_drift,
    stokes_relation_check,
    verify_coalescence,
)

__version__ = "0.1.0"
