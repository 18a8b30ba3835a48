"""Discrete period matrices of polyhedral surfaces on bipartite quad
meshes: exterior calculus on the diagonals, harmonic differentials with
prescribed periods, period matrices and their energy forms, graded
refinement near cones, and Abelian integrals."""

from .surface import (
    BLACK,
    WHITE,
    ConePoint,
    MeshStats,
    PolyhedralSurface,
    QuadGraph,
    SurfaceError,
    build_quad_graph,
    generate_torus,
    l_shape_surface,
    load_surface,
    mesh_stats,
    validate_h_adapted,
)
from .dec import (
    Differential,
    PeriodData,
    chart_dz,
    energy,
    exterior_derivative,
    hodge_star,
    inner_product,
    integrate_path,
    is_closed,
    measure_periods,
    quad_derivatives,
    quad_gradients,
    wedge,
)
from .homology import (
    HomologyBasis,
    basis_cycles,
    homology_basis,
    intersection_matrix,
    intersection_number,
    project_cycle,
    symplectic_basis,
    tree_cotree,
)
from .harmonic import EnergySystem, HarmonicSolution, assemble, solve, verify_minimality
from .periods import (
    CanonicalBasis,
    PeriodMatrices,
    abelian_integral,
    abelian_integral_per_polygon,
    bilinear_identity_residual,
    canonical_differentials,
    convergence_diagnostics,
    energy_form_continuous,
    energy_form_discrete,
    holomorphic_from_harmonic,
    block_mean_psd_gap,
    period_matrices,
)
from .refine import RefinementLevel, generate_adapted, subdivide, sweep

__version__ = "0.1.0"
