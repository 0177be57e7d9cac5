"""Operators on metric graphs: spectra, vertex conditions, expansions."""

from .boundary import (
    BoundaryCondition,
    CoercivityConstant,
    bc_from_mapping,
    coercivity_constant,
    load_bc,
    positive_part_norm,
    preset,
    uniform_bc,
    validate_bc,
)
from .expansion import (
    DiscreteSpectralRep,
    WeightFunction,
    build_weight,
    fourier_coefficients,
    generalized_eigenfunction_residual,
    hs_norm_sq,
    parseval,
    reconstruct,
    standard_test_battery,
)
from .fem import FormAssembly, DiscreteEigensystem, assemble, check_boundary_bound, check_coercivity, eigensystem
from .functions import (
    CutoffFunction,
    GridFunction,
    cutoff,
    edge_grid,
    inner,
    load_function_csv,
    norms,
    save_function_csv,
    sobolev_check,
)
from .graph import (
    Edge,
    EdgePoint,
    EdgeSegment,
    MetricGraph,
    Point,
    VertexPoint,
    VertexStar,
    Violation,
    ball_volume,
    connected_components,
    distance,
    distance_pieces,
    graph_from_dict,
    graph_to_dict,
    is_connected,
    load_graph,
    point_on_edge,
    validate,
    vertex_distances,
)
from .potentials import (
    Potential,
    UniformL2Norm,
    assemble_perturbed,
    check_relative_bound,
    load_potential_csv,
    parse_potential_expr,
    perturbed_eigen_report,
    save_potential_csv,
    uniform_l2_norm,
)
from .secular import (
    SecularEigenvalue,
    SecularSolution,
    basis_gram,
    basis_values,
    eigenfunction,
    eigenvalue_scan,
    scan_window,
    secular_matrix,
    smallest_singular_value,
    weyl_count_estimate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
