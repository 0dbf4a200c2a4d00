"""Primal-dual weak Galerkin solver for 2D elliptic equations in
non-divergence form.

The package discretizes ``sum_ij a_ij(x) d2u/dx_i dx_j = f`` with
Dirichlet boundary data on triangulated polygons, using weak-Hessian
test spaces, an edge stabilizer, and an element-wise Lagrange
multiplier.  See :mod:`pdwg.analysis` for convergence studies and
:mod:`pdwg.cli` for the batch front end.
"""

from .analysis import (
    ConvergenceTable,
    LevelErrors,
    NormReport,
    discrete_norms,
    edge_gradient_interpolant,
    error_norms,
    lagrange_interpolant,
    run_study,
)
from .assembly import (
    CoefficientField,
    SaddleSystem,
    apply_dirichlet,
    assemble_constraint,
    assemble_stabilizer,
    build_saddle,
    constant_coefficients,
    dump_system,
    stabilizer_energy,
)
from .mesh import (
    DomainSpec,
    Mesh,
    build_initial_mesh,
    dump_mesh,
    extract_topology,
    outward_normals,
    refine_uniform,
)
from .polyquad import (
    QuadratureRule,
    edge_quadrature,
    project_edge,
    project_element,
    triangle_quadrature,
)
from .problems import ProblemSpec, builtin, catalog_names, cordes_check, cordes_samples
from .solver import SolverError, WgSolution, solve
from .wgspace import (
    SpaceConfig,
    build_dof_map,
    interpolate_weak,
    lagrange_nodes,
    project_weak,
    weak_hessian_local,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceTable",
    "LevelErrors",
    "NormReport",
    "discrete_norms",
    "edge_gradient_interpolant",
    "error_norms",
    "lagrange_interpolant",
    "run_study",
    "CoefficientField",
    "SaddleSystem",
    "apply_dirichlet",
    "assemble_constraint",
    "assemble_stabilizer",
    "build_saddle",
    "constant_coefficients",
    "dump_system",
    "stabilizer_energy",
    "DomainSpec",
    "Mesh",
    "build_initial_mesh",
    "dump_mesh",
    "extract_topology",
    "outward_normals",
    "refine_uniform",
    "QuadratureRule",
    "edge_quadrature",
    "project_edge",
    "project_element",
    "triangle_quadrature",
    "ProblemSpec",
    "builtin",
    "catalog_names",
    "cordes_check",
    "cordes_samples",
    "SolverError",
    "WgSolution",
    "solve",
    "SpaceConfig",
    "build_dof_map",
    "interpolate_weak",
    "lagrange_nodes",
    "project_weak",
    "weak_hessian_local",
    "__version__",
]
