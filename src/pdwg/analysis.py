"""Error measures, discrete norms, and mesh-refinement convergence studies.

The study driver solves one problem on a hierarchy of uniformly refined
meshes and reports, per level:

* ``e0``: L2 distance between the interior solution field and the
  degree-``k`` Lagrange interpolant of the exact solution (coefficient
  norm in the orthonormal element bases);
* ``e0_true``: plain L2 error of the interior field against the exact
  solution, by quadrature;
* ``eg``: distance between the gradient trace field and the edge-wise
  interpolant of the exact gradient, in the edge-weighted norm
  ``(sum_T h_T int_{bd T} |.|^2)^{1/2}`` (interior edges contribute once
  per adjacent element);
* ``gamma``: L2 norm of the dual multiplier field (the multiplier of
  the exact solution is zero, so this is itself an error);
* ``s_energy``: stabilizer energy of the discrete solution — a measure
  of how far the solution is from an H2-conforming function.

Observed orders are ``log2(e_prev / e_cur)`` between consecutive
levels; uniform refinement halves the mesh size exactly, so this is the
usual rate.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass

import numpy as np

from .assembly import build_saddle, stabilizer_energy
from .mesh import _write_text, build_initial_mesh, refine_uniform
from .polyquad import (
    GEOMETRY_TRI_DEGREE,
    _edge_points,
    _einsum,
    _evaluate,
    _for_chunks,
    edge_basis,
    eval_element_poly,
    get_element_rule,
    get_tri_basis,
    triangle_quadrature,
)
from .problems import cordes_check, cordes_samples
from .solver import solve
from .wgspace import (
    SpaceConfig,
    _modal_coefficients,
    apply_weak_hessian,
    build_dof_map,
    lagrange_nodes,
    weak_hessian_local,
)

__all__ = [
    "LevelErrors",
    "ConvergenceTable",
    "NormReport",
    "lagrange_interpolant",
    "edge_gradient_interpolant",
    "error_norms",
    "discrete_norms",
    "run_study",
]

log = logging.getLogger("pdwg")

#: Columns of :meth:`ConvergenceTable.to_csv` and ``to_loglog_csv``, in
#: order; each names a field of a row, ``inv_h``, ``h`` or an order.
_CSV_COLUMNS = ("level", "inv_h", "e0", "e0_order", "eg", "eg_order", "gamma", "gamma_order",
                "e0_true", "s_energy")
_LOGLOG_COLUMNS = ("h", "e0", "eg", "gamma")
CSV_HEADER, LOGLOG_HEADER = ",".join(_CSV_COLUMNS), ",".join(_LOGLOG_COLUMNS)


@dataclass(frozen=True)
class LevelErrors:
    """Error norms of one solve in a refinement hierarchy."""

    level: int
    h_max: float
    n_primal: int
    n_mult: int
    e0: float
    e0_true: float
    eg: float
    gamma: float
    s_energy: float

    @property
    def inv_h(self):
        return 1.0 / self.h_max


def lagrange_interpolant(u, mesh, k):
    """Orthonormal coefficients of the degree-``k`` Lagrange interpolant."""
    nodes = lagrange_nodes(mesh, k)
    values = _evaluate(u, nodes.coords[:, 0], nodes.coords[:, 1])
    return _modal_coefficients(mesh, k, values[nodes.element_nodes])


def edge_gradient_interpolant(grad_u, mesh, degree):
    """Edge-wise polynomial interpolant of a gradient field.

    Interpolates each gradient component at ``degree + 1`` equispaced
    parameters per edge (endpoints included), and returns coefficients
    (ne, 2, degree + 1) in the orthonormal edge bases of
    :func:`~pdwg.polyquad.edge_basis`, solving each edge's interpolation
    system in that basis.  For ``degree = 1`` this is plain endpoint
    interpolation.
    """
    t_nodes = np.linspace(-1.0, 1.0, degree + 1)
    pts = _edge_points(mesh, t_nodes)
    vals = _evaluate(grad_u, pts[..., 0], pts[..., 1], "gradient")  # (2, ne, deg+1)
    coef = np.linalg.solve(edge_basis(mesh, degree, t_nodes), np.transpose(vals, (1, 2, 0)))
    return np.transpose(coef, (0, 2, 1))


def error_norms(sol, problem):
    """All error norms of one solution against the problem's exact fields.

    Mesh, DOF map and stabilizer are those of ``sol.system``.
    ``e0_true`` integrates at degree ``max(problem.quad_degree,
    GEOMETRY_TRI_DEGREE(k))`` and evaluates ``exact_u`` one chunk of
    elements at a time.
    """
    if problem.exact_u is None or problem.exact_grad_u is None:
        raise ValueError("problem has no exact solution to compare against")
    system = sol.system
    mesh, dofmap = system.mesh, system.dofmap
    k = dofmap.config.k
    qd = max(problem.quad_degree, GEOMETRY_TRI_DEGREE(k))

    u0 = sol.u0
    ih = lagrange_interpolant(problem.exact_u, mesh, k)
    e0 = float(np.linalg.norm(u0 - ih))

    nt = mesh.n_triangles
    sq = np.empty((nt, triangle_quadrature(qd).weights.size))

    def chunk(e):
        pts, w = get_element_rule(mesh, qd, e)
        uh = eval_element_poly(mesh, k, u0[e], pts, elements=e)
        diff = uh - _evaluate(problem.exact_u, pts[..., 0], pts[..., 1], "exact solution")
        sq[e] = w * diff**2

    _for_chunks(nt, chunk)
    e0_true = float(np.sqrt(np.sum(sq)))

    h, tris = mesh.h_t, mesh.edge_tris  # edge weight: sum of h_T over its elements
    wsum = h[tris[:, 0]] + np.where(mesh.is_boundary_edge, 0.0, h[tris[:, 1]])
    ig = edge_gradient_interpolant(problem.exact_grad_u, mesh, k - 1)
    dg = sol.ug - ig
    eg = float(np.sqrt(np.sum(wsum * np.sum(dg**2, axis=(1, 2)))))

    gamma = float(np.linalg.norm(sol.lam_vec))
    s_energy = float(sol.primal @ (system.S @ sol.primal))

    return LevelErrors(
        level=mesh.level,
        h_max=float(mesh.h_max),
        n_primal=dofmap.n_primal,
        n_mult=dofmap.n_mult,
        e0=e0,
        e0_true=e0_true,
        eg=eg,
        gamma=gamma,
        s_energy=s_energy,
    )


@dataclass(frozen=True)
class NormReport:
    """Discrete second-order norms of one primal coefficient vector."""

    norm_2h: float
    triple_norm: float
    s_energy: float


def discrete_norms(primal, mesh, config, problem):
    """Strong-Hessian and weak-Hessian discrete norms of a primal vector.

    ``norm_2h`` uses the multiplier-space projection of
    ``sum_ij a_ij d2 v0 / dx_i dx_j`` element by element; ``triple_norm``
    replaces the projected strong Hessian with the discrete weak Hessian
    of the full triplet.  Both include the stabilizer energy, summed from
    squared pointwise jumps by :func:`~pdwg.assembly.stabilizer_energy`.
    ``problem`` gives the tensor and the data degree, as for
    :func:`error_norms`; the integrands are formed one chunk at a time.
    """
    dofmap = build_dof_map(mesh, config)
    qd = max(GEOMETRY_TRI_DEGREE(config.k), problem.quad_degree)
    primal = np.asarray(primal, dtype=float)

    local = dofmap.local_vectors(primal)
    basis_s = get_tri_basis(mesh, config.mult_degree)
    u0 = dofmap.u0_coefficients(primal, mesh)
    basis_k = get_tri_basis(mesh, config.k)
    region = mesh.region_tags[:, None]

    nt = mesh.n_triangles
    strong_coeff = np.empty((nt, basis_s.dim))
    weak_sq = np.empty((nt, triangle_quadrature(qd).weights.size))

    def chunk(e):
        hess = weak_hessian_local(mesh, config, e)
        pts, w = get_element_rule(mesh, qd, e)
        VS = basis_s.eval(pts, elements=e)
        a = problem.coeff.entries(pts[..., 0], pts[..., 1], region[e])
        # d2[dx]: u0 differentiated dx times in x and 2 - dx times in y.
        d2 = [_einsum("eqn,en->eq", basis_k.eval(pts, dx, 2 - dx, elements=e), u0[e])
              for dx in range(3)]
        weak_vals = np.zeros(pts.shape[:2])
        strong_vals = np.zeros(pts.shape[:2])
        for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)):
            dij = apply_weak_hessian(local[e], hess, i, j)  # (ne, ns)
            weak_vals += a[f"{i}{j}"] * _einsum("eqn,en->eq", VS, dij)
            strong_vals += a[f"{i}{j}"] * d2[(i == 1) + (j == 1)]
        # Project the strong combination onto the multiplier space per element.
        strong_coeff[e] = _einsum("eqn,eq,eq->en", VS, strong_vals, w)
        weak_sq[e] = w * weak_vals**2

    _for_chunks(nt, chunk)
    s_energy = stabilizer_energy(mesh, dofmap, primal)
    norm_2h = float(np.sqrt(np.sum(strong_coeff**2) + s_energy))
    triple = float(np.sqrt(np.sum(weak_sq) + s_energy))
    return NormReport(norm_2h=norm_2h, triple_norm=triple, s_energy=s_energy)


def _order(prev, cur):
    if prev is None or not (prev > 0.0) or not (cur > 0.0):
        return None
    return float(np.log2(prev / cur))


def _fmt(x):
    """8 significant digits; an empty cell for a missing order."""
    return "" if x is None else f"{x:.8g}"


@dataclass(frozen=True)
class ConvergenceTable:
    """Per-level error norms and observed orders of one study."""

    rows: tuple

    def order_rows(self):
        """Observed orders per row; the first row has all-``None`` orders."""
        out = []
        prev = None
        for row in self.rows:
            if prev is None:
                out.append({"e0": None, "eg": None, "gamma": None})
            else:
                out.append(
                    {
                        "e0": _order(prev.e0, row.e0),
                        "eg": _order(prev.eg, row.eg),
                        "gamma": _order(prev.gamma, row.gamma),
                    }
                )
            prev = row
        return out

    def final_orders(self):
        return self.order_rows()[-1]

    def _write_csv(self, columns, target):
        """CSV text of ``columns``, one line per row; written to ``target`` if given."""
        lines = [",".join(columns)]
        for row, orders in zip(self.rows, self.order_rows()):
            cells = {**asdict(row), "inv_h": row.inv_h, "h": row.h_max,
                     **{f"{key}_order": r for key, r in orders.items()}}
            lines.append(",".join(_fmt(cells[c]) for c in columns))
        text = "\n".join(lines) + "\n"
        if target is not None:
            _write_text(text, target)
        return text

    def to_csv(self, target=None):
        """Serialize to CSV; write to ``target`` path/handle if given."""
        return self._write_csv(_CSV_COLUMNS, target)

    def to_loglog_csv(self, target=None):
        """Plot-ready companion CSV with raw mesh sizes and errors."""
        return self._write_csv(_LOGLOG_COLUMNS, target)

    def summary_lines(self):
        lines = []
        for row, orders in zip(self.rows, self.order_rows()):
            parts = [f"level {row.level}:"]
            for key, val in (("e0", row.e0), ("eg", row.eg), ("gamma", row.gamma)):
                r = orders[key]
                r_txt = "--" if r is None else f"{r:.2f}"
                parts.append(f"{key}={val:.4e} (r={r_txt})")
            lines.append(" ".join(parts))
        return lines


def run_study(problem, config=None, levels=6, on_level=None):
    """Solve ``problem`` on ``levels`` uniformly refined meshes.

    Parameters
    ----------
    problem : ProblemSpec
        Its ``quad_degree`` sets the degree of every data integral.
    config : SpaceConfig, optional
        Defaults to the C0 variant with ``k = 2`` and the degree-1
        multiplier space.
    levels : int
        Number of meshes (the initial mesh plus ``levels - 1``
        refinements); must be at least 2 so orders can be observed.
    on_level : callable, optional
        Called as ``on_level(solution, row)`` after each level solves;
        ``solution.system`` holds that level's mesh and system.  Useful
        for dumping systems or progress reporting.

    Returns
    -------
    ConvergenceTable

    The tensor is sampled once on ``cordes_samples(problem.domain)``; if
    it breaks the Cordes condition there, one warning naming the problem,
    the cause and the worst point goes to ``logging.getLogger("pdwg")``
    and the study still runs.
    """
    if config is None:
        config = SpaceConfig()
    if levels < 2:
        raise ValueError("levels must be >= 2")
    cordes = cordes_check(problem.coeff, *cordes_samples(problem.domain))
    if not cordes.satisfied:
        log.warning(
            "problem %s breaks the Cordes condition: %s (worst point %s)",
            problem.name,
            cordes.message or f"sampled epsilon {cordes.epsilon:.3g} <= 0",
            cordes.worst_point,
        )
    mesh = build_initial_mesh(problem.domain)
    rows = []
    for lvl in range(levels):
        if lvl > 0:
            mesh = refine_uniform(mesh)
        sol = solve(build_saddle(mesh, config, problem))
        row = error_norms(sol, problem)
        rows.append(row)
        if on_level is not None:
            on_level(sol, row)
        # Free this level's system and solution before the next is built.
        del sol
    return ConvergenceTable(rows=tuple(rows))
