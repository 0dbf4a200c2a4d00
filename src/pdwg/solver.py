"""Direct solution of the assembled saddle-point systems.

The reduced system (constrained DOFs eliminated symmetrically) is
symmetric indefinite; it is factorized with a sparse LU (SuperLU), with
one step of iterative refinement, and the relative algebraic residual is
verified against a hard tolerance.  Failure to factorize, a non-finite
solution, or a residual above tolerance raise :class:`SolverError` naming the suspect block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .polyquad import eval_element_poly

__all__ = ["SolverError", "WgSolution", "solve"]

#: Relative algebraic residual every solve must meet.
RESIDUAL_RTOL = 1e-9


class SolverError(RuntimeError):
    """Raised when the saddle system cannot be solved to tolerance."""


@dataclass(frozen=True)
class WgSolution:
    """Solution fields of one solve.

    ``u0`` holds per-element orthonormal coefficients of the interior
    field, ``ub`` per-edge trace coefficients (None in the C0 variant),
    ``ug`` per-edge gradient coefficients shaped (ne, 2, k), ``lam`` the
    multiplier coefficients.  ``primal`` is the raw global vector with
    boundary values reinstated.
    """

    u0: np.ndarray
    ub: np.ndarray | None
    ug: np.ndarray
    lam: np.ndarray
    primal: np.ndarray
    lam_vec: np.ndarray
    residual_norm: float
    mesh: object
    dofmap: object

    def eval_u0(self, pts, dx=0, dy=0):
        """Evaluate the interior field (or derivatives) at (nt, ..., 2) points."""
        return eval_element_poly(self.mesh, self.dofmap.config.k, self.u0, pts, dx=dx, dy=dy)


def _eliminate(system):
    K = system.block_matrix()
    rhs = system.rhs()
    n = system.n_total
    con = np.asarray(system.constrained, dtype=np.int64)
    vals = system.constrained_values
    if vals is None:
        vals = np.zeros(con.shape[0])
    free = np.ones(n, dtype=bool)
    free[con] = False
    free_idx = np.flatnonzero(free)
    K_csc = K.tocsc()
    rhs_red = rhs[free_idx] - K_csc[:, con][free_idx, :] @ vals
    K_red = K_csc[:, free_idx][free_idx, :].tocsc()
    return K_red, rhs_red, free_idx, con, vals


def solve(system, rtol=RESIDUAL_RTOL):
    """Solve an assembled :class:`SaddleSystem`.

    Parameters
    ----------
    system : SaddleSystem
        Must have boundary values attached (``constrained_values``).
    rtol : float
        Relative residual bound; the solve fails rather than return a
        vector violating it.

    Returns
    -------
    WgSolution
    """
    if system.constrained_values is None and system.constrained.size:
        raise ValueError("system has constrained DOFs without boundary values; "
                         "run apply_dirichlet first")
    K_red, rhs_red, free_idx, con, vals = _eliminate(system)
    rhs_norm = float(np.linalg.norm(rhs_red))

    try:
        lu = spla.splu(K_red)
    except RuntimeError as exc:
        raise SolverError(
            "sparse factorization failed: the saddle system is singular or "
            "numerically rank-deficient; the constraint block B is the usual "
            "suspect (mesh too coarse for the multiplier space)"
        ) from exc
    x = lu.solve(rhs_red)
    resid = rhs_red - K_red @ x
    if np.all(np.isfinite(resid)):
        x = x + lu.solve(resid)  # one step of iterative refinement

    if not np.all(np.isfinite(x)):
        raise SolverError(
            "solver produced non-finite values: the saddle system is singular "
            "or numerically rank-deficient (check the constraint block B)"
        )
    resid = float(np.linalg.norm(rhs_red - K_red @ x))
    rel = resid / rhs_norm if rhs_norm > 0 else resid
    if rel > rtol:
        raise SolverError(
            f"relative residual {rel:.3e} exceeds tolerance {rtol:.1e}; "
            "the system is too ill-conditioned for the factorization"
        )

    full = np.zeros(system.n_total)
    full[free_idx] = x
    full[con] = vals
    primal = full[: system.n_primal]
    lam_vec = full[system.n_primal :]

    dofmap, mesh = system.dofmap, system.mesh
    return WgSolution(
        u0=dofmap.u0_coefficients(primal, mesh),
        ub=dofmap.ub_coefficients(primal, mesh),
        ug=dofmap.ug_coefficients(primal, mesh),
        lam=lam_vec.reshape(mesh.n_triangles, dofmap.ns),
        primal=primal,
        lam_vec=lam_vec,
        residual_norm=rel,
        mesh=mesh,
        dofmap=dofmap,
    )
