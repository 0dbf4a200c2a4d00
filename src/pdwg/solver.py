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
    """The solved system and its two unknowns.

    ``primal`` is the global primal vector with boundary values
    reinstated, ``lam_vec`` the multiplier vector.  ``u0``, ``ub`` and
    ``ug`` read the interior, trace and gradient fields from ``primal``
    through ``system.dofmap`` (see :class:`~pdwg.wgspace.DofMap`).
    """

    system: object
    primal: np.ndarray
    lam_vec: np.ndarray
    residual_norm: float

    @property
    def u0(self):
        return self.system.dofmap.u0_coefficients(self.primal, self.system.mesh)

    @property
    def ub(self):
        return self.system.dofmap.ub_coefficients(self.primal)

    @property
    def ug(self):
        return self.system.dofmap.ug_coefficients(self.primal)

    def eval_u0(self, pts, dx=0, dy=0):
        """Evaluate the interior field (or derivatives) at (nt, ..., 2) points."""
        mesh, k = self.system.mesh, self.system.dofmap.config.k
        return eval_element_poly(mesh, k, self.u0, pts, dx=dx, dy=dy)


def _eliminate(system):
    con = system.constrained
    free = np.ones(system.n_total, dtype=bool)
    free[con] = False
    free_idx = np.flatnonzero(free)
    K_csc = system.block_matrix().tocsc()
    rhs_red = system.rhs()[free_idx] - K_csc[:, con][free_idx, :] @ system.constrained_values
    K_red = K_csc[:, free_idx][free_idx, :].tocsc()
    return K_red, rhs_red, free_idx


def solve(system):
    """Solve an assembled :class:`SaddleSystem`.

    The relative residual of the result is at most ``RESIDUAL_RTOL``;
    the solve fails rather than return a vector violating it.

    Parameters
    ----------
    system : SaddleSystem
        Its ``constrained`` DOFs are fixed to ``constrained_values``.

    Returns
    -------
    WgSolution
    """
    K_red, rhs_red, free_idx = _eliminate(system)
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
    x = x + lu.solve(rhs_red - K_red @ x)  # one step of iterative refinement

    if not np.all(np.isfinite(x)):
        raise SolverError(
            "solver produced non-finite values: the saddle system is singular "
            "or numerically rank-deficient (check the constraint block B)"
        )
    resid = float(np.linalg.norm(rhs_red - K_red @ x))
    rel = resid / rhs_norm if rhs_norm > 0 else resid
    if rel > RESIDUAL_RTOL:
        raise SolverError(
            f"relative residual {rel:.3e} exceeds tolerance {RESIDUAL_RTOL:.1e}; "
            "the system is too ill-conditioned for the factorization"
        )

    full = np.zeros(system.n_total)
    full[free_idx] = x
    full[system.constrained] = system.constrained_values
    return WgSolution(
        system=system,
        primal=full[: system.n_primal],
        lam_vec=full[system.n_primal :],
        residual_norm=rel,
    )
