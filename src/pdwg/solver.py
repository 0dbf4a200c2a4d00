"""Direct solution of the assembled saddle-point systems.

The reduced system, the blocks ``S`` and ``B`` with the constrained DOFs
eliminated symmetrically, is symmetric indefinite; it is factorized with
a sparse LU (SuperLU), with one step of iterative refinement, and the
relative algebraic residual is verified against a hard tolerance.
Failure to factorize, a factorization that runs out of memory, a
non-finite solution, or a residual above tolerance raise
:class:`SolverError` naming the suspect block or the cause and the
sizes of the reduced system and, once computed, of its factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .polyquad import eval_element_poly

__all__ = ["SolverError", "WgSolution", "solve"]

#: Relative algebraic residual every solve must meet.
RESIDUAL_RTOL = 1e-9


class SolverError(RuntimeError):
    """Raised when the saddle system cannot be solved to tolerance."""


@dataclass(frozen=True, eq=False)
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
    """Return ``K_red`` (CSC), ``rhs_red`` and the free primal DOFs ``f``.

    ``K_red = [[S_ff, B_f^T], [B_f, 0]]`` and ``rhs_red = [0; F] - [S_fc g; B_c g]``,
    with ``g`` the values of the constrained DOFs ``c``.
    """
    con, g = system.constrained, system.constrained_values
    free = np.ones(system.n_primal, dtype=bool)
    free[con] = False
    free_idx = np.flatnonzero(free)
    S, B = system.S, system.B
    # ``0.0 - y``, not ``-y``: a zero ``y`` keeps the +0 of ``[0; F] - y``.
    rhs_red = np.concatenate([0.0 - S[:, con][free_idx] @ g, system.F - B[:, con] @ g])
    B_f = B[:, free_idx]
    n = free_idx.size + B.shape[0]
    # Compressed stacking of CSR blocks; B_f widened to n columns stands
    # for [B_f, 0], since a missing block would send scipy through COO.
    upper = sp.hstack([S[free_idx][:, free_idx], B_f.T.tocsr()], format="csr")
    lower = sp.csr_matrix((B_f.data, B_f.indices, B_f.indptr), shape=(B.shape[0], n))
    K = sp.vstack([upper, lower], format="csr")
    # K is exactly symmetric, so its CSR arrays are its CSC arrays.
    return sp.csc_matrix((K.data, K.indices, K.indptr), shape=K.shape), rhs_red, free_idx


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
    sizes = f"K_red order {K_red.shape[0]}, nnz {K_red.nnz}"

    try:
        lu = spla.splu(K_red)
    except RuntimeError as exc:
        raise SolverError(
            "sparse factorization failed: the saddle system is singular or "
            "numerically rank-deficient; the constraint block B is the usual "
            f"suspect (mesh too coarse for the multiplier space); {sizes}"
        ) from exc
    except MemoryError as exc:
        raise SolverError(
            "sparse factorization ran out of memory: the LU factors of K_red "
            f"do not fit; {sizes}"
        ) from exc
    sizes += f", L+U nnz {lu.nnz}"
    x = lu.solve(rhs_red)
    x = x + lu.solve(rhs_red - K_red @ x)  # one step of iterative refinement

    if not np.all(np.isfinite(x)):
        raise SolverError(
            "solver produced non-finite values: the saddle system is singular "
            f"or numerically rank-deficient (check the constraint block B); {sizes}"
        )
    resid = float(np.linalg.norm(rhs_red - K_red @ x))
    rel = resid / rhs_norm if rhs_norm > 0 else resid
    if rel > RESIDUAL_RTOL:
        raise SolverError(
            f"relative residual {rel:.3e} exceeds tolerance {RESIDUAL_RTOL:.1e}; "
            f"the system is too ill-conditioned for the factorization; {sizes}"
        )

    primal = np.zeros(system.n_primal)
    primal[free_idx] = x[: free_idx.size]
    primal[system.constrained] = system.constrained_values
    return WgSolution(
        system=system, primal=primal, lam_vec=x[free_idx.size :], residual_norm=rel
    )
