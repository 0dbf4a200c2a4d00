"""Built-in model problems and the Cordes condition check.

Every problem is the non-divergence-form equation
``sum_ij a_ij(x) d2u/dx_i dx_j = f`` with Dirichlet data ``g`` on the
boundary of one of the built-in domains.  The catalog covers the solver
regimes of interest:

* ``p1`` / ``p2``: constant tensor ``[[3, 1], [1, 2]]`` with the smooth
  solution ``sin(x1) sin(x2)`` on the unit square and on the L-shaped
  (reentrant corner) domain;
* ``p3``: continuous but non-smooth tensor with ``|x|**(1/3)``-type
  off-diagonal entries on ``(-1, 1)^2``;
* ``p4``: tensor with entries jumping across both coordinate axes
  (sign pattern per quadrant) on ``(-1, 1)^2``; the solution vanishes on
  the boundary and has matching kinks;
* ``p5`` / ``p5ref``: radial tensor ``I + x x^T / |x|^2`` with the
  low-regularity solution ``|x|**1.6`` on ``(0, 1)^2`` (singular point
  in a corner) and on ``(-1, 1)^2`` (singular point interior).

Right-hand sides of the smooth problems are derived analytically from
the closed-form second derivatives of ``u``.  Tensors that jump across
the axes are evaluated through the element region tag, so quadrature
points near an interface always get their own element's branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import CoefficientField, constant_coefficients
from .mesh import DomainSpec, build_initial_mesh, ref_square_quadrant_signs, refine_uniform
from .polyquad import DATA_DEGREE_DEFAULT, get_element_rule

__all__ = [
    "ProblemSpec",
    "CordesReport",
    "builtin",
    "catalog_names",
    "cordes_check",
    "cordes_samples",
]


@dataclass(frozen=True)
class ProblemSpec:
    """One model problem: domain, tensor, data, and exact fields.

    ``quad_degree`` is the exactness degree of every data integral: the
    constraint block and load vector, the boundary projection and the
    error norms (each raised to the geometry degree of its integrand).
    """

    name: str
    domain: DomainSpec
    coeff: CoefficientField
    f: object
    g: object
    exact_u: object = None
    exact_grad_u: object = None
    quad_degree: int = DATA_DEGREE_DEFAULT
    description: str = ""


@dataclass(frozen=True)
class CordesReport:
    """Result of sampling the Cordes ratio of a coefficient tensor.

    For a symmetric uniformly elliptic tensor in 2D the condition reads
    ``(sum_ij a_ij^2) / (trace a)^2 <= 1 / (1 + eps)`` for some
    ``eps`` in (0, 1]; ``epsilon`` below is the largest such value,
    computed from the sampled supremum of the left-hand side.
    """

    ratio_sup: float
    epsilon: float
    satisfied: bool
    worst_point: tuple
    message: str = ""


def cordes_check(coeff, x, y, region=None):
    """Sample the Cordes ratio of ``coeff`` at the given points."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    a = coeff.entries(x, y, region)
    trace = a["11"] + a["22"]
    sq = a["11"] ** 2 + a["12"] ** 2 + a["21"] ** 2 + a["22"] ** 2
    if np.any(trace <= 0):
        bad = int(np.argmin(trace.ravel()))
        pt = (float(x.ravel()[bad]), float(y.ravel()[bad]))
        return CordesReport(
            ratio_sup=float("nan"),
            epsilon=float("nan"),
            satisfied=False,
            worst_point=pt,
            message=f"tensor trace is non-positive at {pt}; not uniformly elliptic",
        )
    ratio = sq / trace**2
    # Pointwise eps = trace^2/sq - 1, in the subtraction form that stays
    # exact when the entries are exactly representable.
    eps_pt = (trace**2 - sq) / sq
    worst = int(np.argmin(eps_pt.ravel()))
    ratio_sup = float(np.max(ratio))
    epsilon = float(eps_pt.ravel()[worst])
    return CordesReport(
        ratio_sup=ratio_sup,
        epsilon=epsilon,
        satisfied=epsilon > 0.0,
        worst_point=(float(x.ravel()[worst]), float(y.ravel()[worst])),
    )


def cordes_samples(domain, level=3):
    """Default sample cloud: all quadrature points of a level-``level`` mesh.

    Returns ``(x, y, region)`` arrays shaped (nt, nq); points are
    strictly interior to their elements, so tensors discontinuous across
    mesh lines are sampled on well-defined branches.
    """
    mesh = build_initial_mesh(domain)
    for _ in range(level):
        mesh = refine_uniform(mesh)
    pts, _ = get_element_rule(mesh, DATA_DEGREE_DEFAULT)
    region = np.broadcast_to(mesh.region_tags[:, None], pts.shape[:2])
    return pts[..., 0], pts[..., 1], region


# -- catalog ----------------------------------------------------------------

def _sin_sin(x, y):
    """The smooth solution ``sin(x1) sin(x2)`` of ``p1``, ``p2`` and ``p3``."""
    return np.sin(x) * np.sin(y)


def _sin_sin_grad(x, y):
    return np.stack([np.cos(x) * np.sin(y), np.sin(x) * np.cos(y)])


def _sin_sin_problem(name, domain_kind, description):
    a = constant_coefficients([[3.0, 1.0], [1.0, 2.0]])

    def f(x, y, region=None):
        return -5.0 * np.sin(x) * np.sin(y) + 2.0 * np.cos(x) * np.cos(y)

    return ProblemSpec(
        name=name,
        domain=DomainSpec(domain_kind),
        coeff=a,
        f=f,
        g=_sin_sin,
        exact_u=_sin_sin,
        exact_grad_u=_sin_sin_grad,
        description=description,
    )


def _p3():
    def a11(x, y, region=None):
        return 1.0 + np.abs(x)

    def a12(x, y, region=None):
        return 0.5 * np.cbrt(np.abs(x)) * np.cbrt(np.abs(y))

    def a22(x, y, region=None):
        return 1.0 + np.abs(y)

    def f(x, y, region=None):
        return (
            -(2.0 + np.abs(x) + np.abs(y)) * np.sin(x) * np.sin(y)
            + np.cbrt(np.abs(x)) * np.cbrt(np.abs(y)) * np.cos(x) * np.cos(y)
        )

    return ProblemSpec(
        name="p3",
        domain=DomainSpec("ref_square"),
        coeff=CoefficientField(a11=a11, a12=a12, a22=a22),
        f=f,
        g=_sin_sin,
        exact_u=_sin_sin,
        exact_grad_u=_sin_sin_grad,
        quad_degree=20,
        description="continuous non-smooth tensor, smooth solution, (-1,1)^2",
    )


def _signs(x, y, region):
    if region is None:
        return np.sign(x), np.sign(y)
    return ref_square_quadrant_signs(region)


def _p4():
    # Factor functions of u = x1 x2 (1 - e^{1-|x1|})(1 - e^{1-|x2|}).
    def phi(t):
        return t * (1.0 - np.exp(1.0 - np.abs(t)))

    def dphi(t):
        return 1.0 + (np.abs(t) - 1.0) * np.exp(1.0 - np.abs(t))

    def d2phi_mag(t):
        # |phi''|; the sign of phi'' is the sign of t.
        return (2.0 - np.abs(t)) * np.exp(1.0 - np.abs(t))

    def a11(x, y, region=None):
        return 2.0

    def a12(x, y, region=None):
        s1, s2 = _signs(x, y, region)
        return s1 * s2

    def u(x, y):
        return phi(x) * phi(y)

    def grad_u(x, y):
        return np.stack([dphi(x) * phi(y), phi(x) * dphi(y)])

    def f(x, y, region=None):
        s1, s2 = _signs(x, y, region)
        return (
            2.0 * s1 * d2phi_mag(x) * phi(y)
            + 2.0 * s1 * s2 * dphi(x) * dphi(y)
            + 2.0 * phi(x) * s2 * d2phi_mag(y)
        )

    return ProblemSpec(
        name="p4",
        domain=DomainSpec("ref_square"),
        coeff=CoefficientField(a11=a11, a12=a12, a22=a11),
        f=f,
        g=u,
        exact_u=u,
        exact_grad_u=grad_u,
        quad_degree=20,
        description="tensor jumping across both axes, kinked solution, (-1,1)^2",
    )


_P5_ALPHA = 1.6


def _p5(name, domain_kind, description):
    alpha = _P5_ALPHA

    def _r2(x, y):
        return x * x + y * y

    def _ratio(num, den):
        out = np.zeros(np.broadcast(num, den).shape)
        np.divide(num, den, out=out, where=den > 0)
        return out

    def a11(x, y, region=None):
        return 1.0 + _ratio(x * x, _r2(x, y))

    def a12(x, y, region=None):
        return _ratio(x * y, _r2(x, y))

    def a22(x, y, region=None):
        return 1.0 + _ratio(y * y, _r2(x, y))

    def u(x, y):
        return _r2(x, y) ** (alpha / 2.0)

    def grad_u(x, y):
        r2 = _r2(x, y)
        mag = np.zeros(np.broadcast(x, y).shape)
        np.power(r2, alpha / 2.0 - 1.0, out=mag, where=r2 > 0)
        return np.stack([alpha * mag * x, alpha * mag * y])

    def f(x, y, region=None):
        return (2.0 * alpha**2 - alpha) * _r2(x, y) ** (alpha / 2.0 - 1.0)

    return ProblemSpec(
        name=name,
        domain=DomainSpec(domain_kind),
        coeff=CoefficientField(a11=a11, a12=a12, a22=a22),
        f=f,
        g=u,
        exact_u=u,
        exact_grad_u=grad_u,
        quad_degree=20,
        description=description,
    )


_CATALOG = {
    "p1": lambda: _sin_sin_problem(
        "p1", "unit_square", "constant tensor [[3,1],[1,2]], smooth solution, (0,1)^2"
    ),
    "p2": lambda: _sin_sin_problem(
        "p2", "l_shape", "constant tensor [[3,1],[1,2]], smooth solution, L-shape"
    ),
    "p3": _p3,
    "p4": _p4,
    "p5": lambda: _p5(
        "p5", "unit_square", "radial tensor, |x|^1.6 solution, singular corner, (0,1)^2"
    ),
    "p5ref": lambda: _p5(
        "p5ref", "ref_square", "radial tensor, |x|^1.6 solution, singular interior point, (-1,1)^2"
    ),
}


def catalog_names():
    return sorted(_CATALOG)


def builtin(name):
    """Look up a built-in problem by name (case-insensitive)."""
    key = str(name).lower()
    if key not in _CATALOG:
        raise ValueError(
            f"unknown problem {name!r}; available: {', '.join(catalog_names())}"
        )
    return _CATALOG[key]()
