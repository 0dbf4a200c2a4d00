"""Built-in problem catalog: data consistency and the ellipticity-ratio check."""

import numpy as np
import pytest

from pdwg.assembly import CoefficientField, constant_coefficients
from pdwg.mesh import DomainSpec
from pdwg.problems import builtin, catalog_names, cordes_check, cordes_samples

# Interior FD sample points, chosen away from coefficient jumps, solution
# kinks, and the point singularity of the radial problems.
_FD_POINTS = {
    "p1": [(0.37, 0.53), (0.71, 0.29)],
    "p2": [(0.5, 0.5), (0.31, 1.21), (1.29, 0.33)],
    "p3": [(0.37, 0.53), (-0.41, 0.61)],
    "p4": [(0.37, 0.53), (-0.41, -0.61), (0.52, -0.27)],
    "p5": [(0.37, 0.53), (0.71, 0.29)],
    "p5ref": [(0.45, 0.55), (-0.41, 0.61), (-0.52, -0.33)],
}


# -- catalog lookup -------------------------------------------------------------

def test_catalog_names():
    assert catalog_names() == ["p1", "p2", "p3", "p4", "p5", "p5ref"]


def test_builtin_case_insensitive():
    assert builtin("P4").name == "p4"
    assert builtin("p5REF").name == "p5ref"


def test_unknown_problem_message():
    with pytest.raises(ValueError, match=r"unknown problem 'p99'.*p1, p2, p3, p4, p5, p5ref"):
        builtin("p99")


def test_domains():
    assert builtin("p1").domain == DomainSpec("unit_square")
    assert builtin("p2").domain == DomainSpec("l_shape")
    assert builtin("p3").domain == DomainSpec("ref_square")
    assert builtin("p4").domain == DomainSpec("ref_square")
    assert builtin("p5").domain == DomainSpec("unit_square")
    assert builtin("p5ref").domain == DomainSpec("ref_square")


# -- frozen point values --------------------------------------------------------

def test_p1_source_value():
    f = builtin("p1").f
    expected = -5.0 * np.sin(1.0) ** 2 + 2.0 * np.cos(1.0) ** 2
    assert float(f(1.0, 1.0)) == pytest.approx(expected, rel=1e-14)


def test_p5_source_value():
    # At radius 1/2 the source is 3.52 * (1/2)**(-0.4).
    f = builtin("p5").f
    assert float(f(0.3, 0.4)) == pytest.approx(3.52 * 0.5 ** (-0.4), rel=1e-13)


def test_p4_solution_vanishes_on_boundary():
    u = builtin("p4").exact_u
    s = np.linspace(-1.0, 1.0, 17)
    for edge_vals in (u(s, np.ones_like(s)), u(s, -np.ones_like(s)),
                      u(np.ones_like(s), s), u(-np.ones_like(s), s)):
        assert np.max(np.abs(edge_vals)) <= 1e-15


def test_boundary_data_matches_exact_solution():
    for name in catalog_names():
        prob = builtin(name)
        poly = prob.domain.polygon
        # midpoints of the boundary polygon edges
        mid = 0.5 * (poly + np.roll(poly, -1, axis=0))
        gv = np.asarray(prob.g(mid[:, 0], mid[:, 1]), dtype=float)
        uv = np.asarray(prob.exact_u(mid[:, 0], mid[:, 1]), dtype=float)
        assert np.allclose(gv, uv, rtol=0.0, atol=1e-15), name


# -- differential consistency of (a, u, f) --------------------------------------

def _fd_hessian_action(prob, x, y, h=1e-4):
    """Finite-difference value of sum_ij a_ij d_ij u at one point."""
    u = prob.exact_u
    uxx = (u(x + h, y) - 2.0 * u(x, y) + u(x - h, y)) / h**2
    uyy = (u(x, y + h) - 2.0 * u(x, y) + u(x, y - h)) / h**2
    uxy = (u(x + h, y + h) - u(x + h, y - h) - u(x - h, y + h) + u(x - h, y - h)) / (4.0 * h**2)
    a = prob.coeff.entries(np.asarray(x), np.asarray(y))
    return float(a["11"] * uxx + (a["12"] + a["21"]) * uxy + a["22"] * uyy)


@pytest.mark.parametrize("name", sorted(_FD_POINTS))
def test_source_matches_hessian_of_exact_solution(name):
    prob = builtin(name)
    for x, y in _FD_POINTS[name]:
        fd = _fd_hessian_action(prob, x, y)
        assert float(prob.f(x, y)) == pytest.approx(fd, rel=1e-5), (name, x, y)


@pytest.mark.parametrize("name", sorted(_FD_POINTS))
def test_gradient_matches_exact_solution(name):
    prob = builtin(name)
    h = 1e-6
    u = prob.exact_u
    for x, y in _FD_POINTS[name]:
        gx = (u(x + h, y) - u(x - h, y)) / (2.0 * h)
        gy = (u(x, y + h) - u(x, y - h)) / (2.0 * h)
        exact = np.asarray(prob.exact_grad_u(np.asarray(x), np.asarray(y)))
        assert float(exact[0]) == pytest.approx(gx, rel=1e-6, abs=1e-9)
        assert float(exact[1]) == pytest.approx(gy, rel=1e-6, abs=1e-9)


# -- ellipticity-ratio check ----------------------------------------------------

def test_cordes_identity_tensor():
    coeff = constant_coefficients([[1.0, 0.0], [0.0, 1.0]])
    report = cordes_check(coeff, np.array([0.3]), np.array([0.7]))
    assert report.epsilon == 1.0
    assert report.ratio_sup == 0.5
    assert report.satisfied


def test_cordes_p4_exact():
    # trace = 4, |a|^2 = 10 at every point: eps = 6/10 exactly.
    prob = builtin("p4")
    x, y, region = cordes_samples(prob.domain)
    report = cordes_check(prob.coeff, x, y, region)
    assert report.epsilon == 3.0 / 5.0
    assert report.satisfied


def test_cordes_p5_exact_on_axis_and_diagonal():
    # On axes and diagonals the ratios x^2/r^2 etc. are exact dyadics,
    # so eps = (9 - 5)/5 comes out exactly.
    coeff = builtin("p5").coeff
    x = np.array([0.5, 0.0, 0.3, -0.7])
    y = np.array([0.0, 0.25, 0.3, 0.7])
    report = cordes_check(coeff, x, y)
    assert report.epsilon == 4.0 / 5.0
    assert report.satisfied


def test_cordes_p5_on_sample_cloud():
    prob = builtin("p5")
    x, y, region = cordes_samples(prob.domain)
    report = cordes_check(prob.coeff, x, y, region)
    assert abs(report.epsilon - 0.8) <= 1e-12
    assert report.satisfied


def test_cordes_all_builtin_problems_satisfied():
    for name in catalog_names():
        prob = builtin(name)
        x, y, region = cordes_samples(prob.domain, level=2)
        report = cordes_check(prob.coeff, x, y, region)
        assert report.satisfied, name
        assert 0.0 < report.epsilon <= 1.0


def test_cordes_rejects_nonelliptic():
    neg = lambda x, y, region=None: np.full(np.broadcast(x, y).shape, -1.0)
    zero = lambda x, y, region=None: np.zeros(np.broadcast(x, y).shape)
    coeff = CoefficientField(a11=neg, a12=zero, a22=zero)
    report = cordes_check(coeff, np.array([0.1]), np.array([0.2]))
    assert not report.satisfied
    assert "not uniformly elliptic" in report.message
    assert np.isnan(report.epsilon)


def test_cordes_samples_shapes():
    x, y, region = cordes_samples(DomainSpec("ref_square"), level=1)
    assert x.shape == y.shape == region.shape
    assert x.ndim == 2
    assert set(np.unique(region)) <= {0, 1, 2, 3}
    assert np.max(np.abs(x)) < 1.0 and np.max(np.abs(y)) < 1.0
