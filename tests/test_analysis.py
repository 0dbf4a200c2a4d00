"""Error norms, discrete norms, convergence tables, and the study driver."""

import logging
import re
from dataclasses import astuple, replace

import numpy as np
import pytest

from pdwg.analysis import (
    CSV_HEADER,
    LOGLOG_HEADER,
    NormReport,
    discrete_norms,
    edge_gradient_interpolant,
    error_norms,
    lagrange_interpolant,
    run_study,
)
from pdwg.assembly import build_saddle, constant_coefficients, stabilizer_energy
from pdwg.polyquad import (
    eval_edge_poly,
    eval_element_poly,
    get_edge_rule,
    get_element_rule,
    project_edge,
    project_element,
)
from pdwg.problems import builtin
from pdwg.solver import solve
from pdwg.wgspace import SpaceConfig, interpolate_weak, project_weak

from conftest import CHUNKS, assert_bitwise_equal, quadratic_problem, run_fresh


# -- interpolants ---------------------------------------------------------------

def test_lagrange_interpolant_exact_on_quadratic(unit_meshes):
    mesh = unit_meshes[1]
    q = lambda x, y: 1.0 + 2.0 * x - y + x * y + 3.0 * x**2 - 2.0 * y**2
    coeffs = lagrange_interpolant(q, mesh, 2)
    proj = project_element(q, 2, mesh)
    assert np.allclose(coeffs, proj, rtol=0.0, atol=1e-12)


def test_lagrange_interpolant_error_decay(unit_meshes):
    u = lambda x, y: np.sin(x) * np.sin(y)
    errs = []
    for mesh in unit_meshes[1:4]:
        coeffs = lagrange_interpolant(u, mesh, 2)
        pts, w = get_element_rule(mesh, 10)
        diff = eval_element_poly(mesh, 2, coeffs, pts) - u(pts[..., 0], pts[..., 1])
        errs.append(np.sqrt(np.sum(w * diff**2)))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert rates[-1] == pytest.approx(3.0, abs=0.1)


def test_edge_gradient_interpolant_exact_on_linear(unit_meshes):
    mesh = unit_meshes[1]
    grad = lambda x, y: np.stack([x + 2.0 * y, 3.0 * x - y])
    coeffs = edge_gradient_interpolant(grad, mesh, degree=1)
    assert coeffs.shape == (mesh.n_edges, 2, 2)
    pts, w, t = get_edge_rule(mesh, 6)
    vals = eval_edge_poly(mesh, 1, coeffs, t)
    exact = grad(pts[..., 0], pts[..., 1])  # (2, ne, nq)
    assert np.allclose(vals, np.transpose(exact, (1, 0, 2)), rtol=0.0, atol=1e-13)


def test_edge_gradient_interpolant_zero_field(unit_meshes):
    mesh = unit_meshes[1]
    zero = lambda x, y: np.zeros((2,) + np.broadcast(x, y).shape)
    assert np.all(edge_gradient_interpolant(zero, mesh, 1) == 0.0)


def test_edge_gradient_interpolant_weighted_decay(unit_meshes):
    # h-weighted L2 interpolation error of a smooth gradient: order 2.
    grad = lambda x, y: np.stack([np.cos(x) * np.sin(y), np.sin(x) * np.cos(y)])
    errs = []
    for mesh in unit_meshes[1:4]:
        coeffs = edge_gradient_interpolant(grad, mesh, degree=1)
        pts, w, t = get_edge_rule(mesh, 10)
        vals = eval_edge_poly(mesh, 1, coeffs, t)
        exact = np.transpose(grad(pts[..., 0], pts[..., 1]), (1, 0, 2))
        per_edge = np.sum(w[:, None, :] * (vals - exact) ** 2, axis=(1, 2))
        werr = 0.0
        for tri in range(mesh.n_triangles):
            werr += mesh.h_t[tri] * np.sum(per_edge[mesh.tri_edges[tri]])
        errs.append(np.sqrt(werr))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert rates[-1] == pytest.approx(2.0, abs=0.2)


def test_edge_gradient_interpolant_rejects_nonfinite(unit_meshes):
    mesh = unit_meshes[0]
    bad = lambda x, y: np.full((2,) + np.broadcast(x, y).shape, np.nan)
    with pytest.raises(ValueError, match="non-finite"):
        edge_gradient_interpolant(bad, mesh, 1)


def nan_beyond(u, edge=0.9):
    """``u`` with NaN wherever ``x > edge``."""
    return lambda x, y: np.where(x > edge, np.nan, u(x, y))


def test_interpolants_reject_nonfinite_values(unit_meshes):
    mesh = unit_meshes[1]
    u, grad = builtin("p1").exact_u, builtin("p1").exact_grad_u
    with pytest.raises(ValueError, match="non-finite"):
        lagrange_interpolant(nan_beyond(u), mesh, 2)
    with pytest.raises(ValueError, match="non-finite"):
        interpolate_weak(mesh, SpaceConfig(k=2, c0_type=True), nan_beyond(u), grad)


def test_error_norms_rejects_nonfinite_exact_solution(unit_meshes):
    # Finite at the six Lagrange nodes of each element, NaN at the
    # quadrature points: only the e0_true integral sees the NaN.
    prob = builtin("p1")
    sol = solve(build_saddle(unit_meshes[1], SpaceConfig(k=2, c0_type=True), prob))

    def nan_off_nodes(x, y):
        return prob.exact_u(x, y) if np.shape(x)[-1] == 6 else np.full(np.shape(x), np.nan)

    with pytest.raises(ValueError, match="non-finite"):
        error_norms(sol, replace(prob, exact_u=nan_off_nodes))


# -- scalar data ----------------------------------------------------------------

GENERAL, C0 = SpaceConfig(k=2, c0_type=False), SpaceConfig(k=2)


def _zero_gradient(x, y):
    return np.zeros((2,) + np.broadcast(x, y).shape)


def _general_saddle(mesh, u):
    system = build_saddle(mesh, GENERAL, replace(builtin("p1"), g=u))
    return [system.S.data, system.B.data, system.F, system.constrained_values]


def _error_norms(mesh, u):
    p1 = builtin("p1")
    sol = solve(build_saddle(mesh, C0, p1))
    return [np.array(astuple(error_norms(sol, replace(p1, exact_u=u))), dtype=float)]


SCALAR_DATA_CALLERS = {
    "build_saddle-general-g": _general_saddle,
    "project_element": lambda mesh, u: [project_element(u, 2, mesh)],
    "project_edge": lambda mesh, u: [project_edge(u, 2, mesh)],
    "project_weak": lambda mesh, u: [project_weak(mesh, GENERAL, u, _zero_gradient)],
    "interpolate_weak": lambda mesh, u: [interpolate_weak(mesh, C0, u, _zero_gradient)],
    "lagrange_interpolant": lambda mesh, u: [lagrange_interpolant(u, mesh, 2)],
    "error_norms-exact_u": _error_norms,
}


@pytest.mark.parametrize("caller", SCALAR_DATA_CALLERS.values(), ids=SCALAR_DATA_CALLERS)
def test_scalar_data_give_the_bits_of_array_data(unit_meshes, caller):
    # Data may return a scalar; it is broadcast to the points, so every
    # result holds the bits of the array-returning equivalent.
    mesh = unit_meshes[1]
    scalar = caller(mesh, lambda x, y: 0.3)
    full = caller(mesh, lambda x, y: np.full(np.broadcast(x, y).shape, 0.3))
    for got, want in zip(scalar, full, strict=True):
        assert_bitwise_equal(got, want)


# -- error norms ----------------------------------------------------------------

@pytest.mark.parametrize("c0", [True, False], ids=["c0", "general"])
def test_error_norms_quadratic_solution(unit_meshes, c0):
    mesh = unit_meshes[1]
    prob = quadratic_problem()
    config = SpaceConfig(k=2, multiplier_space="pkm1", c0_type=c0)
    sol = solve(build_saddle(mesh, config, prob))
    errs = error_norms(sol, prob)
    assert errs.e0 <= 1e-9
    assert errs.e0_true <= 1e-9
    assert errs.eg <= 1e-9
    assert errs.gamma <= 1e-9
    assert abs(errs.s_energy) <= 1e-10
    if not c0:  # the value trace is the edge projection of the quadratic
        assert np.abs(sol.ub - project_edge(prob.exact_u, 2, mesh)).max() <= 1e-9
    assert errs.level == mesh.level
    assert errs.inv_h == pytest.approx(1.0 / mesh.h_max)


def test_error_norms_requires_exact_solution(unit_meshes):
    mesh = unit_meshes[1]
    prob = quadratic_problem()
    config = SpaceConfig()
    sol = solve(build_saddle(mesh, config, prob))
    from dataclasses import replace

    with pytest.raises(ValueError, match="no exact solution"):
        error_norms(sol, replace(prob, exact_u=None, exact_grad_u=None))


@pytest.mark.parametrize("c0", [True, False], ids=["c0", "general"])
def test_error_norms_equals_study_row(unit_meshes, c0):
    # One solve on a fresh level-1 mesh gives the study's last row bit for bit.
    prob = builtin("p1")
    config = SpaceConfig(c0_type=c0)
    direct = error_norms(solve(build_saddle(unit_meshes[1], config, prob)), prob)
    assert direct == run_study(prob, config, levels=2).rows[-1]


def test_study_rows_do_not_depend_on_the_blas_thread_count():
    # A BLAS dot splits its sum over threads, so its last bits follow the
    # thread count; the reported norms are sums of their own.  At level 3
    # a dot gave s_energy a different last hex digit at 1 and 2 threads.
    script = """
import json
from dataclasses import astuple
import pdwg
config = pdwg.SpaceConfig(k=3, multiplier_space="pkm1", c0_type=False)
table = pdwg.run_study(pdwg.builtin("p3"), config, levels=4)
print(json.dumps([[v.hex() if isinstance(v, float) else v for v in astuple(row)]
                  for row in table.rows]))
"""
    one, two = (run_fresh(script, OPENBLAS_NUM_THREADS=n) for n in ("1", "2"))
    assert one == two


# -- discrete norms -------------------------------------------------------------

@pytest.mark.parametrize("c0", [True, False], ids=["c0", "general"])
def test_discrete_norms_quadratic_oracle(unit_meshes, c0):
    # For v = interpolant/projection of q = x^2 + 3xy + 2y^2 and the
    # constant tensor [[3,1],[1,2]]: sum_ij a_ij d_ij q = 20 everywhere,
    # the stabilizer vanishes, and both norms equal 20 * sqrt(area) = 20.
    mesh = unit_meshes[1]
    config = SpaceConfig(k=2, multiplier_space="pkm1", c0_type=c0)
    p1 = builtin("p1")
    q = lambda x, y: x**2 + 3.0 * x * y + 2.0 * y**2
    gq = lambda x, y: np.stack([2.0 * x + 3.0 * y, 3.0 * x + 4.0 * y])
    v = interpolate_weak(mesh, config, q, gq) if c0 else project_weak(mesh, config, q, gq)
    report = discrete_norms(v, mesh, config, p1)
    assert isinstance(report, NormReport)
    assert report.norm_2h == pytest.approx(20.0, rel=1e-11)
    assert report.triple_norm == pytest.approx(20.0, rel=1e-11)
    assert abs(report.s_energy) <= 1e-10


def test_discrete_norms_zero_vector(unit_meshes):
    mesh = unit_meshes[1]
    config = SpaceConfig()
    p1 = builtin("p1")
    dm_size = interpolate_weak(mesh, config, lambda x, y: 0.0 * x, lambda x, y: np.stack([0.0 * x, 0.0 * y])).shape
    report = discrete_norms(np.zeros(dm_size), mesh, config, p1)
    assert report == NormReport(0.0, 0.0, 0.0)


@pytest.mark.parametrize("name", ["p3", "p5"])
def test_discrete_norms_integrate_at_the_problem_data_degree(unit_meshes, ref_meshes, name):
    # The rough tensors of p3 and p5 need degree 20; at degree 12 both
    # norms move by 4e-7 to 3e-6 relative on these level-3 solutions.
    problem = builtin(name)
    assert problem.quad_degree == 20
    mesh = (unit_meshes if problem.domain.kind == "unit_square" else ref_meshes)[3]
    config = SpaceConfig(k=2, multiplier_space="pkm2", c0_type=False)
    primal = solve(build_saddle(mesh, config, problem)).primal
    got = discrete_norms(primal, mesh, config, problem)
    low = discrete_norms(primal, mesh, config, replace(problem, quad_degree=12))
    assert got.s_energy == low.s_energy
    for field in ("norm_2h", "triple_norm"):
        a, b = getattr(got, field), getattr(low, field)
        assert abs(a - b) >= 1e-7 * abs(a), field


def test_norm_equivalence_stable_under_refinement(unit_meshes, rng):
    # The two norms are equivalent with constants independent of the
    # mesh: empirical ratio bounds over random vectors must not widen
    # by more than 20% across three refinement levels.
    config = SpaceConfig(k=2, multiplier_space="pkm1", c0_type=True)
    p1 = builtin("p1")
    lo, hi = [], []
    for mesh in unit_meshes[1:4]:
        n = interpolate_weak(
            mesh, config, lambda x, y: 0.0 * x, lambda x, y: np.stack([0.0 * x, 0.0 * y])
        ).shape[0]
        ratios = []
        for _ in range(100):
            v = rng.standard_normal(n)
            rep = discrete_norms(v, mesh, config, p1)
            ratios.append(rep.triple_norm / rep.norm_2h)
        lo.append(min(ratios))
        hi.append(max(ratios))
    # widening would mean the upper bound growing or the lower bound
    # collapsing under refinement; both stay within 20% of level 1
    assert all(h <= hi[0] * 1.2 for h in hi), hi
    assert all(l >= lo[0] / 1.2 for l in lo), lo
    assert all(l > 0.0 for l in lo)


# -- tables and the study driver -------------------------------------------------

def test_run_study_rejects_single_level():
    with pytest.raises(ValueError, match="levels must be >= 2"):
        run_study(builtin("p1"), levels=1)


def test_run_study_warns_on_cordes_violation(caplog):
    indefinite = replace(builtin("p1"), name="indefinite", coeff=constant_coefficients([[1, 2], [2, 1]]))
    with caplog.at_level(logging.WARNING, logger="pdwg"):
        run_study(indefinite, levels=2)
    (record,) = caplog.records
    assert record.name == "pdwg" and record.levelno == logging.WARNING
    assert "indefinite" in record.getMessage()
    assert "epsilon -0.6" in record.getMessage()
    assert "worst point" in record.getMessage()
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="pdwg"):
        run_study(builtin("p1"), levels=2)
    assert caplog.records == []


@pytest.fixture(scope="module")
def small_table():
    return run_study(builtin("p1"), SpaceConfig(), levels=3)


def test_table_shape_and_levels(small_table):
    assert [row.level for row in small_table.rows] == [0, 1, 2]
    inv_h = [row.inv_h for row in small_table.rows]
    assert inv_h[1] == pytest.approx(2.0 * inv_h[0])
    assert inv_h[2] == pytest.approx(4.0 * inv_h[0])


def test_order_rows_first_row_empty(small_table):
    orders = small_table.order_rows()
    assert orders[0] == {"e0": None, "eg": None, "gamma": None}
    assert all(isinstance(v, float) for v in orders[-1].values())
    final = small_table.final_orders()
    assert final == orders[-1]


def test_csv_format(small_table, tmp_path):
    text = small_table.to_csv()
    lines = text.strip().split("\n")
    # The schema README documents and perfbench's reference records.
    assert lines[0] == CSV_HEADER == "level,inv_h,e0,e0_order,eg,eg_order,gamma,gamma_order,e0_true,s_energy"
    assert len(lines) == 1 + len(small_table.rows)
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[3] == "" and first[5] == "" and first[7] == ""
    last = lines[-1].split(",")
    assert len(last) == 10
    assert all(field != "" for field in last)
    # 8 significant digits
    assert re.fullmatch(r"-?\d+\.?\d*(e[+-]?\d+)?", last[2])
    assert float(last[2]) == pytest.approx(small_table.rows[-1].e0, rel=1e-7)

    out = tmp_path / "t.csv"
    returned = small_table.to_csv(out)
    assert out.read_text() == returned == text


def test_loglog_csv_format(small_table, tmp_path):
    text = small_table.to_loglog_csv()
    lines = text.strip().split("\n")
    assert lines[0] == LOGLOG_HEADER == "h,e0,eg,gamma"
    assert len(lines) == 1 + len(small_table.rows)
    h = [float(line.split(",")[0]) for line in lines[1:]]
    assert h[0] == pytest.approx(2.0 * h[1])
    out = tmp_path / "t.loglog.csv"
    small_table.to_loglog_csv(out)
    assert out.read_text() == text


def test_summary_line_format(small_table):
    lines = small_table.summary_lines()
    assert len(lines) == len(small_table.rows)
    assert re.fullmatch(
        r"level 0: e0=\d\.\d{4}e[+-]\d{2} \(r=--\) "
        r"eg=\d\.\d{4}e[+-]\d{2} \(r=--\) gamma=\d\.\d{4}e[+-]\d{2} \(r=--\)",
        lines[0],
    )
    assert re.fullmatch(
        r"level 2: e0=\d\.\d{4}e[+-]\d{2} \(r=-?\d+\.\d{2}\) "
        r"eg=\d\.\d{4}e[+-]\d{2} \(r=-?\d+\.\d{2}\) gamma=\d\.\d{4}e[+-]\d{2} \(r=-?\d+\.\d{2}\)",
        lines[-1],
    )


def test_on_level_callback_sees_every_level():
    seen = []
    run_study(
        builtin("p1"),
        SpaceConfig(),
        levels=2,
        on_level=lambda sol, row: seen.append((sol.system.mesh.level, row.level)),
    )
    assert seen == [(0, 0), (1, 1)]


def test_study_deterministic():
    a = run_study(builtin("p1"), SpaceConfig(), levels=3).to_csv()
    b = run_study(builtin("p1"), SpaceConfig(), levels=3).to_csv()
    assert a == b


@pytest.mark.parametrize("c0", [True, False])
def test_norms_are_chunk_invariant(chunked_mesh, set_chunk, c0):
    # e0_true, the stabilizer energy and the discrete norms are integrated
    # one chunk of elements at a time and summed over the whole mesh at
    # once, so every field keeps its bits (repr tells every float apart).
    problem = builtin("p1")
    config = SpaceConfig(k=2, multiplier_space="pkm1" if c0 else "pkm2", c0_type=c0)
    sol = solve(build_saddle(chunked_mesh, config, problem))
    got = []
    for size in CHUNKS:
        set_chunk(size)
        got.append(repr((
            astuple(error_norms(sol, problem)),
            stabilizer_energy(chunked_mesh, sol.system.dofmap, sol.primal),
            astuple(discrete_norms(sol.primal, chunked_mesh, config, problem)),
        )))
    assert got[0] == got[1]
