"""Acceptance gate: one test (and one printed verdict line) per criterion.

Each criterion pins published convergence orders or analytic identities
with explicit tolerances.  Observed orders come from 6-level refinement
studies shared through the session-scoped study cache; criterion 1 runs
its study locally so the <60 s wall-time bound is measured on a fresh
run.  Absolute error magnitudes are deliberately not asserted — only
rates and identities are stable across mesh generators.
"""

import time

import numpy as np
import pytest

from pdwg.analysis import discrete_norms, error_norms, run_study
from pdwg.assembly import (
    build_saddle,
    constant_coefficients,
    assemble_stabilizer,
    stabilizer_energy,
)
from pdwg.mesh import DomainSpec, build_initial_mesh, refine_uniform
from pdwg.problems import ProblemSpec, builtin, cordes_check, cordes_samples
from pdwg.solver import solve
from pdwg.wgspace import (
    SpaceConfig,
    apply_weak_hessian,
    build_dof_map,
    interpolate_weak,
    project_weak,
    weak_hessian_local,
)
from pdwg.polyquad import project_element


def _verdict(tag, ok, detail):
    line = f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _final(table):
    return table.final_orders()


# -- criterion 1: smooth problem, unit square, default element ------------------

def test_c1_smooth_square_rates_and_runtime():
    t0 = time.perf_counter()
    table = run_study(builtin("p1"), SpaceConfig(k=2, multiplier_space="pkm1", c0_type=True), levels=6)
    elapsed = time.perf_counter() - t0
    o = _final(table)
    ok = (
        elapsed < 60.0
        and abs(o["e0"] - 3.94) <= 0.25
        and abs(o["eg"] - 2.01) <= 0.25
        and abs(o["gamma"] - 1.02) <= 0.25
    )
    _verdict(
        "C1 smooth unit-square",
        ok,
        f"e0 {o['e0']:.3f} vs 3.94±0.25, eg {o['eg']:.3f} vs 2.01±0.25, "
        f"gamma {o['gamma']:.3f} vs 1.02±0.25, {elapsed:.1f}s < 60s",
    )


# -- criterion 2: smooth problem, L-shaped domain --------------------------------

def test_c2_smooth_lshape_rates(study_cache):
    o = _final(study_cache("p2"))
    ok = (
        abs(o["e0"] - 3.56) <= 0.25
        and abs(o["eg"] - 2.00) <= 0.25
        and abs(o["gamma"] - 1.01) <= 0.25
    )
    _verdict(
        "C2 smooth L-shape",
        ok,
        f"e0 {o['e0']:.3f} vs 3.56±0.25, eg {o['eg']:.3f} vs 2.00±0.25, "
        f"gamma {o['gamma']:.3f} vs 1.01±0.25",
    )


# -- criterion 3: continuous non-smooth coefficients -----------------------------

def test_c3_variable_coefficients_rates(study_cache):
    table = study_cache("p3")
    o = _final(table)
    second_finest_e0 = table.order_rows()[-2]["e0"]
    ok = (
        abs(o["eg"] - 2.01) <= 0.25
        and abs(o["gamma"] - 1.01) <= 0.25
        and second_finest_e0 >= 3.0
    )
    _verdict(
        "C3 variable coefficients",
        ok,
        f"eg {o['eg']:.3f} vs 2.01±0.25, gamma {o['gamma']:.3f} vs 1.01±0.25, "
        f"second-finest e0 {second_finest_e0:.3f} >= 3.0",
    )


# -- criterion 4: degree-0 multiplier -------------------------------------------

def test_c4_low_degree_multiplier_rates(study_cache):
    o = _final(study_cache("p3", multiplier="pkm2"))
    ok = abs(o["e0"] - 2.01) <= 0.25 and abs(o["eg"] - 2.02) <= 0.25
    _verdict(
        "C4 degree-0 multiplier",
        ok,
        f"e0 {o['e0']:.3f} vs 2.01±0.25, eg {o['eg']:.3f} vs 2.02±0.25",
    )


# -- criterion 5: discontinuous sign-flip coefficients ---------------------------

def test_c5_sign_flip_coefficients_rates(study_cache):
    o_hi = _final(study_cache("p4", multiplier="pkm1"))
    o_lo = _final(study_cache("p4", multiplier="pkm2"))
    ok = (
        abs(o_hi["eg"] - 2.06) <= 0.3
        and abs(o_lo["eg"] - 2.04) <= 0.3
        and o_hi["gamma"] >= 1.0
        and o_lo["gamma"] >= 1.0
    )
    _verdict(
        "C5 sign-flip coefficients",
        ok,
        f"eg {o_hi['eg']:.3f} vs 2.06±0.3 and {o_lo['eg']:.3f} vs 2.04±0.3, "
        f"gamma {o_hi['gamma']:.3f}, {o_lo['gamma']:.3f} >= 1.0",
    )


# -- criterion 6: radial tensor with a point singularity -------------------------

def test_c6_singular_solution_rates(study_cache):
    corner_hi = _final(study_cache("p5", multiplier="pkm1"))
    corner_lo = _final(study_cache("p5", multiplier="pkm2"))
    inner_hi = _final(study_cache("p5ref", multiplier="pkm1"))
    inner_lo = _final(study_cache("p5ref", multiplier="pkm2"))
    ok = (
        abs(corner_hi["eg"] - 1.59) <= 0.2
        and abs(corner_lo["eg"] - 1.59) <= 0.2
        and abs(corner_hi["gamma"] - 0.584) <= 0.15
        and abs(corner_lo["gamma"] - 0.593) <= 0.15
        and abs(inner_hi["gamma"] - 0.57) <= 0.2
        and abs(inner_lo["gamma"] - 0.57) <= 0.2
        and min(inner_hi["e0"], inner_lo["e0"]) >= 0.9
        and min(inner_hi["eg"], inner_lo["eg"]) >= 0.9
    )
    _verdict(
        "C6 singular radial solution",
        ok,
        f"corner eg {corner_hi['eg']:.3f}/{corner_lo['eg']:.3f} vs 1.59±0.2, "
        f"corner gamma {corner_hi['gamma']:.3f} vs 0.584±0.15 and "
        f"{corner_lo['gamma']:.3f} vs 0.593±0.15, interior gamma "
        f"{inner_hi['gamma']:.3f}/{inner_lo['gamma']:.3f} vs 0.57±0.2, "
        f"interior e0/eg all >= 0.9",
    )


# -- criterion 7: property suite (each bounded at 10 s) ---------------------------

def test_c7a_weak_hessian_commutes():
    t0 = time.perf_counter()
    mesh = build_initial_mesh(DomainSpec("unit_square"))
    for _ in range(3):
        mesh = refine_uniform(mesh)
    w = lambda x, y: np.sin(x) * np.sin(y)
    gw = lambda x, y: np.stack([np.cos(x) * np.sin(y), np.sin(x) * np.cos(y)])
    second = {
        (1, 1): lambda x, y: -np.sin(x) * np.sin(y),
        (1, 2): lambda x, y: np.cos(x) * np.cos(y),
        (2, 1): lambda x, y: np.cos(x) * np.cos(y),
        (2, 2): lambda x, y: -np.sin(x) * np.sin(y),
    }
    worst = 0.0
    for mult in ("pkm1", "pkm2"):
        config = SpaceConfig(k=2, multiplier_space=mult, c0_type=False)
        dofmap = build_dof_map(mesh, config)
        v = project_weak(mesh, config, w, gw)
        hess = weak_hessian_local(mesh, config)
        local = dofmap.local_vectors(v)
        for (i, j), d2 in second.items():
            weak = apply_weak_hessian(local, hess, i, j)
            projected = project_element(d2, config.mult_degree, mesh)
            worst = max(worst, float(np.max(np.abs(weak - projected))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    _verdict("C7a commutativity", ok, f"max discrepancy {worst:.2e} <= 1e-10, {elapsed:.1f}s < 10s")


def test_c7b_quadratic_exactness():
    t0 = time.perf_counter()
    prob = ProblemSpec(
        name="quadratic",
        domain=DomainSpec("unit_square"),
        coeff=constant_coefficients([[1.0, 0.0], [0.0, 1.0]]),
        f=lambda x, y, region=None: np.full(np.broadcast(x, y).shape, 4.0),
        g=lambda x, y: x**2 + y**2,
        exact_u=lambda x, y: x**2 + y**2,
        exact_grad_u=lambda x, y: np.stack([2.0 * x, 2.0 * y]),
    )
    mesh = refine_uniform(build_initial_mesh(prob.domain))
    worst_e0, worst_gamma = 0.0, 0.0
    for c0 in (True, False):
        for mult in ("pkm1", "pkm2"):
            config = SpaceConfig(k=2, multiplier_space=mult, c0_type=c0)
            sol = solve(build_saddle(mesh, config, prob))
            errs = error_norms(sol, prob)
            worst_e0 = max(worst_e0, errs.e0_true)
            worst_gamma = max(worst_gamma, errs.gamma)
    elapsed = time.perf_counter() - t0
    ok = worst_e0 <= 1e-9 and worst_gamma <= 1e-9 and elapsed < 10.0
    _verdict(
        "C7b quadratic exactness",
        ok,
        f"e0_true {worst_e0:.2e} <= 1e-9, multiplier norm {worst_gamma:.2e} <= 1e-9, "
        f"{elapsed:.1f}s < 10s",
    )


def test_c7c_stabilizer_psd_and_conforming_zero(rng):
    t0 = time.perf_counter()
    mesh = refine_uniform(build_initial_mesh(DomainSpec("unit_square")))
    q = lambda x, y: 1.0 + x - 2.0 * y + x**2 + 3.0 * x * y + 2.0 * y**2
    gq = lambda x, y: np.stack([1.0 + 2.0 * x + 3.0 * y, -2.0 + 3.0 * x + 4.0 * y])
    worst_rel = 0.0
    min_rayleigh = np.inf
    for c0 in (True, False):
        config = SpaceConfig(k=2, multiplier_space="pkm1", c0_type=c0)
        dm = build_dof_map(mesh, config)
        S = assemble_stabilizer(mesh, dm)
        # PSD: Rayleigh quotients of random vectors stay nonnegative to roundoff
        scale_S = np.max(np.abs(S.data)) if S.nnz else 1.0
        for _ in range(50):
            x = rng.standard_normal(dm.n_primal)
            min_rayleigh = min(min_rayleigh, (x @ (S @ x)) / (scale_S * (x @ x)))
        # conforming input: pointwise-jump energy vanishes
        v = interpolate_weak(mesh, config, q, gq) if c0 else project_weak(mesh, config, q, gq)
        worst_rel = max(worst_rel, stabilizer_energy(mesh, dm, v) / (v @ v))
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-20 and min_rayleigh >= -1e-14 and elapsed < 10.0
    _verdict(
        "C7c stabilizer PSD + conforming zero",
        ok,
        f"conforming energy {worst_rel:.2e} <= 1e-20 relative, "
        f"min scaled Rayleigh {min_rayleigh:.2e} >= -1e-14, {elapsed:.1f}s < 10s",
    )


def test_c7d_norm_equivalence(rng):
    t0 = time.perf_counter()
    config = SpaceConfig(k=2, multiplier_space="pkm1", c0_type=True)
    p1 = builtin("p1")
    mesh = build_initial_mesh(DomainSpec("unit_square"))
    lo, hi = [], []
    for lvl in range(1, 4):
        mesh = refine_uniform(mesh)
        dm = build_dof_map(mesh, config)
        ratios = []
        for _ in range(100):
            v = rng.standard_normal(dm.n_primal)
            rep = discrete_norms(v, mesh, config, p1)
            ratios.append(rep.triple_norm / rep.norm_2h)
        lo.append(min(ratios))
        hi.append(max(ratios))
    elapsed = time.perf_counter() - t0
    ok = (
        all(h <= hi[0] * 1.2 for h in hi)
        and all(l >= lo[0] / 1.2 for l in lo)
        and all(l > 0 for l in lo)
        and elapsed < 10.0
    )
    _verdict(
        "C7d norm equivalence",
        ok,
        f"ratio bounds lo {min(lo):.3f}..{max(lo):.3f}, hi {min(hi):.3f}..{max(hi):.3f} "
        f"within 20% of level-1, {elapsed:.1f}s < 10s",
    )


def test_c7e_ellipticity_ratio_identities():
    t0 = time.perf_counter()
    p4 = builtin("p4")
    x4, y4, r4 = cordes_samples(p4.domain)
    eps4 = cordes_check(p4.coeff, x4, y4, r4).epsilon

    p5 = builtin("p5")
    # axis and diagonal points, where the radial ratios are exact dyadics
    x5 = np.array([0.5, 0.0, 0.3, -0.7])
    y5 = np.array([0.0, 0.25, 0.3, 0.7])
    eps5 = cordes_check(p5.coeff, x5, y5).epsilon

    ident = constant_coefficients([[1.0, 0.0], [0.0, 1.0]])
    eps1 = cordes_check(ident, np.array([0.3]), np.array([0.7])).epsilon
    elapsed = time.perf_counter() - t0
    ok = eps4 == 3.0 / 5.0 and eps5 == 4.0 / 5.0 and eps1 == 1.0 and elapsed < 10.0
    _verdict(
        "C7e ellipticity ratio identities",
        ok,
        f"eps {eps4} == 3/5, {eps5} == 4/5, {eps1} == 1, {elapsed:.1f}s < 10s",
    )


def test_c7f_saddle_solvability_every_level(study_cache):
    # The ten cached studies factor and solve every level of every
    # built-in problem; a singular factorization would have raised.
    t0 = time.perf_counter()
    runs = [
        ("p1", "pkm1"), ("p2", "pkm1"), ("p3", "pkm1"), ("p3", "pkm2"),
        ("p4", "pkm1"), ("p4", "pkm2"), ("p5", "pkm1"), ("p5", "pkm2"),
        ("p5ref", "pkm1"), ("p5ref", "pkm2"),
    ]
    solved = 0
    for name, mult in runs:
        table = study_cache(name, multiplier=mult)
        assert len(table.rows) == 6
        for row in table.rows:
            assert np.isfinite(row.e0) and np.isfinite(row.eg) and np.isfinite(row.gamma)
            solved += 1
    elapsed = time.perf_counter() - t0
    ok = solved == 60 and elapsed < 10.0
    _verdict(
        "C7f saddle solvability",
        ok,
        f"{solved}/60 level solves factored and finite, {elapsed:.1f}s < 10s",
    )


# -- study-level invariant (not one of the numbered criteria) --------------------

def test_invariant_stabilizer_energy_decays(study_cache):
    # The stabilizer energy of the discrete solution must shrink on
    # every refinement, for every built-in problem and both multiplier
    # spaces.
    runs = [
        ("p1", "pkm1"), ("p2", "pkm1"), ("p3", "pkm1"), ("p3", "pkm2"),
        ("p4", "pkm1"), ("p4", "pkm2"), ("p5", "pkm1"), ("p5", "pkm2"),
        ("p5ref", "pkm1"), ("p5ref", "pkm2"),
    ]
    for name, mult in runs:
        vals = [row.s_energy for row in study_cache(name, multiplier=mult).rows]
        assert all(b < a for a, b in zip(vals, vals[1:])), (name, mult, vals)


# -- criterion 8: determinism ----------------------------------------------------

def test_c8_deterministic_csv_bytes(tmp_path):
    from pdwg.cli import main

    argv = ["--problem", "p1", "--levels", "4"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    same = (
        a.read_bytes() == b.read_bytes()
        and (tmp_path / "a.loglog.csv").read_bytes() == (tmp_path / "b.loglog.csv").read_bytes()
    )
    _verdict("C8 determinism", same, "repeated fixed-seed runs give identical CSV bytes")
