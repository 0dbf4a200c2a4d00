"""Benchmark of ``pdwg``: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload study-p1-L6 --seed 1 --seconds 40 --trace 0

One run is one fresh process and a closed loop with one caller and one
BLAS thread: it repeats one workload iteration until the next would
overrun ``--seconds`` (at least one iteration), checks every output
against recorded reference values (``reference.json``, made by
``record_reference.py``), and prints one JSON object as the last line of
standard output.  The line before it holds the run's environment, the
per-iteration samples, the failures and ``fail_rate``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced iterations, at least one of each (see ``tracer.py``),
and reports the per-layer metrics, including ``trace.overhead_s``.
``--smoke`` runs the same workloads at 2-3 levels so the harness can be
checked in seconds.

Workloads (see README.md for why each was chosen):

* ``study-p1-L6``: ``pdwg.cli.main`` on p1, C0, k=2, pkm1, 7 levels.
* ``assemble-p5-L7``: the p5 mesh refined to level 7, then
  ``build_saddle`` for C0/pkm1 and for general/pkm2; no solve.
* ``sweep-catalog``: ``pdwg.cli.main`` on every catalog problem in both
  variants at k=2, plus p1 at k=3; ``--seed`` shuffles the case order.
"""

import os

# One caller and no extra threads; set before anything loads a BLAS.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from setup_probe import measure_setup  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5  # this process plus four fresh interpreters

#: Relative tolerance on the CSV error columns.  The CSV prints 8
#: significant digits; a different valid factorization moves s_energy by
#: up to 9e-7 relative (symmetric ordering, p1 level 5), so 1e-4 leaves
#: room for round-off while any change to the discretization fails.
RTOL_ERRORS = 1e-4
ERROR_COLUMNS = ("e0", "eg", "gamma", "e0_true", "s_energy")
#: Relative tolerance on ||B x_I - F|| / ||F|| of the assembled systems.
RTOL_INTERP = 1e-6

CLI_MULTIPLIER = {"pkm1": "p1", "pkm2": "p0"}


@dataclass(frozen=True)
class Case:
    """One ``pdwg-study`` invocation."""

    problem: str
    levels: int
    k: int = 2
    multiplier: str = "pkm1"
    c0: bool = True

    @property
    def key(self):
        variant = "c0" if self.c0 else "general"
        return f"{self.problem}/k{self.k}/{variant}/{self.multiplier}"

    def argv(self, out):
        argv = ["--problem", self.problem, "--levels", str(self.levels), "--k", str(self.k),
                "--multiplier", CLI_MULTIPLIER[self.multiplier], "--out", out]
        return argv if self.c0 else argv + ["--no-c0"]


def sweep_cases(smoke):
    """Six catalog problems x {C0/pkm1, general/pkm2} at k=2, plus p1 C0 k=3.

    p3, p4 and p5ref live on (-1,1)^2, whose base mesh has 8 triangles
    instead of 2, so they take one level fewer to reach the same size.
    """
    levels = {"p1": 6, "p2": 6, "p3": 5, "p4": 5, "p5": 6, "p5ref": 5}
    cases = []
    for name, n in levels.items():
        n = n - 3 if smoke else n
        cases.append(Case(name, n))
        cases.append(Case(name, n, multiplier="pkm2", c0=False))
    cases.append(Case("p1", 2 if smoke else 5, k=3))
    return cases


def study_cases(smoke):
    return [Case("p1", 3 if smoke else 7)]


ASSEMBLY_PROBLEM = "p5"
ASSEMBLY_VARIANTS = {"c0/pkm1": ("pkm1", True), "general/pkm2": ("pkm2", False)}


def assembly_level(smoke):
    return 3 if smoke else 7


# -- one iteration ---------------------------------------------------------


@dataclass
class Iteration:
    """Timings of one workload iteration and what its checks need."""

    wall_s: float = 0.0
    level_s: dict = field(default_factory=dict)  # level name -> seconds
    unknowns: int = 0
    residuals: list = field(default_factory=list)
    payload: list = field(default_factory=list)


@contextlib.contextmanager
def level_probe(levels):
    """Time each level of ``run_study`` and keep its size and residual.

    Wraps the three calls ``pdwg.analysis.run_study`` makes per level;
    a level spans assembly, solve and error norms.
    """
    import pdwg.analysis as analysis

    build, solve, norms = analysis.build_saddle, analysis.solve, analysis.error_norms

    def probe_build(*args, **kwargs):
        start = perf_counter()
        system = build(*args, **kwargs)
        levels.append({"start": start, "unknowns": system.n_total})
        return system

    def probe_solve(*args, **kwargs):
        sol = solve(*args, **kwargs)
        levels[-1]["residual"] = sol.residual_norm
        return sol

    def probe_norms(*args, **kwargs):
        row = norms(*args, **kwargs)
        levels[-1]["seconds"] = perf_counter() - levels[-1]["start"]
        return row

    analysis.build_saddle, analysis.solve, analysis.error_norms = probe_build, probe_solve, probe_norms
    try:
        yield
    finally:
        analysis.build_saddle, analysis.solve, analysis.error_norms = build, solve, norms


def report_exception(what):
    print(f"perfbench: {what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class CliWorkload:
    """``pdwg.cli.main`` once per case; each level is one operation."""

    def __init__(self, cases, reference, outdir):
        self.cases = cases
        self.reference = reference
        self.outdir = outdir

    @property
    def problems(self):
        return sorted({case.problem for case in self.cases})

    def measure(self):
        import pdwg.cli

        it = Iteration()
        for case in self.cases:
            out = os.path.join(self.outdir, case.key.replace("/", "_") + ".csv")
            with contextlib.suppress(FileNotFoundError):
                os.remove(out)
            levels = []
            with level_probe(levels):
                t0 = perf_counter()
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        rc = pdwg.cli.main(case.argv(out))
                except Exception:
                    report_exception(case.key)
                    rc = "exception"
                it.wall_s += perf_counter() - t0
            it.level_s.update((f"{case.key} level {n}", lv["seconds"])
                              for n, lv in enumerate(levels) if "seconds" in lv)
            it.unknowns += sum(lv["unknowns"] for lv in levels)
            it.residuals += [lv["residual"] for lv in levels if "residual" in lv]
            it.payload.append((case, rc, levels, out))
            # Free the case's mesh hierarchy, as the process of a separate
            # pdwg-study call would, so peak RSS does not depend on case order.
            gc.collect()
        return it

    def check(self, it):
        """One failure message or None per level of every case."""
        from pdwg.solver import RESIDUAL_RTOL

        outcomes = []
        for case, rc, levels, out in it.payload:
            expect = self.reference["studies"][case.key]
            if rc != 0:
                outcomes += [f"{case.key}: pdwg-study exit {rc}"] * case.levels
                continue
            with open(out) as fh:
                header, *rows = fh.read().splitlines()
            if header != self.reference["csv_header"] or len(rows) != case.levels:
                outcomes += [f"{case.key}: CSV header or row count differs"] * case.levels
                continue
            columns = header.split(",")
            for lvl, line in enumerate(rows):
                row = dict(zip(columns, line.split(",")))
                outcomes.append(check_level(case, lvl, levels, row, expect, RESIDUAL_RTOL))
        return outcomes


def rel_diff(got, want):
    return abs(got - want) / abs(want) if want else abs(got)


def check_level(case, lvl, levels, row, expect, residual_rtol):
    where = f"{case.key} level {lvl}"
    if lvl >= len(levels) or "residual" not in levels[lvl]:
        return f"{where}: level was not solved"
    if not levels[lvl]["residual"] <= residual_rtol:
        return f"{where}: residual {levels[lvl]['residual']:.3e} > {residual_rtol:.1e}"
    if levels[lvl]["unknowns"] != expect["n_unknowns"][lvl]:
        return f"{where}: {levels[lvl]['unknowns']} unknowns, expected {expect['n_unknowns'][lvl]}"
    if int(row["level"]) != lvl:
        return f"{where}: CSV row is level {row['level']}"
    for col in ERROR_COLUMNS:
        if not rel_diff(float(row[col]), expect[col][lvl]) <= RTOL_ERRORS:
            return f"{where}: {col} {row[col]} differs from {expect[col][lvl]:.8g}"
    return None


def interpolation_residual(mesh, config, problem, system):
    """``||B x_I - F|| / ||F||`` for the weak interpolant (C0) or projection."""
    import numpy as np
    import pdwg

    if config.c0_type:
        x = pdwg.interpolate_weak(mesh, config, problem.exact_u, problem.exact_grad_u)
    else:
        x = pdwg.project_weak(mesh, config, problem.exact_u, problem.exact_grad_u)
    return float(np.linalg.norm(system.B @ x - system.F) / np.linalg.norm(system.F))


def assembly_facts(system):
    return {
        "S_shape": list(system.S.shape),
        "S_nnz": int(system.S.nnz),
        "B_shape": list(system.B.shape),
        "B_nnz": int(system.B.nnz),
        "n_unknowns": int(system.n_total),
    }


def assembly_configs():
    from pdwg import SpaceConfig

    return {key: SpaceConfig(k=2, multiplier_space=mult, c0_type=c0)
            for key, (mult, c0) in ASSEMBLY_VARIANTS.items()}


class AssemblyWorkload:
    """Refine p5 to one level, then ``build_saddle`` per variant; each is one operation."""

    problems = [ASSEMBLY_PROBLEM]

    def __init__(self, level, reference):
        self.level = level
        self.expect = reference["assemblies"][str(level)]

    def measure(self):
        import pdwg

        it = Iteration()
        problem = pdwg.builtin(ASSEMBLY_PROBLEM)
        t0 = perf_counter()
        try:
            mesh = pdwg.build_initial_mesh(problem.domain)
            for _ in range(self.level):
                mesh = pdwg.refine_uniform(mesh)
            for key, config in assembly_configs().items():
                start = perf_counter()
                system = pdwg.build_saddle(mesh, config, problem)
                it.level_s[f"{key} level {self.level}"] = perf_counter() - start
                it.unknowns += system.n_total
                it.payload.append((key, mesh, config, problem, system))
        except Exception:
            report_exception(f"assembly at level {self.level}")
        it.wall_s = perf_counter() - t0
        return it

    def check(self, it):
        outcomes = []
        for key, mesh, config, problem, system in it.payload:
            expect = self.expect[key]
            where = f"{key} level {self.level}"
            facts = assembly_facts(system)
            wrong = [name for name, value in facts.items() if value != expect[name]]
            if (system.S != system.S.T).nnz:
                outcomes.append(f"{where}: S is not exactly symmetric")
            elif wrong:
                outcomes.append(f"{where}: {', '.join(wrong)} differ from the reference")
            else:
                resid = interpolation_residual(mesh, config, problem, system)
                ok = rel_diff(resid, expect["interp_residual"]) <= RTOL_INTERP
                outcomes.append(None if ok else f"{where}: interpolant residual {resid:.6e} "
                                f"differs from {expect['interp_residual']:.6e}")
        missing = len(ASSEMBLY_VARIANTS) - len(it.payload)
        return outcomes + [f"assembly at level {self.level} did not finish"] * missing


WORKLOADS = ("study-p1-L6", "assemble-p5-L7", "sweep-catalog")


def make_workload(name, seed, smoke, reference, outdir):
    if name == "study-p1-L6":
        return CliWorkload(study_cases(smoke), reference, outdir)
    if name == "assemble-p5-L7":
        return AssemblyWorkload(assembly_level(smoke), reference)
    cases = sweep_cases(smoke)
    random.Random(seed).shuffle(cases)
    return CliWorkload(cases, reference, outdir)


# -- per-layer metrics -----------------------------------------------------

#: Traced functions reported as ``<name>.calls`` and ``<name>.self_s``.
#: README.md maps each to the end-to-end metric and workload it should move.
TRACED_FUNCTIONS = (
    "solver.splu",
    "solver.lu_solve",
    "solver.solve",
    "assembly.build_saddle",
    "assembly.assemble_stabilizer",
    "assembly.stabilizer_local_parts",
    "assembly.assemble_constraint",
    "assembly.apply_dirichlet",
    "assembly.CoefficientField.entries",
    "wgspace.build_dof_map",
    "wgspace.weak_hessian_local",
    "wgspace.nodal_to_modal",
    "wgspace.lagrange_nodes",
    "polyquad.get_tri_basis",
    "polyquad.get_element_rule",
    "polyquad.get_edge_rule",
    "polyquad.TriangleBasis.eval",
    "mesh.refine_uniform",
    "analysis.error_norms",
    "analysis.lagrange_interpolant",
    "analysis.edge_gradient_interpolant",
    "analysis.run_study",
    "analysis.ConvergenceTable.to_csv",
    "cli.main",
)

LU_BYTES_PER_ENTRY = 12  # float64 value plus int32 index


def layer_metrics(tracer, it):
    """Per-layer numbers of one traced iteration."""
    from tracer import MODULES

    out = {}
    for name in TRACED_FUNCTIONS:
        stat = tracer.stats.get(name)
        out[f"{name}.calls"] = stat.calls if stat else 0
        out[f"{name}.self_s"] = stat.self_s if stat else 0.0
    for module in MODULES:
        out[f"{module}.self_s"] = sum(s.self_s for n, s in tracer.stats.items()
                                      if n.startswith(module + "."))
    fill = tracer.fill
    out["solver.lu_nnz"] = fill["lu_nnz"]
    out["solver.K_nnz"] = fill["K_nnz"]
    out["solver.n_free"] = fill["n_free"]
    out["solver.fill_ratio"] = fill["lu_nnz"] / fill["K_nnz"] if fill["K_nnz"] else 0.0
    out["solver.lu_mb_computed"] = fill["lu_nnz"] * LU_BYTES_PER_ENTRY / 1e6
    out["solver.rel_residual_max"] = max(it.residuals, default=0.0)
    return out


def layer_units(name):
    if name.endswith(".calls") or name in ("solver.lu_nnz", "solver.K_nnz", "solver.n_free"):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name == "solver.lu_mb_computed":
        return "MB"
    return "ratio"


# -- environment -----------------------------------------------------------


def mem_available_mb():
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


def git_commit(root):
    """Commit of a git checkout at ``root``, read from ``.git``; None otherwise."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_available_mb": mem_available_mb(),
        "git_commit": git_commit(ROOT),
    }


# -- the run ---------------------------------------------------------------


def setup_samples(problems):
    """Set-up seconds of this process, then of fresh interpreters."""
    samples = [measure_setup(str(SRC), problems)]
    probe = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *problems]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(probe, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout))
    return samples


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="same workloads at 2-3 levels, to check the harness")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "pdwg" / "__init__.py").is_file():
        print(f"perfbench: no pdwg sources under {SRC}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as outdir:
        workload = make_workload(args.workload, args.seed, args.smoke, reference, outdir)
        setup = setup_samples(workload.problems)
        import pdwg

        if Path(pdwg.__file__).resolve().parent != (SRC / "pdwg").resolve():
            print(f"perfbench: pdwg imported from {pdwg.__file__}, not {SRC}", file=sys.stderr)
            return 2
        return measure(args, workload, setup)


def measure(args, workload, setup):
    from tracer import Tracer

    tracer = Tracer() if args.trace else None
    plain, traced = [], []  # Iterations, and (Iteration, layer metrics) pairs
    outcomes = []
    longest = 0.0  # no iteration starts unless the longest so far still fits
    start = perf_counter()
    while True:
        t0 = perf_counter()
        trace_this = tracer is not None and len(traced) < len(plain)
        if trace_this:
            tracer.reset()
            tracer.install()
        try:
            it = workload.measure()
        finally:
            if trace_this:
                tracer.uninstall()
        if trace_this:
            traced.append((it, layer_metrics(tracer, it)))
        else:
            plain.append(it)
        outcomes += workload.check(it)
        it.payload.clear()  # drop the systems before the next iteration builds its own
        gc.collect()
        longest = max(longest, perf_counter() - t0)
        enough = tracer is None or traced
        if enough and perf_counter() - start + longest > args.seconds:
            break

    failures = [msg for msg in outcomes if msg is not None]
    attempted = len(outcomes)
    wall = statistics.median(it.wall_s for it in plain)
    if tracer is None:
        metrics = {
            "wall_s": (wall, "s"),
            "slowest_level_s": (statistics.median(max(it.level_s.values(), default=it.wall_s)
                                                  for it in plain), "s"),
            "unknowns_per_s": (statistics.median(it.unknowns / it.wall_s for it in plain), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }
    else:
        layers = [layer for _, layer in traced]
        metrics = {name: (statistics.median(layer[name] for layer in layers), layer_units(name))
                   for name in layers[0]}
        traced_wall = statistics.median(it.wall_s for it, _ in traced)
        metrics["trace.overhead_s"] = (traced_wall - wall, "s")

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "case_order": [case.key for case in getattr(workload, "cases", [])],
        "wall_s_samples": [it.wall_s for it in plain],
        "slowest_levels": [max(it.level_s, key=it.level_s.get, default=None) for it in plain],
        "traced_wall_s_samples": [it.wall_s for it, _ in traced],
        "setup_s_samples": setup,
        "fail_rate": len(failures) / attempted if attempted else 1.0,
        "failures": failures[:20],
        "environment": environment(),
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": attempted > 0 and not failures,
        "attempted": max(attempted, 1),
        "failed": len(failures) if attempted else 1,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
