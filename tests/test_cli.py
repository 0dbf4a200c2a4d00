"""Command-line driver: flag validation, outputs, determinism, entry points."""

import gc
import os
import re
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import pdwg
import pdwg.cli
from pdwg.analysis import CSV_HEADER, LOGLOG_HEADER
from pdwg.cli import build_parser, main
from pdwg.problems import builtin

from conftest import SUPERLU_ALLOCATION_FAILURES


# -- flag validation (exit code 2) ----------------------------------------------

def test_rejects_single_level(capsys):
    assert main(["--problem", "p1", "--levels", "1"]) == 2
    assert "levels must be ≥ 2" in capsys.readouterr().err


def test_rejects_unknown_problem(capsys):
    assert main(["--problem", "p99"]) == 2
    err = capsys.readouterr().err
    assert "unknown problem 'p99'" in err
    assert "p1, p2, p3, p4, p5, p5ref" in err


def test_rejects_low_degree(capsys):
    assert main(["--problem", "p1", "--k", "1"]) == 2
    assert "k must be ≥ 2" in capsys.readouterr().err


def test_requires_problem(capsys):
    assert main([]) == 2
    assert "--problem" in capsys.readouterr().err


def test_rejects_unknown_multiplier(capsys):
    assert main(["--problem", "p1", "--multiplier", "p7"]) == 2
    assert main(["--problem", "p1", "--multiplier", "auto"]) == 2


@pytest.mark.parametrize("flag", ["--out", "--dump-system"])
def test_rejects_output_in_missing_directory(flag, tmp_path, monkeypatch, capsys):
    # Checked with the flags, before any study runs or any file is written.
    monkeypatch.setattr(pdwg.cli, "run_study", lambda *a, **kw: pytest.fail("study ran"))
    missing = tmp_path / "missing"
    argv = ["--problem", "p1", "--levels", "2", "--out", str(tmp_path / "study.csv")]
    assert main(argv + [flag, str(missing / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert f"{flag}: cannot write to directory {str(missing)!r}" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, name", [
    ("--out", ""),
    ("--dump-system", ""),
    ("--out", "taken"),
    ("--dump-system", "taken"),
    ("--out", "taken.csv"),  # its companion taken.loglog.csv is a directory
])
def test_rejects_output_that_is_empty_or_a_directory(flag, name, tmp_path, monkeypatch, capsys):
    # Such a path could never be written: checked with the flags, before
    # any study runs or any file is written.
    monkeypatch.setattr(pdwg.cli, "run_study", lambda *a, **kw: pytest.fail("study ran"))
    (tmp_path / "taken").mkdir()
    (tmp_path / "taken.loglog.csv").mkdir()
    argv = ["--problem", "p1", "--levels", "2", "--out", str(tmp_path / "study.csv")]
    assert main(argv + [flag, str(tmp_path / name) if name else ""]) == 2
    bad = "" if not name else str(tmp_path / name.replace(".csv", ".loglog.csv"))
    assert f"{flag}: {bad!r} is empty or a directory" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken", "taken.loglog.csv"]


@pytest.mark.parametrize("dump", ["study.csv", "study.loglog.csv", "link.csv"])
def test_rejects_outputs_that_name_the_same_file(dump, tmp_path, monkeypatch, capsys):
    # --dump-system would overwrite the table or its companion (link.csv
    # is a symlink to the table): checked with the flags, before any study
    # runs or any file is written.
    monkeypatch.setattr(pdwg.cli, "run_study", lambda *a, **kw: pytest.fail("study ran"))
    out = tmp_path / "study.csv"
    (tmp_path / "link.csv").symlink_to(out)
    argv = ["--problem", "p1", "--levels", "2", "--out", str(out)]
    assert main(argv + ["--dump-system", str(tmp_path / dump)]) == 2
    real = os.path.realpath(tmp_path / dump)
    assert f"--out and --dump-system name the same file {real!r}" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["link.csv"]


def test_parser_defaults():
    args = build_parser().parse_args(["--problem", "p1"])
    assert args.k == 2
    assert args.multiplier == "p1"
    assert args.levels == 6
    assert args.out == "study.csv"
    assert not args.no_c0


# -- successful runs -------------------------------------------------------------

def test_run_writes_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "study.csv"
    assert main(["--problem", "p1", "--levels", "3", "--out", str(out)]) == 0

    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4

    companion = tmp_path / "study.loglog.csv"
    assert companion.exists()
    assert companion.read_text().startswith(LOGLOG_HEADER + "\n")

    stdout = capsys.readouterr().out.strip().split("\n")
    assert len(stdout) == 3
    assert stdout[0].startswith("level 0: e0=")
    assert "(r=--)" in stdout[0]
    assert "(r=--)" not in stdout[-1]


def test_loglog_companion_without_csv_suffix(tmp_path, capsys):
    out = tmp_path / "table"
    assert main(["--problem", "p1", "--levels", "2", "--out", str(out)]) == 0
    assert out.exists()
    assert (tmp_path / "table.loglog.csv").exists()


def test_repeat_runs_identical_bytes(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["--problem", "p1", "--levels", "3"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.loglog.csv").read_bytes() == (tmp_path / "b.loglog.csv").read_bytes()


def test_low_degree_multiplier_variant(tmp_path, capsys):
    out = tmp_path / "p4.csv"
    assert main(["--problem", "p4", "--multiplier", "p0", "--levels", "2", "--out", str(out)]) == 0
    assert out.exists()


def test_fully_discontinuous_variant(tmp_path, capsys):
    out = tmp_path / "gen.csv"
    assert main(["--problem", "p1", "--no-c0", "--levels", "2", "--out", str(out)]) == 0
    assert out.exists()


def test_basis_failure_exits_3(tmp_path, capsys):
    # Degree 8 is beyond the scaled-monomial element basis: the study stops
    # with exit code 3 and one stderr line naming the degree.
    out = tmp_path / "k8.csv"
    assert main(["--problem", "p1", "--k", "8", "--levels", "2", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "degree 8" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_nonfinite_exact_solution_exits_3(tmp_path, capsys, monkeypatch):
    # An exact solution that is NaN near x = 1 stops the study with exit
    # code 3 instead of writing nan error norms.
    p1 = builtin("p1")
    nan_u = lambda x, y: np.where(x > 0.9, np.nan, p1.exact_u(x, y))
    monkeypatch.setattr(pdwg.cli, "builtin", lambda name: replace(p1, exact_u=nan_u))
    out = tmp_path / "nan.csv"
    assert main(["--problem", "p1", "--levels", "2", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "non-finite" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_out_of_memory_factorization_exits_3(tmp_path, capsys, splu_out_of_memory):
    # SuperLU raises MemoryError when its factors do not fit; the study
    # stops with exit code 3 and one stderr line naming the cause.
    out = tmp_path / "oom.csv"
    assert main(["--problem", "p1", "--levels", "2", "--out", str(out)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("solver failure: sparse factorization ran out of memory: ")
    assert not out.exists()


@pytest.mark.parametrize("exc", SUPERLU_ALLOCATION_FAILURES, ids=str)
def test_superlu_allocation_failure_exits_3(tmp_path, capsys, splu_raises, exc):
    # SuperLU's allocation aborts other than MemoryError stop the study the
    # same way, not as a singular system.
    splu_raises(exc)
    out = tmp_path / "oom.csv"
    assert main(["--problem", "p1", "--levels", "2", "--out", str(out)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("solver failure: sparse factorization ran out of memory: ")
    assert not out.exists()


def test_dump_system_frees_each_coarser_level(tmp_path, monkeypatch):
    # Only the finest level is dumped, so no coarser solution may be alive
    # when the next level is assembled.
    solutions, alive = [], []
    real_build, real_solve = pdwg.analysis.build_saddle, pdwg.analysis.solve

    def build_saddle(*args):
        gc.collect()
        alive.append([ref() is not None for ref in solutions])
        return real_build(*args)

    def solve(system):
        sol = real_solve(system)
        solutions.append(weakref.ref(sol))
        return sol

    monkeypatch.setattr(pdwg.analysis, "build_saddle", build_saddle)
    monkeypatch.setattr(pdwg.analysis, "solve", solve)
    assert main([
        "--problem", "p1", "--levels", "3",
        "--out", str(tmp_path / "s.csv"), "--dump-system", str(tmp_path / "system.txt"),
    ]) == 0
    assert alive == [[], [False], [False, False]]


def test_dump_system(tmp_path, capsys):
    out = tmp_path / "s.csv"
    dump = tmp_path / "system.txt"
    assert main([
        "--problem", "p1", "--levels", "2",
        "--out", str(out), "--dump-system", str(dump),
    ]) == 0
    lines = dump.read_text().strip().split("\n")
    n_primal, n_mult, nnz = (int(tok) for tok in lines[0].split())
    assert n_primal > 0 and n_mult > 0
    assert len(lines) == 1 + nnz
    row, col, val = lines[1].split()
    assert 0 <= int(row) < n_primal + n_mult
    float(val)


# -- external entry points -------------------------------------------------------

def child_env():
    """Environment in which a child interpreter imports this same ``pdwg``."""
    return {**os.environ, "PYTHONPATH": str(Path(pdwg.__file__).resolve().parents[1])}


def test_module_invocation(tmp_path):
    out = tmp_path / "m.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "pdwg.cli", "--problem", "p1", "--levels", "2", "--out", str(out)],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    assert "level 1: e0=" in proc.stdout


def test_console_script(tmp_path):
    # Run the pyproject.toml target the way the installed shim does: import
    # it, set argv[0] to the script name, exit with its return value.
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    match = re.search(r'^pdwg-study\s*=\s*"([\w.]+):(\w+)"', pyproject, re.MULTILINE)
    assert match, "pyproject.toml declares no pdwg-study console script"
    module, func = match.groups()
    out = tmp_path / "c.csv"
    shim = (
        "import sys\n"
        f"from {module} import {func}\n"
        "sys.argv[0] = 'pdwg-study'\n"
        f"sys.exit({func}())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", shim, "--problem", "p1", "--levels", "2", "--out", str(out)],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    assert "level 1: e0=" in proc.stdout


def test_console_script_bad_flags_exit_2(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "pdwg.cli", "--problem", "p1", "--levels", "1"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 2
    assert "levels must be" in proc.stderr
