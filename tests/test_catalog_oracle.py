"""The 48 catalog studies at levels 0-3 against the values in ``catalog_oracle.json``.

The studies are every built-in problem at k = 2 and 3, in both variants
and with both multiplier spaces.  Per level the file holds the sizes,
e0, eg, gamma, e0_true and the stabilizer energy summed from squared
jumps (:func:`~pdwg.assembly.stabilizer_energy`), not the CSV's
``s_energy``, whose form ``primal @ (S @ primal)`` cancels.  Sizes must
match exactly and norms to ``RTOL`` relative.  The recording host
reproduces them bitwise, but other SIMD kernels of numpy and OpenBLAS
(AVX2 in place of AVX-512) move the k = 3, level-3 norms by up to 9e-10
relative, so ``RTOL`` is 1e-8, not 1e-10.  The file names the commit
it was recorded at; to record it again, run from the repository root

    PYTHONPATH=src python tests/test_catalog_oracle.py

and name in CHANGES.md each value that moves and why.
"""

import json
import subprocess
from pathlib import Path

import pytest

from pdwg.analysis import run_study
from pdwg.assembly import stabilizer_energy
from pdwg.problems import builtin, catalog_names
from pdwg.wgspace import SpaceConfig

ORACLE = Path(__file__).with_name("catalog_oracle.json")
LEVELS = 4
RTOL = 1e-8


def studies():
    """``(key, problem name, SpaceConfig)`` of each catalog study."""
    for name in catalog_names():
        for k in (2, 3):
            for c0 in (True, False):
                for mult in ("pkm1", "pkm2"):
                    key = f"{name}/k{k}/{'c0' if c0 else 'general'}/{mult}"
                    yield key, name, SpaceConfig(k=k, multiplier_space=mult, c0_type=c0)


def study_levels(name, config):
    """The recorded values of one study, one dict per level."""
    levels = []

    def record(sol, row):
        levels.append({
            "n_primal": row.n_primal,
            "n_mult": row.n_mult,
            "e0": row.e0,
            "eg": row.eg,
            "gamma": row.gamma,
            "e0_true": row.e0_true,
            "stabilizer_energy": stabilizer_energy(sol.system.mesh, sol.system.dofmap, sol.primal),
        })

    run_study(builtin(name), config, levels=LEVELS, on_level=record)
    return levels


STUDIES = list(studies())


def test_oracle_covers_every_catalog_study():
    recorded = json.loads(ORACLE.read_text())
    assert recorded["levels"] == LEVELS
    assert len(STUDIES) == 48
    assert sorted(recorded["studies"]) == sorted(key for key, _, _ in STUDIES)


@pytest.mark.parametrize("key, name, config", STUDIES, ids=[key for key, _, _ in STUDIES])
def test_catalog_study_matches_oracle(key, name, config):
    want = json.loads(ORACLE.read_text())["studies"][key]
    got = study_levels(name, config)
    assert [sorted(level) for level in got] == [sorted(level) for level in want]
    for level, (g, w) in enumerate(zip(got, want)):
        for field, value in w.items():
            if isinstance(value, int):
                assert g[field] == value, f"level {level} {field}"
            else:
                assert g[field] == pytest.approx(value, rel=RTOL, abs=0.0), f"level {level} {field}"


if __name__ == "__main__":
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ORACLE.parent, check=True,
                            capture_output=True, text=True).stdout.strip()
    oracle = {"commit": commit, "levels": LEVELS,
              "studies": {key: study_levels(name, config) for key, name, config in STUDIES}}
    ORACLE.write_text(json.dumps(oracle, indent=1) + "\n")
    print(f"wrote {ORACLE} at {commit}")
