"""Every script in ``demos/`` and the README's Python quick start run against the current API."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    # Demos write their artifacts to the working directory.
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_python_quick_start_runs(capsys):
    # The README's first ```python block reads ``pdwg.*`` names; it must run as written.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Quick start (Python)\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert abs(float(out[0]) - 0.8) <= 1e-12  # the epsilon the block's comment promises
    assert out[1].startswith("level 0: ") and out[5].startswith("level 4: ")
