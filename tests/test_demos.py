"""Every demo script, and the README's quick tour, runs against this
checkout's sources."""

import ast
import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # -W error matches pytest's own filterwarnings setting
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-W", "error", str(demo)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_tour_prints_what_it_shows():
    """Each dict the quick tour prints matches its ``# {...}`` comment."""
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Quick tour\n\n```python\n(.*?)```", readme,
                      re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    printed = [ast.literal_eval(line) for line in out.getvalue().splitlines()]
    shown = [ast.literal_eval(c)
             for c in re.findall(r"^# (\{.*\})$", block, re.M)]
    assert len(printed) == len(shown) > 0
    for got, want in zip(printed, shown):
        assert got.keys() == want.keys()
        assert got == pytest.approx(want, rel=0, abs=1e-12)
