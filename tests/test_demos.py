"""Every demo, and every Python example of README.md, runs to completion:
exit 0 and nothing on stderr."""
import re
import subprocess
import sys
from pathlib import Path

import pytest

from corpora import child_env

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(demo):
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout


def test_readme_python_examples_run_cleanly(tmp_path):
    # each fenced python block on its own, in a child, so one block's names
    # cannot stand in for another's missing import
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)
    assert blocks
    for block in blocks:
        proc = subprocess.run([sys.executable, "-c", block], cwd=tmp_path, env=child_env(),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout
