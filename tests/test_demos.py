"""Every demo script runs to completion and ends with its summary line, and
the README's library quick start runs as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# the label of each demo's last printed line
LAST_LABEL = {
    "fusion_payoff.py": "max assertion-probability drift after fusion",
    "ground_state_pipeline.py": "dominant read-out",
    "lcu_reference.py": "success probability",
    "parse_and_run.py": "agreement",
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(LAST_LABEL)


def _run_python(*args: str) -> subprocess.CompletedProcess:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name", sorted(LAST_LABEL))
def test_demo_runs(name):
    done = _run_python(str(ROOT / "demos" / name))
    assert done.returncode == 0, done.stderr
    last = done.stdout.rstrip("\n").splitlines()[-1]
    assert last.split(":")[0].strip() == LAST_LABEL[name]


def test_readme_quick_start_runs():
    """The README's one python block runs as written and prints the
    assertion probabilities and the overall success it promises."""
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
                        re.M | re.S)
    assert len(blocks) == 1
    done = _run_python("-c", blocks[0])
    assert done.returncode == 0, done.stderr
    probs, success = done.stdout.rsplit("] ", 1)
    assert 0.0 < float(success) <= 1.0 and probs.startswith("[")
