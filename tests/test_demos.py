"""Every demo script runs to completion and ends with its summary line."""

import os
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


@pytest.mark.parametrize("name", sorted(LAST_LABEL))
def test_demo_runs(name):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    last = done.stdout.rstrip("\n").splitlines()[-1]
    assert last.split(":")[0].strip() == LAST_LABEL[name]
