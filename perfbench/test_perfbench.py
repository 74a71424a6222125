"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tiny(name: str, tmp_path: Path):
    bench = run.setup(name, 5, tmp_path / "work", "TINY")
    bench.reference()
    return bench


def _report(bench, tmp_path, monkeypatch, capsys, trace: int) -> tuple[dict, dict]:
    monkeypatch.setattr(run, "OUT", tmp_path)
    args = argparse.Namespace(workload=bench.name, seed=5, seconds=0.01, trace=trace)
    assert run.report(args, SPEC, bench, [0.1], tmp_path / "work", "TINY") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(next(line for line in lines if line.startswith("summary "))[8:])
    return summary, json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_its_checks(name, tmp_path):
    bench = _tiny(name, tmp_path)
    times, attempted, failed = run.timed(bench, 0.01)
    assert attempted >= 1 and failed == 0 and len(times) == attempted


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_end_to_end_metric_names_match_spec(name, tmp_path, monkeypatch, capsys):
    summary, result = _report(_tiny(name, tmp_path), tmp_path, monkeypatch, capsys, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert [m["unit"] for m in result["metrics"].values()] == \
        [m["unit"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"] and summary["fail_frac"] == 0.0


def test_traced_run_reports_every_layer(tmp_path, monkeypatch, capsys):
    bench = _tiny("chain16_mma", tmp_path)
    summary, result = _report(bench, tmp_path, monkeypatch, capsys, 1)
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert result["correct"]
    trace = json.loads((ROOT / summary["trace_file"]).read_text(encoding="utf-8"))
    layers = set().union(*(v for v in trace["self_time_s_per_op"].values()))
    assert {"projection", "qasm", "hamiltonian", "fusion", "engine", "cli"} <= layers
    assert trace["spans"] and trace["span_fields"][0] == "name"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_wrong_reference_counts_as_failure(name, tmp_path, monkeypatch, capsys):
    bench = _tiny(name, tmp_path)
    if name == "narrow_rejection":
        bench.p_mma = 0.999
    else:
        bench.ref_probs = [p * (1 + 1e-6) for p in bench.ref_probs]
    summary, result = _report(bench, tmp_path, monkeypatch, capsys, 0)
    assert summary["fail_frac"] > 0 and result["failed"] == result["attempted"]
    assert not result["correct"]


def test_tail_is_the_highest_percentile_with_ten_beyond():
    times = [float(i) for i in range(1, 31)]
    assert run.tail(times) == (20.0, 100.0 * 20 / 30, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 100.0 / 3, 2)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "narrow_cli",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
