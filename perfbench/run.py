"""nucsim benchmark: one workload, timed (--trace 0) or traced (--trace 1).

    python3 perfbench/run.py --workload chain16_mma --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics, and the spans go to perfbench/out/trace-<workload>-seed<n>.json.
The lines before it give the environment block and a summary.  Load is one
closed-loop client in this process: the next op starts when the last one ends.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()  # set-up time counts from here, imports included

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 3        # this process plus two child processes
KERNEL_PROBE_QUBITS = 16
KERNEL_PROBE_REPS = 15
ROOFLINE_REPS = 400
PAIR_RE = re.compile(r"engine\.apply_2q_us\.p(\d+)q(\d+)$")


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With ten samples or fewer
    no percentile qualifies and the smallest sample stands in.
    """
    ordered = sorted(times)
    rank = max(1, len(ordered) - 10)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def setup(name: str, seed: int, workdir: Path, size: str = "FULL"):
    """Input generation, and a warm-up pass along the path at full width but
    one filter step of one Trotter slice.  ``size`` names the workload's
    size table, FULL or TINY.

    The warm-up must be full width: the first LAPACK call on the 128 x 128
    spectrum of narrow_cli costs about a second, a 4 x 4 one does not.
    """
    import workloads
    cls = workloads.WORKLOADS[name]
    sizes = getattr(cls, size)
    warm = cls(seed, workdir / "warm-up", **dict(sizes, steps=1, trotter=1))
    problem = warm.check(warm.op())
    if problem is not None:
        raise RuntimeError(f"warm-up of {name} failed its check: {problem}")
    return cls(seed, workdir, **sizes)


def setup_in_child(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
         "--seconds", "1", "--trace", "0", "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def attempt(bench, fn) -> tuple[float | None, bool]:
    """Run one op; returns (seconds, passed).  Seconds is None on an exception."""
    t0 = time.perf_counter()
    try:
        out = fn()
        seconds = time.perf_counter() - t0
        problem = bench.check(out)
    except Exception:  # the benchmark keeps going and counts the op as failed
        traceback.print_exc()
        return None, False
    if problem is not None:
        print(f"check failed: {bench.name}: {problem}", file=sys.stderr)
    return seconds, problem is None


def timed(bench, seconds: float) -> tuple[list[float], int, int]:
    """Closed loop of untraced ops for `seconds`; returns (times, attempted, failed)."""
    times, attempted, failed = [], 0, 0
    deadline = time.perf_counter() + seconds
    while True:
        dt, ok = attempt(bench, bench.op)
        attempted += 1
        failed += not ok
        if dt is not None:
            times.append(dt)
        if time.perf_counter() >= deadline:
            return times, attempted, failed


def kernel_probes(pairs: list[tuple[int, int]], tr) -> dict:
    """1q kernels at q = 0, 1, n-1, listed 2q pairs, and the roofline pass,
    on a random 2^16-amplitude state."""
    import numpy as np
    from nucsim import StateVector, apply_1q, apply_2q

    n = KERNEL_PROBE_QUBITS
    rng = np.random.default_rng(0)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    state = StateVector.from_amplitudes(amps / np.linalg.norm(amps))
    u1 = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    u2 = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    out = {}
    for q in (0, 1, n - 1):
        durations = []
        for _ in range(KERNEL_PROBE_REPS):
            with tr.span(f"engine.apply_1q.q{q}", "engine") as s:
                apply_1q(state, u1, q)
            durations.append(s.dur)
        out[f"engine.apply_1q_us.q{q}"] = 1e6 * statistics.median(durations)
    for p, q in pairs:
        durations = []
        for _ in range(KERNEL_PROBE_REPS):
            with tr.span(f"engine.apply_2q.p{p}q{q}", "engine") as s:
                apply_2q(state, u2, p, q)
            durations.append(s.dur)
        out[f"engine.apply_2q_us.p{p}q{q}"] = 1e6 * statistics.median(durations)
    # one read-write pass over the state: the memory roofline of a kernel
    src, dst = state.amps, np.empty_like(state.amps)
    scale = np.complex128(1.0)
    durations = []
    for _ in range(ROOFLINE_REPS):
        t0 = time.perf_counter()
        np.multiply(src, scale, out=dst)
        durations.append(time.perf_counter() - t0)
    out["engine.roofline_us"] = 1e6 * statistics.median(durations)
    out["engine.kernel_bytes_computed"] = 2 * 16 * (1 << n)
    return out


def traced(bench, seed: int, seconds: float, workdir: Path, names: list[str],
           size: str) -> dict:
    """Traced and untraced ops of `bench` in turn, after one traced op of
    every other workload so that each per-layer metric has a source."""
    import workloads
    from tracer import Tracer, self_time

    tr = Tracer()
    ops: list[dict] = []
    layer: dict[str, list[dict]] = {name: [] for name in workloads.WORKLOADS}

    def traced_attempt(wl) -> None:
        op = len(ops)
        tr.begin_op(op)
        metrics: dict = {}

        def call():
            with tr.span(f"op.{wl.name}", "bench"):
                out, found = wl.traced_op(tr)
            metrics.update(found)
            return out

        dt, ok = attempt(wl, call)
        ops.append({"op": op, "workload": wl.name, "traced": True, "seconds": dt, "ok": ok})
        if metrics:
            layer[wl.name].append(metrics)

    deadline = time.perf_counter() + seconds
    for name in workloads.WORKLOADS:
        if name != bench.name:
            traced_attempt(setup(name, seed, workdir / name, size))
    while True:
        dt, ok = attempt(bench, bench.op)
        ops.append({"op": len(ops), "workload": bench.name, "traced": False, "seconds": dt,
                    "ok": ok})
        traced_attempt(bench)
        if time.perf_counter() >= deadline:
            break

    tr.begin_op(len(ops))
    ops.append({"op": len(ops), "workload": "kernel_probe", "traced": True, "seconds": None,
                "ok": True})
    measured = set().union(*(m for ms in layer.values() for m in ms))
    pairs = [(int(m.group(1)), int(m.group(2))) for m in map(PAIR_RE.match, names)
             if m and m.group(0) not in measured]
    probes = kernel_probes(pairs, tr)
    c2 = [s.dur for s in tr.spans
          if s.name.startswith("engine.apply_2q.") and s.op != ops[-1]["op"]]
    probes["engine.kernel_over_roofline"] = \
        1e6 * statistics.median(c2) / probes["engine.roofline_us"]

    def median_seconds(is_traced: bool) -> float:
        return statistics.median(o["seconds"] for o in ops if o["workload"] == bench.name
                                 and o["traced"] is is_traced and o["seconds"] is not None)

    op_traced, op_untraced = median_seconds(True), median_seconds(False)
    probes["trace.op_s_traced"] = op_traced
    probes["trace.op_s_untraced"] = op_untraced

    # a metric comes from this workload's ops where its path has the layer,
    # else from a companion's op, else from the kernel probe
    order = [bench.name] + [w for w in workloads.WORKLOADS if w != bench.name]
    metrics = {}
    for name in names:
        for w in order:
            values = [m[name] for m in layer[w] if name in m]
            if values:
                metrics[name] = statistics.median(values)
                break
        else:
            if name not in probes:
                raise RuntimeError(f"per-layer metric {name} was not measured")
            metrics[name] = probes[name]

    op_workload = {o["op"]: o["workload"] for o in ops}
    n_traced = {w: sum(1 for o in ops if o["workload"] == w and o["traced"])
                for w in op_workload.values()}
    per_op_self = {w: {k: v / n_traced[w] for k, v in layers.items()}
                   for w, layers in self_time(tr.spans, op_workload).items()}
    return {"ops": ops, "metrics": metrics, "spans": [s.as_list() for s in tr.spans],
            "self_time_s_per_op": per_op_self,
            "overhead_s": op_traced - op_untraced,
            "op_s_traced": op_traced, "op_s_untraced": op_untraced}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", dest="setup_probe",
                        help="set up once, print the set-up seconds and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "nucsim" / "__init__.py").is_file():
        print(f"error: no nucsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        import workloads
        if args.workload not in workloads.WORKLOADS:
            print(f"error: unknown workload {args.workload!r}; "
                  f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
            return 2
        bench = setup(args.workload, args.seed, workdir)
        setup_s = [time.perf_counter() - _T_START]
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s[0]}))
            return 0
        setup_s += [setup_in_child(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        bench.reference()
        return report(args, spec, bench, setup_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(args, spec: dict, bench, setup_s: list[float], workdir: Path,
           size: str = "FULL") -> int:
    from envinfo import environment
    from tracer import Tracer

    env = environment()
    print("env " + json.dumps(env))
    summary = {"workload": bench.name, "seed": args.seed, "seconds": args.seconds,
               "source_gates": bench.source_gates, "shots_per_op": bench.shots,
               "setup_s_samples": setup_s}
    if args.trace:
        section = spec["per_layer"]
        result = traced(bench, args.seed, args.seconds, workdir / "companions",
                        [m["name"] for m in section], size)
        values = result["metrics"]
        attempted = len(result["ops"]) - 1  # the kernel probe is not an op
        failed = sum(1 for o in result["ops"] if not o["ok"])
        trace_path = OUT / f"trace-{bench.name}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": bench.name, "seed": args.seed, "env": env,
            "span_fields": list(Tracer.FIELDS),
            **{k: result[k] for k in ("ops", "spans", "self_time_s_per_op", "overhead_s",
                                      "op_s_traced", "op_s_untraced")}}), encoding="utf-8")
        summary.update({
            "trace_file": os.path.relpath(trace_path, ROOT),
            "tracing_overhead_s": result["overhead_s"],
            "self_time_s_per_op": result["self_time_s_per_op"],
            "roofline": "one read-write pass over 2^16 complex128 amplitudes (1 MiB, "
                        "in cache); kernel bytes are computed as 2 x 16 x 2^16, not measured"})
    else:
        section = spec["end_to_end"]
        times, attempted, failed = timed(bench, args.seconds)
        if not times:
            raise RuntimeError("every op raised")
        p50 = statistics.median(times)
        tail_s, percentile, beyond = tail(times)
        values = {"op_s_p50": p50, "op_s_tail": tail_s,
                  "gates_per_s": bench.source_gates / p50, "shots_per_s": bench.shots / p50,
                  "setup_s": statistics.median(setup_s),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        summary.update({"ops_timed": len(times), "op_s_tail_percentile": percentile,
                        "op_s_tail_samples_beyond": beyond})
    summary.update({"attempted": attempted, "failed": failed, "fail_frac": failed / attempted})
    print("summary " + json.dumps(summary))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
