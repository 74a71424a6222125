"""Output digests for byte-identity checks between two trees.

    PYTHONPATH=src python tests/digests.py

Run from the root of a checkout.  Prints the BLAS thread setting it ran
under, then one SHA-256 per output family.  Two trees whose digests match,
under the same thread setting, give the same bytes in every family:

``reports``   the three benchmark workloads at FULL size, seeds 0-2, with
              ``wall_time_s`` dropped: chain16_mma's mma report,
              narrow_rejection's rejection report and an mma run of its
              fused circuit, narrow_cli's report through ``cli.main`` with
              the QASM and gate counts that ``prepare`` wrote, and a deep
              narrow filter (8 qubits, Trotter 4,300) in both modes
``qasm``      every ``tests/data/*.qasm``, unfused and fused, in mma and
              rejection mode (an error's type and message where a run
              refuses), with its ``FusionStats`` and
              ``emit_qasm(fused, decompose=True)``
``plans``     every compiled plan of the circuits above, and of a 3-qubit
              filter whose blocks span every copy of a run: segments, runs
              with their counts, blocks, points
``operators`` ``prepare``, ``spectrum`` and ``filter-lcu`` through
              ``cli.main`` on a fixed set of operators, a second-quantized
              file among them, and the exact terms of each operator as
              loaded: word and ``repr`` of each coefficient, in
              ``sorted_terms()`` order, which pins the Pauli algebra where
              an eigensolver would round a change away
``errors``    a fixed set of failing ``cli.main`` calls, one or more per
              exit path: argv, exit code, standard output and error, with
              input files named relative to a fresh directory; argparse
              refusals count, with the code of their ``SystemExit``

Not collected by pytest.  It reads ``perfbench/workloads.py`` and changes
nothing there.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

from nucsim import (PauliHamiltonian, TrialState, build_filter_circuit, cli,  # noqa: E402
                    default_schedule, emit_qasm, engine, fuse_pipeline, infer_ancilla,
                    parse_qasm, run)
from nucsim.errors import FilterAssertionError, MmaStructureError  # noqa: E402
from nucsim.hamiltonian import format_pauli_text, load_hamiltonian_text  # noqa: E402

SEEDS = (0, 1, 2)
DEEP_TROTTER = 4300
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Family:
    """One SHA-256 over every item fed to it, in order."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def add(self, label: str, data) -> None:
        if not isinstance(data, bytes):
            data = json.dumps(data, sort_keys=True).encode()
        self.sha.update(label.encode() + b"\0" + data + b"\0")


def report_dict(report) -> dict:
    d = report.to_dict()
    d.pop("wall_time_s")
    return d


def outcome(fn):
    """A run's report without wall time, or the type and message it raised."""
    try:
        return report_dict(fn())
    except (FilterAssertionError, MmaStructureError) as exc:
        return [type(exc).__name__, str(exc)]


def plan_bytes(plan: engine.Plan) -> bytes:
    out = [repr((plan.points, plan.n_steps)).encode()]
    for segment in plan.segments:
        out.append(b"segment")
        for blocks, count in segment:
            out.append(repr(("run", count, len(blocks))).encode())
            for b in blocks:
                out.append(repr((b.qubits, b.u.shape, b.shape, b.perm, b.in_place)).encode())
                out.append(b.u.tobytes())
    return b"\0".join(out)


def add_plans(family: Family, label: str, circuit) -> None:
    ancilla = infer_ancilla(circuit)
    family.add(f"{label} rejection", plan_bytes(engine._compile(circuit, "rejection", None)))
    if ancilla is not None:
        try:
            family.add(f"{label} mma", plan_bytes(engine._compile(circuit, "mma", ancilla)))
        except MmaStructureError as exc:
            family.add(f"{label} mma", str(exc))


def cli_call(argv: list[str]) -> list:
    """cli.main's exit code, standard output and error; an argparse refusal
    gives its SystemExit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return [rc, out.getvalue(), err.getvalue()]


def workload_reports(reports: Family, plans: Family, workdir: Path) -> None:
    for seed in SEEDS:
        chain = workloads.ChainMma(seed, workdir, **workloads.ChainMma.FULL)
        reports.add(f"chain16_mma {seed}", report_dict(chain.op()))
        fused, _ = fuse_pipeline(chain._build())
        add_plans(plans, f"chain16_mma {seed}", fused)

        narrow = workloads.NarrowRejection(seed, workdir, **workloads.NarrowRejection.FULL)
        reports.add(f"narrow_rejection {seed}", report_dict(narrow.op()))
        built = narrow._build()
        fused, _ = fuse_pipeline(built)
        reports.add(f"narrow_rejection mma {seed}",
                    report_dict(run(fused, "mma", narrow.shots, narrow.run_seed, narrow.n)))
        for label, circ in (("unfused", built), ("fused", fused)):
            add_plans(plans, f"narrow_rejection {label} {seed}", circ)

        cli_dir = workdir / f"narrow_cli-{seed}"
        narrow_cli = workloads.NarrowCli(seed, cli_dir, **workloads.NarrowCli.FULL)
        with contextlib.redirect_stdout(io.StringIO()):
            rc_prepare, rc_simulate, info = narrow_cli.op()
        report = json.loads(narrow_cli.report_path.read_text(encoding="utf-8"))
        report.pop("wall_time_s")
        reports.add(f"narrow_cli {seed}", [rc_prepare, rc_simulate, info, report])
        qasm = narrow_cli.qasm_path.read_text(encoding="utf-8")
        reports.add(f"narrow_cli qasm {seed}", qasm.encode())
        parsed = parse_qasm(qasm)
        add_plans(plans, f"narrow_cli unfused {seed}", parsed)
        add_plans(plans, f"narrow_cli fused {seed}", fuse_pipeline(parsed)[0])

        # a deep narrow filter, 7 spins + ancilla at Trotter 4,300 (about
        # 10^6 gates), where execution is per-call cost
        deep = workloads.ChainMma(seed, workdir, n_spins=7, steps=2, trotter=DEEP_TROTTER,
                                  shots=1024)
        reports.add(f"deep_narrow {seed}", report_dict(deep.op()))
        fused, _ = fuse_pipeline(deep._build())
        reports.add(f"deep_narrow rejection {seed}",
                    report_dict(run(fused, "rejection", deep.shots, deep.run_seed, None)))
        add_plans(plans, f"deep_narrow {seed}", fused)


def qasm_files(qasm: Family, plans: Family) -> None:
    for path in sorted((ROOT / "tests" / "data").glob("*.qasm")):
        parsed = parse_qasm(path.read_text(encoding="utf-8"))
        n = parsed.n_qubits
        h = PauliHamiltonian(n, {"Z" + "X" * (n - 1): 0.4, "I" * (n - 1) + "Y": 0.3})
        fused, stats = fuse_pipeline(parsed)
        qasm.add(f"{path.name} stats", stats.to_dict())
        qasm.add(f"{path.name} decomposed", emit_qasm(fused, decompose=True).encode())
        ancilla = infer_ancilla(parsed)
        for label, circ in (("unfused", parsed), ("fused", fused)):
            for mode in ("mma", "rejection"):
                qasm.add(f"{path.name} {label} {mode}", outcome(
                    lambda: run(circ, mode, 200, 17, ancilla if mode == "mma" else None,
                                hamiltonian=h)))
            add_plans(plans, f"{path.name} {label}", circ)


def spanning_block_plans(plans: Family) -> None:
    """A 3-qubit filter: every gate of a run fits one block of at most 4
    qubits, so the open block spans all of the run's copies."""
    h = PauliHamiltonian(2, {"ZI": 0.15, "IZ": 0.15, "XX": 0.35, "ZZ": -0.5})
    circuit = build_filter_circuit(h, default_schedule(0.7, 2), 128, TrialState.basis("00"), 2)
    add_plans(plans, "spanning unfused", circuit)
    add_plans(plans, "spanning fused", fuse_pipeline(circuit)[0])


def random_pauli_text(rng: np.random.Generator, n: int, n_terms: int) -> str:
    terms = {}
    while len(terms) < n_terms:
        letters = "".join(rng.choice(list("IXYZ"), size=n))
        terms[letters] = float(rng.uniform(-1.0, 1.0))
    return format_pauli_text(PauliHamiltonian(n, terms))


def pairing_text(n_pairs: int) -> str:
    """Second-quantized pairing model: levels, hopping, pair scattering."""
    lines = [f"ns {2 * n_pairs}"]
    for p in range(n_pairs):
        for m in (2 * p, 2 * p + 1):
            lines.append(f"t {m} {m} {0.5 * p - 0.3}")
        if p + 1 < n_pairs:
            lines.append(f"t {2 * p} {2 * p + 2} -0.11")
        for q in range(n_pairs):
            lines.append(f"v {2 * p} {2 * p + 1} {2 * q} {2 * q + 1} {-0.2 - 0.03 * (p + q)}")
    return "\n".join(lines) + "\n"


def operator_files(operators: Family, workdir: Path) -> None:
    rng = np.random.default_rng(2024)
    texts = {f"chain{n}": format_pauli_text(workloads.chain_hamiltonian(n, rng))
             for n in (2, 4, 7)}
    for n, n_terms in ((3, 6), (5, 12), (7, 20), (9, 30), (10, 40)):
        texts[f"random{n}"] = random_pauli_text(rng, n, n_terms)
    texts["pairing6"] = pairing_text(3)
    texts["pairing8"] = pairing_text(4)
    for name, text in texts.items():
        path = workdir / f"{name}.txt"
        path.write_text(text, encoding="utf-8")
        operators.add(f"{name} terms",
                      [[s, repr(c)] for s, c in load_hamiltonian_text(text).sorted_terms()])
        operators.add(f"{name} spectrum", cli_call(["spectrum", "--hamiltonian", str(path)]))
        operators.add(f"{name} filter-lcu",
                      cli_call(["filter-lcu", "--hamiltonian", str(path), "--m", "6"]))
        operators.add(f"{name} prepare", cli_call(
            ["prepare", "--hamiltonian", str(path), "--steps", "2", "--trotter", "3"]))


HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'

ERROR_FILES = {
    "v3.qasm": "OPENQASM 3.0;\nqreg q[1];\n",
    "char.qasm": HEADER + "qreg q[1];\nh q[0]; $\n",
    "unknown.qasm": HEADER + "qreg q[1];\nfoo q[0];\n",
    "angle.qasm": HEADER + "qreg q[1];\nrz(1e999) q[0];\n",
    "no_qreg.qasm": HEADER + "h q[0];\n",
    "flat.qasm": HEADER + "qreg q[1];\ncreg c[1];\nh q[0];\nmeasure q[0] -> c[0];\n",
    "fail.qasm": HEADER + "qreg q[2];\ncreg c[1];\nx q[1];\nmeasure q[1] -> c[0];\n"
                          "reset q[1];\n",
    "unpaired.qasm": HEADER + "qreg q[2];\ncreg c[1];\nh q[0];\nmeasure q[1] -> c[0];\n"
                              "h q[1];\n",
    "ok.qasm": HEADER + "qreg q[2];\ncreg c[1];\nh q[0];\nmeasure q[1] -> c[0];\n"
                        "reset q[1];\n",
    "payload.qasm": HEADER + "qreg q[2];\nh q[0];\ncx q[0], q[1];\nrz(0.3) q[1];\nh q[1];\n",
    "pair.txt": "0.7 ZI\n0.3 IZ\n0.25 XX\n",
    "zero.txt": "0.0 Z\n",
    "wide.txt": "1.0 Z" + "I" * 14 + "\n",
    "nan.txt": "0.7 ZI\nnan IZ\n",
    "bad_matrix.txt": "ns 2\nt 0 0 nan\n",
    "sched.json": '{"steps": [{"t": null}]}',
    "deep.json": '{"steps": %s}' % ("[" * 1000 + "]" * 1000),
}

ERROR_CALLS = [
    # argparse: a required option left out, a bad choice, a bad number
    ["simulate"], ["fuse"], ["prepare"], ["spectrum"], ["filter-lcu"],
    ["simulate", "--input", "ok.qasm", "--mode", "bogus"],
    ["simulate", "--input", "ok.qasm", "--shots", "x"],
    # configuration and parse errors: exit 2
    *[["simulate", "--input", name] for name in
      ("v3.qasm", "char.qasm", "unknown.qasm", "angle.qasm", "no_qreg.qasm", "flat.qasm",
       "missing.qasm")],
    ["simulate", "--input", "ok.qasm", "--shots", "0"],
    ["simulate", "--input", "ok.qasm", "--seed", "-1"],
    ["simulate", "--input", "ok.qasm", "--threads", "0"],
    ["simulate", "--input", "ok.qasm", "--mode", "rejection", "--ancilla", "3"],
    ["simulate", "--input", "ok.qasm", "--ancilla", "0"],
    ["simulate", "--input", "unpaired.qasm", "--ancilla", "1"],
    ["simulate", "--input", "ok.qasm", "--hamiltonian", "missing.txt"],
    ["fuse", "--input", "char.qasm"],
    ["fuse", "--input", "missing.qasm"],
    ["fuse", "--input", "payload.qasm", "--output", "payload_out.qasm"],
    ["spectrum", "--hamiltonian", "zero.txt"],
    ["spectrum", "--hamiltonian", "missing.txt"],
    ["spectrum", "--hamiltonian", "nan.txt"],
    ["spectrum", "--hamiltonian", "bad_matrix.txt"],
    ["prepare", "--hamiltonian", "pair.txt"],
    ["prepare", "--hamiltonian", "pair.txt", "--schedule", "sched.json"],
    ["prepare", "--hamiltonian", "pair.txt", "--schedule", "deep.json"],
    ["prepare", "--hamiltonian", "pair.txt", "--steps", "1", "--gap", "0.5", "--e0", "nan"],
    ["prepare", "--hamiltonian", "zero.txt", "--steps", "1"],
    ["filter-lcu", "--hamiltonian", "zero.txt"],
    # assertion failures: exit 3
    ["simulate", "--input", "fail.qasm"],
    ["simulate", "--input", "fail.qasm", "--no-fuse"],
    # resource guards: exit 4
    ["spectrum", "--hamiltonian", "wide.txt"],
    ["filter-lcu", "--hamiltonian", "wide.txt"],
    ["prepare", "--hamiltonian", "wide.txt", "--steps", "1"],
]


def failing_calls(errors: Family, workdir: Path) -> None:
    workdir.mkdir()
    for name, text in ERROR_FILES.items():
        (workdir / name).write_text(text, encoding="utf-8")
    home = os.getcwd()
    os.chdir(workdir)  # not contextlib.chdir, which needs Python 3.11
    try:
        for argv in ERROR_CALLS:
            errors.add(" ".join(argv), cli_call(argv))
    finally:
        os.chdir(home)


def main() -> None:
    families = {name: Family() for name in ("reports", "qasm", "plans", "operators", "errors")}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        workload_reports(families["reports"], families["plans"], workdir)
        qasm_files(families["qasm"], families["plans"])
        spanning_block_plans(families["plans"])
        operator_files(families["operators"], workdir)
        failing_calls(families["errors"], workdir / "errors")
    print("blas threads: " + ", ".join(f"{v}={os.environ.get(v, 'unset')}" for v in BLAS_VARS))
    for name, family in families.items():
        print(f"{name:10s} {family.sha.hexdigest()}")


if __name__ == "__main__":
    main()
