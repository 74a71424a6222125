"""The benchmark's three workloads.

Each workload makes its inputs from a seed: the seed scales every
coefficient of a transverse-field ZZ chain by 1 + 0.02 u (u uniform in
[-1, 1)) and sets the run seed.  Circuit structure and gate counts do not
depend on it.  A workload object offers:

``op()``          one pass along its path, from input to report (timed)
``check(out)``    None when the op's output is right, else the problem
``reference()``   once per invocation, untimed: the independent result that
                  ``check`` compares against, and the source gate count
``traced_op(tr)`` the same pass with a span around every call into a layer;
                  returns (output, {per-layer metric: value})

``FULL`` holds the sizes the benchmark runs, ``TINY`` the sizes of the
warm-up pass and of the smoke tests.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
from pathlib import Path

import numpy as np
from jsonschema import Draft7Validator

from nucsim import (FusionStats, PassStats, PauliHamiltonian, RunReport, StateVector,
                    TrialState, absorb_1q, apply_1q, apply_2q, apply_dense, assert_measure,
                    build_filter_circuit, cli, default_schedule, emit_qasm, expectation_pauli,
                    fuse_2q, fuse_pipeline, gate_count, ground_state, infer_ancilla,
                    load_hamiltonian_text, merge_1q, normalize_2q_order, parse_qasm, run,
                    sample, shift_rescale, success_product)
from nucsim.gates import Gate
from nucsim.hamiltonian import format_pauli_text

ROOT = Path(__file__).resolve().parent.parent
PERTURBATION = 0.02
PROB_ATOL = 1e-9
FUSION_PASSES = (("merge_1q", merge_1q), ("absorb_1q", absorb_1q),
                 ("normalize_2q_order", normalize_2q_order), ("fuse_2q", fuse_2q))


def _letters(n: int, placed: dict[int, str]) -> str:
    return "".join(placed.get(q, "I") for q in range(n))


def chain_hamiltonian(n: int, rng: np.random.Generator) -> PauliHamiltonian:
    """The criterion-9 chain (fields 0.12 + 0.01 i, ZZ 0.08), perturbed."""
    terms = {_letters(n, {i: "X"}): 0.12 + 0.01 * i for i in range(n)}
    terms.update({_letters(n, {i: "Z", i + 1: "Z"}): 0.08 for i in range(n - 1)})
    return PauliHamiltonian(n, {s: c * (1.0 + PERTURBATION * (2.0 * rng.random() - 1.0))
                                for s, c in terms.items()})


def pad_ancilla(h: PauliHamiltonian) -> PauliHamiltonian:
    """The same operator on one more qubit, acting as identity there."""
    return PauliHamiltonian(h.n_qubits + 1, {s + "I": c for s, c in h.terms.items()})


def check_mma(probs, overall, samples: dict, shots: int, ref_probs) -> str | None:
    if not probs:
        return "no assertion probabilities"
    if not all(0.0 < p <= 1.0 for p in probs):
        return f"assert_probs outside (0, 1]: {probs}"
    if overall != math.prod(probs):
        return f"overall_success {overall!r} is not the product of {probs}"
    if sum(samples.values()) != shots:
        return f"samples sum to {sum(samples.values())}, not {shots}"
    if ref_probs is not None:
        if len(ref_probs) != len(probs):
            return f"{len(probs)} assertions, reference has {len(ref_probs)}"
        worst = max(abs(a - b) for a, b in zip(probs, ref_probs))
        if worst > PROB_ATOL:
            return f"assert_probs differ from the reference by {worst:.3e}"
    return None


def traced_fuse(tr, circuit):
    """fuse_pipeline, one pass at a time, with the same statistics."""
    with tr.span("fusion.gate_count", "fusion"):
        before = gate_count(circuit)
    current, count, per_pass = circuit, before, []
    for name, fn in FUSION_PASSES:
        with tr.span(f"fusion.{name}", "fusion"):
            current = fn(current)
        with tr.span("fusion.gate_count", "fusion"):
            after = gate_count(current)
        per_pass.append(PassStats(name, count, after))
        count = after
    return current, FusionStats(before, count, tuple(per_pass))


def fusion_metrics(tr, stats: FusionStats) -> dict:
    out = {f"fusion.{name}_s": tr.op_total(f"fusion.{name}") for name, _ in FUSION_PASSES}
    out.update({"fusion.gates_in": stats.gates_before, "fusion.gates_out": stats.gates_after,
                "fusion.reduction_factor": stats.reduction_factor})
    return out


def replay_mma(tr, circuit, ancilla: int, shots: int, seed: int,
               hamiltonian: PauliHamiltonian) -> RunReport:
    """run(mode="mma") through the public kernels, one span per call.

    Kernel spans are named by operand position, e.g. engine.apply_2q.p0q15.
    """
    with tr.span("engine.compile", "engine"):
        instrs = circuit.instructions
        end = len(instrs)
        while end and instrs[end - 1].gate in (Gate.MEASURE, Gate.BARRIER):
            end -= 1
        plan = []
        for ins in instrs[:end]:
            qs = ins.qubits
            if ins.gate is Gate.MEASURE:
                plan.append(("engine.assert_measure", assert_measure, qs))
            elif ins.gate in (Gate.RESET, Gate.BARRIER):
                continue  # the paired assertion already left the ancilla in |0>
            elif len(qs) == 1:
                plan.append((f"engine.apply_1q.q{qs[0]}", apply_1q,
                             (ins.resolved_matrix(), qs[0])))
            elif len(qs) == 2 and qs[0] < qs[1]:
                plan.append((f"engine.apply_2q.p{qs[0]}q{qs[1]}", apply_2q,
                             (ins.resolved_matrix(), *qs)))
            else:
                plan.append((f"engine.apply_dense.k{len(qs)}", apply_dense,
                             (ins.resolved_matrix(), qs)))
        state = StateVector(circuit.n_qubits)
    probs: list[float] = []
    for name, fn, args in plan:
        if fn is assert_measure:
            with tr.span(name, "engine"):
                probs.append(assert_measure(state, args[0], step=len(probs)))
        else:
            with tr.span(name, "engine"):
                fn(state, *args)
    with tr.span("engine.expectation_pauli", "engine"):
        energy = expectation_pauli(state, hamiltonian)
    with tr.span("engine.sample", "engine"):
        samples = sample(state, shots, seed)
    return RunReport(mode="mma", n_qubits=circuit.n_qubits, shots=shots, seed=seed,
                     ancilla=ancilla, assert_probs=probs,
                     overall_success=success_product(probs), samples=samples, energy=energy)


def _cli(argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        return int(exc.code or 0)


def _cli_config(argv: list[str]) -> cli.RunConfig:
    """What cli.main does before it dispatches to a command."""
    args = cli.build_parser().parse_args(argv)
    if args.threads is None:
        args.threads = int(os.environ.get("NUCSIM_THREADS", "1"))
    return cli.RunConfig.from_args(args)


class _LibraryPath:
    """A chain filter circuit built and run through the library API."""

    def __init__(self, seed: int, workdir: Path, n_spins: int, steps: int, trotter: int,
                 shots: int):
        rng = np.random.default_rng(seed)
        self.h = chain_hamiltonian(n_spins, rng)
        self.run_seed = int(rng.integers(1 << 62))
        self.schedule = default_schedule(0.5, steps)
        self.n, self.trotter, self.shots = n_spins, trotter, shots
        self.source_gates: int | None = None

    def _build(self):
        return build_filter_circuit(self.h, self.schedule, self.trotter,
                                    TrialState.basis("0" * self.n), self.n)


class ChainMma(_LibraryPath):
    """build_filter_circuit -> fuse_pipeline -> run(mma) on 15 spins + ancilla."""

    name = "chain16_mma"
    FULL = dict(n_spins=15, steps=2, trotter=10, shots=4096)
    TINY = dict(n_spins=3, steps=2, trotter=1, shots=64)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.energy_op = pad_ancilla(self.h)
        self.ref_probs: list[float] | None = None

    def op(self) -> RunReport:
        fused, _ = fuse_pipeline(self._build())
        return run(fused, "mma", self.shots, self.run_seed, self.n, hamiltonian=self.energy_op)

    def reference(self) -> None:
        circuit = self._build()
        self.source_gates = gate_count(circuit)
        self.ref_probs = run(circuit, "mma", 1, self.run_seed, self.n).assert_probs

    def check(self, report: RunReport) -> str | None:
        if report.energy is None or not math.isfinite(report.energy):
            return f"energy is {report.energy!r}"
        return check_mma(report.assert_probs, report.overall_success, report.samples,
                         self.shots, self.ref_probs)

    def traced_op(self, tr) -> tuple[RunReport, dict]:
        with tr.span("projection.build_filter_circuit", "projection") as build:
            circuit = self._build()
        fused, stats = traced_fuse(tr, circuit)
        with tr.span("engine.run", "engine") as engine:
            report = replay_mma(tr, fused, self.n, self.shots, self.run_seed, self.energy_op)
        metrics = {"projection.build_s": build.dur, "projection.gates": stats.gates_before,
                   **fusion_metrics(tr, stats),
                   "engine.run_s": engine.dur,
                   "engine.us_per_fused_gate": 1e6 * engine.dur / stats.gates_after,
                   "engine.expectation_s": tr.op_total("engine.expectation_pauli"),
                   "engine.sample_s": tr.op_total("engine.sample")}
        for name, durations in tr.op_durations("engine.").items():
            if name.startswith("engine.apply_2q."):
                metrics[f"engine.apply_2q_us.{name.rsplit('.', 1)[1]}"] = \
                    1e6 * statistics.median(durations)
            elif name == "engine.assert_measure":
                metrics["engine.assert_measure_us"] = 1e6 * statistics.median(durations)
        return report, metrics


class NarrowCli:
    """nucsim prepare, then nucsim simulate --hamiltonian, in-process."""

    name = "narrow_cli"
    FULL = dict(n_spins=7, steps=6, trotter=50, shots=1024)
    TINY = dict(n_spins=2, steps=2, trotter=1, shots=64)

    def __init__(self, seed: int, workdir: Path, n_spins: int, steps: int, trotter: int,
                 shots: int):
        rng = np.random.default_rng(seed)
        h = chain_hamiltonian(n_spins, rng)
        run_seed = int(rng.integers(1 << 62))
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        ham, padded = workdir / "chain.txt", workdir / "chain_padded.txt"
        ham.write_text(format_pauli_text(h), encoding="utf-8")
        padded.write_text(format_pauli_text(pad_ancilla(h)), encoding="utf-8")
        self.qasm_path, self.report_path = workdir / "filter.qasm", workdir / "report.json"
        self.prepare_argv = ["prepare", "--hamiltonian", str(ham), "--steps", str(steps),
                             "--trotter", str(trotter), "--output", str(self.qasm_path)]
        self.simulate_argv = ["simulate", "--input", str(self.qasm_path),
                              "--hamiltonian", str(padded), "--shots", str(shots),
                              "--seed", str(run_seed), "--output", str(self.report_path)]
        schema = ROOT / "docs" / "run_report.schema.json"
        self.validator = Draft7Validator(json.loads(schema.read_text(encoding="utf-8")))
        self.shots = shots
        self.source_gates: int | None = None
        self.ref_probs: list[float] | None = None

    def _prepare(self) -> tuple[int, str]:
        """Exit code and the gate-count JSON that prepare prints."""
        info = io.StringIO()
        with contextlib.redirect_stdout(info):
            rc = _cli(self.prepare_argv)
        return rc, info.getvalue()

    def op(self) -> tuple[int, int, str]:
        rc_prepare, info = self._prepare()
        return rc_prepare, _cli(self.simulate_argv), info

    def reference(self) -> None:
        rc_prepare, info = self._prepare()
        unfused = self.workdir / "reference.json"
        argv = self.simulate_argv[:-1] + [str(unfused), "--no-fuse"]
        if rc_prepare != 0 or _cli(argv) != 0:
            raise RuntimeError("the unfused reference run failed")
        self.source_gates = json.loads(info)["gates"]
        self.ref_probs = json.loads(unfused.read_text(encoding="utf-8"))["assert_probs"]

    def check(self, out: tuple[int, int, str]) -> str | None:
        rc_prepare, rc_simulate, info = out
        if rc_prepare != 0 or rc_simulate != 0:
            return f"exit codes prepare={rc_prepare} simulate={rc_simulate}"
        gates = json.loads(info)["gates"]
        if self.source_gates is not None and gates != self.source_gates:
            return f"prepare reports {gates} gates, not {self.source_gates}"
        report = json.loads(self.report_path.read_text(encoding="utf-8"))
        self.report_path.unlink()  # a later op that writes no report cannot pass on this one
        errors = sorted(self.validator.iter_errors(report), key=str)
        if errors:
            return f"report violates the schema: {errors[0].message}"
        return check_mma(report["assert_probs"], report["overall_success"], report["samples"],
                         self.shots, self.ref_probs)

    def traced_op(self, tr) -> tuple[tuple[int, int, str], dict]:
        """The library calls cmd_prepare and cmd_simulate make, one at a time."""
        with tr.span("cli.prepare", "cli") as prepare:
            config = _cli_config(self.prepare_argv)
            text = Path(config.hamiltonian).read_text(encoding="utf-8")
            with tr.span("hamiltonian.load_hamiltonian_text", "hamiltonian"):
                h = load_hamiltonian_text(text)
            with tr.span("hamiltonian.ground_state", "hamiltonian"):
                gap = ground_state(h).gap
            with tr.span("projection.default_schedule", "projection"):
                schedule = default_schedule(gap, config.steps)
            with tr.span("hamiltonian.ground_state", "hamiltonian"):
                e0 = ground_state(h).energy
            with tr.span("hamiltonian.shift_rescale", "hamiltonian"):
                shifted = shift_rescale(h, e0)
            n = h.n_qubits
            with tr.span("projection.build_filter_circuit", "projection") as build:
                circuit = build_filter_circuit(shifted, schedule, config.trotter,
                                               TrialState.basis("0" * n), n)
            with tr.span("fusion.gate_count", "fusion"):
                gates = gate_count(circuit)
            info = {"gates": gates, "two_qubit_gates": circuit.counts_by_width().get(2, 0),
                    "n_qubits": circuit.n_qubits, "filter_steps": schedule.n_steps,
                    "ancilla_index": n, "ancilla_index_listing_convention": 0}
            with tr.span("qasm.emit_qasm", "qasm") as emit:
                qasm_text = emit_qasm(circuit)
            Path(config.output).write_text(qasm_text, encoding="utf-8")
            info_text = json.dumps(info, indent=2) + "\n"
        with tr.span("cli.simulate", "cli") as simulate:
            config = _cli_config(self.simulate_argv)
            text = Path(config.input).read_text(encoding="utf-8")
            with tr.span("qasm.parse_qasm", "qasm") as parse:
                parsed = parse_qasm(text)
            fused, stats = traced_fuse(tr, parsed)
            stats_dict = stats.to_dict()
            text = Path(config.hamiltonian).read_text(encoding="utf-8")
            with tr.span("hamiltonian.load_hamiltonian_text", "hamiltonian"):
                padded = load_hamiltonian_text(text)
            with tr.span("engine.infer_ancilla", "engine"):
                ancilla = infer_ancilla(parsed)
            with tr.span("engine.run", "engine") as engine:
                report = run(fused, config.mode, config.shots, config.seed, ancilla,
                             hamiltonian=padded, fusion_stats=stats_dict)
            Path(config.output).write_text(report.to_json() + "\n", encoding="utf-8")
        metrics = {"cli.prepare_s": prepare.dur, "cli.simulate_s": simulate.dur,
                   "projection.build_s": build.dur, "projection.gates": gates,
                   "qasm.emit_s": emit.dur, "qasm.parse_s": parse.dur,
                   "qasm.bytes": len(qasm_text.encode("utf-8")),
                   "qasm.parse_us_per_gate": 1e6 * parse.dur / stats.gates_before,
                   "hamiltonian.load_s": tr.op_total("hamiltonian.load_hamiltonian_text"),
                   "hamiltonian.ground_state_s": tr.op_total("hamiltonian.ground_state"),
                   **fusion_metrics(tr, stats),
                   "engine.run_s": engine.dur,
                   "engine.us_per_fused_gate": 1e6 * engine.dur / stats.gates_after}
        return (0, 0, info_text), metrics


class NarrowRejection(_LibraryPath):
    """build -> fuse -> run(mode="rejection") on 5 spins + ancilla."""

    name = "narrow_rejection"
    FULL = dict(n_spins=5, steps=4, trotter=20, shots=256)
    TINY = dict(n_spins=2, steps=2, trotter=1, shots=32)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.p_mma: float | None = None
        self._ops = 0

    def _next_run_seed(self) -> int:
        # a fresh shot stream per timed op: with one fixed stream the work of
        # every op would hinge on where that stream's shots are rejected
        self._ops += 1
        return (self.run_seed + self._ops) % (1 << 63)

    def op(self) -> RunReport:
        fused, _ = fuse_pipeline(self._build())
        return run(fused, "rejection", self.shots, self._next_run_seed(), self.n)

    def reference(self) -> None:
        circuit = self._build()
        self.source_gates = gate_count(circuit)
        fused, _ = fuse_pipeline(circuit)
        self.p_mma = run(fused, "mma", 1, self.run_seed, self.n).overall_success

    def check(self, report: RunReport) -> str | None:
        accepted = report.accepted
        if accepted + sum(report.step_rejections) != self.shots:
            return (f"accepted {accepted} + rejections {report.step_rejections} "
                    f"!= {self.shots} shots")
        if sum(report.samples.values()) != accepted:
            return f"samples sum to {sum(report.samples.values())}, not {accepted}"
        if self.p_mma is not None:
            p = self.p_mma
            sigma = math.sqrt(p * (1.0 - p) / self.shots)
            if abs(accepted / self.shots - p) > 5.0 * sigma:
                return f"acceptance {accepted / self.shots:.4f} is over 5 sigma from mma {p:.4f}"
        return None

    def traced_op(self, tr) -> tuple[RunReport, dict]:
        with tr.span("projection.build_filter_circuit", "projection") as build:
            circuit = self._build()
        fused, stats = traced_fuse(tr, circuit)
        with tr.span("engine.run", "engine") as engine:
            # traced ops share one stream, so accept_frac is fixed by the seed
            report = run(fused, "rejection", self.shots, self.run_seed, self.n)
        executed = _executed_gates(fused, report)
        metrics = {"projection.build_s": build.dur, "projection.gates": stats.gates_before,
                   **fusion_metrics(tr, stats),
                   "engine.run_s": engine.dur,
                   "engine.us_per_fused_gate": 1e6 * engine.dur / executed,
                   "engine.us_per_shot": 1e6 * engine.dur / self.shots,
                   "engine.accept_frac": report.accepted / self.shots}
        return report, metrics


def _executed_gates(fused, report: RunReport) -> int:
    """Gates the rejection loop ran: a shot rejected at step k stops there."""
    before_step, count = [], 0
    for ins in fused.instructions:
        if ins.gate is Gate.MEASURE:
            before_step.append(count)
        elif ins.gate.is_unitary:
            count += 1
    rejected = sum(r * before_step[k] for k, r in enumerate(report.step_rejections))
    return rejected + report.accepted * count


WORKLOADS = {cls.name: cls for cls in (ChainMma, NarrowCli, NarrowRejection)}
