"""Gate fusion: a fixed four-pass pipeline that shrinks gate count.

Passes, always in this order:

1. ``merge_1q``      adjacent single-qubit gates on one qubit collapse to C1
2. ``absorb_1q``     single-qubit gates adjacent to a two-qubit gate fold in
3. ``normalize_2q_order``  two-qubit operands rewritten ascending via SWAP
                     conjugation of the payload
4. ``fuse_2q``       adjacent two-qubit gates on one ordered pair collapse
                     to C2

Adjacency is per qubit timeline: only an intervening instruction touching
one of the involved qubits breaks a run.  Measure, reset and barrier are
hard walls for every pass on the qubits they touch, and gates are never
reordered or commuted past each other.  Gates on three or more qubits pass
through opaque and act as walls on their qubits.  The pipeline is
idempotent: running it on its own output changes nothing.

Gate counts in the reported statistics exclude measure, reset and barrier.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit, Instruction
from .gates import Gate, swap_conjugate


@dataclass(frozen=True, slots=True)
class PassStats:
    """Gate counts around one pipeline pass."""

    name: str
    gates_before: int
    gates_after: int

    def to_dict(self) -> dict:
        return {"name": self.name, "gates_before": self.gates_before,
                "gates_after": self.gates_after}


@dataclass(frozen=True, slots=True)
class FusionStats:
    """Gate counts around the whole pipeline, with one entry per pass."""

    gates_before: int
    gates_after: int
    per_pass: tuple[PassStats, ...] = field(default_factory=tuple)

    @property
    def reduction_factor(self) -> float:
        if self.gates_before == 0:
            return 1.0
        return self.gates_before / max(self.gates_after, 1)

    def to_dict(self) -> dict:
        return {
            "gates_before": self.gates_before,
            "gates_after": self.gates_after,
            "reduction_factor": self.reduction_factor,
            "per_pass": [p.to_dict() for p in self.per_pass],
        }


def gate_count(circuit: Circuit) -> int:
    """Unitary gate count; measure, reset and barrier do not count."""
    return circuit.gate_count()


def _push(circuit: Circuit, ins: Instruction) -> int:
    # instructions come from an already validated circuit; skip re-checks
    circuit.instructions.append(ins)
    return len(circuit.instructions) - 1


def _c1(qubit: int, matrix: np.ndarray) -> Instruction:
    return Instruction(Gate.C1, (qubit,), (), matrix)


def _c2(qubits: tuple[int, int], matrix: np.ndarray) -> Instruction:
    return Instruction(Gate.C2, qubits, (), matrix)


def _lift(v: np.ndarray, slot: int) -> np.ndarray:
    """2x2 matrix acting on one slot of a (slot0 low, slot1 high) pair:
    kron(I, v) for slot 0, kron(v, I) for slot 1, written by slicing."""
    out = np.zeros((4, 4), dtype=complex)
    if slot == 0:
        out[:2, :2] = out[2:, 2:] = v
    else:
        out[::2, ::2] = out[1::2, 1::2] = v
    return out


def merge_1q(circuit: Circuit) -> Circuit:
    """Collapse runs of adjacent single-qubit gates into one C1 each.

    Lone single-qubit gates also become C1, so downstream passes and the
    pipeline contract see a uniform payload representation.
    """
    out = circuit.copy_empty()
    dest = out.instructions
    # qubit -> [slot in dest, accumulated matrix]
    pending: dict[int, list] = {}

    def flush(q: int) -> None:
        run = pending.pop(q, None)
        if run is not None:
            dest[run[0]] = _c1(q, run[1])

    for ins in circuit.instructions:
        if ins.is_gate and len(ins.qubits) == 1:
            q = ins.qubits[0]
            run = pending.get(q)
            if run is None:
                pending[q] = [_push(out, ins), ins.resolved_matrix()]
            else:
                run[1] = ins.resolved_matrix() @ run[1]
        else:
            for q in ins.qubits:
                flush(q)
            _push(out, ins)
    for q in list(pending):
        flush(q)
    return out


def absorb_1q(circuit: Circuit) -> Circuit:
    """Fold single-qubit gates into an adjacent two-qubit gate.

    A lone gate V on qubit q merges into the nearest two-qubit gate U that
    touches q with no other instruction on q in between: U then V becomes
    lift(V) @ U, V then U becomes U @ lift(V).  Repeats until stable.
    """
    current = circuit
    while True:
        nxt, changed = _absorb_sweep(current)
        if not changed:
            return nxt
        current = nxt


def _absorb_sweep(circuit: Circuit) -> tuple[Circuit, bool]:
    out = circuit.copy_empty()
    dest: list[Instruction | None] = []
    last: dict[int, int] = {}
    changed = False

    for ins in circuit.instructions:
        if ins.is_gate and len(ins.qubits) == 1:
            q = ins.qubits[0]
            j = last.get(q)
            prev = dest[j] if j is not None else None
            if prev is not None and prev.is_gate and len(prev.qubits) == 2:
                slot = prev.qubits.index(q)
                merged = _lift(ins.resolved_matrix(), slot) @ prev.resolved_matrix()
                dest[j] = _c2(prev.qubits, merged)
                changed = True
                continue
        elif ins.is_gate and len(ins.qubits) == 2:
            matrix = None
            for slot, q in enumerate(ins.qubits):
                j = last.get(q)
                prev = dest[j] if j is not None else None
                if prev is not None and prev.is_gate and len(prev.qubits) == 1:
                    if matrix is None:
                        matrix = ins.resolved_matrix()
                    matrix = matrix @ _lift(prev.resolved_matrix(), slot)
                    dest[j] = None
                    changed = True
            if matrix is not None:
                ins = _c2(ins.qubits, matrix)
        dest.append(ins)
        here = len(dest) - 1
        for q in ins.qubits:
            last[q] = here
    out.instructions.extend(i for i in dest if i is not None)
    return out, changed


def normalize_2q_order(circuit: Circuit) -> Circuit:
    """Rewrite two-qubit gates onto ascending operands.

    A gate on (b, a) with a < b becomes a C2 on (a, b) whose matrix is the
    original conjugated by SWAP (index permutation 0,2,1,3).
    """
    out = circuit.copy_empty()
    for ins in circuit.instructions:
        if ins.is_gate and len(ins.qubits) == 2 and ins.qubits[0] > ins.qubits[1]:
            ins = _c2((ins.qubits[1], ins.qubits[0]), swap_conjugate(ins.resolved_matrix()))
        _push(out, ins)
    return out


def fuse_2q(circuit: Circuit) -> Circuit:
    """Collapse runs of two-qubit gates on one ordered pair into one C2.

    Lone two-qubit gates become C2 as well, completing the pipeline's
    payload-only output contract.
    """
    out = circuit.copy_empty()
    dest = out.instructions
    # ordered pair -> [slot in dest, accumulated matrix]
    pending: dict[tuple[int, int], list] = {}

    def flush(pair: tuple[int, int]) -> None:
        run = pending.pop(pair, None)
        if run is not None:
            dest[run[0]] = _c2(pair, run[1])

    def flush_touching(qubits: tuple[int, ...], keep: tuple[int, int] | None = None) -> None:
        touched = set(qubits)
        for pair in [p for p in pending if p != keep and touched & set(p)]:
            flush(pair)

    for ins in circuit.instructions:
        if ins.is_gate and len(ins.qubits) == 2:
            pair = ins.qubits
            flush_touching(pair, keep=pair)
            run = pending.get(pair)
            if run is None:
                pending[pair] = [_push(out, ins), ins.resolved_matrix()]
            else:
                run[1] = ins.resolved_matrix() @ run[1]
        else:
            flush_touching(ins.qubits)
            _push(out, ins)
    for pair in list(pending):
        flush(pair)
    return out


def fuse_pipeline(circuit: Circuit) -> tuple[Circuit, FusionStats]:
    """Run all four passes in order and report per-pass gate counts."""
    passes = (("merge_1q", merge_1q), ("absorb_1q", absorb_1q),
              ("normalize_2q_order", normalize_2q_order), ("fuse_2q", fuse_2q))
    before = count = gate_count(circuit)
    stats = []
    current = circuit
    for name, fn in passes:
        # each circuit is counted once: a pass starts from its predecessor's count
        current = fn(current)
        after = gate_count(current)
        stats.append(PassStats(name, count, after))
        count = after
    return current, FusionStats(before, count, tuple(stats))
