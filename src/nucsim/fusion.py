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

Each pass maps the runs of a circuit (see ``circuit``) to runs and costs in
proportion to the distinct work in it, not to its gate count.  A repeated
run is walked copy by copy only until the state the pass carries across a
copy boundary repeats (``circuit.walk_run``).  Each pass gives that state
in one ``carried()`` callback, each held object with the output cell it
may still rewrite: the pending runs of ``_collapse_runs``, or the last
instruction on each qubit of ``_absorb_sweep``.  The output of the copies
since the earlier occurrence of that state then stands for the rest of the
run, so the output is head + body x times + tail, with the instructions
and order of a flat walk; both passes rebuild it in ``_rebuild``.  That
state can repeat because one memo per pass call, dropped when the call
returns, keys on the identity of the objects the copies share: the matrix
of each instruction, each product ``a @ b`` (operands and their order as
written, never re-associated), each lift of a 2x2 matrix onto one slot of
a pair (``gates._lift``, the index placement every gate product and
operand reorder goes through) and each output C1/C2 instruction.  Its
outputs are therefore shared, and the next pass meets them as repeats too;
the same memo makes the repeated lines of a parsed, flat circuit cheap.
``normalize_2q_order`` carries no state across an instruction and rewrites
each run body once, so it conjugates each reversed gate of a body afresh.
The payload matrices the passes compute are shared and read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit, Instruction, run_pieces, walk_run
from .gates import Gate, _lift, swap_conjugate


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


def _walk(circuit: Circuit, cells: list, walk, carried) -> list:
    """Walk every run of `circuit` into `cells` (see circuit.walk_run);
    returns the marks of the repeated copies."""
    marks = []
    for body, count in circuit.runs:
        mark = walk_run(body, count, cells, walk, carried)
        if mark is not None:
            marks.append(mark)
    return marks


def _rebuild(circuit: Circuit, cells: list, marks: list) -> Circuit:
    """The circuit that the walked `cells` and their `marks` stand for, on
    the registers of `circuit`; a cell emptied to None is dropped."""
    out = circuit.copy_empty()
    for piece, count in run_pieces(cells, marks):
        out.append_run([i for i in piece if i is not None], count)
    return out


class _Memo:
    """The matrices and instructions one pass call computes, each once.

    Entries are keyed by the identity of their operands (instructions hash
    by identity), and every entry holds a reference to the objects it is
    keyed on, so no id is reused while the memo lives.  Arrays it returns
    are shared between instructions and therefore read-only.
    """

    __slots__ = ("_matrix", "_product", "_lift", "_out")

    def __init__(self):
        self._matrix: dict[Instruction, np.ndarray] = {}
        self._product: dict[tuple[int, int], tuple] = {}   # -> (a @ b, a, b)
        self._lift: dict[tuple[int, int], tuple] = {}      # -> (lift, v)
        self._out: dict[tuple, Instruction] = {}           # payload held by the value

    def matrix(self, ins: Instruction) -> np.ndarray:
        m = self._matrix.get(ins)
        if m is None:
            m = self._matrix[ins] = ins.resolved_matrix()
        return m

    def product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a @ b, with the operands in this order, never re-associated."""
        key = (id(a), id(b))
        hit = self._product.get(key)
        if hit is None:
            p = a @ b
            p.setflags(write=False)
            hit = self._product[key] = (p, a, b)
        return hit[0]

    def lift(self, v: np.ndarray, slot: int) -> np.ndarray:
        key = (id(v), slot)
        hit = self._lift.get(key)
        if hit is None:
            m = _lift(v, (slot,), 2)
            m.setflags(write=False)
            hit = self._lift[key] = (m, v)
        return hit[0]

    def payload(self, qubits: tuple[int, ...], matrix: np.ndarray) -> Instruction:
        """The C1 (one qubit) or C2 (two) instruction carrying `matrix`."""
        key = (qubits, id(matrix))
        out = self._out.get(key)
        if out is None:
            gate = Gate.C1 if len(qubits) == 1 else Gate.C2
            out = self._out[key] = Instruction(gate, qubits, (), matrix)
        return out


def _collapse_runs(circuit: Circuit, arity: int) -> Circuit:
    """Collapse each run of adjacent gates of `arity` (1 or 2) on the same
    operands, in the same order, into one C1 or C2; lone gates as well."""
    memo = _Memo()
    dest: list[Instruction] = []
    # qubit -> [operands, slot in dest, accumulated matrix] of the pending
    # run on it; pending runs never share a qubit
    pending: dict[int, list] = {}

    def walk(body: list[Instruction]) -> None:
        for ins in body:
            operands = ins.qubits
            if ins.is_gate and len(operands) == arity:
                run = pending.get(operands[0])
                if run is not None and run[0] == operands:
                    run[2] = memo.product(memo.matrix(ins), run[2])
                    continue
                run = [operands, len(dest), memo.matrix(ins)]
            else:
                run = None
            for q in operands:  # close the runs this instruction touches
                held = pending.pop(q, None)
                if held is not None:
                    dest[held[1]] = memo.payload(held[0], held[2])
                    for p in held[0]:
                        pending.pop(p, None)
            dest.append(ins)
            if run is not None:
                for q in operands:
                    pending[q] = run

    def carried() -> tuple[tuple, list]:
        runs = [pending[q] for q in sorted(pending)]
        return tuple(r[0] for r in runs), [(r[1], r[2]) for r in runs]

    marks = _walk(circuit, dest, walk, carried)
    for run in pending.values():  # a pair's run is listed twice; the memo gives one payload
        dest[run[1]] = memo.payload(run[0], run[2])
    return _rebuild(circuit, dest, marks)


def merge_1q(circuit: Circuit) -> Circuit:
    """Collapse runs of adjacent single-qubit gates into one C1 each.

    Lone single-qubit gates also become C1, so downstream passes and the
    pipeline contract see a uniform payload representation.
    """
    return _collapse_runs(circuit, 1)


def absorb_1q(circuit: Circuit) -> Circuit:
    """Fold single-qubit gates into an adjacent two-qubit gate.

    A lone gate V on qubit q merges into the nearest two-qubit gate U that
    touches q with no other instruction on q in between: U then V becomes
    lift(V) @ U, V then U becomes U @ lift(V).  Sweeps again while the last
    sweep says its output still needs one.
    """
    memo = _Memo()
    current, again = _absorb_sweep(circuit, memo)
    while again:
        current, again = _absorb_sweep(current, memo)
    return current


def _absorb_sweep(circuit: Circuit, memo: _Memo) -> tuple[Circuit, bool]:
    """One sweep of absorb_1q, and whether its output needs another: only
    where it folded a single-qubit gate that came right after another one
    does a single-qubit gate meet a two-qubit gate after it."""
    dest: list[Instruction | None] = []
    last: dict[int, int] = {}
    # qubit -> whether its last single-qubit gate came right after another;
    # carried, as it sets `again` when a later gate folds that one
    chained: dict[int, bool] = {}
    again = False

    def walk(body: list[Instruction]) -> None:
        nonlocal again
        for ins in body:
            if ins.is_gate and len(ins.qubits) == 1:
                q = ins.qubits[0]
                j = last.get(q)
                prev = dest[j] if j is not None else None
                if prev is not None and prev.is_gate and len(prev.qubits) == 2:
                    slot = prev.qubits.index(q)
                    merged = memo.product(memo.lift(memo.matrix(ins), slot), memo.matrix(prev))
                    dest[j] = memo.payload(prev.qubits, merged)
                    continue
                chained[q] = prev is not None and prev.is_gate and len(prev.qubits) == 1
            elif ins.is_gate and len(ins.qubits) == 2:
                matrix = None
                for slot, q in enumerate(ins.qubits):
                    j = last.get(q)
                    prev = dest[j] if j is not None else None
                    if prev is not None and prev.is_gate and len(prev.qubits) == 1:
                        if matrix is None:
                            matrix = memo.matrix(ins)
                        matrix = memo.product(matrix, memo.lift(memo.matrix(prev), slot))
                        dest[j] = None
                        again = again or chained[q]
                if matrix is not None:
                    ins = memo.payload(ins.qubits, matrix)
            dest.append(ins)
            here = len(dest) - 1
            for q in ins.qubits:
                last[q] = here

    def carried() -> tuple[tuple, list]:
        qubits = sorted(last)
        return (tuple((q, chained.get(q)) for q in qubits),
                [(last[q], dest[last[q]]) for q in qubits])

    return _rebuild(circuit, dest, _walk(circuit, dest, walk, carried)), again


def normalize_2q_order(circuit: Circuit) -> Circuit:
    """Rewrite two-qubit gates onto ascending operands.

    A gate on (b, a) with a < b becomes a C2 on (a, b) whose matrix is the
    original conjugated by SWAP (index permutation 0,2,1,3).
    """
    memo = _Memo()

    def swapped(ins: Instruction) -> Instruction:
        m = swap_conjugate(memo.matrix(ins))
        m.setflags(write=False)
        return memo.payload((ins.qubits[1], ins.qubits[0]), m)

    out = circuit.copy_empty()
    for body, count in circuit.runs:  # no state crosses an instruction
        out.append_run([swapped(ins) if ins.is_gate and len(ins.qubits) == 2
                        and ins.qubits[0] > ins.qubits[1] else ins for ins in body], count)
    return out


def fuse_2q(circuit: Circuit) -> Circuit:
    """Collapse runs of two-qubit gates on one ordered pair into one C2.

    Lone two-qubit gates become C2 as well, completing the pipeline's
    payload-only output contract.
    """
    return _collapse_runs(circuit, 2)


def fuse_pipeline(circuit: Circuit) -> tuple[Circuit, FusionStats]:
    """Run all four passes in order and report per-pass gate counts."""
    passes = (("merge_1q", merge_1q), ("absorb_1q", absorb_1q),
              ("normalize_2q_order", normalize_2q_order), ("fuse_2q", fuse_2q))
    before = count = gate_count(circuit)
    stats = []
    current = circuit
    for name, fn in passes:
        # a pass adds no instruction and drops only gates it folds into
        # another, so only the input is counted
        out = fn(current)
        after = count - (current.instruction_count() - out.instruction_count())
        stats.append(PassStats(name, count, after))
        current, count = out, after
    return current, FusionStats(before, count, tuple(stats))
