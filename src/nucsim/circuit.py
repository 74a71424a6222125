"""Circuit intermediate representation.

A Circuit is one quantum register plus named classical registers and an
ordered instruction sequence; sequence order is execution order, nothing is
ever reordered implicitly.  Classical bits are flattened across registers
in declaration order.  Qubit 0 is the least significant bit of a basis
index.

The sequence is held as runs ``(instructions, count)``: ``count`` copies of
the same instruction objects, one after another.  A flat circuit is one run
of count 1, and the builder methods append to it.  The Trotter slices of a
filter step are one run, so a circuit of 10^8 gates holds only its distinct
slices, and ``parse_qasm`` finds those runs again in the text.
``instructions`` is a read-only flat view, expanded from the runs on each
read, so the stages from ``build_filter_circuit`` or ``parse_qasm`` to
``run`` read ``runs`` instead and use :func:`walk_run` to handle a repeated
run at the cost of a few copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gates import Gate, _shared_matrix

_ATOL_UNITARY = 1e-10  # payload matrices must be unitary to this tolerance
# a tuple, not a set: `in` compares by identity, a set hashes by the slow Enum.__hash__
_PAYLOADS = (Gate.C1, Gate.C2)


@dataclass(frozen=True, slots=True, eq=False)
class Instruction:
    """One circuit operation.

    ``matrix`` is set only for C1/C2 fusion payloads, ``cbit`` only for
    measures.  Treated as immutable; ``eq`` is disabled because ndarray
    fields do not compare elementwise, use :meth:`key` for identity checks.
    """

    gate: Gate
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()
    matrix: np.ndarray | None = None
    cbit: int | None = None

    def key(self) -> tuple:
        """Hashable identity of everything except a payload matrix."""
        return (self.gate, self.qubits, self.params, self.cbit)

    @property
    def is_gate(self) -> bool:
        return self.gate.is_unitary

    def resolved_matrix(self) -> np.ndarray:
        """Dense matrix over this instruction's qubit slots.  For a named gate
        it is the one cached array per (gate, params), shared and read-only;
        ``gates.gate_matrix`` gives a writable copy."""
        if self.matrix is not None:
            return self.matrix
        return _shared_matrix(self.gate, self.params)


class Circuit:
    """Instruction container with validating builder methods."""

    def __init__(self, n_qubits: int, cregs: list[tuple[str, int]] | None = None):
        if n_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        self.n_qubits = n_qubits
        self.cregs: list[tuple[str, int]] = []
        for name, size in cregs or ():
            self.add_creg(name, size)
        self.runs: list[tuple[list[Instruction], int]] = []

    @property
    def instructions(self) -> tuple[Instruction, ...]:
        """The flat instruction sequence, expanded from the runs on each
        read; the circuit itself is left as it is."""
        return tuple(ins for body, count in self.runs for _ in range(count) for ins in body)

    def _open_run(self) -> list[Instruction]:
        """The run of count 1 at the end, which appends go to."""
        if not self.runs or self.runs[-1][1] != 1:
            self.runs.append(([], 1))
        return self.runs[-1][0]

    def append_run(self, body: list[Instruction], count: int) -> None:
        """Append `count` copies of instructions already checked against
        this circuit's registers; copies of one run share their objects."""
        if not body:
            return
        if count == 1:
            self._open_run().extend(body)
        else:
            self.runs.append((list(body), count))

    def pop_last(self, n: int) -> list[Instruction]:
        """Remove the last `n` instructions and return them as a flat list.
        A repeated run cut inside keeps its whole copies before the cut, and
        the rest of the copy that the cut falls in stays as a flat run."""
        chunks = []
        while n:
            body, count = self.runs.pop()
            size = len(body) * count
            if size > n:
                keep, rest = divmod(size - n, len(body))
                if keep:
                    self.append_run(body, keep)
                self.append_run(body[:rest], 1)
                chunks.append(body[rest:] + body * (count - keep - 1))
                break
            chunks.append(body * count)
            n -= size
        return [ins for chunk in reversed(chunks) for ins in chunk]

    @property
    def n_clbits(self) -> int:
        return sum(size for _, size in self.cregs)

    def add_creg(self, name: str, size: int) -> None:
        if any(n == name for n, _ in self.cregs):
            raise ValueError(f"classical register {name!r} already declared")
        if size < 1:
            raise ValueError("classical register size must be positive")
        self.cregs.append((name, size))

    def clbit_index(self, reg: str, offset: int) -> int:
        """Flat classical bit index of reg[offset]."""
        base = 0
        for name, size in self.cregs:
            if name == reg:
                if not 0 <= offset < size:
                    raise ValueError(f"{reg}[{offset}] out of range")
                return base + offset
            base += size
        raise ValueError(f"unknown classical register {reg!r}")

    def clbit_location(self, flat: int) -> tuple[str, int]:
        """Inverse of :meth:`clbit_index`."""
        base = 0
        for name, size in self.cregs:
            if flat < base + size:
                return name, flat - base
            base += size
        raise ValueError(f"classical bit {flat} out of range")

    def _check_qubits(self, qubits: tuple[int, ...]) -> None:
        for q in qubits:
            if not isinstance(q, (int, np.integer)):
                raise ValueError(f"qubit index must be an integer, got {q!r}")
            if not 0 <= q < self.n_qubits:
                raise ValueError(f"qubit {q} out of range for {self.n_qubits} qubits")
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"duplicate qubit in {qubits}")

    def append(self, instr: Instruction) -> None:
        """Append one instruction after checking every field it carries; a
        C1/C2 payload is stored as its checked read-only copy."""
        gate = instr.gate
        payload = gate in _PAYLOADS
        if instr.matrix is not None and not payload:
            raise ValueError(f"{gate.value} carries no matrix")
        if instr.cbit is not None and gate is not Gate.MEASURE:
            raise ValueError(f"{gate.value} takes no classical bit")
        self._check_qubits(instr.qubits)
        if len(instr.qubits) != gate.n_qubits and gate is not Gate.BARRIER:
            raise ValueError(f"{gate.value} takes {gate.n_qubits} qubits")
        if len(instr.params) != gate.n_params:
            raise ValueError(f"{gate.value} takes {gate.n_params} parameters")
        if not all(map(math.isfinite, instr.params)):
            raise ValueError(f"{gate.value} has a non-finite parameter")
        if payload:
            matrix = _checked_payload(instr.matrix, 1 << gate.n_qubits)
            instr = Instruction(gate, instr.qubits, (), matrix)
        elif gate is Gate.MEASURE:
            if instr.cbit is None or not 0 <= instr.cbit < self.n_clbits:
                raise ValueError(f"measure target bit {instr.cbit} out of range")
        self._open_run().append(instr)

    def gate_op(self, gate: Gate, qubits: tuple[int, ...], params: tuple[float, ...] = ()) -> None:
        self.append(Instruction(gate, qubits, tuple(float(p) for p in params)))

    def fused_1q(self, matrix: np.ndarray, q: int) -> None:
        self.append(Instruction(Gate.C1, (q,), (), matrix))

    def fused_2q(self, matrix: np.ndarray, a: int, b: int) -> None:
        self.append(Instruction(Gate.C2, (a, b), (), matrix))

    def measure(self, q: int, cbit: int) -> None:
        self.append(Instruction(Gate.MEASURE, (q,), cbit=cbit))

    def reset(self, q: int) -> None:
        self.append(Instruction(Gate.RESET, (q,)))

    def barrier(self, *qubits: int) -> None:
        qs = tuple(qubits) if qubits else tuple(range(self.n_qubits))
        self.append(Instruction(Gate.BARRIER, qs))

    # shorthand builders used throughout tests and demos
    def h(self, q: int) -> None: self.gate_op(Gate.H, (q,))
    def x(self, q: int) -> None: self.gate_op(Gate.X, (q,))
    def s(self, q: int) -> None: self.gate_op(Gate.S, (q,))
    def sdg(self, q: int) -> None: self.gate_op(Gate.SDG, (q,))
    def rx(self, theta: float, q: int) -> None: self.gate_op(Gate.RX, (q,), (theta,))
    def ry(self, theta: float, q: int) -> None: self.gate_op(Gate.RY, (q,), (theta,))
    def rz(self, theta: float, q: int) -> None: self.gate_op(Gate.RZ, (q,), (theta,))
    def cx(self, c: int, t: int) -> None: self.gate_op(Gate.CX, (c, t))

    def instruction_count(self) -> int:
        """Length of the flat instruction sequence."""
        return sum(len(body) * count for body, count in self.runs)

    def gate_count(self) -> int:
        """Unitary instruction count (measure/reset/barrier excluded)."""
        return sum(count * sum(1 for i in body if i.is_gate) for body, count in self.runs)

    def counts_by_width(self) -> dict[int, int]:
        """Gate counts keyed by qubit arity."""
        out: dict[int, int] = {}
        for body, count in self.runs:
            for i in body:
                if i.is_gate:
                    w = len(i.qubits)
                    out[w] = out.get(w, 0) + count
        return out

    def copy_empty(self) -> "Circuit":
        return Circuit(self.n_qubits, list(self.cregs))


def walk_run(body: list, count: int, cells: list, walk, carried):
    """Walk `count` copies of `body` as a flat walk would, but physically
    only until the state carried across a copy boundary repeats.

    ``walk(body)`` walks one copy: it appends to `cells` and may rewrite the
    cells it still holds.  ``carried()`` gives that state as ``(label,
    held)``: `label` is hashable and compares by value, and `held` lists
    ``(position, obj)`` pairs, where `obj` compares by identity and
    `position` is a cell that a later instruction may still rewrite, or
    None.  Positions inside this run are compared relative to the boundary.

    Once the state at a boundary equals the state `period` copies earlier,
    every later stretch of `period` copies does what the last one did.  The
    walk goes on until no held cell lies in this run's cells so far, so they
    are final, walks the copies that do not fill a whole period, and returns
    ``(a, b, times)``: cells[a:b], the last period before the repeat, stand
    for `times` more of themselves right after them.  The cells after b are
    the last copies of the run, and the carried state is the flat walk's at
    the run's end.  Returns None when no whole period is left to skip.
    """
    start = len(cells)
    bounds: list[int] = []  # len(cells) at each boundary walked
    seen: dict = {}  # carried state -> (its boundary, its objects, alive so no id is reused)
    done = 0
    while done < count:
        b = len(cells)
        if count > 1:
            label, held = carried()
            key = tuple((p - b if p is not None and p >= start else p, id(obj)) for p, obj in held)
            j = seen.setdefault((label, key), (done, held))[0]
            if j < done:
                a, period = bounds[j], done - j
                while done < count and any(p is not None and start <= p < b
                                           for p, _ in carried()[1]):
                    walk(body)
                    done += 1
                times, rest = divmod(count - done, period)
                for _ in range(rest):
                    walk(body)
                return (a, b, times) if times else None
        bounds.append(b)
        walk(body)
        done += 1
    return None


def run_pieces(cells: list, marks: list[tuple[int, int, int]], lo: int = 0,
               hi: int | None = None) -> list[tuple[list, int]]:
    """The runs that cells[lo:hi] stand for, given the marks walk_run
    returned while filling them, in order: the cells between marks as runs
    of count 1, and cells[a:b] of each mark (a, b, times) as a run of count
    times + 1.  Empty runs are left out."""
    out = []
    at = lo
    for a, b, times in marks:
        out += [(cells[at:a], 1), (cells[a:b], times + 1)]
        at = b
    out.append((cells[at:hi], 1))
    return [run for run in out if run[0]]


def _checked_payload(matrix: np.ndarray, dim: int) -> np.ndarray:
    # a read-only copy: the caller's array may change after the check, and
    # fusion keys its products on the identity of payloads that never change
    m = np.array(matrix, dtype=complex, order="C")
    if m.shape != (dim, dim):
        raise ValueError(f"payload must be {dim}x{dim}")
    if not np.isfinite(m).all():
        raise ValueError("payload has a non-finite entry")
    err = np.max(np.abs(m.conj().T @ m - np.eye(dim)))
    if err > _ATOL_UNITARY:
        raise ValueError(f"payload is not unitary (deviation {err:.2e})")
    m.setflags(write=False)
    return m
