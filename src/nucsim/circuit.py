"""Circuit intermediate representation.

A Circuit is one quantum register plus named classical registers and an
ordered instruction list; list order is execution order, nothing is ever
reordered implicitly.  Classical bits are flattened across registers in
declaration order.  Qubit 0 is the least significant bit of a basis index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gates import Gate, _shared_matrix

_ATOL_UNITARY = 1e-10  # payload matrices must be unitary to this tolerance


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
        self.cregs: list[tuple[str, int]] = list(cregs or [])
        self.instructions: list[Instruction] = []

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
        self._check_qubits(instr.qubits)
        if instr.gate.is_unitary:
            if len(instr.qubits) != instr.gate.n_qubits:
                raise ValueError(f"{instr.gate.value} takes {instr.gate.n_qubits} qubits")
            if len(instr.params) != instr.gate.n_params:
                raise ValueError(f"{instr.gate.value} takes {instr.gate.n_params} parameters")
        if instr.gate is Gate.MEASURE:
            if instr.cbit is None or not 0 <= instr.cbit < self.n_clbits:
                raise ValueError(f"measure target bit {instr.cbit} out of range")
        self.instructions.append(instr)

    def gate_op(self, gate: Gate, qubits: tuple[int, ...], params: tuple[float, ...] = ()) -> None:
        self.append(Instruction(gate, qubits, tuple(float(p) for p in params)))

    def fused_1q(self, matrix: np.ndarray, q: int) -> None:
        self.append(Instruction(Gate.C1, (q,), (), _checked_payload(matrix, 2)))

    def fused_2q(self, matrix: np.ndarray, a: int, b: int) -> None:
        self.append(Instruction(Gate.C2, (a, b), (), _checked_payload(matrix, 4)))

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

    def gate_count(self) -> int:
        """Unitary instruction count (measure/reset/barrier excluded)."""
        return sum(1 for i in self.instructions if i.is_gate)

    def counts_by_width(self) -> dict[int, int]:
        """Gate counts keyed by qubit arity."""
        out: dict[int, int] = {}
        for i in self.instructions:
            if i.is_gate:
                w = len(i.qubits)
                out[w] = out.get(w, 0) + 1
        return out

    def copy_empty(self) -> "Circuit":
        return Circuit(self.n_qubits, list(self.cregs))


def _checked_payload(matrix: np.ndarray, dim: int) -> np.ndarray:
    m = np.ascontiguousarray(matrix, dtype=complex)
    if m.shape != (dim, dim):
        raise ValueError(f"payload must be {dim}x{dim}")
    err = np.max(np.abs(m.conj().T @ m - np.eye(dim)))
    if err > _ATOL_UNITARY:
        raise ValueError(f"payload is not unitary (deviation {err:.2e})")
    return m
