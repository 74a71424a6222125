"""Gate vocabulary and dense matrices.

Every unitary tag maps to an explicit complex128 matrix over its qubit slots
in little-endian order: slot 0 (the first operand) is the least significant
bit of the matrix index.  Controlled gates list controls first, so CX(c, t)
sends basis index 1 (c=1, t=0) to index 3 (c=1, t=1).

Conventions pinned here:
    U3(theta, phi, lam) = [[cos(t/2), -e^{i lam} sin(t/2)],
                           [e^{i phi} sin(t/2), e^{i(phi+lam)} cos(t/2)]]
    U1(lam) = diag(1, e^{i lam})
    RZ(theta) = e^{-i theta/2} U1(theta)        (symmetric phases)
    RZZ(theta) = diag(1, e^{i theta}, e^{i theta}, 1)   (qelib1 body)
    SWAP, CSWAP, RCCX, RC3X = products of their qelib1 bodies, for example
        swap a,b = cx a,b; cx b,a; cx a,b
        cswap a,b,c = cx c,b; ccx a,b,c; cx c,b

C1 and C2 are fusion products carrying explicit 2x2 / 4x4 payloads; they have
no closed-form matrix here and no OpenQASM name.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache

import numpy as np

SQRT1_2 = math.sqrt(0.5)


class Gate(Enum):
    """Instruction tags: unitary gates plus measure/reset/barrier markers,
    each written (tag, n_qubits, n_params); Gate(tag) looks a member up."""

    U3 = ("u3", 1, 3)
    U2 = ("u2", 1, 2)
    U1 = ("u1", 1, 1)
    CX = ("cx", 2)
    ID = ("id", 1)
    X = ("x", 1)
    Y = ("y", 1)
    Z = ("z", 1)
    H = ("h", 1)
    S = ("s", 1)
    SDG = ("sdg", 1)
    T = ("t", 1)
    TDG = ("tdg", 1)
    RX = ("rx", 1, 1)
    RY = ("ry", 1, 1)
    RZ = ("rz", 1, 1)
    CZ = ("cz", 2)
    CY = ("cy", 2)
    SWAP = ("swap", 2)
    CH = ("ch", 2)
    CCX = ("ccx", 3)
    CSWAP = ("cswap", 3)
    CRX = ("crx", 2, 1)
    CRY = ("cry", 2, 1)
    CRZ = ("crz", 2, 1)
    CU1 = ("cu1", 2, 1)
    CU3 = ("cu3", 2, 3)
    RXX = ("rxx", 2, 1)
    RZZ = ("rzz", 2, 1)
    RCCX = ("rccx", 3)
    RC3X = ("rc3x", 4)
    C3X = ("c3x", 4)
    C3SQRTX = ("c3sqrtx", 4)
    C4X = ("c4x", 5)
    C1 = ("c1", 1)  # fused 1-qubit payload
    C2 = ("c2", 2)  # fused 2-qubit payload
    MEASURE = ("measure", 1)
    RESET = ("reset", 1)
    BARRIER = ("barrier", 0)  # barrier takes any set

    # plain member attributes, not properties: fusion and Circuit.append ask
    # them per instruction, and an enum property that looks a member up in a
    # dict hashes it through the Python-level Enum.__hash__, about 1 us on
    # CPython 3.11
    is_unitary: bool
    n_qubits: int
    n_params: int

    def __new__(cls, tag: str, n_qubits: int, n_params: int = 0):
        member = object.__new__(cls)
        member._value_ = tag
        member.is_unitary = tag not in ("measure", "reset", "barrier")
        member.n_qubits = n_qubits
        member.n_params = n_params
        return member


QASM_NAMES = {g.value: g for g in Gate if g.is_unitary and g not in (Gate.C1, Gate.C2)}

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) * SQRT1_2
_SQRT_X = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])


def _u3(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([
        [c, -np.exp(1j * lam) * s],
        [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
    ])


def _u1(lam: float) -> np.ndarray:
    return np.array([[1, 0], [0, np.exp(1j * lam)]], dtype=complex)


def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(theta: float) -> np.ndarray:
    return np.array([[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]])


def _controlled(u: np.ndarray, n_controls: int) -> np.ndarray:
    """Dense n-controlled u with controls in the low slots, target highest."""
    dim = 2 ** (n_controls + 1)
    out = np.eye(dim, dtype=complex)
    lo = 2 ** n_controls - 1          # all controls set, target 0
    hi = lo + 2 ** n_controls         # all controls set, target 1
    out[lo, lo], out[lo, hi] = u[0, 0], u[0, 1]
    out[hi, lo], out[hi, hi] = u[1, 0], u[1, 1]
    return out


_CX = _controlled(_X, 1)
_U2_0PI = _u3(math.pi / 2, 0.0, math.pi)  # u2(0, pi), the H of the qelib1 bodies
_T = _u1(math.pi / 4)
_TDG = _u1(-math.pi / 4)


def _slot_index(slots: tuple[int, ...], n_slots: int) -> np.ndarray:
    """Where _lift puts the entries of a matrix on `slots`: flat positions
    in the 2^n_slots square matrix, for each setting t of the other slots in
    turn.  Entry (a, b) goes to row rows[t, a] and column rows[t, b], the
    index with the bits of t on the other slots and bit j of a on slots[j]."""

    def spread(bits: tuple[int, ...]) -> np.ndarray:
        # each index i with its bit j moved to position bits[j]
        i = np.arange(1 << len(bits))
        out = np.zeros_like(i)
        for j, s in enumerate(bits):
            out |= ((i >> j) & 1) << s
        return out

    rows = spread(tuple(s for s in range(n_slots) if s not in slots))[:, None] + spread(slots)
    # left writable: ndarray.put copies a read-only index on every call
    return ((rows << n_slots)[:, :, None] + rows[:, None, :]).ravel()


_cached_slot_index = lru_cache(maxsize=None)(_slot_index)


def _lift_index(slots: tuple[int, ...], n_slots: int) -> np.ndarray:
    """_slot_index, cached up to five slots, the widest gate (8 KiB an
    index); a wider index, 8 * 4^n_slots bytes, is built for its call.

    Read the other way, it also splits: u.ravel().take(index) on a 2^n_slots
    square matrix gives, for each setting t of the other slots, the
    sub-block on `slots` (engine._plan_entry's diagonal sub-blocks)."""
    return (_cached_slot_index if n_slots <= 5 else _slot_index)(slots, n_slots)


def _lift(u: np.ndarray, slots: tuple[int, ...], n_slots: int) -> np.ndarray:
    """A gate matrix embedded in the space of n_slots slots: slot j of u
    lands on slots[j], in any order, and the other slots carry the identity.
    Pure placement: every entry is u's own or zero."""
    out = np.zeros((1 << n_slots, 1 << n_slots), dtype=complex)
    out.put(_lift_index(slots, n_slots), u)  # u repeats for each t
    return out


def _compose(ops: list[tuple[np.ndarray, tuple[int, ...]]]) -> tuple[tuple[int, ...], np.ndarray]:
    """Gates given as (matrix, qubits) in circuit order, as one matrix on the
    sorted union of their qubits: lift(u_n) @ ... @ lift(u_1), built by
    left-multiplying one gate at a time.  Returns (qubits, product)."""
    qubits = tuple(sorted({q for _, qs in ops for q in qs}))
    slot = {q: i for i, q in enumerate(qubits)}
    acc = None
    for u, qs in ops:
        lifted = _lift(u, tuple(slot[q] for q in qs), len(qubits))
        acc = lifted if acc is None else lifted @ acc
    return qubits, acc


def sort_operands(u: np.ndarray, qubits: tuple[int, ...]) -> tuple[np.ndarray, tuple[int, ...]]:
    """The same gate with its qubits in ascending order: the matrix is
    reindexed so that its slot j acts on the j-th smallest qubit, placed by
    _lift as every gate product is."""
    if all(a < b for a, b in zip(qubits, qubits[1:])):
        return u, tuple(qubits)
    ordered, matrix = _compose([(u, qubits)])
    return matrix, ordered


def swap_conjugate(u: np.ndarray) -> np.ndarray:
    """Reindex a 4x4 matrix as if its two qubit slots were exchanged."""
    return sort_operands(u, (1, 0))[0]


def _rxx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return c * np.eye(4) - 1j * s * np.kron(_X, _X)


def _rzz(theta: float) -> np.ndarray:
    e = np.exp(1j * theta)
    return np.diag([1, e, e, 1]).astype(complex)


_FIXED = {
    Gate.ID: _I2,
    Gate.X: _X,
    Gate.Y: _Y,
    Gate.Z: _Z,
    Gate.H: _H,
    Gate.S: np.diag([1, 1j]).astype(complex),
    Gate.SDG: np.diag([1, -1j]).astype(complex),
    Gate.T: _T,
    Gate.TDG: _TDG,
    Gate.CX: _CX,
    Gate.CY: _controlled(_Y, 1),
    Gate.CZ: _controlled(_Z, 1),
    Gate.CH: _controlled(_H, 1),
    Gate.SWAP: _compose([(_CX, (0, 1)), (_CX, (1, 0)), (_CX, (0, 1))])[1],
    Gate.CCX: _controlled(_X, 2),
    Gate.CSWAP: _compose([(_CX, (2, 1)), (_controlled(_X, 2), (0, 1, 2)), (_CX, (2, 1))])[1],
    Gate.RCCX: _compose([
        (_U2_0PI, (2,)), (_T, (2,)), (_CX, (1, 2)), (_TDG, (2,)),
        (_CX, (0, 2)), (_T, (2,)), (_CX, (1, 2)), (_TDG, (2,)), (_U2_0PI, (2,)),
    ])[1],
    Gate.RC3X: _compose([
        (_U2_0PI, (3,)), (_T, (3,)), (_CX, (2, 3)), (_TDG, (3,)), (_U2_0PI, (3,)),
        (_CX, (0, 3)), (_T, (3,)), (_CX, (1, 3)), (_TDG, (3,)),
        (_CX, (0, 3)), (_T, (3,)), (_CX, (1, 3)), (_TDG, (3,)),
        (_U2_0PI, (3,)), (_T, (3,)), (_CX, (2, 3)), (_TDG, (3,)), (_U2_0PI, (3,)),
    ])[1],
    Gate.C3X: _controlled(_X, 3),
    Gate.C3SQRTX: _controlled(_SQRT_X, 3),
    Gate.C4X: _controlled(_X, 4),
}

_PARAMETRIC = {
    Gate.U3: lambda p: _u3(*p),
    Gate.U2: lambda p: _u3(math.pi / 2, p[0], p[1]),
    Gate.U1: lambda p: _u1(p[0]),
    Gate.RX: lambda p: _rx(p[0]),
    Gate.RY: lambda p: _ry(p[0]),
    Gate.RZ: lambda p: _rz(p[0]),
    Gate.CRX: lambda p: _controlled(_rx(p[0]), 1),
    Gate.CRY: lambda p: _controlled(_ry(p[0]), 1),
    Gate.CRZ: lambda p: _controlled(_rz(p[0]), 1),
    Gate.CU1: lambda p: _controlled(_u1(p[0]), 1),
    Gate.CU3: lambda p: _controlled(_u3(*p), 1),
    Gate.RXX: lambda p: _rxx(p[0]),
    Gate.RZZ: lambda p: _rzz(p[0]),
}


@lru_cache(maxsize=65536)
def _matrix_cached(gate: Gate, params: tuple[float, ...]) -> np.ndarray:
    if gate in _FIXED:
        m = _FIXED[gate]
    elif gate in _PARAMETRIC:
        m = _PARAMETRIC[gate](params)
    else:
        raise ValueError(f"{gate.value} has no closed-form matrix")
    m = np.ascontiguousarray(m, dtype=complex)
    m.setflags(write=False)  # cached and shared, callers must not mutate
    return m


def _shared_matrix(gate: Gate, params: tuple[float, ...]) -> np.ndarray:
    """The cached, read-only matrix of a named gate, with gate_matrix's
    checks; callers must not mutate it."""
    if not gate.is_unitary:
        raise ValueError(f"{gate.value} is not a unitary gate")
    if gate in (Gate.C1, Gate.C2):
        raise ValueError(f"{gate.value} carries its matrix on the instruction")
    if len(params) != gate.n_params:
        raise ValueError(f"{gate.value} expects {gate.n_params} parameters, got {len(params)}")
    return _matrix_cached(gate, tuple(float(p) for p in params))


def gate_matrix(gate: Gate, params: tuple[float, ...] = ()) -> np.ndarray:
    """Dense matrix of a named gate, a writable copy; raises for
    measure/reset/barrier/C1/C2."""
    return _shared_matrix(gate, params).copy()
