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
    """Instruction tags: unitary gates plus measure/reset/barrier markers."""

    U3 = "u3"
    U2 = "u2"
    U1 = "u1"
    CX = "cx"
    ID = "id"
    X = "x"
    Y = "y"
    Z = "z"
    H = "h"
    S = "s"
    SDG = "sdg"
    T = "t"
    TDG = "tdg"
    RX = "rx"
    RY = "ry"
    RZ = "rz"
    CZ = "cz"
    CY = "cy"
    SWAP = "swap"
    CH = "ch"
    CCX = "ccx"
    CSWAP = "cswap"
    CRX = "crx"
    CRY = "cry"
    CRZ = "crz"
    CU1 = "cu1"
    CU3 = "cu3"
    RXX = "rxx"
    RZZ = "rzz"
    RCCX = "rccx"
    RC3X = "rc3x"
    C3X = "c3x"
    C3SQRTX = "c3sqrtx"
    C4X = "c4x"
    C1 = "c1"  # fused 1-qubit payload
    C2 = "c2"  # fused 2-qubit payload
    MEASURE = "measure"
    RESET = "reset"
    BARRIER = "barrier"

    def __init__(self, tag: str):
        # a plain member attribute, not a property: fusion asks it once per
        # instruction per pass, and an enum property that looks up members
        # costs about 1 us on CPython 3.11
        self.is_unitary = tag not in ("measure", "reset", "barrier")

    @property
    def n_qubits(self) -> int:
        return _N_QUBITS[self]

    @property
    def n_params(self) -> int:
        return _N_PARAMS[self]


_N_QUBITS = {
    Gate.U3: 1, Gate.U2: 1, Gate.U1: 1, Gate.ID: 1, Gate.X: 1, Gate.Y: 1,
    Gate.Z: 1, Gate.H: 1, Gate.S: 1, Gate.SDG: 1, Gate.T: 1, Gate.TDG: 1,
    Gate.RX: 1, Gate.RY: 1, Gate.RZ: 1, Gate.C1: 1,
    Gate.CX: 2, Gate.CZ: 2, Gate.CY: 2, Gate.SWAP: 2, Gate.CH: 2,
    Gate.CRX: 2, Gate.CRY: 2, Gate.CRZ: 2, Gate.CU1: 2, Gate.CU3: 2,
    Gate.RXX: 2, Gate.RZZ: 2, Gate.C2: 2,
    Gate.CCX: 3, Gate.CSWAP: 3, Gate.RCCX: 3,
    Gate.C3X: 4, Gate.C3SQRTX: 4, Gate.RC3X: 4,
    Gate.C4X: 5,
    Gate.MEASURE: 1, Gate.RESET: 1, Gate.BARRIER: 0,  # barrier takes any set
}

_N_PARAMS = {g: 0 for g in Gate}
_N_PARAMS.update({
    Gate.U3: 3, Gate.U2: 2, Gate.U1: 1,
    Gate.RX: 1, Gate.RY: 1, Gate.RZ: 1,
    Gate.CRX: 1, Gate.CRY: 1, Gate.CRZ: 1,
    Gate.CU1: 1, Gate.CU3: 3,
    Gate.RXX: 1, Gate.RZZ: 1,
})

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


def _lift(u: np.ndarray, slots: tuple[int, ...], n_slots: int) -> np.ndarray:
    """Embed a gate matrix acting on the given slots into an n_slot space."""
    dim = 2 ** n_slots
    out = np.zeros((dim, dim), dtype=complex)
    rest = [s for s in range(n_slots) if s not in slots]
    for col in range(dim):
        sub_in = sum(((col >> s) & 1) << j for j, s in enumerate(slots))
        base = sum(((col >> s) & 1) << s for s in rest)
        for sub_out in range(u.shape[0]):
            amp = u[sub_out, sub_in]
            if amp != 0:
                row = base + sum(((sub_out >> j) & 1) << s for j, s in enumerate(slots))
                out[row, col] += amp
    return out


def _compose(n_slots: int, ops: list[tuple[np.ndarray, tuple[int, ...]]]) -> np.ndarray:
    """Dense product of gates applied in list order (first entry acts first)."""
    acc = np.eye(2 ** n_slots, dtype=complex)
    for u, slots in ops:
        acc = _lift(u, slots, n_slots) @ acc
    return acc


@lru_cache(maxsize=None)
def _slot_take(order: tuple[int, ...]) -> np.ndarray:
    # flat indices into a matrix over the old slots, for each entry of the
    # matrix over the new ones, whose slot j is old slot order[j]
    old = np.array([sum(((r >> j) & 1) << s for j, s in enumerate(order))
                    for r in range(1 << len(order))])
    take = (old[:, None] * len(old) + old[None, :]).ravel()
    take.setflags(write=False)
    return take


def sort_operands(u: np.ndarray, qubits: tuple[int, ...]) -> tuple[np.ndarray, tuple[int, ...]]:
    """The same gate with its qubits in ascending order: the matrix is
    reindexed so that its slot j acts on the j-th smallest qubit."""
    if all(a < b for a, b in zip(qubits, qubits[1:])):
        return u, tuple(qubits)
    order = tuple(sorted(range(len(qubits)), key=qubits.__getitem__))
    return np.take(u, _slot_take(order)).reshape(u.shape), tuple(qubits[j] for j in order)


def swap_conjugate(u: np.ndarray) -> np.ndarray:
    """Reindex a 4x4 matrix as if its two qubit slots were exchanged."""
    return sort_operands(u, (1, 0))[0]


def _swap_matrix() -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    for c in range(2):
        for t in range(2):
            m[t + 2 * c, c + 2 * t] = 1
    return m


def _cswap_matrix() -> np.ndarray:
    # control slot 0, swap slots 1 and 2
    m = np.eye(8, dtype=complex)
    m[[3, 5]] = m[[5, 3]]
    return m


def _rxx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return c * np.eye(4) - 1j * s * np.kron(_X, _X)


def _rzz(theta: float) -> np.ndarray:
    e = np.exp(1j * theta)
    return np.diag([1, e, e, 1]).astype(complex)


def _rccx_matrix() -> np.ndarray:
    # literal qelib1 body on slots (a, b, c) = (0, 1, 2)
    u2_0pi = _u3(math.pi / 2, 0.0, math.pi)
    t, tdg = _u1(math.pi / 4), _u1(-math.pi / 4)
    cx = _controlled(_X, 1)
    return _compose(3, [
        (u2_0pi, (2,)), (t, (2,)), (cx, (1, 2)), (tdg, (2,)),
        (cx, (0, 2)), (t, (2,)), (cx, (1, 2)), (tdg, (2,)), (u2_0pi, (2,)),
    ])


def _rc3x_matrix() -> np.ndarray:
    # literal qelib1 body on slots (a, b, c, d) = (0, 1, 2, 3)
    u2_0pi = _u3(math.pi / 2, 0.0, math.pi)
    t, tdg = _u1(math.pi / 4), _u1(-math.pi / 4)
    cx = _controlled(_X, 1)
    return _compose(4, [
        (u2_0pi, (3,)), (t, (3,)), (cx, (2, 3)), (tdg, (3,)), (u2_0pi, (3,)),
        (cx, (0, 3)), (t, (3,)), (cx, (1, 3)), (tdg, (3,)),
        (cx, (0, 3)), (t, (3,)), (cx, (1, 3)), (tdg, (3,)),
        (u2_0pi, (3,)), (t, (3,)), (cx, (2, 3)), (tdg, (3,)), (u2_0pi, (3,)),
    ])


_FIXED = {
    Gate.ID: _I2,
    Gate.X: _X,
    Gate.Y: _Y,
    Gate.Z: _Z,
    Gate.H: _H,
    Gate.S: np.diag([1, 1j]).astype(complex),
    Gate.SDG: np.diag([1, -1j]).astype(complex),
    Gate.T: np.diag([1, np.exp(1j * math.pi / 4)]),
    Gate.TDG: np.diag([1, np.exp(-1j * math.pi / 4)]),
    Gate.CX: _controlled(_X, 1),
    Gate.CY: _controlled(_Y, 1),
    Gate.CZ: _controlled(_Z, 1),
    Gate.CH: _controlled(_H, 1),
    Gate.SWAP: _swap_matrix(),
    Gate.CCX: _controlled(_X, 2),
    Gate.CSWAP: _cswap_matrix(),
    Gate.RCCX: _rccx_matrix(),
    Gate.RC3X: _rc3x_matrix(),
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
