"""State-vector engine with assertion-based mid-circuit measurement.

Amplitudes are a dense complex128 array indexed little-endian: qubit 0 is
the least significant bit of the basis index.  The 1- and 2-qubit kernels
work inside the live array and one reusable scratch buffer and swap the two
after each gate, so memory stays at two vectors regardless of circuit depth.
From 2^10 amplitudes up they make three passes over the state and allocate
nothing: a strided copy gathers the amplitudes into scratch as one contiguous
row per value of the operand bits, one small matmul multiplies the rows into
the live array, and a strided copy scatters the result back into scratch in
state order.  Below 2^10 amplitudes one einsum call is cheaper.  Gates on
three or more qubits go through :func:`apply_dense`, which allocates a new
vector per call.

Two execution modes:

``mma``        one pass; every mid-circuit measurement asserts outcome |0>,
               records its probability, projects and renormalizes; the
               trailing measurement block is replaced by sampling the final
               state ``shots`` times.
``rejection``  re-runs the whole circuit per shot with randomly drawn
               mid-circuit outcomes; a shot with any nonzero outcome is
               rejected, accepted shots contribute one sample each.

Randomness comes from numpy's Philox bit generator (a documented 64-bit
counter-based generator with splittable seeding), so identical seeds give
identical reports; sampling inverts cumulative probabilities with a binary
search.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit
from .errors import (FilterAssertionError, MmaStructureError, ProjectionError,
                     ResourceLimitError)
from .gates import Gate, gate_matrix, swap_conjugate
from .hamiltonian import PauliHamiltonian, apply_pauli_string

EPS_MMA = 1e-12          # assertion fails below this |0> probability
_NORM_ATOL = 1e-9        # accepted state-norm drift
_X = gate_matrix(Gate.X)  # flips a reset qubit back to |0>


def _check_width(n_qubits: int) -> None:
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    # state plus scratch is 32 * 2^n bytes; compare exponents so a huge n is
    # refused without forming 2^n
    phys = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if n_qubits + 5 >= phys.bit_length():
        raise ResourceLimitError(
            f"{n_qubits} qubits need 2^{n_qubits + 5} bytes for state and scratch, "
            f"more than the {phys} bytes of physical memory")


class StateVector:
    """Dense state over n qubits, starting at |0...0>."""

    __slots__ = ("n_qubits", "amps", "_scratch")

    def __init__(self, n_qubits: int):
        _check_width(n_qubits)
        self.n_qubits = n_qubits
        self.amps = np.zeros(1 << n_qubits, dtype=np.complex128)
        self.amps[0] = 1.0
        self._scratch: np.ndarray | None = None

    @classmethod
    def _adopt(cls, amps: np.ndarray) -> "StateVector":
        """A state over a contiguous complex128 array of 2^n >= 2 entries,
        used as is: nothing is allocated."""
        n = amps.shape[0].bit_length() - 1
        _check_width(n)
        state = cls.__new__(cls)
        state.n_qubits, state.amps, state._scratch = n, amps, None
        return state

    @classmethod
    def from_amplitudes(cls, amps: np.ndarray) -> "StateVector":
        """A state over the given normalized amplitudes.  A contiguous
        complex128 array is adopted, not copied: the kernels overwrite it."""
        arr = np.ascontiguousarray(amps, dtype=np.complex128)
        n = int(arr.shape[0]).bit_length() - 1
        if arr.ndim != 1 or arr.shape[0] != 1 << n or arr.shape[0] < 2:
            raise ValueError("amplitude count must be a power of two")
        norm = np.linalg.norm(arr)
        if abs(norm - 1.0) > _NORM_ATOL:
            raise ValueError(f"state is not normalized (norm {norm:.12g})")
        return cls._adopt(arr)

    def scratch(self) -> np.ndarray:
        if self._scratch is None:
            self._scratch = np.empty_like(self.amps)
        return self._scratch

    def restart(self) -> None:
        """Return to |0...0> in place."""
        self.amps.fill(0)
        self.amps[0] = 1.0

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def copy(self) -> "StateVector":
        return StateVector._adopt(self.amps.copy())


def _check_qubit(state: StateVector, q: int) -> None:
    if not 0 <= q < state.n_qubits:
        raise ValueError(f"qubit {q} out of range for {state.n_qubits} qubits")


# Unchecked kernels, one per gate width.  The execution plan calls them
# directly; the public apply_* functions validate and then call them.
#
# The 1q/2q kernels gather, multiply and scatter (see the module docstring)
# from _GATHER_MIN_AMPS amplitudes up, and make one einsum call below.  On
# 2^16 amplitudes a 2q einsum costs 1.1-14 ms depending on the operand
# positions, the three passes 0.4-1.0 ms.  Median over operand positions on
# a 2-core host, einsum against gathered: 1q 6.5 vs 8.6 us at 2^8, 13.4 vs
# 13.2 us at 2^10, 62 vs 33 us at 2^12; 2q 20 vs 14 us at 2^8, 55 vs 18 us
# at 2^10.  The 2q kernel keeps the einsum below the cutoff because it wins
# end to end on 6 qubits: gathering every 2q gate made narrow_rejection's
# op_s_p50 26 % slower (10 alternating pairs, change better in 1).  Narrow
# states thereby also keep their einsum results bit for bit.
_GATHER_MIN_AMPS = 1 << 10


def _kernel_1q(state: StateVector, u: np.ndarray, q: int) -> None:
    a, s = state.amps, state.scratch()
    shape = (-1, 2, 1 << q)
    if a.shape[0] < _GATHER_MIN_AMPS:
        np.einsum("ab,rbt->rat", u, a.reshape(shape), out=s.reshape(shape))
    else:
        rows = (2, a.shape[0] >> (q + 1), 1 << q)
        np.copyto(s.reshape(rows), a.reshape(shape).transpose(1, 0, 2))
        np.matmul(u, s.reshape(2, -1), out=a.reshape(2, -1))
        np.copyto(s.reshape(shape).transpose(1, 0, 2), a.reshape(rows))
    state.amps, state._scratch = s, a


def _kernel_2q(state: StateVector, u4: np.ndarray, p: int, q: int) -> None:
    # u4 is the 4x4 matrix reshaped to (2, 2, 2, 2); operands ordered p < q
    a, s = state.amps, state.scratch()
    shape = (-1, 2, 1 << (q - p - 1), 2, 1 << p)
    if a.shape[0] < _GATHER_MIN_AMPS:
        np.einsum("QPqp,rqmpt->rQmPt", u4, a.reshape(shape), out=s.reshape(shape))
    else:
        # row 2*bit(q) + bit(p) of the gathered block is the matrix index
        rows = (2, 2, a.shape[0] >> (q + 1), 1 << (q - p - 1), 1 << p)
        np.copyto(s.reshape(rows), a.reshape(shape).transpose(1, 3, 0, 2, 4))
        np.matmul(u4.reshape(4, 4), s.reshape(4, -1), out=a.reshape(4, -1))
        np.copyto(s.reshape(shape).transpose(1, 3, 0, 2, 4), a.reshape(rows))
    state.amps, state._scratch = s, a


def _kernel_dense(state: StateVector, u: np.ndarray, qubits: tuple[int, ...]) -> None:
    k = len(qubits)
    n = state.n_qubits
    psi = state.amps.reshape((2,) * n)
    # tensor axis j holds qubit n-1-j; put slots high-to-low in front so the
    # flattened row index reads sum(slot_j * 2^j)
    src = [n - 1 - qubits[j] for j in range(k - 1, -1, -1)]
    moved = np.moveaxis(psi, src, range(k))
    res = u @ moved.reshape(1 << k, -1)
    state.amps = np.moveaxis(res.reshape(moved.shape), range(k), src).ravel()
    state._scratch = None


def _bind(u: np.ndarray, qubits: tuple[int, ...]):
    """The kernel for a gate matrix on the given qubits, with its arguments;
    a reversed 2-qubit operand pair is reordered by SWAP conjugation."""
    if len(qubits) == 1:
        return _kernel_1q, (u, qubits[0])
    if len(qubits) == 2:
        a, b = qubits
        if a > b:
            u, a, b = swap_conjugate(u), b, a
        return _kernel_2q, (u.reshape(2, 2, 2, 2), a, b)
    return _kernel_dense, (u, qubits)


def apply_1q(state: StateVector, u: np.ndarray, q: int) -> StateVector:
    """In-place 1-qubit update; pairs (s, s + 2^q) with s ranging over
    floor(i / 2^q) * 2^(q+1) + (i mod 2^q)."""
    _check_qubit(state, q)
    if u.shape != (2, 2):
        raise ValueError("matrix must be 2x2")
    _kernel_1q(state, u, q)
    return state


def apply_2q(state: StateVector, u: np.ndarray, p: int, q: int) -> StateVector:
    """In-place 2-qubit update on ordered qubits p < q; the matrix is indexed
    by bit(p) + 2*bit(q).  Callers normalize order by conjugating with the
    SWAP permutation when their operands arrive reversed."""
    _check_qubit(state, p)
    _check_qubit(state, q)
    if p == q:
        raise ValueError("qubits must be distinct")
    if p > q:
        raise ValueError("qubits must be ordered p < q")
    if u.shape != (4, 4):
        raise ValueError("matrix must be 4x4")
    _kernel_2q(state, u.reshape(2, 2, 2, 2), p, q)
    return state


def apply_dense(state: StateVector, u: np.ndarray, qubits: tuple[int, ...]) -> StateVector:
    """Apply a dense k-qubit matrix on arbitrary distinct qubits (slot 0 of
    the matrix is the first listed qubit)."""
    k = len(qubits)
    if len(set(qubits)) != k:
        raise ValueError(f"duplicate qubit in {qubits}")
    if u.shape != (1 << k, 1 << k):
        raise ValueError(f"matrix must be {1 << k}x{1 << k}")
    for q in qubits:
        _check_qubit(state, q)
    kernel, args = _bind(u, qubits)
    kernel(state, *args)
    return state


def _branch_probability(amps: np.ndarray, q: int, outcome: int) -> float:
    view = amps.reshape(-1, 2, 1 << q)[:, outcome, :]
    return float(np.real(np.vdot(view, view)))


def _project(amps: np.ndarray, q: int, outcome: int, prob: float) -> None:
    view = amps.reshape(-1, 2, 1 << q)
    view[:, 1 - outcome, :] = 0
    amps *= 1.0 / np.sqrt(prob)


def measure_project(state: StateVector, q: int, outcome: int) -> float:
    """Project onto the given outcome and renormalize; returns the outcome
    probability.  Probability below EPS_MMA cannot be projected onto."""
    _check_qubit(state, q)
    if outcome not in (0, 1):
        raise ValueError("outcome must be 0 or 1")
    p = _branch_probability(state.amps, q, outcome)
    if p < EPS_MMA:
        raise ProjectionError(f"outcome {outcome} on qubit {q} has probability {p:.3e}")
    _project(state.amps, q, outcome, p)
    return p


def assert_measure(state: StateVector, q: int, step: int = -1) -> float:
    """Assert a mid-circuit measurement finds |0>: record P(|0>), project,
    renormalize.  Raises FilterAssertionError below the EPS_MMA threshold."""
    _check_qubit(state, q)
    p0 = _branch_probability(state.amps, q, 0)
    if p0 < EPS_MMA:
        raise FilterAssertionError(step, p0)
    _project(state.amps, q, 0, p0)
    return p0


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if not 0 <= int(seed) < 1 << 64:
        raise ValueError("seed must fit in 64 bits")
    return np.random.Generator(np.random.Philox(int(seed)))


def bitstring(index: int, n_qubits: int) -> str:
    """Basis index as a string whose character position is the qubit index."""
    return format(index, f"0{n_qubits}b")[::-1]


def sample(state: StateVector, shots: int, seed) -> dict[str, int]:
    """Draw shots basis states by cumulative-probability inversion (binary
    search); deterministic for a given seed."""
    if shots < 0:
        raise ValueError("shots must be nonnegative")
    rng = _as_rng(seed)
    if shots == 0:
        return {}
    probs = state.amps.real ** 2 + state.amps.imag ** 2
    cum = np.cumsum(probs)
    draws = rng.random(shots) * cum[-1]
    idx = np.searchsorted(cum, draws, side="right")
    np.clip(idx, 0, len(cum) - 1, out=idx)
    values, counts = np.unique(idx, return_counts=True)
    n = state.n_qubits
    return {bitstring(int(v), n): int(c) for v, c in zip(values, counts)}


def expectation_pauli(state: StateVector, h: PauliHamiltonian) -> float:
    """<psi|H|psi> via one scratch vector reused across terms."""
    if h.n_qubits > state.n_qubits:
        raise ValueError("operator acts on more qubits than the state")
    if not h.is_hermitian():
        raise ValueError("operator is not Hermitian")
    amps, scratch = state.amps, state.scratch()
    acc = 0j
    for letters, coeff in h.sorted_terms():
        np.copyto(scratch, amps)
        apply_pauli_string(scratch, letters)
        acc += coeff * np.vdot(amps, scratch)
    if abs(acc.imag) > 1e-9:
        raise ValueError(f"expectation has imaginary part {acc.imag:.3e}")
    return float(acc.real)


def success_product(probs) -> float:
    """Left-to-right float product of per-assertion probabilities."""
    out = 1.0
    for p in probs:
        out *= p
    return out


@dataclass
class RunReport:
    """Result of one :func:`run` call; serializes to a stable JSON layout."""

    mode: str
    n_qubits: int
    shots: int
    seed: int
    ancilla: int | None
    assert_probs: list[float]
    overall_success: float
    samples: dict[str, int]
    energy: float | None = None
    fusion_stats: dict | None = None
    accepted: int | None = None
    rejected: int | None = None
    step_rejections: list[int] | None = None
    wall_time_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "n_qubits": self.n_qubits,
            "shots": self.shots,
            "seed": self.seed,
            "ancilla": self.ancilla,
            "assert_probs": list(self.assert_probs),
            "overall_success": self.overall_success,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "step_rejections": self.step_rejections,
            "samples": {k: self.samples[k] for k in sorted(self.samples)},
            "energy": self.energy,
            "fusion_stats": self.fusion_stats,
            "wall_time_s": self.wall_time_s,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


# plan opcodes besides the gate kernels
_OP_MEASURE, _OP_RESET = "measure", "reset"


def _sampling_start(instrs) -> int:
    """Index of the trailing measure/barrier block, the sampling point;
    everything before it executes."""
    start = len(instrs)
    while start > 0 and instrs[start - 1].gate in (Gate.MEASURE, Gate.BARRIER):
        start -= 1
    return start


def _compile(circuit: Circuit, mode: str, ancilla: int | None):
    """Resolve matrices, bind each gate to its kernel, classify measurements.

    Returns (plan, n_steps): a list of (op, args) pairs over the
    instructions before the sampling block, where op is a gate kernel,
    _OP_MEASURE with args (qubit, step) or _OP_RESET with args (qubit,).
    In mma mode the layout is validated: mid-circuit measures hit the
    ancilla and pair with a following reset of it, and every reset is
    preceded by such a measure.
    """
    instrs = circuit.instructions
    final_start = _sampling_start(instrs)

    if mode == "mma":
        if ancilla is None or not 0 <= ancilla < circuit.n_qubits:
            raise MmaStructureError(f"ancilla index {ancilla} out of range")
        for pos in range(final_start):
            ins = instrs[pos]
            if ins.gate is Gate.MEASURE:
                if ins.qubits[0] != ancilla:
                    raise MmaStructureError(
                        f"mid-circuit measure on qubit {ins.qubits[0]} is not the ancilla")
                nxt = pos + 1
                while nxt < final_start and instrs[nxt].gate is Gate.BARRIER:
                    nxt += 1
                if nxt >= final_start or instrs[nxt].gate is not Gate.RESET \
                        or instrs[nxt].qubits[0] != ancilla:
                    raise MmaStructureError(
                        f"measure at instruction {pos} lacks a following ancilla reset")
            elif ins.gate is Gate.RESET:
                prev = pos - 1
                while prev >= 0 and instrs[prev].gate is Gate.BARRIER:
                    prev -= 1
                if prev < 0 or instrs[prev].gate is not Gate.MEASURE \
                        or instrs[prev].qubits != ins.qubits:
                    raise MmaStructureError(
                        f"reset at instruction {pos} is not paired with an assertion")

    plan = []
    step = 0
    for pos in range(final_start):
        ins = instrs[pos]
        g = ins.gate
        if g is Gate.BARRIER:
            continue
        if g is Gate.MEASURE:
            plan.append((_OP_MEASURE, (ins.qubits[0], step)))
            step += 1
        elif g is Gate.RESET:
            plan.append((_OP_RESET, ins.qubits))
        else:
            plan.append(_bind(ins.resolved_matrix(), ins.qubits))
    return plan, step


def infer_ancilla(circuit: Circuit) -> int | None:
    """The unique target of all mid-circuit measures, or None.

    Trailing measure/barrier instructions are the sampling block and do not
    count.  Returns None when there are no mid-circuit measures or when they
    hit more than one qubit.
    """
    instrs = circuit.instructions
    targets = {ins.qubits[0] for ins in instrs[:_sampling_start(instrs)]
               if ins.gate is Gate.MEASURE}
    if len(targets) == 1:
        return targets.pop()
    return None


def _execute_mma(state: StateVector, plan) -> list[float]:
    """Run a compiled plan in one pass, asserting |0> at every mid-circuit
    measurement; returns the assertion probabilities in order."""
    assert_probs: list[float] = []
    for op, args in plan:
        if op is _OP_MEASURE:
            assert_probs.append(assert_measure(state, *args))
        elif op is not _OP_RESET:  # the paired assertion already left |0>
            op(state, *args)
    return assert_probs


def run(circuit: Circuit, mode: str, shots: int, seed: int, ancilla: int | None,
        hamiltonian: PauliHamiltonian | None = None,
        fusion_stats: dict | None = None) -> RunReport:
    """Execute a filter-style circuit and report success statistics.

    ``ancilla`` names the qubit every mid-circuit measurement must assert in
    mma mode; rejection mode ignores it.  ``hamiltonian``, if given, is
    measured on the pre-sampling state and reported as ``energy``.
    """
    if mode not in ("mma", "rejection"):
        raise ValueError(f"unknown mode {mode!r}")
    if shots < 1:
        raise ValueError("shots must be positive")
    rng = _as_rng(seed)
    t0 = time.perf_counter()
    plan, n_steps = _compile(circuit, mode, ancilla)
    state = StateVector(circuit.n_qubits)

    if mode == "mma":
        assert_probs = _execute_mma(state, plan)
        energy = expectation_pauli(state, hamiltonian) if hamiltonian is not None else None
        samples = sample(state, shots, rng)
        report = RunReport(
            mode=mode, n_qubits=circuit.n_qubits, shots=shots, seed=seed,
            ancilla=ancilla, assert_probs=assert_probs,
            overall_success=success_product(assert_probs), samples=samples,
            energy=energy, fusion_stats=fusion_stats)
    else:
        counts: dict[str, int] = {}
        step_rejections = [0] * n_steps
        accepted = 0
        kept: np.ndarray | None = None
        for _ in range(shots):
            state.restart()
            ok = True
            for op, args in plan:
                if op is _OP_MEASURE:
                    q, step = args
                    p0 = _branch_probability(state.amps, q, 0)
                    outcome = 0 if rng.random() < p0 else 1
                    if outcome == 1:
                        # later outcomes cannot change rejection; stop early
                        step_rejections[step] += 1
                        ok = False
                        break
                    _project(state.amps, q, 0, p0)
                elif op is _OP_RESET:
                    q = args[0]
                    p0 = _branch_probability(state.amps, q, 0)
                    outcome = 0 if rng.random() < p0 else 1
                    _project(state.amps, q, outcome, p0 if outcome == 0 else 1.0 - p0)
                    if outcome == 1:
                        _kernel_1q(state, _X, q)
                else:
                    op(state, *args)
            if ok:
                accepted += 1
                for key, cnt in sample(state, 1, rng).items():
                    counts[key] = counts.get(key, 0) + cnt
                if kept is None and hamiltonian is not None:
                    kept = state.amps.copy()
        energy = None
        if kept is not None:
            energy = expectation_pauli(StateVector.from_amplitudes(kept), hamiltonian)
        report = RunReport(
            mode=mode, n_qubits=circuit.n_qubits, shots=shots, seed=seed,
            ancilla=ancilla, assert_probs=[],
            overall_success=accepted / shots, samples=counts, energy=energy,
            fusion_stats=fusion_stats, accepted=accepted,
            rejected=shots - accepted, step_rejections=step_rejections)

    report.wall_time_s = time.perf_counter() - t0
    return report
