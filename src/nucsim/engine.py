"""State-vector engine with assertion-based mid-circuit measurement.

Amplitudes are a dense complex128 array indexed little-endian: qubit 0 is
the least significant bit of the basis index.  Kernels work inside the live
array and one reusable scratch buffer and swap the two after each gate, so
memory stays at two vectors regardless of circuit depth.

The execution plan packs each run of consecutive gates into blocks on at
most ``_BLOCK_QUBITS`` qubits, greedily and in circuit order, and builds
each block's product matrix at compile time, once per distinct block: the
Trotter slices of a filter step repeat the same blocks, so one compile
keeps a memo from each block's gates (matrix bytes and qubits) to its bound
kernel, which lives for that compile only.  One kernel runs every gate
and block in three passes over the state, allocating nothing: a strided
copy gathers the amplitudes into scratch as one contiguous row per value of
the operand bits, one small matmul multiplies the rows into the live array,
and a strided copy scatters the result back into scratch in state order.

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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuit import Circuit
from .errors import (FilterAssertionError, MmaStructureError, ProjectionError,
                     ResourceLimitError)
from .gates import Gate, gate_matrix, sort_operands, swap_conjugate  # swap_conjugate: re-exported
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


# _compile packs consecutive gates into blocks on at most this many qubits.
# On 2^16 amplitudes one gathered block costs about 0.48 ms on 2 qubits,
# 0.56 ms on 4, 0.70 ms on 5 and 0.96 ms on 6, while building its matrix
# costs some 20 us per gate.  In one sizing run on a 2-core host, the
# chain16_mma circuit (1,140 fused 2q gates) ran as 280 blocks in 146 ms
# at 3 qubits, 140 blocks in 78 ms plus 27 ms of compile at 4, 100 in
# 70 + 37 ms at 5 and 74 in 71 + 56 ms at 6: 5 is no faster in total than
# 4, and 4 keeps the plan's matrices at 4 KiB each.  (The median-of-7 split
# in BENCH_4_blocks.json, a separate run, gives 66 + 23 ms at 4.)
_BLOCK_QUBITS = 4


# One unchecked kernel, _kernel_block, runs every gate and block at every
# width (see the module docstring).  The execution plan calls it directly;
# the public apply_* functions validate and then call it.
def _kernel_block(state: StateVector, u: np.ndarray, shape: tuple[int, ...],
                  perm: tuple[int, ...]) -> None:
    # shape and perm come from _block_layout; u is indexed over the sorted
    # operand qubits, sum(bit(qubits[i]) * 2^i)
    a, s = state.amps, state.scratch()
    gathered = a.reshape(shape).transpose(perm)
    np.copyto(s.reshape(gathered.shape), gathered)
    np.matmul(u, s.reshape(u.shape[0], -1), out=a.reshape(u.shape[0], -1))
    np.copyto(s.reshape(shape).transpose(perm), a.reshape(gathered.shape))
    state.amps, state._scratch = s, a


@lru_cache(maxsize=4096)
def _block_layout(qubits: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """State axes for _kernel_block on ascending qubits.  Each run of
    adjacent operand qubits is one axis of size 2^m, as are the bits between
    runs; the bits above all operands are a leading -1 axis, so the layout
    holds at any width.  perm puts the operand axes first, highest first,
    then the others in state order."""
    runs: list[list[int]] = []  # [low, high] of adjacent operands, highest first
    for q in reversed(qubits):
        if runs and runs[-1][0] == q + 1:
            runs[-1][0] = q
        else:
            runs.append([q, q])
    shape, operand, rest = [-1], [], [0]
    below = None
    for lo, hi in runs:
        if below is not None and below > hi + 1:
            rest.append(len(shape))
            shape.append(1 << (below - hi - 1))
        operand.append(len(shape))
        shape.append(1 << (hi - lo + 1))
        below = lo
    if below:
        rest.append(len(shape))
        shape.append(1 << below)
    return tuple(shape), tuple(operand + rest)


def _bind(u: np.ndarray, qubits: tuple[int, ...]):
    """The kernel for a gate matrix on the given qubits, with its arguments.
    Unsorted operands are sorted and the matrix reindexed to match (SWAP
    conjugation for a reversed pair)."""
    u, qubits = sort_operands(u, qubits)
    return _kernel_block, (u, *_block_layout(qubits))


def _fuse_block(gates: list[tuple[np.ndarray, tuple[int, ...]]]):
    """One bound kernel for consecutive gates, given as (matrix, qubits) in
    circuit order: their product on the sorted union of their qubits.

    The product is built by running the gates through the block kernel on
    the 2^k x 2^k identity, viewed as a 2k-qubit state whose qubit k + i is
    bit i of the row index, i.e. qubit i of the block.
    """
    if len(gates) == 1:
        return _bind(*gates[0])
    qubits = sorted({q for _, qs in gates for q in qs})
    k = len(qubits)
    slot = {q: k + i for i, q in enumerate(qubits)}
    batch = StateVector._adopt(np.eye(1 << k, dtype=np.complex128).ravel())
    for u, qs in gates:
        u, slots = sort_operands(u, tuple(slot[q] for q in qs))
        _kernel_block(batch, u, *_block_layout(slots))
    return _bind(batch.amps.reshape(1 << k, 1 << k), tuple(qubits))


def apply_1q(state: StateVector, u: np.ndarray, q: int) -> StateVector:
    """In-place 1-qubit update; pairs (s, s + 2^q) with s ranging over
    floor(i / 2^q) * 2^(q+1) + (i mod 2^q)."""
    _check_qubit(state, q)
    if u.shape != (2, 2):
        raise ValueError("matrix must be 2x2")
    _kernel_block(state, u, *_block_layout((q,)))
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
    _kernel_block(state, u, *_block_layout((p, q)))
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


# Probabilities and expectations reduce with einsum over the float64 view of
# the amplitudes, not with a BLAS dot product: einsum sums in one fixed order
# on one thread, while OpenBLAS splits a dot product across its threads from
# about 2^14 entries, so the last bits would depend on the BLAS thread count.
# Neither allocates a temporary vector.

def _branch_probability(amps: np.ndarray, q: int, outcome: int) -> float:
    view = amps.view(np.float64).reshape(-1, 2, 2 << q)[:, outcome, :]
    return float(np.einsum("ij,ij->", view, view))


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
    a, b = amps.view(np.float64).reshape(-1, 2), scratch.view(np.float64).reshape(-1, 2)
    acc = 0j
    for letters, coeff in h.sorted_terms():
        np.copyto(scratch, amps)
        apply_pauli_string(scratch, letters)
        # <amps|scratch>, real and imaginary parts
        re = np.einsum("ij,ij->", a, b)
        im = np.einsum("i,i->", a[:, 0], b[:, 1]) - np.einsum("i,i->", a[:, 1], b[:, 0])
        acc += coeff * complex(re, im)
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
    """Resolve matrices, pack gates into blocks, classify measurements.

    Each run of consecutive gates is cut greedily, in circuit order, into
    blocks on at most _BLOCK_QUBITS qubits (a wider gate is a block of its
    own); a measure or reset closes the open block, barriers do not.  Each
    block's product matrix is built here and bound to its kernel.

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

    # Trotter slices repeat their blocks, so each distinct block, keyed by its
    # gates' matrix bytes and qubits, is fused once per call and its bound
    # kernel shared by every plan entry that repeats it
    kernels: dict[tuple, tuple] = {}

    def fuse(block: list[tuple[np.ndarray, tuple[int, ...]]]):
        key = tuple((u.tobytes(), u.dtype, qs) for u, qs in block)
        bound = kernels.get(key)
        if bound is None:
            bound = kernels[key] = _fuse_block(block)
        return bound

    plan = []
    step = 0
    block: list[tuple[np.ndarray, tuple[int, ...]]] = []  # the open block's gates
    block_qubits: set[int] = set()
    for pos in range(final_start):
        ins = instrs[pos]
        g = ins.gate
        if g is Gate.BARRIER:
            continue
        if ins.is_gate:
            joined = block_qubits.union(ins.qubits)
            if block and len(joined) > _BLOCK_QUBITS:
                plan.append(fuse(block))
                block, joined = [], set(ins.qubits)
            block.append((ins.resolved_matrix(), ins.qubits))
            block_qubits = joined
            continue
        if block:
            plan.append(fuse(block))
            block, block_qubits = [], set()
        if g is Gate.MEASURE:
            plan.append((_OP_MEASURE, (ins.qubits[0], step)))
            step += 1
        else:
            plan.append((_OP_RESET, ins.qubits))
    if block:
        plan.append(fuse(block))
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
                    if rng.random() < p0:
                        _project(state.amps, q, 0, p0)
                    else:
                        # measured, not 1 - p0, which cancels when P(1) is tiny
                        _project(state.amps, q, 1, _branch_probability(state.amps, q, 1))
                        _kernel_block(state, _X, *_block_layout((q,)))
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
