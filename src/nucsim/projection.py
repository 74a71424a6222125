"""Ground-state projection filtering with an ancilla qubit.

One filtering step evolves system plus ancilla under exp[-i(H t_i + d_i) Y_a]
and post-selects the ancilla on |0>.  Each system eigencomponent with energy
E picks up a factor cos(E t_i + d_i), so a schedule of decreasing times
drains every excited state while the E = 0 ground state (after shifting)
keeps amplitude 1.  This module provides the schedule type, the closed-form
amplitude predictors, and a compiler from a Pauli-term Hamiltonian to a gate
circuit with per-step measure/reset blocks and a final full-register
measurement.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit
from .errors import ProjectionError
from .hamiltonian import PauliHamiltonian, eigen_components


@dataclass(frozen=True, slots=True)
class FilterSchedule:
    """Filtering schedule: one (time, phase) pair per step."""

    steps: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.steps) == 0:
            raise ValueError("schedule needs at least one step")
        clean = []
        for step in self.steps:
            t, delta = step
            if not 0.0 < t < math.inf:
                raise ValueError(f"step times must be positive and finite, got {t}")
            if not math.isfinite(float(delta)):
                raise ValueError(f"step phases must be finite, got {delta}")
            clean.append((float(t), float(delta)))
        object.__setattr__(self, "steps", tuple(clean))

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(t for t, _ in self.steps)

    @property
    def deltas(self) -> tuple[float, ...]:
        return tuple(d for _, d in self.steps)

    def to_json(self) -> str:
        return json.dumps(
            {"steps": [{"t": t, "delta": d} for t, d in self.steps]}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FilterSchedule":
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("schedule JSON is nested too deeply") from None
        if not isinstance(data, dict) or not isinstance(data.get("steps"), list):
            raise ValueError('schedule JSON must be {"steps": [...]}')
        steps = []
        for entry in data["steps"]:
            if not isinstance(entry, dict) or "t" not in entry:
                raise ValueError('each schedule step needs a "t" key')
            try:
                steps.append((float(entry["t"]), float(entry.get("delta", 0.0))))
            except TypeError:
                raise ValueError(f"schedule step {entry} needs numbers for t and delta") from None
        return cls(tuple(steps))


def default_schedule(gap: float, n_steps: int) -> FilterSchedule:
    """Halving schedule: t_1 = pi/(2 gap), t_i = t_{i-1}/2, zero phases.

    The total time is a geometric series approaching 2 t_1.
    """
    if not gap > 0.0:
        raise ValueError(f"gap must be positive, got {gap}")
    if n_steps < 1:
        raise ValueError(f"need at least one step, got {n_steps}")
    t1 = math.pi / (2.0 * gap)
    return FilterSchedule(tuple((t1 / 2.0 ** i, 0.0) for i in range(n_steps)))


@dataclass(frozen=True, slots=True)
class TrialState:
    """Initial system state: a basis bitstring or an explicit vector.

    Bitstrings are qubit-0-first (leftmost character is qubit 0).
    """

    n_qubits: int
    bits: str | None = None
    amplitudes: np.ndarray | None = None

    @classmethod
    def basis(cls, bits: str) -> "TrialState":
        if not bits or any(c not in "01" for c in bits):
            raise ValueError(f"basis trial must be a 0/1 string, got {bits!r}")
        return cls(len(bits), bits=bits)

    @classmethod
    def vector(cls, amplitudes: np.ndarray) -> "TrialState":
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        n = int(amps.size).bit_length() - 1
        if amps.size != 2 ** n or amps.size < 2:
            raise ValueError(f"amplitude count {amps.size} is not a power of two")
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= 1e-8:  # a NaN norm fails too
            raise ValueError(f"trial vector must be normalized, norm {norm}")
        return cls(n, amplitudes=amps)

    def basis_index(self) -> int:
        if self.bits is None:
            raise ValueError("not a basis-state trial")
        return sum(1 << q for q, c in enumerate(self.bits) if c == "1")

    def to_vector(self) -> np.ndarray:
        if self.amplitudes is not None:
            return self.amplitudes.copy()
        vec = np.zeros(2 ** self.n_qubits, dtype=complex)
        vec[self.basis_index()] = 1.0
        return vec


def predicted_amplitude(energy: float, schedule: FilterSchedule) -> float:
    """Surviving-amplitude factor prod_i cos(E t_i + d_i) for one eigenvalue."""
    return math.prod((math.cos(energy * t + delta) for t, delta in schedule.steps), start=1.0)


def phase_penalty(schedule: FilterSchedule) -> float:
    """Success-probability cost of nonzero phases: prod_i cos^2(d_i)."""
    return math.prod((math.cos(delta) ** 2 for _, delta in schedule.steps), start=1.0)


def rodeo_probability(energy: float, e_target: float, times) -> float:
    """Off-target survival probability prod_n cos^2[(E_target - E) t_n / 2].

    Averaged over random times with |E_target - E| sigma_t >> 1, each factor
    averages to 1/2 in amplitude, so the product is suppressed like 4^-N.
    """
    return math.prod((math.cos((e_target - energy) * t / 2.0) ** 2 for t in times), start=1.0)


def predict_success(h: PauliHamiltonian, trial: TrialState,
                    schedule: FilterSchedule) -> tuple[float, float]:
    """Ideal (Trotter-free) success probability and post-filter energy.

    Eigendecomposes H, damps each component by its predicted amplitude, and
    returns (norm^2 of the damped state, its normalized energy expectation).
    """
    energies, _, coeffs = eigen_components(h, trial.to_vector())
    factors = np.array([predicted_amplitude(e, schedule) for e in energies])
    damped = np.abs(factors * coeffs) ** 2
    success = float(damped.sum())
    if success <= 0.0:
        raise ProjectionError("filter annihilated the trial state")
    return success, float((damped * energies).sum() / success)


# ---------------------------------------------------------------------------
# circuit construction

_PRE = {"X": ("h",), "Y": ("sdg", "h")}
_POST = {"X": ("h",), "Y": ("h", "s")}


def _rotation(circuit: Circuit, letters: str, theta: float, ancilla: int) -> None:
    """Append exp[-i theta (P (x) Y_a)] for the Pauli string P."""
    involved = [q for q, c in enumerate(letters) if c != "I"]
    if not involved:
        circuit.ry(2.0 * theta, ancilla)
        return
    for q in involved:
        for name in _PRE.get(letters[q], ()):
            getattr(circuit, name)(q)
    circuit.sdg(ancilla)
    circuit.h(ancilla)
    chain = involved + [ancilla]
    for a, b in zip(chain, chain[1:]):
        circuit.cx(a, b)
    circuit.rz(2.0 * theta, ancilla)
    for a, b in reversed(list(zip(chain, chain[1:]))):
        circuit.cx(a, b)
    circuit.h(ancilla)
    circuit.s(ancilla)
    for q in reversed(involved):
        for name in _POST.get(letters[q], ()):
            getattr(circuit, name)(q)


def build_filter_circuit(h: PauliHamiltonian, schedule: FilterSchedule,
                         trotter_steps: int, trial: TrialState,
                         ancilla: int) -> Circuit:
    """Compile the filtering schedule to gates.

    Layout: n system qubits then the ancilla at index n.  Classical
    registers: c[N] collects the per-step ancilla measurements, r[n+1] the
    final full-register measurement.  Each step applies `trotter_steps`
    first-order slices of exp[-i (H t_i / r) Y_a], term by term in sorted
    order, one exact RY(2 d_i) on the ancilla, then measure, barrier, reset,
    barrier.  Only basis-string trials can be compiled.

    The slices of a step are the same instructions at the same angles, so
    each step's slices are one run of `trotter_steps` copies of one checked
    slice: the circuit holds the distinct slices, not every gate.
    """
    n = h.n_qubits
    if ancilla != n:
        raise ValueError(f"ancilla must be the appended qubit {n}, got {ancilla}")
    if trotter_steps < 1:
        raise ValueError(f"trotter_steps must be >= 1, got {trotter_steps}")
    if not h.is_hermitian():
        raise ValueError("Hamiltonian coefficients must be real")
    if trial.n_qubits != n:
        raise ValueError(f"trial has {trial.n_qubits} qubits, expected {n}")
    if trial.bits is None:
        raise ValueError("only basis-state trials can be compiled to gates")

    circuit = Circuit(n + 1, [("c", schedule.n_steps), ("r", n + 1)])
    for q, bit in enumerate(trial.bits):
        if bit == "1":
            circuit.x(q)
    terms = [(letters, coeff.real) for letters, coeff in h.sorted_terms()]
    for i, (t, delta) in enumerate(schedule.steps):
        # every slice of a step is the same gates at the same angles: build
        # and check one, then hold its (frozen, shared) instructions as one
        # run of trotter_steps copies
        piece = circuit.copy_empty()
        for letters, coeff in terms:
            _rotation(piece, letters, coeff * t / trotter_steps, ancilla)
        for body, _ in piece.runs:  # one run: the builder methods write it
            circuit.append_run(body, trotter_steps)
        circuit.ry(2.0 * delta, ancilla)
        circuit.measure(ancilla, circuit.clbit_index("c", i))
        circuit.barrier()
        circuit.reset(ancilla)
        circuit.barrier()
    for q in range(n + 1):
        circuit.measure(q, circuit.clbit_index("r", q))
    return circuit


def filter_generator_dense(h: PauliHamiltonian, t: float, delta: float) -> np.ndarray:
    """Dense exp[-i (H t + delta) Y_a] on system plus ancilla, ancilla high.

    Reference for circuit validation; eigendecomposes the Hermitian
    generator, so it is exact up to floating point.
    """
    if not h.is_hermitian():
        raise ValueError("operator is not Hermitian")
    hd = h.dense()
    dim = hd.shape[0]
    y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    generator = np.kron(y, hd * t + delta * np.eye(dim))
    vals, vecs = np.linalg.eigh(generator)
    return (vecs * np.exp(-1.0j * vals)) @ vecs.conj().T
