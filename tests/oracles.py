"""Independent dense references the tests compare the package against.

Everything here is deliberately written with a different mechanism than the
implementation: gates are lifted to full 2^n matrices by explicit bit
scatter (no einsum, no axis moves, no Kronecker nesting), and circuits are
executed by full matrix-vector products.  Slow but obviously correct, and
only used at small qubit counts.  The exceptions are the three kernels
below, einsum_1q, einsum_2q and moveaxis_kq: the engine's former
formulations, kept as the reference for its gather-multiply-scatter kernels
and block plans at widths where dense lifting is too slow to fuzz; and the
four fusion passes, merge_1q, absorb_1q, normalize_2q_order and fuse_2q
with their fuse_pipeline: the former per-gate passes, which compute every
product afresh, kept as the bit-exact reference for the memoized ones; and
rejection_per_shot at the end: the engine's former rejection loop, which
runs the whole plan from |0...0> for every shot, kept as the bit-exact
reference for the outcome-prefix memo.
"""

from __future__ import annotations

import numpy as np

from nucsim import engine
from nucsim.circuit import Circuit, Instruction
from nucsim.fusion import FusionStats, PassStats, gate_count
from nucsim.gates import Gate, gate_matrix, swap_conjugate
from nucsim.hamiltonian import PauliHamiltonian
from nucsim.projection import TrialState, build_filter_circuit, default_schedule

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def lift_matrix(u: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Embed a k-qubit matrix into 2^n; qubits[j] carries weight 2^j in u."""
    k = len(qubits)
    full = np.zeros((2 ** n, 2 ** n), dtype=complex)
    rest = [q for q in range(n) if q not in qubits]
    for base in range(2 ** (n - k)):
        idx0 = 0
        for j, q in enumerate(rest):
            if (base >> j) & 1:
                idx0 |= 1 << q
        for col in range(2 ** k):
            src = idx0
            for j, q in enumerate(qubits):
                if (col >> j) & 1:
                    src |= 1 << q
            for row in range(2 ** k):
                dst = idx0
                for j, q in enumerate(qubits):
                    if (row >> j) & 1:
                        dst |= 1 << q
                full[dst, src] = u[row, col]
    return full


def einsum_1q(amps: np.ndarray, u: np.ndarray, q: int) -> np.ndarray:
    """A 2x2 matrix applied to qubit q of a state vector, as a new vector."""
    a = amps.reshape(-1, 2, 1 << q)
    return np.einsum("ab,rbt->rat", u, a).ravel()


def einsum_2q(amps: np.ndarray, u: np.ndarray, a: int, b: int) -> np.ndarray:
    """A 4x4 matrix indexed by bit(a) + 2*bit(b) applied to qubits a != b
    of a state vector, as a new vector."""
    t = u.reshape(2, 2, 2, 2)  # (b_out, a_out, b_in, a_in)
    if a > b:
        t, a, b = t.transpose(1, 0, 3, 2), b, a
    v = amps.reshape(-1, 2, 1 << (b - a - 1), 2, 1 << a)
    return np.einsum("QPqp,rqmpt->rQmPt", t, v).ravel()


def moveaxis_kq(amps: np.ndarray, u: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """A 2^k x 2^k matrix whose slot j is qubits[j] applied to a state
    vector, as a new vector."""
    n = amps.shape[0].bit_length() - 1
    k = len(qubits)
    psi = amps.reshape((2,) * n)
    # tensor axis i holds qubit n-1-i; put slots high-to-low in front so the
    # flattened row index reads sum(slot_j * 2^j)
    src = [n - 1 - qubits[j] for j in range(k - 1, -1, -1)]
    moved = np.moveaxis(psi, src, range(k))
    res = u @ moved.reshape(1 << k, -1)
    return np.moveaxis(res.reshape(moved.shape), range(k), src).ravel()


def pauli_string_dense(letters: str) -> np.ndarray:
    """Dense matrix of a Pauli letter string, qubit 0 first."""
    n = len(letters)
    full = np.eye(2 ** n, dtype=complex)
    for q, c in enumerate(letters):
        if c != "I":
            full = lift_matrix(_PAULI[c], (q,), n) @ full
    return full


def charpoly_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Hermitian eigenvalues via the characteristic polynomial.

    Coefficients come from the Faddeev-LeVerrier trace recursion and the
    roots from the companion matrix, a completely different route than any
    symmetric eigensolver.  Accurate to ~1e-6 on small well-separated
    spectra, which is all the cross-checks need.
    """
    n = a.shape[0]
    coeffs = [1.0 + 0j]
    m = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        am = a @ m
        ck = -np.trace(am) / k
        coeffs.append(ck)
        m = am + ck * np.eye(n)
    roots = np.roots(coeffs)
    return np.sort(roots.real)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min over phi of max |a - e^{i phi} b|, for vectors or matrices."""
    a, b = np.ravel(a), np.ravel(b)
    k = int(np.argmax(np.abs(b)))
    if abs(b[k]) == 0.0:
        return float(np.max(np.abs(a - b)))
    phase = a[k] / b[k]
    phase = phase / abs(phase) if abs(phase) > 0 else 1.0
    return float(np.max(np.abs(a - phase * b)))


def overlap(a: np.ndarray, b: np.ndarray) -> float:
    return float(abs(np.vdot(a, b)))


def circuit_states(circuit: Circuit) -> tuple[list[float], np.ndarray]:
    """Run a circuit by dense lifting with |0>-postselected mid measures.

    Trailing measure/barrier instructions are skipped (the sampling block).
    Mid-circuit measures project the qubit to |0> and record the branch
    probability; each reset must find its qubit already cleared.  Returns
    (probabilities, normalized final state).
    """
    instrs = circuit.instructions
    end = len(instrs)
    while end > 0 and instrs[end - 1].gate in (Gate.MEASURE, Gate.BARRIER):
        end -= 1
    n = circuit.n_qubits
    state = np.zeros(2 ** n, dtype=complex)
    state[0] = 1.0
    probs: list[float] = []
    for ins in instrs[:end]:
        if ins.gate is Gate.BARRIER:
            continue
        if ins.gate is Gate.MEASURE:
            q = ins.qubits[0]
            mask = np.array([(i >> q) & 1 == 0 for i in range(2 ** n)])
            kept = np.where(mask, state, 0.0)
            p = float(np.vdot(kept, kept).real)
            assert p > 1e-12, "oracle hit a dead assertion branch"
            probs.append(p)
            state = kept / np.sqrt(p)
            continue
        if ins.gate is Gate.RESET:
            q = ins.qubits[0]
            ones = sum(abs(state[i]) ** 2 for i in range(2 ** n) if (i >> q) & 1)
            assert ones < 1e-9, "oracle reset hit a dirty qubit"
            continue
        u = ins.resolved_matrix()
        state = lift_matrix(u, ins.qubits, n) @ state
    return probs, state


_ONE_QUBIT_POOL = (
    (Gate.H, 0), (Gate.X, 0), (Gate.Y, 0), (Gate.Z, 0), (Gate.S, 0),
    (Gate.SDG, 0), (Gate.T, 0), (Gate.TDG, 0), (Gate.U2, 2),
    (Gate.RX, 1), (Gate.RY, 1), (Gate.RZ, 1), (Gate.U1, 1), (Gate.U3, 3),
)
_TWO_QUBIT_POOL = (
    (Gate.CX, 0), (Gate.CY, 0), (Gate.CZ, 0), (Gate.CH, 0), (Gate.SWAP, 0),
    (Gate.CRZ, 1), (Gate.CU1, 1), (Gate.RZZ, 1), (Gate.RXX, 1), (Gate.CU3, 3),
)


def random_gates(rng: np.random.Generator, circuit: Circuit, count: int,
                 p_two: float = 0.35) -> None:
    """Append random named gates drawn from the standard pools."""
    n = circuit.n_qubits
    for _ in range(count):
        if n > 1 and rng.random() < p_two:
            gate, n_params = _TWO_QUBIT_POOL[rng.integers(len(_TWO_QUBIT_POOL))]
            a, b = rng.choice(n, size=2, replace=False)
            qubits = (int(a), int(b))
        else:
            gate, n_params = _ONE_QUBIT_POOL[rng.integers(len(_ONE_QUBIT_POOL))]
            qubits = (int(rng.integers(n)),)
        params = tuple(float(x) for x in rng.uniform(-np.pi, np.pi, size=n_params))
        circuit.gate_op(gate, qubits, params)


def random_filter_shaped_circuit(rng: np.random.Generator, n_system: int,
                                 n_blocks: int, gates_per_block: int) -> Circuit:
    """Random circuit with the measure/reset block layout of a filter run."""
    n = n_system + 1
    ancilla = n_system
    circuit = Circuit(n, [("c", n_blocks), ("r", n)])
    for i in range(n_blocks):
        random_gates(rng, circuit, gates_per_block)
        circuit.measure(ancilla, circuit.clbit_index("c", i))
        circuit.barrier()
        circuit.reset(ancilla)
        circuit.barrier()
    for q in range(n):
        circuit.measure(q, circuit.clbit_index("r", q))
    return circuit


def fresh_copy(ins: Instruction) -> Instruction:
    """The same instruction as a new object, with its own payload copy."""
    matrix = None if ins.matrix is None else ins.matrix.copy()
    return Instruction(ins.gate, ins.qubits, ins.params, matrix, ins.cbit)


def chain_filter_circuit(n_spins: int, steps: int, trotter: int) -> Circuit:
    """The filter circuit of a transverse-field ZZ chain (fields 0.12 +
    0.01 i, couplings 0.08) plus its ancilla, on a halving schedule."""
    terms = {}
    for i in range(n_spins):
        terms["I" * i + "X" + "I" * (n_spins - i - 1)] = 0.12 + 0.01 * i
    for i in range(n_spins - 1):
        terms["I" * i + "ZZ" + "I" * (n_spins - i - 2)] = 0.08
    return build_filter_circuit(PauliHamiltonian(n_spins, terms), default_schedule(0.5, steps),
                                trotter, TrialState.basis("0" * n_spins), n_spins)


# ---------------------------------------------------------------------------
# per-gate fusion passes: every matrix product computed afresh


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


# ---------------------------------------------------------------------------
# per-shot rejection: the whole plan from |0...0> for every shot


def rejection_per_shot(circuit: Circuit, shots: int, seed: int,
                       hamiltonian: PauliHamiltonian | None = None) -> engine.RunReport:
    """run(circuit, "rejection", shots, seed, None, hamiltonian) by the
    engine's former loop: each shot restarts, runs every plan entry up to
    its first rejection and draws from the generator in the same order."""
    rng = engine._as_rng(seed)
    plan, n_steps = engine._compile(circuit, "rejection", None)
    state = engine.StateVector(circuit.n_qubits)
    counts: dict[str, int] = {}
    step_rejections = [0] * n_steps
    accepted = 0
    kept: np.ndarray | None = None
    for _ in range(shots):
        state.restart()
        ok = True
        for op, args in plan:
            if op is engine._OP_MEASURE:
                q, step = args
                p0 = engine._branch_probability(state.amps, q, 0)
                outcome = 0 if rng.random() < p0 else 1
                if outcome == 1:
                    step_rejections[step] += 1
                    ok = False
                    break
                engine._project(state.amps, q, 0, p0)
            elif op is engine._OP_RESET:
                q = args[0]
                p0 = engine._branch_probability(state.amps, q, 0)
                if rng.random() < p0:
                    engine._project(state.amps, q, 0, p0)
                else:
                    engine._project(state.amps, q, 1, engine._branch_probability(state.amps, q, 1))
                    engine._kernel_block(state, engine._X, *engine._block_layout((q,)))
            else:
                op(state, *args)
        if ok:
            accepted += 1
            for key, cnt in engine.sample(state, 1, rng).items():
                counts[key] = counts.get(key, 0) + cnt
            if kept is None and hamiltonian is not None:
                kept = state.amps.copy()
    energy = None
    if kept is not None:
        energy = engine.expectation_pauli(engine.StateVector.from_amplitudes(kept), hamiltonian)
    return engine.RunReport(
        mode="rejection", n_qubits=circuit.n_qubits, shots=shots, seed=seed,
        ancilla=None, assert_probs=[], overall_success=accepted / shots,
        samples=counts, energy=energy, accepted=accepted,
        rejected=shots - accepted, step_rejections=step_rejections)
