"""Independent dense references the tests compare the package against.

Everything here is deliberately written with a different mechanism than the
implementation: gates are lifted to full 2^n matrices by explicit bit
scatter (no einsum, no axis moves, no Kronecker nesting), and circuits are
executed by full matrix-vector products.  Slow but obviously correct, and
only used at small qubit counts.  The exceptions are the three kernels
below, einsum_1q, einsum_2q and moveaxis_kq: the engine's former
formulations, kept as the reference for its gather-multiply-scatter kernels
and block plans at widths where dense lifting is too slow to fuzz;
block_product_on_identity after them: the engine's former block product,
which runs a block's gates through the kernel on an identity matrix, kept
as the bit-exact reference for the index-lift products of gates._compose,
with fuse_block_on_identity, which lays that product out as a plan entry;
and the four fusion passes, merge_1q, absorb_1q, normalize_2q_order and
fuse_2q with their fuse_pipeline: the former per-gate passes, which compute
every product afresh, kept as the bit-exact reference for the memoized
ones; and rejection_per_shot at the end: the engine's former rejection
loop, which runs the whole plan from |0...0> for every shot, kept as the
bit-exact reference for the outcome-prefix memo; and the token parser
after it with its parse_qasm: the former QASM parser, which tokenizes the
whole text up front and parses every statement, kept as the reference for
the parser that reads line by line and reuses each repeated statement
line.  expectation_per_term is the engine's former energy loop, one state
copy per term, kept as the reference for the grouped, copy-free one; and
dense_kron after it: the former PauliHamiltonian.dense, one chain of n
Kronecker products per term, kept as the bit-exact reference for the
indexed adds from each term's masks; pauli_product: the former
PauliHamiltonian.__mul__, letter by letter through a table, kept as the
bit-exact reference for the product from X/Z masks; and float_product: the
former loop of the four float products, kept as the reference for
math.prod; swap_matrix and cswap_matrix: the former SWAP and CSWAP tables,
written entry by entry, kept as the bit-exact reference for the products
of their qelib1 bodies.
"""

from __future__ import annotations

import math
import re

import numpy as np

from nucsim import engine
from nucsim.circuit import Circuit, Instruction
from nucsim.errors import QasmError
from nucsim.fusion import FusionStats, PassStats, gate_count
from nucsim.gates import QASM_NAMES, Gate, gate_matrix, swap_conjugate
from nucsim.hamiltonian import PauliHamiltonian, apply_pauli_string
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


def _ascending(u: np.ndarray, qubits: tuple[int, ...]) -> tuple[np.ndarray, tuple[int, ...]]:
    """The same gate on its qubits in ascending order, reordered by lift_matrix."""
    ordered = tuple(sorted(qubits))
    return lift_matrix(u, tuple(ordered.index(q) for q in qubits), len(qubits)), ordered


def block_product_on_identity(gates: list[tuple[np.ndarray, tuple[int, ...]]]
                              ) -> tuple[tuple[int, ...], np.ndarray]:
    """Consecutive gates, given as (matrix, qubits) in circuit order, as
    (qubits, product) on the sorted union of their qubits, built by running
    the gates through the engine's block kernel on the 2^k x 2^k identity,
    viewed as a 2k-qubit state whose qubit k + i is bit i of the row index,
    i.e. qubit i of the block.  A lone gate is only reordered."""
    qubits = tuple(sorted({q for _, qs in gates for q in qs}))
    k = len(qubits)
    if len(gates) == 1:
        return qubits, _ascending(*gates[0])[0]
    slot = {q: k + i for i, q in enumerate(qubits)}
    batch = engine.StateVector._adopt(np.eye(1 << k, dtype=np.complex128).ravel())
    for g, qs in gates:
        g, slots = _ascending(g, tuple(slot[q] for q in qs))
        engine._kernel_block(batch, g, *engine._layout(slots, (), 2 * k)[:2])
    return qubits, batch.amps.reshape(1 << k, 1 << k)


def fuse_block_on_identity(gates: list[tuple[np.ndarray, tuple[int, ...]]],
                           n_qubits: int) -> engine.Block:
    """The plan entry for consecutive gates on an n_qubits state:
    block_product_on_identity's product, laid out by the engine's own
    _plan_entry."""
    return engine._plan_entry(*block_product_on_identity(gates), n_qubits)


def expectation_per_term(amps: np.ndarray, h: PauliHamiltonian) -> float:
    """<psi|H|psi> by the engine's former loop: one copy of the state per
    term, the Pauli word applied to it in place by apply_pauli_string, and
    <psi|P psi> reduced with einsum."""
    scratch = np.empty_like(amps)
    a, b = amps.view(np.float64).reshape(-1, 2), scratch.view(np.float64).reshape(-1, 2)
    acc = 0j
    for letters, coeff in h.sorted_terms():
        np.copyto(scratch, amps)
        apply_pauli_string(scratch, letters)
        re = np.einsum("ij,ij->", a, b)
        im = np.einsum("i,i->", a[:, 0], b[:, 1]) - np.einsum("i,i->", a[:, 1], b[:, 0])
        acc += coeff * complex(re, im)
    return float(acc.real)


def dense_kron(h: PauliHamiltonian) -> np.ndarray:
    """h's full 2^n x 2^n matrix by the former PauliHamiltonian.dense: each
    term a chain of Kronecker products, in term order."""
    dim = 2 ** h.n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for letters, coeff in h.terms.items():
        acc = np.array([[coeff]], dtype=complex)
        # qubit 0 is the least significant index bit, so it kron-nests last
        for q in range(h.n_qubits - 1, -1, -1):
            acc = np.kron(acc, _PAULI[letters[q]])
        out += acc
    return out


# single-qubit products: (p, q) -> (phase, p*q)
_MUL = {
    ("I", "I"): (1, "I"), ("I", "X"): (1, "X"), ("I", "Y"): (1, "Y"), ("I", "Z"): (1, "Z"),
    ("X", "I"): (1, "X"), ("X", "X"): (1, "I"), ("X", "Y"): (1j, "Z"), ("X", "Z"): (-1j, "Y"),
    ("Y", "I"): (1, "Y"), ("Y", "X"): (-1j, "Z"), ("Y", "Y"): (1, "I"), ("Y", "Z"): (1j, "X"),
    ("Z", "I"): (1, "Z"), ("Z", "X"): (1j, "Y"), ("Z", "Y"): (-1j, "X"), ("Z", "Z"): (1, "I"),
}


def pauli_product(a: PauliHamiltonian, b: PauliHamiltonian) -> PauliHamiltonian:
    """a * b by the former letter-by-letter product through _MUL."""
    out: dict[str, complex] = {}
    for s1, c1 in a.terms.items():
        for s2, c2 in b.terms.items():
            phase = c1 * c2
            letters = []
            for p, q in zip(s1, s2):
                f, r = _MUL[(p, q)]
                phase *= f
                letters.append(r)
            key = "".join(letters)
            out[key] = out.get(key, 0j) + phase
    return PauliHamiltonian(a.n_qubits, out)


def float_product(factors) -> float:
    """Left-to-right product from 1.0."""
    out = 1.0
    for f in factors:
        out *= f
    return out


def swap_matrix() -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    for c in range(2):
        for t in range(2):
            m[t + 2 * c, c + 2 * t] = 1
    return m


def cswap_matrix() -> np.ndarray:
    # control slot 0, swap slots 1 and 2
    m = np.eye(8, dtype=complex)
    m[[3, 5]] = m[[5, 3]]
    return m


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


def flat_copy(circuit: Circuit) -> Circuit:
    """The same circuit as one run of count 1, its runs expanded here, not
    by the package; `circuit` itself is left as it is."""
    out = circuit.copy_empty()
    out.append_run([ins for body, count in circuit.runs for _ in range(count) for ins in body], 1)
    return out


def plan_blocks(plan: engine.Plan) -> list[list[engine.Block]]:
    """Each segment of a compiled plan as the flat list of blocks it runs."""
    return [[b for blocks, count in seg for _ in range(count) for b in blocks]
            for seg in plan.segments]


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


def _push(dest: list[Instruction], ins: Instruction) -> int:
    dest.append(ins)
    return len(dest) - 1


def _output(circuit: Circuit, dest: list[Instruction]) -> Circuit:
    """A pass's output: `circuit`'s registers and the instructions in dest,
    which come from an already validated circuit, so are not re-checked."""
    out = circuit.copy_empty()
    out.append_run(dest, 1)
    return out


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
    dest: list[Instruction] = []
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
                pending[q] = [_push(dest, ins), ins.resolved_matrix()]
            else:
                run[1] = ins.resolved_matrix() @ run[1]
        else:
            for q in ins.qubits:
                flush(q)
            dest.append(ins)
    for q in list(pending):
        flush(q)
    return _output(circuit, dest)


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
    return _output(circuit, [i for i in dest if i is not None]), changed


def normalize_2q_order(circuit: Circuit) -> Circuit:
    """Rewrite two-qubit gates onto ascending operands.

    A gate on (b, a) with a < b becomes a C2 on (a, b) whose matrix is the
    original conjugated by SWAP (index permutation 0,2,1,3).
    """
    dest: list[Instruction] = []
    for ins in circuit.instructions:
        if ins.is_gate and len(ins.qubits) == 2 and ins.qubits[0] > ins.qubits[1]:
            ins = _c2((ins.qubits[1], ins.qubits[0]), swap_conjugate(ins.resolved_matrix()))
        dest.append(ins)
    return _output(circuit, dest)


def fuse_2q(circuit: Circuit) -> Circuit:
    """Collapse runs of two-qubit gates on one ordered pair into one C2.

    Lone two-qubit gates become C2 as well, completing the pipeline's
    payload-only output contract.
    """
    dest: list[Instruction] = []
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
                pending[pair] = [_push(dest, ins), ins.resolved_matrix()]
            else:
                run[1] = ins.resolved_matrix() @ run[1]
        else:
            flush_touching(ins.qubits)
            dest.append(ins)
    for pair in list(pending):
        flush(pair)
    return _output(circuit, dest)


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
    engine's former loop: each shot restarts, runs every plan segment up to
    its first rejection and draws from the generator in the same order."""
    rng = engine._as_rng(seed)
    plan = engine._compile(circuit, "rejection", None)
    state = engine.StateVector(circuit.n_qubits)
    counts: dict[str, int] = {}
    step_rejections = [0] * plan.n_steps
    accepted = 0
    kept: np.ndarray | None = None

    def run_segment(i: int) -> None:
        for blocks, count in plan.segments[i]:
            for b in blocks * count:
                engine._kernel_block(state, b.u, b.shape, b.perm, b.in_place)

    for _ in range(shots):
        state.restart()
        for i, (q, step) in enumerate(plan.points):
            run_segment(i)
            p0 = engine._branch_probability(state.amps, q, 0)
            if rng.random() < p0:
                engine._project(state.amps, q, 0, p0)
            elif step is not None:  # a measure found |1>: rejected
                step_rejections[step] += 1
                break
            else:  # a reset found |1>
                engine._project(state.amps, q, 1, engine._branch_probability(state.amps, q, 1))
                engine._kernel_block(state, engine._X, *engine._layout((q,), (), state.n_qubits)[:2])
        else:
            run_segment(-1)
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


def rejection_shot_by_shot(state: engine.StateVector, plan: engine.Plan, shots: int,
                           rng: np.random.Generator,
                           hamiltonian: PauliHamiltonian | None = None):
    """engine._execute_rejection by its former shot loop: the same memo of
    the outcome tree, but every shot calls rng.random() once per point it
    reaches and inverts its own rng.random(1) on its leaf's CDF, and each
    kernel runs through engine._kernel_block."""
    segments, points = plan.segments, plan.points
    p0s: dict[tuple[int, ...], float] = {}
    leaf: tuple | None = None
    at: tuple[int, ...] | None = None

    def run_segment(segment) -> None:
        for blocks, count in segment:
            for b in blocks * count:
                engine._kernel_block(state, b.u, b.shape, b.perm, b.in_place)

    def seek(prefix: tuple[int, ...]) -> None:
        nonlocal at
        if prefix and prefix[:-1] == at:
            start = len(at)
        else:
            start = 0
            state.restart()
            run_segment(segments[0])
        for i in range(start, len(prefix)):
            q = points[i][0]
            if prefix[i] == 0:
                engine._project(state.amps, q, 0, p0s[prefix[:i]])
            else:
                engine._project(state.amps, q, 1, engine._branch_probability(state.amps, q, 1))
                engine._kernel_block(state, engine._X,
                                     *engine._layout((q,), (), state.n_qubits)[:2])
            run_segment(segments[i + 1])
        at = prefix

    step_rejections = [0] * plan.n_steps
    drawn = np.empty(shots, dtype=np.intp)
    accepted = 0
    energy = None
    for _ in range(shots):
        prefix: tuple[int, ...] = ()
        for q, step in points:
            p0 = p0s.get(prefix)
            if p0 is None:
                seek(prefix)
                p0 = p0s[prefix] = engine._branch_probability(state.amps, q, 0)
            if rng.random() < p0:
                prefix += (0,)
            elif step is None:
                prefix += (1,)
            else:
                step_rejections[step] += 1
                break
        else:
            if leaf is None or leaf[0] != prefix:
                leaf = None
                seek(prefix)
                leaf = (prefix, engine._cdf(state))
                if hamiltonian is not None and energy is None:
                    energy = engine.expectation_pauli(state, hamiltonian)
            drawn[accepted] = engine._draw(leaf[1], rng.random(1))[0]
            accepted += 1
    counts = np.bincount(drawn[:accepted])
    samples = {engine.bitstring(int(v), state.n_qubits): int(counts[v])
               for v in np.flatnonzero(counts)}
    return accepted, samples, step_rejections, energy


# ---------------------------------------------------------------------------
# token parser: the whole text tokenized up front, every statement parsed

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>[ \t\r]+)
  | (?P<COMMENT>//[^\n]*)
  | (?P<NL>\n)
  | (?P<REAL>(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)
  | (?P<INT>\d+)
  | (?P<ID>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<STRING>"[^"\n]*")
  | (?P<ARROW>->)
  | (?P<SYM>[()\[\],;+\-*/])
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise QasmError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        kind = m.lastgroup
        if kind == "NL":
            line += 1
            line_start = m.end()
        elif kind not in ("WS", "COMMENT"):
            tokens.append(_Token(kind, m.group(), line, pos - line_start + 1))
        pos = m.end()
    tokens.append(_Token("EOF", "", line, pos - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.circuit: Circuit | None = None
        self.qreg: tuple[str, int] | None = None
        self.pre_cregs: list[tuple[str, int]] = []

    def _peek(self) -> _Token:
        return self.tokens[self.pos]

    def _next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _error(self, message: str, tok: _Token | None = None):
        tok = tok or self._peek()
        raise QasmError(message, tok.line, tok.col)

    def _expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self._next()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind.lower()
            self._error(f"expected {want!r}, found {tok.text or 'end of input'!r}", tok)
        return tok

    # ---- expressions -----------------------------------------------------

    def _expr(self) -> float:
        value = self._term()
        while self._peek().text in ("+", "-"):
            op = self._next().text
            rhs = self._term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def _term(self) -> float:
        value = self._unary()
        while self._peek().text in ("*", "/"):
            op = self._next()
            rhs = self._unary()
            if op.text == "*":
                value *= rhs
            else:
                if rhs == 0.0:
                    self._error("division by zero in angle expression", op)
                value /= rhs
        return value

    def _unary(self) -> float:
        tok = self._peek()
        if tok.text == "-":
            self._next()
            return -self._unary()
        if tok.text == "+":
            self._next()
            return self._unary()
        return self._atom()

    def _atom(self) -> float:
        tok = self._next()
        if tok.kind in ("REAL", "INT"):
            return float(tok.text)
        if tok.kind == "ID" and tok.text == "pi":
            return math.pi
        if tok.text == "(":
            value = self._expr()
            self._expect("SYM", ")")
            return value
        self._error(f"expected a number, 'pi' or '(', found {tok.text!r}", tok)

    # ---- operands --------------------------------------------------------

    def _reg_operand(self) -> tuple[str, int | None, _Token]:
        """Register name with an optional [index]."""
        name_tok = self._expect("ID")
        index = None
        if self._peek().text == "[":
            self._next()
            index = int(self._expect("INT").text)
            self._expect("SYM", "]")
        return name_tok.text, index, name_tok

    def _qubit(self, name: str, index: int | None, tok: _Token) -> int:
        if self.qreg is None or name != self.qreg[0]:
            self._error(f"unknown quantum register {name!r}", tok)
        if index is None:
            self._error(f"gate operands must be indexed, write {name}[k]", tok)
        if not 0 <= index < self.qreg[1]:
            self._error(f"{name}[{index}] out of range (size {self.qreg[1]})", tok)
        return index

    # ---- statements ------------------------------------------------------

    def parse(self) -> Circuit:
        self._expect("ID", "OPENQASM")
        version = self._expect("REAL")
        if version.text != "2.0":
            self._error(f"only OpenQASM 2.0 is supported, found {version.text}", version)
        self._expect("SYM", ";")
        if self._peek().text == "include":
            self._next()
            inc = self._expect("STRING")
            if inc.text != '"qelib1.inc"':
                self._error(f"only qelib1.inc can be included, found {inc.text}", inc)
            self._expect("SYM", ";")
        while self._peek().kind != "EOF":
            self._statement()
        if self.circuit is None:
            self._error("no quantum register declared")
        return self.circuit

    def _statement(self) -> None:
        tok = self._peek()
        if tok.kind != "ID":
            self._error(f"expected a statement, found {tok.text!r}")
        word = tok.text
        if word == "qreg":
            self._parse_qreg()
        elif word == "creg":
            self._parse_creg()
        elif word == "measure":
            self._parse_measure()
        elif word == "reset":
            self._parse_reset()
        elif word == "barrier":
            self._parse_barrier()
        elif word in QASM_NAMES:
            self._parse_gate()
        elif word in ("gate", "opaque"):
            self._error("user-defined gate blocks are not supported", tok)
        elif word == "if":
            self._error("classical control is not supported", tok)
        else:
            self._error(f"unknown statement or gate {word!r}", tok)

    def _parse_qreg(self) -> None:
        tok = self._next()
        if self.qreg is not None:
            self._error("only one quantum register is supported", tok)
        name, index, name_tok = self._reg_operand()
        if index is None:
            self._error("expected a register size", name_tok)
        if index < 1:
            self._error("register size must be positive", name_tok)
        self._expect("SYM", ";")
        if any(held == name for held, _ in self.pre_cregs):
            self._error(f"duplicate register name {name!r}", name_tok)
        self.qreg = (name, index)
        self.circuit = Circuit(index, self.pre_cregs)

    def _parse_creg(self) -> None:
        self._next()
        name, index, name_tok = self._reg_operand()
        if index is None:
            self._error("expected a register size", name_tok)
        if index < 1:
            self._error("register size must be positive", name_tok)
        self._expect("SYM", ";")
        if self.circuit is None:
            # cregs may legally precede the qreg; hold them until it appears
            if any(held == name for held, _ in self.pre_cregs):
                self._error(f"duplicate register name {name!r}", name_tok)
            self.pre_cregs.append((name, index))
            return
        if name == self.qreg[0]:
            self._error(f"duplicate register name {name!r}", name_tok)
        try:
            self.circuit.add_creg(name, index)
        except ValueError as exc:
            self._error(str(exc), name_tok)

    def _require_circuit(self, tok: _Token) -> Circuit:
        if self.circuit is None:
            self._error("statement before any qreg declaration", tok)
        return self.circuit

    def _parse_gate(self) -> None:
        name_tok = self._next()
        gate = QASM_NAMES[name_tok.text]
        circuit = self._require_circuit(name_tok)
        params: tuple[float, ...] = ()
        if self._peek().text == "(":
            self._next()
            try:
                values = [self._expr()]
                while self._peek().text == ",":
                    self._next()
                    values.append(self._expr())
            except RecursionError:
                self._error(f"{gate.value} has an angle expression nested too deeply", name_tok)
            self._expect("SYM", ")")
            params = tuple(values)
        if len(params) != gate.n_params:
            self._error(f"{gate.value} expects {gate.n_params} parameter(s), got {len(params)}",
                        name_tok)
        if not all(map(math.isfinite, params)):
            self._error(f"{gate.value} has a non-finite angle", name_tok)
        qubits = [self._qubit(*self._reg_operand())]
        while self._peek().text == ",":
            self._next()
            qubits.append(self._qubit(*self._reg_operand()))
        self._expect("SYM", ";")
        if len(qubits) != gate.n_qubits:
            self._error(f"{gate.value} expects {gate.n_qubits} qubit(s), got {len(qubits)}",
                        name_tok)
        if len(set(qubits)) != len(qubits):
            self._error(f"duplicate qubit operand in {gate.value}", name_tok)
        circuit.gate_op(gate, tuple(qubits), params)

    def _parse_measure(self) -> None:
        kw = self._next()
        circuit = self._require_circuit(kw)
        qname, qindex, qtok = self._reg_operand()
        self._expect("ARROW")
        cname, cindex, ctok = self._reg_operand()
        self._expect("SYM", ";")
        if self.qreg is None or qname != self.qreg[0]:
            self._error(f"unknown quantum register {qname!r}", qtok)
        creg_size = dict(circuit.cregs).get(cname)
        if creg_size is None:
            self._error(f"unknown classical register {cname!r}", ctok)
        if (qindex is None) != (cindex is None):
            self._error("measure needs both sides indexed or both whole registers", qtok)
        if qindex is None:
            if self.qreg[1] != creg_size:
                self._error(
                    f"whole-register measure needs equal sizes "
                    f"({qname}[{self.qreg[1]}] vs {cname}[{creg_size}])", qtok)
            for k in range(self.qreg[1]):  # ascending per-qubit expansion
                circuit.measure(k, circuit.clbit_index(cname, k))
        else:
            if not 0 <= qindex < self.qreg[1]:
                self._error(f"{qname}[{qindex}] out of range", qtok)
            if not 0 <= cindex < creg_size:
                self._error(f"{cname}[{cindex}] out of range", ctok)
            circuit.measure(qindex, circuit.clbit_index(cname, cindex))

    def _parse_reset(self) -> None:
        kw = self._next()
        circuit = self._require_circuit(kw)
        name, index, tok = self._reg_operand()
        self._expect("SYM", ";")
        if self.qreg is None or name != self.qreg[0]:
            self._error(f"unknown quantum register {name!r}", tok)
        if index is None:
            for k in range(self.qreg[1]):
                circuit.reset(k)
        else:
            if not 0 <= index < self.qreg[1]:
                self._error(f"{name}[{index}] out of range", tok)
            circuit.reset(index)

    def _parse_barrier(self) -> None:
        kw = self._next()
        circuit = self._require_circuit(kw)
        qubits: list[int] = []
        while True:
            name, index, tok = self._reg_operand()
            if self.qreg is None or name != self.qreg[0]:
                self._error(f"unknown quantum register {name!r}", tok)
            if index is None:
                qubits.extend(range(self.qreg[1]))
            else:
                if not 0 <= index < self.qreg[1]:
                    self._error(f"{name}[{index}] out of range", tok)
                qubits.append(index)
            if self._peek().text != ",":
                break
            self._next()
        self._expect("SYM", ";")
        seen = []
        for q in qubits:
            if q not in seen:
                seen.append(q)
        circuit.barrier(*seen)


def parse_qasm(text: str) -> Circuit:
    """nucsim.parse_qasm by the former token parser, which tokenizes the
    whole text first and parses every statement, repeated lines included."""
    return _Parser(text).parse()
