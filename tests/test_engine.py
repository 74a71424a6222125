"""State-vector kernels, measurement projection, sampling, and run reports."""

import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nucsim import (Circuit, FilterAssertionError, PauliHamiltonian,
                    StateVector, TrialState, apply_1q, apply_2q, apply_dense,
                    assert_measure, build_filter_circuit, default_schedule,
                    expectation_pauli, fuse_pipeline, infer_ancilla,
                    measure_project, run, sample)
from nucsim import engine
from nucsim.engine import _as_rng, success_product, swap_conjugate
from nucsim.errors import MmaStructureError, ProjectionError, ResourceLimitError
from nucsim.gates import Gate, gate_matrix

X = np.array([[0, 1], [1, 0]], dtype=complex)


def vec(*amps):
    a = np.asarray(amps, dtype=complex)
    return a / np.linalg.norm(a)


def state_of(amps) -> StateVector:
    return StateVector.from_amplitudes(np.asarray(amps, dtype=complex))


# ---------------------------------------------------------------------------
# kernels


def test_single_qubit_stride_pairs():
    # n=2, q=1 pairs indices as {(0,2), (1,3)}
    s = state_of(vec(1, 2, 3, 4))
    apply_1q(s, X, 1)
    assert np.allclose(s.amps, vec(3, 4, 1, 2), atol=1e-15)


def test_single_qubit_q0_pairs_adjacent():
    s = state_of(vec(1, 2, 3, 4))
    apply_1q(s, X, 0)
    assert np.allclose(s.amps, vec(2, 1, 4, 3), atol=1e-15)


def test_two_qubit_quadruples():
    # n=3, p=0, q=2 groups amplitudes {(0,1,4,5), (2,3,6,7)}
    rng = np.random.default_rng(0)
    u = oracles.random_unitary(rng, 4)
    for start, group in ((0, {0, 1, 4, 5}), (2, {2, 3, 6, 7})):
        s = StateVector(3)
        s.amps[0] = 0
        s.amps[start] = 1.0
        apply_2q(s, u, 0, 2)
        support = {int(i) for i in np.nonzero(np.abs(s.amps) > 1e-14)[0]}
        assert support <= group


def test_two_qubit_matrix_indexing():
    # matrix index = bit(p) + 2*bit(q); send |q2 q0> = |10> -> |01>
    u = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
    s = StateVector(3)
    s.amps[0] = 0
    s.amps[4] = 1.0  # q2 set
    apply_2q(s, u, 0, 2)
    assert np.argmax(np.abs(s.amps)) == 1  # q0 set


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_apply_1q_matches_dense_oracle(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(40):
        q = int(rng.integers(n))
        u = oracles.random_unitary(rng, 2)
        amps = oracles.random_state(rng, 2 ** n)
        s = state_of(amps.copy())  # the kernel reuses the input as scratch
        apply_1q(s, u, q)
        want = oracles.lift_matrix(u, (q,), n) @ amps
        assert np.max(np.abs(s.amps - want)) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_apply_2q_matches_dense_oracle(n):
    rng = np.random.default_rng(200 + n)
    for _ in range(40):
        p, q = map(int, rng.choice(n, size=2, replace=False))
        u = oracles.random_unitary(rng, 4)
        amps = oracles.random_state(rng, 2 ** n)
        s = state_of(amps.copy())  # the kernel reuses the input as scratch
        if p < q:
            apply_2q(s, u, p, q)
        else:
            apply_2q(s, swap_conjugate(u), q, p)
        want = oracles.lift_matrix(u, (p, q), n) @ amps
        assert np.max(np.abs(s.amps - want)) <= 1e-12


def test_apply_dense_matches_oracle():
    rng = np.random.default_rng(300)
    for n, width in [(3, 3), (4, 3), (5, 4)]:
        for _ in range(10):
            qubits = tuple(int(x) for x in rng.choice(n, size=width, replace=False))
            u = oracles.random_unitary(rng, 2 ** width)
            amps = oracles.random_state(rng, 2 ** n)
            s = state_of(amps.copy())  # the kernel reuses the input as scratch
            apply_dense(s, u, qubits)
            want = oracles.lift_matrix(u, qubits, n) @ amps
            assert np.max(np.abs(s.amps - want)) <= 1e-12


# Every gate runs through the one gathered kernel at every width.  The
# engine's former einsum kernels and the dense oracle check it at every
# operand position through the plan's binder.

def bound_apply(u, qubits, amps):
    s = state_of(amps.copy())  # the kernel reuses the input as scratch
    kernel, args = engine._bind(u, qubits)
    kernel(s, *args)
    return s.amps


@given(n=st.integers(2, 12), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=12, deadline=None)
def test_kernels_match_einsum_reference_at_every_position(n, seed):
    rng = np.random.default_rng(seed)
    amps = oracles.random_state(rng, 2 ** n)
    u4 = oracles.random_unitary(rng, 4)
    u2 = oracles.random_unitary(rng, 2)
    for p, q in itertools.permutations(range(n), 2):
        got = bound_apply(u4, (p, q), amps)
        assert np.max(np.abs(got - oracles.einsum_2q(amps, u4, p, q))) <= 1e-12
    for q in range(n):
        got = bound_apply(u2, (q,), amps)
        assert np.max(np.abs(got - oracles.einsum_1q(amps, u2, q))) <= 1e-12


def test_kernels_match_dense_oracle_at_ten_qubits():
    n = 10
    rng = np.random.default_rng(1010)
    amps = oracles.random_state(rng, 2 ** n)
    u4 = oracles.random_unitary(rng, 4)
    u2 = oracles.random_unitary(rng, 2)
    for qubits in [*itertools.permutations(range(n), 2), *((q,) for q in range(n))]:
        u = u4 if len(qubits) == 2 else u2
        want = oracles.lift_matrix(u, qubits, n) @ amps
        assert np.max(np.abs(bound_apply(u, qubits, amps) - want)) <= 1e-12


def test_apply_dense_allocates_nothing_on_a_warm_state():
    rng = np.random.default_rng(16)
    s = state_of(oracles.random_state(rng, 2 ** 16))
    u = oracles.random_unitary(rng, 8)
    apply_dense(s, u, (3, 15, 0))  # the first gate allocates the scratch buffer
    tracemalloc.start()
    try:
        apply_dense(s, u, (3, 15, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024  # one vector is 1 MiB


# The plan packs consecutive gates into blocks of up to engine._BLOCK_QUBITS
# qubits.  Replay the same circuit one gate at a time through the former
# einsum and moveaxis kernels; tolerance 1e-12 on amplitudes and
# probabilities, exact equality for rejection-mode counts.

_WIDE_GATES = (Gate.CCX, Gate.CSWAP, Gate.RCCX, Gate.C3X, Gate.RC3X, Gate.C4X)


def replay_gate(amps, ins):
    u, qubits = ins.resolved_matrix(), ins.qubits
    if len(qubits) == 1:
        return oracles.einsum_1q(amps, u, qubits[0])
    if len(qubits) == 2:
        return oracles.einsum_2q(amps, u, *qubits)
    return oracles.moveaxis_kq(amps, u, qubits)


def replay_probability(amps, q, outcome):
    return float(np.sum(np.abs(amps[((np.arange(amps.shape[0]) >> q) & 1) == outcome]) ** 2))


def replay_project(amps, q, outcome):
    keep = ((np.arange(amps.shape[0]) >> q) & 1) == outcome
    return np.where(keep, amps, 0) / np.sqrt(replay_probability(amps, q, outcome))


def random_block_circuit(rng, n, n_gates, ancilla):
    """Random 1q/2q matrices on random (often reversed) operands and named
    gates on 3-5 qubits, with measure/reset pairs on the ancilla between."""
    circ = Circuit(n, [("c", n_gates)])
    for i in range(n_gates):
        kind = rng.random()
        if kind < 0.1:
            circ.measure(ancilla, i)
            if rng.random() < 0.5:
                circ.barrier()
            circ.reset(ancilla)
        elif kind < 0.4:
            circ.fused_1q(oracles.random_unitary(rng, 2), int(rng.integers(n)))
        elif kind < 0.85 or n == 2:
            a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
            circ.fused_2q(oracles.random_unitary(rng, 4), a, b)
        else:
            gate = _WIDE_GATES[int(rng.integers(len(_WIDE_GATES)))]
            if gate.n_qubits > n:
                gate = Gate.CCX
            circ.gate_op(gate, tuple(int(q) for q in rng.choice(n, size=gate.n_qubits,
                                                               replace=False)))
    circ.measure(ancilla, 0)
    return circ


@given(n=st.integers(2, 12), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_block_plan_matches_per_gate_replay(n, seed):
    rng = np.random.default_rng(seed)
    ancilla = int(rng.integers(n))
    circ = random_block_circuit(rng, n, int(rng.integers(1, 40)), ancilla)
    plan, n_steps = engine._compile(circ, "mma", ancilla)
    state = StateVector(n)
    probs = engine._execute_mma(state, plan)

    amps = np.zeros(2 ** n, dtype=complex)
    amps[0] = 1.0
    want = []
    for ins in circ.instructions[:-1]:  # the last is the sampling measure
        if ins.gate is Gate.MEASURE:
            want.append(replay_probability(amps, ins.qubits[0], 0))
            amps = replay_project(amps, ins.qubits[0], 0)
        elif ins.is_gate:
            amps = replay_gate(amps, ins)
    assert len(probs) == n_steps == len(want)
    assert max((abs(a - b) for a, b in zip(probs, want)), default=0.0) <= 1e-12
    assert np.max(np.abs(state.amps - amps)) <= 1e-12
    gates = sum(1 for ins in circ.instructions if ins.is_gate)
    assert len(plan) - 2 * n_steps <= gates


def test_block_plan_packs_consecutive_gates():
    c = Circuit(6, [("c", 1)])
    for q in range(5):
        c.cx(q, q + 1)  # cx(3, 4) would widen the block to five qubits
    c.h(4)
    c.measure(5, 0)
    c.reset(5)
    c.h(5)  # after a reset: a block of its own
    plan, _ = engine._compile(c, "mma", 5)
    kernels = [op for op, _ in plan]
    assert kernels == [engine._kernel_block, engine._kernel_block, engine._OP_MEASURE,
                       engine._OP_RESET, engine._kernel_block]
    assert plan[0][1][0].shape == (16, 16)  # cx on (0,1), (1,2), (2,3)
    assert plan[1][1][0].shape == (8, 8)    # cx on (3,4), (4,5), then h(4)


def packed_blocks(circ):
    """_compile's greedy packing, written out: the (matrix, qubits) gate
    lists of the plan's blocks in order, repeats included."""
    instrs = circ.instructions[:engine._sampling_start(circ.instructions)]
    blocks, block, qubits = [], [], set()
    for ins in instrs:
        if ins.is_gate:
            if block and len(qubits | set(ins.qubits)) > engine._BLOCK_QUBITS:
                blocks.append(block)
                block, qubits = [], set()
            block.append((ins.resolved_matrix(), ins.qubits))
            qubits |= set(ins.qubits)
        elif ins.gate is not Gate.BARRIER and block:
            blocks.append(block)
            block, qubits = [], set()
    if block:
        blocks.append(block)
    return blocks


@pytest.mark.parametrize("fuse", [True, False])
def test_compile_fuses_each_distinct_block_once(monkeypatch, fuse):
    h = PauliHamiltonian(5, {"ZIIII": 0.7, "IXIII": 0.3, "ZZIII": 0.2, "IIYYI": 0.1,
                             "IIIXZ": 0.15})
    circ = build_filter_circuit(h, default_schedule(1.0, 2), 6, TrialState.basis("00000"), 5)
    if fuse:
        circ, _ = fuse_pipeline(circ)
    real = engine._fuse_block
    calls = []
    monkeypatch.setattr(engine, "_fuse_block",
                        lambda gates: calls.append(gates) or real(gates))
    plan, _ = engine._compile(circ, "mma", 5)
    blocks = packed_blocks(circ)
    distinct = {tuple((u.tobytes(), qs) for u, qs in b) for b in blocks}
    assert len(calls) == len(distinct) < len(blocks)
    bound = [(op, args) for op, args in plan if callable(op)]
    assert len(bound) == len(blocks)
    for (op, args), block in zip(bound, blocks):
        want_op, want = real(block)  # the same block fused on its own
        assert op is want_op
        assert np.array_equal(args[0], want[0]) and args[1:] == want[1:]


def replay_rejection(circ, shots, seed):
    """run(mode="rejection") one gate at a time, drawing from the same
    generator in the same order: accepted count and samples."""
    rng = np.random.Generator(np.random.Philox(seed))
    instrs = circ.instructions
    end = len(instrs)
    while end > 0 and instrs[end - 1].gate in (Gate.MEASURE, Gate.BARRIER):
        end -= 1
    accepted, counts = 0, {}
    for _ in range(shots):
        amps = np.zeros(2 ** circ.n_qubits, dtype=complex)
        amps[0] = 1.0
        ok = True
        for ins in instrs[:end]:
            if ins.gate is Gate.MEASURE:
                if rng.random() >= replay_probability(amps, ins.qubits[0], 0):
                    ok = False
                    break
                amps = replay_project(amps, ins.qubits[0], 0)
            elif ins.gate is Gate.RESET:
                q = ins.qubits[0]
                if rng.random() < replay_probability(amps, q, 0):
                    amps = replay_project(amps, q, 0)
                else:
                    amps = oracles.einsum_1q(replay_project(amps, q, 1), X, q)
            elif ins.is_gate:
                amps = replay_gate(amps, ins)
        if ok:
            accepted += 1
            for key, cnt in sample(StateVector.from_amplitudes(amps), 1, rng).items():
                counts[key] = counts.get(key, 0) + cnt
    return accepted, counts


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rejection_blocks_match_per_gate_replay(seed):
    rng = np.random.default_rng(600 + seed)
    circ = Circuit(6, [("c", 6)])
    for i in range(3):
        oracles.random_gates(rng, circ, 12)
        circ.gate_op(Gate.CCX, tuple(int(q) for q in rng.choice(6, size=3, replace=False)))
        circ.measure(5, i)
        circ.reset(5)
    circ.reset(int(rng.integers(5)))  # a reset whose draw can go either way
    for q in range(6):
        circ.measure(q, q)
    report = run(circ, "rejection", shots=64, seed=70 + seed, ancilla=None)
    accepted, counts = replay_rejection(circ, 64, 70 + seed)
    assert 0 < report.accepted < 64
    assert report.accepted == accepted
    assert report.samples == counts


def test_non_unitary_matrices_pass_through_kernels():
    proj = np.array([[1, 0], [0, 0]], dtype=complex)
    s = state_of(vec(1, 1))
    apply_1q(s, proj, 0)
    assert np.allclose(s.amps, [1 / np.sqrt(2), 0], atol=1e-15)
    upper = np.triu(np.ones((4, 4), dtype=complex))
    amps = oracles.random_state(np.random.default_rng(1), 8)
    s = state_of(amps.copy())  # the kernel reuses the input as scratch
    apply_2q(s, upper, 0, 1)
    want = oracles.lift_matrix(upper, (0, 1), 3) @ amps
    assert np.max(np.abs(s.amps - want)) <= 1e-12


def test_kernel_validation():
    s = StateVector(2)
    with pytest.raises(ValueError):
        apply_1q(s, np.eye(4, dtype=complex), 0)
    with pytest.raises(ValueError):
        apply_1q(s, X, 2)
    with pytest.raises(ValueError):
        apply_2q(s, np.eye(4, dtype=complex), 0, 0)
    with pytest.raises(ValueError):
        apply_2q(s, np.eye(4, dtype=complex), 1, 0)
    with pytest.raises(ValueError):
        apply_2q(s, np.eye(2, dtype=complex), 0, 1)


def test_kernels_recycle_two_buffers():
    s = StateVector(3)
    first = s.amps
    apply_1q(s, X, 0)
    second = s.amps
    assert second is not first
    apply_1q(s, X, 1)
    assert s.amps is first  # ping-pong between exactly two arrays


def test_from_amplitudes_validation():
    with pytest.raises(ValueError):
        StateVector.from_amplitudes(np.ones(3, dtype=complex))
    with pytest.raises(ValueError):
        StateVector.from_amplitudes(np.array([1.0, 1.0], dtype=complex))
    with pytest.raises(ValueError):
        StateVector(0)


def test_from_amplitudes_and_copy_allocate_only_their_result():
    amps = oracles.random_state(np.random.default_rng(7), 2 ** 16)
    tracemalloc.start()
    try:
        s = StateVector.from_amplitudes(amps)
        _, adopt_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        c = s.copy()
        _, copy_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert s.amps is amps
    assert adopt_peak < 64 * 1024
    assert copy_peak < amps.nbytes + 64 * 1024
    assert c.amps is not amps and np.array_equal(c.amps, amps)
    assert c.n_qubits == s.n_qubits == 16


def test_width_guard_refuses_before_allocating():
    # 2^62 amplitudes exceed any physical memory; the guard compares
    # exponents, so nothing is allocated on the way to the error
    with pytest.raises(ResourceLimitError):
        StateVector(62)


def test_restart_returns_to_vacuum():
    s = state_of(vec(0, 1))
    s.restart()
    assert np.allclose(s.amps, [1, 0])


# ---------------------------------------------------------------------------
# measurement


def ghz3() -> StateVector:
    a = np.zeros(8, dtype=complex)
    a[0] = a[7] = 1 / np.sqrt(2)
    return StateVector.from_amplitudes(a)


def test_measure_project_ghz():
    s = ghz3()
    p = measure_project(s, 0, 0)
    assert p == pytest.approx(0.5, abs=1e-15)
    want = np.zeros(8)
    want[0] = 1
    assert np.allclose(s.amps, want, atol=1e-12)

    s = ghz3()
    measure_project(s, 0, 1)
    want = np.zeros(8)
    want[7] = 1
    assert np.allclose(s.amps, want, atol=1e-12)


def test_measure_project_rejects_dead_branch():
    s = StateVector(1)
    with pytest.raises(ProjectionError):
        measure_project(s, 0, 1)
    with pytest.raises(ValueError):
        measure_project(s, 0, 2)


def test_assert_measure_plus_state():
    s = state_of(vec(1, 1))
    p0 = assert_measure(s, 0)
    assert p0 == pytest.approx(0.5, abs=1e-15)
    assert np.allclose(s.amps, [1, 0], atol=1e-12)


def test_assert_measure_failure_carries_step_and_prob():
    s = state_of(np.array([0, 1], dtype=complex))
    with pytest.raises(FilterAssertionError) as exc:
        assert_measure(s, 0, step=3)
    assert exc.value.step == 3
    assert exc.value.prob <= 1e-12


def test_norm_preserved_through_projection():
    rng = np.random.default_rng(17)
    s = state_of(oracles.random_state(rng, 16))
    measure_project(s, 2, 0)
    assert s.norm() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# sampling


def test_sample_is_deterministic_per_seed():
    s = state_of(oracles.random_state(np.random.default_rng(5), 8))
    assert sample(s, 500, 42) == sample(s, 500, 42)
    assert sample(s, 500, 42) != sample(s, 500, 43)


def test_sample_point_mass_uses_qubit_first_strings():
    a = np.zeros(8, dtype=complex)
    a[1] = 1.0  # qubit 0 set
    s = StateVector.from_amplitudes(a)
    assert sample(s, 100, 0) == {"100": 100}


def test_sample_counts_total_and_bias():
    theta = math.asin(math.sqrt(0.3))
    amps = np.array([math.cos(theta), math.sin(theta)], dtype=complex)
    counts = sample(StateVector.from_amplitudes(amps), 100_000, 9)
    assert sum(counts.values()) == 100_000
    sigma = math.sqrt(100_000 * 0.3 * 0.7)
    assert abs(counts.get("1", 0) - 30_000) <= 5 * sigma


def test_sample_accepts_generator_and_validates_seed():
    s = StateVector(1)
    gen = _as_rng(7)
    assert _as_rng(gen) is gen
    assert sample(s, 3, gen) == {"0": 3}
    with pytest.raises(ValueError):
        _as_rng(-1)
    with pytest.raises(ValueError):
        _as_rng(1 << 64)
    with pytest.raises(ValueError):
        sample(s, -1, 0)
    assert sample(s, 0, 0) == {}


# ---------------------------------------------------------------------------
# expectation values


def test_expectation_basics():
    z0 = PauliHamiltonian(1, {"Z": 1.0})
    assert expectation_pauli(StateVector(1), z0) == pytest.approx(1.0, abs=1e-14)
    plus = state_of(vec(1, 1))
    assert expectation_pauli(plus, z0) == pytest.approx(0.0, abs=1e-14)
    bell = state_of(vec(1, 0, 0, 1))
    xx = PauliHamiltonian(2, {"XX": 1.0})
    assert expectation_pauli(bell, xx) == pytest.approx(1.0, abs=1e-14)


def test_expectation_matches_dense_oracle():
    rng = np.random.default_rng(23)
    letters = ["IXZ", "YYI", "ZZZ", "XIX", "III"]
    coeffs = rng.normal(size=len(letters))
    h = PauliHamiltonian(3, dict(zip(letters, coeffs)))
    dense = sum(c * oracles.pauli_string_dense(l) for l, c in zip(letters, coeffs))
    for _ in range(20):
        amps = oracles.random_state(rng, 8)
        got = expectation_pauli(state_of(amps), h)
        want = float(np.real(np.vdot(amps, dense @ amps)))
        assert abs(got - want) <= 1e-10


def test_expectation_rejects_bad_operators():
    with pytest.raises(ValueError):
        expectation_pauli(StateVector(1), PauliHamiltonian(1, {"Z": 1j}))
    with pytest.raises(ValueError):
        expectation_pauli(StateVector(1), PauliHamiltonian(2, {"ZZ": 1.0}))


def test_success_product_is_left_to_right():
    probs = [0.29602, 0.48617, 0.69349, 0.74823, 0.73060, 0.77238, 0.93470, 0.95811]
    out = 1.0
    for p in probs:
        out *= p
    assert success_product(probs) == out
    assert success_product([]) == 1.0
    assert success_product(probs) == pytest.approx(0.037738, abs=5e-6)


# ---------------------------------------------------------------------------
# run(): filter-style execution


def two_step_circuit(theta1=0.6, theta2=0.3, spin=0.8) -> Circuit:
    """Two system qubits + ancilla q2; two assert blocks, then sampling."""
    c = Circuit(3, [("c", 2), ("r", 3)])
    c.ry(spin, 0)
    c.ry(2 * theta1, 2)
    c.measure(2, 0)
    c.barrier()
    c.reset(2)
    c.barrier()
    c.cx(0, 1)
    c.ry(2 * theta2, 2)
    c.measure(2, 1)
    c.barrier()
    c.reset(2)
    c.barrier()
    for q in range(3):
        c.measure(q, c.clbit_index("r", q))
    return c


def test_mma_run_matches_oracle():
    circ = two_step_circuit()
    report = run(circ, "mma", shots=2000, seed=11, ancilla=2)
    probs, state = oracles.circuit_states(circ)
    assert report.assert_probs == pytest.approx(probs, abs=1e-12)
    assert report.assert_probs == pytest.approx(
        [math.cos(0.6) ** 2, math.cos(0.3) ** 2], abs=1e-12)
    assert report.overall_success == success_product(report.assert_probs)
    assert sum(report.samples.values()) == 2000
    assert report.accepted is None and report.rejected is None
    # ancilla was asserted into |0>: its character is 0 in every sample
    assert all(key[2] == "0" for key in report.samples)


def test_mma_energy_is_presampling_expectation():
    circ = two_step_circuit()
    h = PauliHamiltonian(3, {"ZII": 0.7, "IZI": 0.3})
    report = run(circ, "mma", shots=1, seed=0, ancilla=2, hamiltonian=h)
    _, state = oracles.circuit_states(circ)
    dense = 0.7 * oracles.pauli_string_dense("ZII") + 0.3 * oracles.pauli_string_dense("IZI")
    want = float(np.real(np.vdot(state, dense @ state)))
    assert report.energy == pytest.approx(want, abs=1e-12)


def test_mma_is_deterministic():
    circ = two_step_circuit()
    a = run(circ, "mma", shots=777, seed=5, ancilla=2).to_dict()
    b = run(circ, "mma", shots=777, seed=5, ancilla=2).to_dict()
    a.pop("wall_time_s"), b.pop("wall_time_s")
    assert a == b


def test_report_layout():
    circ = two_step_circuit()
    d = run(circ, "mma", shots=10, seed=1, ancilla=2,
            fusion_stats={"gates_before": 5}).to_dict()
    assert list(d) == ["mode", "n_qubits", "shots", "seed", "ancilla",
                       "assert_probs", "overall_success", "accepted", "rejected",
                       "step_rejections", "samples", "energy", "fusion_stats",
                       "wall_time_s"]
    assert d["fusion_stats"] == {"gates_before": 5}
    assert list(d["samples"]) == sorted(d["samples"])
    assert d["wall_time_s"] >= 0


def test_infer_ancilla():
    assert infer_ancilla(two_step_circuit()) == 2
    c = Circuit(2, [("c", 2)])
    c.h(0)
    c.measure(0, 0)
    c.measure(1, 1)  # trailing block only: no mid-circuit measure
    assert infer_ancilla(c) is None
    c = Circuit(3, [("c", 3)])
    c.h(2)
    c.measure(2, 0)
    c.reset(2)
    c.h(0)
    c.measure(0, 0)  # trailing measure, barrier, measure: the sampling block
    c.barrier()
    c.measure(1, 1)
    assert infer_ancilla(c) == 2
    c = Circuit(2, [("c", 1)])
    c.h(0)
    c.measure(0, 0)
    c.reset(0)  # a trailing reset is not sampling: the measure is mid-circuit
    assert infer_ancilla(c) == 0


def test_plan_replays_public_kernels_bit_for_bit():
    # The plan runs the first six gates as one 16x16 block and
    # rz(2); cx(1,3); ry(3) as one 8x8 block, so `==` against the per-gate
    # replay is not guaranteed by design; it holds for this circuit, whose
    # first block acts on |0000> (the matmul returns one column of the block
    # matrix exactly) and whose second block puts a diagonal and a
    # permutation gate before its one rotation.  The block plan itself is
    # guarded, within 1e-12, by test_block_plan_matches_per_gate_replay.
    c = Circuit(4, [("c", 1), ("r", 4)])
    c.h(0)
    c.rx(0.4, 1)
    c.ry(0.7, 2)
    c.cx(2, 0)  # reversed operands: the block build sorts them
    c.gate_op(Gate.CCX, (0, 1, 3))
    c.ry(0.9, 3)
    c.measure(3, 0)
    c.barrier()
    c.reset(3)
    c.rz(0.2, 2)
    c.cx(1, 3)
    c.ry(0.5, 3)
    c.measure(3, 0)
    c.reset(3)
    for q in range(4):
        c.measure(q, c.clbit_index("r", q))
    h = PauliHamiltonian(4, {"ZIII": 0.7, "XXII": 0.3, "IZYI": 0.2, "XIZI": 0.4})
    report = run(c, "mma", shots=16, seed=4, ancilla=3, hamiltonian=h)

    s = StateVector(4)
    apply_1q(s, gate_matrix(Gate.H), 0)
    apply_1q(s, gate_matrix(Gate.RX, (0.4,)), 1)
    apply_1q(s, gate_matrix(Gate.RY, (0.7,)), 2)
    apply_2q(s, swap_conjugate(gate_matrix(Gate.CX)), 0, 2)
    apply_dense(s, gate_matrix(Gate.CCX), (0, 1, 3))
    apply_1q(s, gate_matrix(Gate.RY, (0.9,)), 3)
    probs = [assert_measure(s, 3)]
    apply_1q(s, gate_matrix(Gate.RZ, (0.2,)), 2)
    apply_2q(s, gate_matrix(Gate.CX), 1, 3)
    apply_1q(s, gate_matrix(Gate.RY, (0.5,)), 3)
    probs.append(assert_measure(s, 3))
    assert report.assert_probs == probs
    assert report.energy == expectation_pauli(s, h)


def test_mma_structure_validation():
    with pytest.raises(MmaStructureError):
        run(two_step_circuit(), "mma", shots=1, seed=0, ancilla=None)
    with pytest.raises(MmaStructureError):
        run(two_step_circuit(), "mma", shots=1, seed=0, ancilla=9)

    bad = Circuit(2, [("c", 1), ("r", 2)])
    bad.h(0)
    bad.measure(0, 0)  # mid measure not on the ancilla
    bad.reset(0)
    bad.h(1)
    bad.measure(1, 1)
    with pytest.raises(MmaStructureError):
        run(bad, "mma", shots=1, seed=0, ancilla=1)

    missing_reset = Circuit(2, [("c", 1), ("r", 1)])
    missing_reset.measure(1, 0)
    missing_reset.h(0)
    missing_reset.measure(0, 0)
    with pytest.raises(MmaStructureError):
        run(missing_reset, "mma", shots=1, seed=0, ancilla=1)

    orphan_reset = Circuit(2, [("c", 1)])
    orphan_reset.h(0)
    orphan_reset.reset(1)
    orphan_reset.h(0)
    orphan_reset.measure(0, 0)
    with pytest.raises(MmaStructureError):
        run(orphan_reset, "mma", shots=1, seed=0, ancilla=1)


def test_mma_assertion_failure_raises():
    c = Circuit(2, [("c", 1), ("r", 2)])
    c.x(1)
    c.measure(1, 0)
    c.reset(1)
    c.measure(0, c.clbit_index("c", 0))
    with pytest.raises(FilterAssertionError) as exc:
        run(c, "mma", shots=1, seed=0, ancilla=1)
    assert exc.value.step == 0


def test_rejection_run_statistics():
    circ = two_step_circuit()
    shots = 4000
    report = run(circ, "rejection", shots=shots, seed=3, ancilla=None)
    assert report.accepted + report.rejected == shots
    assert len(report.step_rejections) == 2
    assert sum(report.step_rejections) == report.rejected
    assert sum(report.samples.values()) == report.accepted
    assert report.overall_success == report.accepted / shots
    p = math.cos(0.6) ** 2 * math.cos(0.3) ** 2
    sigma = math.sqrt(shots * p * (1 - p))
    assert abs(report.accepted - shots * p) <= 5 * sigma
    assert report.assert_probs == []


def test_rejection_energy_matches_mma_end_state():
    circ = two_step_circuit()
    h = PauliHamiltonian(3, {"ZII": 0.7, "IZI": 0.3})
    rej = run(circ, "rejection", shots=200, seed=8, ancilla=None, hamiltonian=h)
    mma = run(circ, "mma", shots=1, seed=0, ancilla=2, hamiltonian=h)
    assert rej.accepted > 0
    assert rej.energy == pytest.approx(mma.energy, abs=1e-12)


def test_rejection_early_abort_counts_first_step():
    c = Circuit(2, [("c", 2), ("r", 2)])
    c.x(1)  # ancilla forced to |1>: every shot rejects at step 0
    c.measure(1, 0)
    c.reset(1)
    c.h(0)
    c.measure(1, 1)
    c.reset(1)
    c.measure(0, c.clbit_index("r", 0))
    report = run(c, "rejection", shots=50, seed=2, ancilla=None)
    assert report.accepted == 0
    assert report.step_rejections == [50, 0]
    assert report.samples == {}
    assert report.energy is None


def test_rejection_is_deterministic():
    circ = two_step_circuit()
    a = run(circ, "rejection", shots=500, seed=12, ancilla=None).to_dict()
    b = run(circ, "rejection", shots=500, seed=12, ancilla=None).to_dict()
    a.pop("wall_time_s"), b.pop("wall_time_s")
    assert a == b


class _DrawsTop:
    """Stands in for a run's generator: every uniform draw is the largest
    double below 1, so each reset finds its qubit in |1>."""

    def random(self, size=None):
        top = np.nextafter(1.0, 0.0)
        return top if size is None else np.full(size, top)


def test_rejection_reset_renormalizes_a_tiny_branch(monkeypatch):
    # P(1) = 1e-14: 1 - P(0) keeps only about three correct digits of it
    c = Circuit(1, [("c", 1)])
    c.ry(2 * math.asin(1e-7), 0)
    c.reset(0)
    c.measure(0, 0)
    monkeypatch.setattr(engine, "_as_rng", lambda seed: _DrawsTop())
    report = run(c, "rejection", shots=1, seed=0, ancilla=None,
                 hamiltonian=PauliHamiltonian(1, {"Z": 1.0}))
    assert report.accepted == 1 and report.samples == {"0": 1}
    # <Z> on the flipped-back |0> is its squared norm
    assert abs(report.energy - 1.0) <= 1e-9


def test_run_rejects_bad_arguments():
    circ = two_step_circuit()
    with pytest.raises(ValueError):
        run(circ, "other", shots=1, seed=0, ancilla=2)
    with pytest.raises(ValueError):
        run(circ, "mma", shots=0, seed=0, ancilla=2)


@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=15, deadline=None)
def test_random_filter_circuits_agree_with_oracle(seed):
    rng = np.random.default_rng(seed)
    circ = oracles.random_filter_shaped_circuit(rng, n_system=3, n_blocks=2,
                                                gates_per_block=6)
    try:
        probs, state = oracles.circuit_states(circ)
    except AssertionError:
        return  # oracle hit a dead assertion branch; nothing to compare
    report = run(circ, "mma", shots=64, seed=1, ancilla=3)
    assert report.assert_probs == pytest.approx(probs, abs=1e-10)
    final = run(circ, "mma", shots=1, seed=1, ancilla=3,
                hamiltonian=PauliHamiltonian(4, {"ZIII": 1.0}))
    dense = oracles.pauli_string_dense("ZIII")
    want = float(np.real(np.vdot(state, dense @ state)))
    assert final.energy == pytest.approx(want, abs=1e-10)


_LIBRARY_RUN = """
import json
from nucsim import (PauliHamiltonian, TrialState, build_filter_circuit, default_schedule,
                    fuse_pipeline, run)
n = 14
terms = {"I" * i + "X" + "I" * (n - 1 - i): 0.12 + 0.01 * i for i in range(n)}
terms.update({"I" * i + "ZZ" + "I" * (n - 2 - i): 0.08 for i in range(n - 1)})
h = PauliHamiltonian(n, terms)
circuit = build_filter_circuit(h, default_schedule(0.5, 2), 2, TrialState.basis("0" * n), n)
fused, _ = fuse_pipeline(circuit)
padded = PauliHamiltonian(n + 1, {s + "I": c for s, c in terms.items()})
report = run(fused, "mma", 64, 9, n, hamiltonian=padded)
print(json.dumps({"n_qubits": report.n_qubits, "energy": report.energy.hex(),
                  "assert_probs": [p.hex() for p in report.assert_probs]}))
"""


def test_library_run_identical_across_blas_thread_counts():
    # 2^15 amplitudes: from about 2^14 a BLAS dot product splits across
    # threads, so probabilities and energies reduced by one would differ
    # in the last bits between these two runs
    outs = []
    for blas_threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads)
        proc = subprocess.run([sys.executable, "-c", _LIBRARY_RUN],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(json.loads(proc.stdout))
    assert outs[0]["n_qubits"] == 15
    assert outs[0] == outs[1]
