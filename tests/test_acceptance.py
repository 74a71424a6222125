"""Headline guarantees, one test per criterion, with pinned tolerances.

Each test prints a single summary line on success so a verbose run reads
as a checklist.  Runtime bounds are asserted inside the tests themselves.
"""

import gc
import json
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles
from nucsim import (FilterSchedule, PauliHamiltonian, StateVector, TrialState,
                    apply_1q, apply_2q, apply_cos_filter,
                    build_filter_circuit, default_schedule,
                    fuse_pipeline, gate_count, ground_state, jw_annihilation,
                    lcu_coefficients, lcu_reference, lcu_success_probability,
                    predicted_amplitude, run, shift_rescale, success_product)
from nucsim import engine
from nucsim.cli import main as cli_main
from nucsim.gates import swap_conjugate

TABLE_PROBS = [0.29602, 0.48617, 0.69349, 0.74823, 0.73060, 0.77238,
               0.93470, 0.95811]


def final_state(circuit, ancilla: int) -> np.ndarray:
    """Normalized pre-sampling state, asserting |0> at mid-circuit measures,
    from the engine's own mma plan executor."""
    state = StateVector(circuit.n_qubits)
    engine._execute_mma(state, engine._compile(circuit, "mma", ancilla))
    return state.amps.copy()


def spin_chain_hamiltonian(n: int) -> PauliHamiltonian:
    """Transverse fields plus a ZZ chain; cheap to build at any width."""
    terms = {}
    for i in range(n):
        s = ["I"] * n
        s[i] = "X"
        terms["".join(s)] = 0.12 + 0.01 * i
    for i in range(n - 1):
        s = ["I"] * n
        s[i] = "Z"
        s[i + 1] = "Z"
        terms["".join(s)] = 0.08
    return PauliHamiltonian(n, terms)


def convergence_hamiltonian(seed: int) -> PauliHamiltonian:
    """Random 4-qubit operator, diagonally dominant so |0000> is a fair trial."""
    rng = np.random.default_rng(seed)
    terms = {}
    for i in range(4):
        s = ["I"] * 4
        s[i] = "Z"
        terms["".join(s)] = -(0.4 + 0.2 * rng.random())
    for i in range(3):
        s = ["I"] * 4
        s[i] = "Z"
        s[i + 1] = "Z"
        terms["".join(s)] = 0.3 * (rng.random() - 0.5)
    for (a, b), p in (((0, 1), "XX"), ((1, 2), "YY"), ((2, 3), "XX"),
                      ((0, 2), "XY")):
        s = ["I"] * 4
        s[a] = p[0]
        s[b] = p[1]
        terms["".join(s)] = 0.8 * (rng.random() - 0.5)
    for i in range(4):
        s = ["I"] * 4
        s[i] = "X"
        terms["".join(s)] = 0.5 * (rng.random() - 0.5)
    return PauliHamiltonian(4, terms)


def test_criterion_01_success_product(capsys):
    t0 = time.perf_counter()
    value = success_product(TABLE_PROBS)
    assert value == pytest.approx(0.037738, abs=5e-6)
    reps = 1000
    t1 = time.perf_counter()
    for _ in range(reps):
        success_product(TABLE_PROBS)
    per_call = (time.perf_counter() - t1) / reps
    assert per_call < 1e-3
    assert time.perf_counter() - t0 < 5.0
    with capsys.disabled():
        print(f"criterion 1 PASS: product {value:.6f} (target 0.037738 +- 5e-6), "
              f"{per_call * 1e6:.2f} us per call")


def test_criterion_02_mma_equals_postselection(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    rejection_checked = 0
    seed = 0
    while checked < 20:
        seed += 1
        n_system = int(rng.integers(2, 8))        # total <= 8 qubits
        blocks = int(rng.integers(1, 5))
        circuit = oracles.random_filter_shaped_circuit(rng, n_system, blocks,
                                                       int(rng.integers(4, 9)))
        try:
            probs, want_state = oracles.circuit_states(circuit)
        except AssertionError:
            continue                              # dead assertion branch
        got_state = final_state(circuit, n_system)
        fidelity = abs(np.vdot(want_state, got_state)) ** 2
        assert fidelity >= 1.0 - 1e-9
        report = run(circuit, "mma", shots=32, seed=seed, ancilla=n_system)
        assert report.overall_success == pytest.approx(success_product(probs),
                                                       abs=1e-9)
        p_true = success_product(probs)
        if rejection_checked < 6 and 0.05 < p_true < 0.95:
            shots = 10_000
            rej = run(circuit, "rejection", shots, seed, None)
            sigma = math.sqrt(p_true * (1.0 - p_true) / shots)
            assert abs(rej.overall_success - p_true) <= 4.0 * sigma
            rejection_checked += 1
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    with capsys.disabled():
        print(f"criterion 2 PASS: {checked} circuits, fidelity >= 1-1e-9, "
              f"{rejection_checked} rejection runs within 4 sigma, {elapsed:.1f}s")


def test_criterion_03_kernels_match_dense(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    worst = 0.0
    for case in range(200):
        two_qubit = case % 2 == 1
        n = int(rng.integers(2 if two_qubit else 1, 6))
        state = StateVector.from_amplitudes(oracles.random_state(rng, 2 ** n))
        before = state.amps.copy()
        if two_qubit:
            u = oracles.random_unitary(rng, 4)
            a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
            want = oracles.lift_matrix(u, (a, b), n) @ before
            if a < b:
                apply_2q(state, u, a, b)
            else:
                apply_2q(state, swap_conjugate(u), b, a)
        else:
            u = oracles.random_unitary(rng, 2)
            q = int(rng.integers(n))
            want = oracles.lift_matrix(u, (q,), n) @ before
            apply_1q(state, u, q)
        worst = max(worst, float(np.max(np.abs(state.amps - want))))
    assert worst <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    with capsys.disabled():
        print(f"criterion 3 PASS: 200 kernel cases on n<=5, max deviation "
              f"{worst:.2e} <= 1e-12, {elapsed:.1f}s")


def test_criterion_04_fusion_soundness_and_payoff(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(47)
    circuits = []
    for n_system, blocks in ((3, 1), (4, 2), (5, 3), (6, 2)):
        while True:
            candidate = oracles.random_filter_shaped_circuit(
                rng, n_system, blocks, 8)
            try:
                oracles.circuit_states(candidate)
            except AssertionError:
                continue                          # dead assertion branch
            circuits.append(candidate)
            break
    from nucsim import Circuit
    for n in (4, 6, 8, 10):
        soup = Circuit(n, [])
        oracles.random_gates(rng, soup, 60)
        circuits.append(soup)

    h = convergence_hamiltonian(9)
    gs = ground_state(h)
    deep = build_filter_circuit(shift_rescale(h, gs.energy),
                                default_schedule(gs.gap, 2), 125,
                                TrialState.basis("0000"), 4)
    assert gate_count(deep) >= 10_000
    circuits.append(deep)

    worst_overlap = 1.0
    deep_factor = None
    for circuit in circuits:
        fused, stats = fuse_pipeline(circuit)
        _, want = oracles.circuit_states(circuit)
        _, got = oracles.circuit_states(fused)
        worst_overlap = min(worst_overlap, oracles.overlap(want, got))
        if circuit is deep:
            deep_factor = stats.reduction_factor
    assert worst_overlap >= 1.0 - 1e-9
    assert deep_factor >= 1.5
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    with capsys.disabled():
        print(f"criterion 4 PASS: overlap >= {worst_overlap:.12f} on "
              f"{len(circuits)} circuits, {deep_factor:.2f}x on a "
              f"{gate_count(deep)}-gate filter circuit, {elapsed:.1f}s")


def test_criterion_05_exact_gap_removal(capsys):
    t0 = time.perf_counter()
    h0 = PauliHamiltonian(2, {"ZI": 0.15, "IZ": 0.15, "XX": 0.35, "ZZ": -0.5})
    gs0 = ground_state(h0)
    shifted = shift_rescale(h0, gs0.energy)
    energies, vectors = np.linalg.eigh(shifted.dense())
    gap = float(energies[1] - energies[0])
    schedule = FilterSchedule(((math.pi / (2.0 * gap), 0.0),))

    predicted = predicted_amplitude(gap, schedule)
    assert abs(predicted) <= 1e-12

    # the |00> trial holds 83% of its weight on the gap eigenstate here
    weight = abs(vectors[0, 1]) ** 2
    assert weight >= 0.5
    circuit = build_filter_circuit(shifted, schedule, 1024,
                                   TrialState.basis("00"), 2)
    amps = final_state(circuit, 2)
    gap_state = np.concatenate([vectors[:, 1], np.zeros(4)])  # ancilla |0>
    population = abs(np.vdot(gap_state, amps)) ** 2
    assert population < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    with capsys.disabled():
        print(f"criterion 5 PASS: predicted amplitude {predicted:.2e} <= 1e-12, "
              f"gap-state population {population:.2e} < 1e-6 "
              f"(initial weight {weight:.2f}), {elapsed:.1f}s")


def test_criterion_06_filter_convergence_trend(capsys):
    t0 = time.perf_counter()
    h0 = convergence_hamiltonian(9)
    gs0 = ground_state(h0)
    shifted = shift_rescale(h0, gs0.energy)
    gs = ground_state(shifted)
    chi2 = abs(gs.vector[0]) ** 2
    assert gs.gap >= 0.2
    assert chi2 >= 0.3
    norm_h = max(abs(float(gs.spectrum[0])), abs(float(gs.spectrum[-1])))

    schedule = default_schedule(gs.gap, 4)
    padded = PauliHamiltonian(5, {s + "I": c for s, c in shifted.terms.items()})
    trial = TrialState.basis("0000")
    errors = []
    for r in (4, 8, 16, 32, 64):
        circuit = build_filter_circuit(shifted, schedule, r, trial, 4)
        report = run(circuit, "mma", 1, 1, 4, hamiltonian=padded)
        errors.append(abs(report.energy))       # ground energy is 0 after the shift
    assert all(b < a + 1e-12 for a, b in zip(errors, errors[1:]))
    assert errors[-1] <= 1e-3 * norm_h
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    with capsys.disabled():
        print(f"criterion 6 PASS: gap {gs.gap:.2f}, overlap {chi2:.2f}, errors "
              f"{['%.1e' % e for e in errors]} decreasing, final <= "
              f"{1e-3 * norm_h:.1e}, {elapsed:.1f}s")


def test_criterion_07_jw_algebra(capsys):
    t0 = time.perf_counter()
    n = 6
    dim = 2 ** n
    ident = np.eye(dim)
    ops = [jw_annihilation(i, n).dense() for i in range(n)]
    worst = 0.0
    for i in range(n):
        worst = max(worst, float(np.max(np.abs(ops[i] @ ops[i]))))
        for j in range(n):
            anti = ops[i] @ ops[j].conj().T + ops[j].conj().T @ ops[i]
            target = ident if i == j else 0.0
            worst = max(worst, float(np.max(np.abs(anti - target))))
            both = ops[i] @ ops[j] + ops[j] @ ops[i]
            worst = max(worst, float(np.max(np.abs(both))))
    assert worst <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    with capsys.disabled():
        print(f"criterion 7 PASS: canonical anticommutation on {n} modes, "
              f"max deviation {worst:.2e} <= 1e-12, {elapsed:.1f}s")


def test_criterion_08_lcu_identities(capsys):
    t0 = time.perf_counter()
    for m in range(1, 201):
        assert sum(math.comb(2 * m, m + k) for k in range(-m, m + 1)) == 4 ** m
        exp = lcu_coefficients(m, tail_tol=1e-300)
        assert exp.m0 == m and exp.tail_mass == 0.0
        assert np.array_equal(exp.coeffs, exp.coeffs[::-1])

    rng = np.random.default_rng(8)
    worst = 0.0
    for n in (1, 2, 3, 4):
        letters = "IXYZ"
        terms = {}
        for _ in range(3 * n):
            s = "".join(rng.choice(list(letters)) for _ in range(n))
            terms[s] = terms.get(s, 0.0) + float(rng.normal())
        h = PauliHamiltonian(n, terms)
        w = np.linalg.eigvalsh(h.dense())
        h = shift_rescale(h, 0.0, scale=max(abs(w[0]), abs(w[-1])) / 1.2)
        for m in (1, 2, 3, 4):
            psi = oracles.random_state(rng, 2 ** n)
            got = lcu_reference(h, lcu_coefficients(m, tail_tol=1e-300), psi)
            got /= np.linalg.norm(got)
            want = apply_cos_filter(h, m, psi)
            worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst <= 1e-10

    h = PauliHamiltonian(2, {"ZI": 0.7, "IZ": 0.3, "XX": 0.25})
    gs = ground_state(h)
    spread = float(gs.spectrum[-1] - gs.energy)
    shifted = shift_rescale(h, gs.energy, spread / (np.pi / 4.0))
    ground = np.linalg.eigh(shifted.dense())[1][:, 0]
    tol = 1e-8
    p_s = lcu_success_probability(shifted, lcu_coefficients(12, tol), ground)
    assert abs(p_s - 1.0) <= tol
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    with capsys.disabled():
        print(f"criterion 8 PASS: exact coefficients to m=200, window vs direct "
              f"filter {worst:.2e} <= 1e-10, ground P_s off by "
              f"{abs(p_s - 1.0):.2e} <= {tol}, {elapsed:.1f}s")


def test_criterion_09_scale_smoke(capsys):
    t0 = time.perf_counter()
    n = 15
    h = spin_chain_hamiltonian(n)
    circuit = build_filter_circuit(h, default_schedule(0.5, 2), 1916,
                                   TrialState.basis("0" * n), n)
    n_gates = gate_count(circuit)
    assert circuit.n_qubits == 16
    assert n_gates >= 1_000_000

    fused, stats = fuse_pipeline(circuit)
    plan = engine._compile(fused, "mma", n)
    del circuit
    gc.collect()

    # trace only the execution phase: the criterion bounds the simulation
    # working set (state plus one scratch buffer), not the plan storage
    budget = int(1.5 * (2 * 16 * 2 ** 16))
    tracemalloc.start()
    state = StateVector(16)
    probs = engine._execute_mma(state, plan)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    drift = abs(state.norm() - 1.0)
    samples = engine.sample(state, 64, np.random.default_rng(5))

    elapsed = time.perf_counter() - t0
    assert peak <= budget
    assert elapsed < 600.0
    assert drift <= 1e-9
    assert len(probs) == plan.n_steps == 2
    assert all(0.0 < p <= 1.0 for p in probs)
    assert sum(samples.values()) == 64
    with capsys.disabled():
        print(f"criterion 9 PASS: {n_gates} gates on 16 qubits "
              f"({stats.reduction_factor:.2f}x fused), peak {peak} B <= "
              f"{budget} B, norm drift {drift:.1e} <= 1e-9, {elapsed:.0f}s < 600s")


def test_criterion_10_thread_count_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    ham = tmp_path / "h.txt"
    ham.write_text("0.7 ZI\n0.3 IZ\n0.25 XX\n", encoding="utf-8")
    qasm = tmp_path / "c.qasm"
    assert cli_main(["prepare", "--hamiltonian", str(ham), "--steps", "3",
                     "--trotter", "4", "--output", str(qasm)]) == 0
    texts = []
    for threads in ("1", "9"):
        out = tmp_path / f"t{threads}.json"
        code = cli_main(["simulate", "--input", str(qasm), "--shots", "512",
                         "--seed", "77", "--threads", threads,
                         "--output", str(out)])
        assert code == 0
        lines = [ln for ln in out.read_text(encoding="utf-8").splitlines()
                 if '"wall_time_s"' not in ln]
        texts.append("\n".join(lines))
    capsys.readouterr()
    assert texts[0] == texts[1]
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        print(f"criterion 10 PASS: reports byte-identical across thread counts "
              f"apart from wall time, {elapsed:.1f}s")
