"""Filter schedules, amplitude predictors, and filter-circuit construction."""

import json
import math

import numpy as np
import pytest

import oracles
from nucsim import (Circuit, FilterSchedule, PauliHamiltonian, TrialState,
                    build_filter_circuit, default_schedule, ground_state,
                    phase_penalty, predict_success, predicted_amplitude,
                    rodeo_probability, run, shift_rescale)
from nucsim.errors import ProjectionError, ResourceLimitError
from nucsim.gates import Gate
from nucsim.projection import _rotation, filter_generator_dense


def two_qubit_h() -> PauliHamiltonian:
    return PauliHamiltonian(2, {"ZI": 0.7, "IZ": 0.3, "XX": 0.25})


# ---------------------------------------------------------------------------
# schedules


def test_default_schedule_halves_times():
    s = default_schedule(1.0, 3)
    assert s.times == (math.pi / 2, math.pi / 4, math.pi / 8)
    assert s.deltas == (0.0, 0.0, 0.0)
    assert s.times[1] == s.times[0] / 2  # halving is exact, not approximate
    assert s.times[2] == s.times[1] / 2


def test_default_schedule_base_case():
    s = default_schedule(0.25, 1)
    assert s.steps == ((math.pi / (2 * 0.25), 0.0),)


def test_total_time_approaches_twice_the_first():
    s = default_schedule(1.0, 20)
    assert sum(s.times) == pytest.approx(2 * s.times[0], abs=1e-5)


def test_schedule_validation():
    with pytest.raises(ValueError):
        default_schedule(0.0, 3)
    with pytest.raises(ValueError):
        default_schedule(-1.0, 3)
    with pytest.raises(ValueError):
        default_schedule(1.0, 0)
    with pytest.raises(ValueError):
        FilterSchedule(())
    with pytest.raises(ValueError):
        FilterSchedule(((0.0, 0.1),))
    with pytest.raises(ValueError):
        FilterSchedule(((-0.5, 0.0),))


def test_schedule_json_round_trip():
    s = FilterSchedule(((1.5, 0.2), (0.75, 0.0)))
    back = FilterSchedule.from_json(s.to_json())
    assert back.steps == s.steps
    data = json.loads(s.to_json())
    assert list(data) == ["steps"]
    assert data["steps"][0] == {"t": 1.5, "delta": 0.2}
    # delta defaults to zero when omitted
    implicit = FilterSchedule.from_json('{"steps": [{"t": 2.0}]}')
    assert implicit.steps == ((2.0, 0.0),)
    with pytest.raises(ValueError):
        FilterSchedule.from_json('{"steps": [{"delta": 0.1}]}')
    with pytest.raises(ValueError):
        FilterSchedule.from_json('{"times": []}')


# ---------------------------------------------------------------------------
# predictors


def test_predicted_amplitude_examples():
    s = default_schedule(1.0, 1)
    assert predicted_amplitude(0.0, s) == 1.0
    assert abs(predicted_amplitude(1.0, s)) <= 1e-12  # state at the gap removed
    two = FilterSchedule(((math.pi / 2, 0.0), (math.pi / 4, 0.0)))
    assert abs(predicted_amplitude(2.0, two)) <= 1e-12  # killed by second step


def test_phase_penalty_examples():
    assert phase_penalty(default_schedule(1.0, 4)) == 1.0
    assert phase_penalty(FilterSchedule(((1.0, math.pi / 4),))) == pytest.approx(0.5)
    s = FilterSchedule(((1.0, 0.1), (1.0, 0.2)))
    assert phase_penalty(s) == pytest.approx(
        math.cos(0.1) ** 2 * math.cos(0.2) ** 2)


def test_rodeo_probability_examples():
    assert rodeo_probability(1.3, 1.3, [0.4, 0.8, 1.2]) == 1.0
    assert rodeo_probability(0.0, 1.0, [math.pi]) <= 1e-12
    assert rodeo_probability(0.0, 2.0, [0.5]) == pytest.approx(math.cos(0.5) ** 2)


def test_rodeo_suppression_monte_carlo():
    # typical (geometric-mean) suppression of far-off-resonance states is
    # 4^-N: <ln cos^2> over a random phase is -2 ln 2 per cycle
    rng = np.random.default_rng(21)
    n, draws = 6, 10_000
    diff = 10.0  # |E_target - E| * sigma_t >> 1
    log_total = 0.0
    for _ in range(draws):
        times = np.abs(rng.normal(loc=2.0, scale=1.0, size=n))
        log_total += math.log(rodeo_probability(0.0, diff, times))
    typical = math.exp(log_total / draws)
    assert 0.5 * 4.0 ** -n <= typical <= 2.0 * 4.0 ** -n


def test_predict_success_on_eigenstate_trial():
    # the filter is built for the shifted operator whose ground energy is 0
    h = two_qubit_h()
    gs = ground_state(h)
    shifted = shift_rescale(h, gs.energy)
    trial = TrialState.vector(gs.vector)
    success, energy = predict_success(shifted, trial, default_schedule(gs.gap, 3))
    assert success == pytest.approx(1.0, abs=1e-10)
    assert energy == pytest.approx(0.0, abs=1e-10)


def test_predict_success_two_level_half():
    # single qubit with spectrum {0, delta}
    delta = 0.8
    h = PauliHamiltonian(1, {"I": delta / 2, "Z": -delta / 2})
    trial = TrialState.vector(np.array([1, 1], dtype=complex) / math.sqrt(2))
    success, energy = predict_success(h, trial, default_schedule(delta, 1))
    assert success == pytest.approx(0.5, abs=1e-12)
    assert energy == pytest.approx(0.0, abs=1e-12)


def test_nonzero_phases_pay_the_penalty():
    h = two_qubit_h()
    gs = ground_state(h)
    shifted = shift_rescale(h, gs.energy)
    trial = TrialState.vector(gs.vector)
    zero = FilterSchedule(((0.9, 0.0), (0.45, 0.0)))
    tilted = FilterSchedule(((0.9, 0.3), (0.45, 0.2)))
    s_zero, _ = predict_success(shifted, trial, zero)
    s_tilted, _ = predict_success(shifted, trial, tilted)
    assert s_tilted <= phase_penalty(tilted) * s_zero + 1e-12
    assert s_tilted == pytest.approx(phase_penalty(tilted), abs=1e-10)


def test_predictor_guards():
    wide = PauliHamiltonian.single(11, "Z" + "I" * 10)
    with pytest.raises(ResourceLimitError):
        predict_success(wide, TrialState.basis("0" * 11), default_schedule(1, 1))
    with pytest.raises(ValueError):
        predict_success(two_qubit_h(), TrialState.basis("000"),
                        default_schedule(1, 1))


def test_energy_approaches_ground_state_with_depth():
    h = two_qubit_h()
    gs = ground_state(h)
    shifted = shift_rescale(h, gs.energy)  # ground energy now 0
    trial = TrialState.basis("00")
    errors = []
    for n in range(1, 5):
        _, energy = predict_success(shifted, trial, default_schedule(gs.gap, n))
        errors.append(abs(energy))
    assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))
    assert errors[-1] < errors[0]


# ---------------------------------------------------------------------------
# trial states


def test_trial_state_forms():
    t = TrialState.basis("010")
    assert t.n_qubits == 3
    assert t.basis_index() == 2  # leftmost character is qubit 0
    v = t.to_vector()
    assert v[2] == 1.0 and np.sum(np.abs(v)) == 1.0
    explicit = TrialState.vector(np.array([0.6, 0.8j]))
    assert explicit.n_qubits == 1
    with pytest.raises(ValueError):
        explicit.basis_index()
    with pytest.raises(ValueError):
        TrialState.basis("012")
    with pytest.raises(ValueError):
        TrialState.vector(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        TrialState.vector(np.ones(3) / math.sqrt(3))


# ---------------------------------------------------------------------------
# circuit construction


def test_single_term_step_matches_dense_formula():
    # one Z term, one step, one slice: the construction is exact
    h = PauliHamiltonian(1, {"Z": 0.45})
    t, delta = 1.2, 0.3
    circ = build_filter_circuit(h, FilterSchedule(((t, delta),)), 1,
                                TrialState.basis("0"), ancilla=1)
    probs, state = oracles.circuit_states(circ)
    u = filter_generator_dense(h, t, delta)
    full = np.zeros(4, dtype=complex)
    full[0] = 1.0
    evolved = u @ full
    kept = evolved[:2]  # ancilla (high qubit) projected onto |0>
    p0 = float(np.vdot(kept, kept).real)
    assert probs == pytest.approx([p0], abs=1e-12)
    want = np.concatenate([kept / math.sqrt(p0), np.zeros(2)])
    assert oracles.phase_distance(state, want) <= 1e-10
    # the surviving amplitude is cos(h t + delta) on |0>
    assert probs[0] == pytest.approx(math.cos(0.45 * t + delta) ** 2, abs=1e-12)


def test_empty_hamiltonian_asserts_trivially():
    h = PauliHamiltonian.zero(2)
    circ = build_filter_circuit(h, FilterSchedule(((1.0, 0.0),)), 1,
                                TrialState.basis("00"), ancilla=2)
    report = run(circ, "mma", shots=8, seed=0, ancilla=2)
    assert report.assert_probs == pytest.approx([1.0], abs=1e-12)


def test_trial_preparation_and_layout():
    h = two_qubit_h()
    circ = build_filter_circuit(h, default_schedule(1.0, 2), 1,
                                TrialState.basis("10"), ancilla=2)
    assert circ.n_qubits == 3
    assert circ.cregs == [("c", 2), ("r", 3)]
    assert circ.instructions[0].key() == (Gate.X, (0,), (), None)
    mids = [i for i in circ.instructions if i.gate is Gate.MEASURE][:-3]
    assert all(i.qubits == (2,) for i in mids)
    finals = [i for i in circ.instructions if i.gate is Gate.MEASURE][-3:]
    assert [i.qubits[0] for i in finals] == [0, 1, 2]
    resets = [i for i in circ.instructions if i.gate is Gate.RESET]
    assert len(resets) == 2 and all(i.qubits == (2,) for i in resets)


def test_build_validation():
    h = two_qubit_h()
    sched = default_schedule(1.0, 1)
    with pytest.raises(ValueError):
        build_filter_circuit(h, sched, 1, TrialState.basis("00"), ancilla=1)
    with pytest.raises(ValueError):
        build_filter_circuit(h, sched, 0, TrialState.basis("00"), ancilla=2)
    with pytest.raises(ValueError):
        build_filter_circuit(h, sched, 1, TrialState.basis("000"), ancilla=2)
    complex_h = PauliHamiltonian(2, {"XY": 1j})
    with pytest.raises(ValueError):
        build_filter_circuit(complex_h, sched, 1, TrialState.basis("00"), ancilla=2)
    explicit = TrialState.vector(np.array([0.6, 0.8]))
    with pytest.raises(ValueError):
        build_filter_circuit(PauliHamiltonian(1, {"Z": 1.0}), sched, 1,
                             explicit, ancilla=1)


def test_gate_count_scales_linearly_in_slices():
    h = two_qubit_h()
    sched = default_schedule(1.0, 2)
    trial = TrialState.basis("00")
    c1 = build_filter_circuit(h, sched, 4, trial, ancilla=2)
    c2 = build_filter_circuit(h, sched, 8, trial, ancilla=2)
    overhead = 1 + 2  # trial preparation X gates bound + per-step RY
    per_slice = (c2.gate_count() - c1.gate_count()) / 4
    predicted_doubled = c1.gate_count() + 4 * per_slice
    assert c2.gate_count() == predicted_doubled
    assert c2.gate_count() > 2 * (c1.gate_count() - overhead * 2) / 2


def test_repeated_slices_match_a_slice_by_slice_build():
    h = PauliHamiltonian(3, {"ZII": 0.7, "IXI": -0.3, "XYZ": 0.25, "IZZ": 0.1, "III": 0.4})
    sched = FilterSchedule(((1.3, 0.2), (0.6, -0.1), (0.3, 0.0)))
    trial = TrialState.basis("101")
    for trotter in (1, 2, 5):
        want = Circuit(4, [("c", 3), ("r", 4)])
        want.x(0)
        want.x(2)
        terms = [(letters, coeff.real) for letters, coeff in h.sorted_terms()]
        for i, (t, delta) in enumerate(sched.steps):
            for _ in range(trotter):
                for letters, coeff in terms:
                    _rotation(want, letters, coeff * t / trotter, 3)
            want.ry(2.0 * delta, 3)
            want.measure(3, i)
            want.barrier()
            want.reset(3)
            want.barrier()
        for q in range(4):
            want.measure(q, 3 + q)
        got = build_filter_circuit(h, sched, trotter, trial, ancilla=3)
        assert got.cregs == want.cregs
        assert [i.key() for i in got.instructions] == [i.key() for i in want.instructions]


def test_circuit_approaches_exact_step_evolution():
    rng = np.random.default_rng(13)
    h = PauliHamiltonian(3, {"ZZI": 0.4, "IXX": 0.3, "YIY": 0.2, "ZII": 0.5})
    sched = FilterSchedule(((0.9, 0.1), (0.45, 0.0)))
    circ = build_filter_circuit(h, sched, 64, TrialState.basis("000"), ancilla=3)
    _, state = oracles.circuit_states(circ)

    # step-by-step dense oracle with exact projections
    full = np.zeros(16, dtype=complex)
    full[0] = 1.0
    for t, delta in sched.steps:
        full = filter_generator_dense(h, t, delta) @ full
        kept = full[:8]
        full = np.concatenate([kept / np.linalg.norm(kept), np.zeros(8)])
    assert abs(np.vdot(state, full)) >= 1 - 1e-4


def test_assert_product_matches_prediction():
    h = two_qubit_h()
    gs = ground_state(h)
    sched = default_schedule(gs.gap, 3)
    circ = build_filter_circuit(h, sched, 32, TrialState.basis("00"), ancilla=2)
    report = run(circ, "mma", shots=1, seed=0, ancilla=2)
    ideal, _ = predict_success(h, TrialState.basis("00"), sched)
    product = float(np.prod(report.assert_probs))
    assert product == pytest.approx(ideal, abs=5e-3)  # Trotter budget


def test_filtered_energy_converges_with_trotter_depth():
    raw = PauliHamiltonian(3, {"ZII": -0.6, "IZI": -0.5, "IIZ": -0.4,
                               "XXI": 0.15, "IYY": 0.1, "ZIZ": 0.2})
    gs = ground_state(raw)
    h = shift_rescale(raw, gs.energy)
    sched = default_schedule(gs.gap, 2)
    trial = TrialState.basis("000")
    _, ideal_energy = predict_success(h, trial, sched)
    errs = []
    for r in (1, 2, 4, 8, 16, 32, 64):
        circ = build_filter_circuit(h, sched, r, trial, ancilla=3)
        report = run(circ, "mma", shots=1, seed=0, ancilla=3, hamiltonian=h)
        errs.append(abs(report.energy - ideal_energy))
    # monotone once inside the asymptotic regime, and small at r=64
    assert all(a >= b - 1e-12 for a, b in zip(errs[2:], errs[3:]))
    assert errs[-1] <= 1e-3


def test_only_standard_gates_are_emitted():
    h = two_qubit_h()
    circ = build_filter_circuit(h, default_schedule(1.0, 2), 2,
                                TrialState.basis("01"), ancilla=2)
    for ins in circ.instructions:
        assert ins.gate.value in {"x", "h", "s", "sdg", "cx", "rz", "ry",
                                  "measure", "reset", "barrier"}
