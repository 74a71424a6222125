"""Four-pass gate fusion: merge, absorb, order normalization, pair fusion."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nucsim import Circuit, fuse_pipeline, run
from nucsim import fusion, gates
from nucsim.circuit import Instruction
from nucsim.fusion import (absorb_1q, fuse_2q, gate_count, merge_1q,
                           normalize_2q_order)
from nucsim.gates import Gate, gate_matrix

I2 = np.eye(2, dtype=complex)
H = gate_matrix(Gate.H)
X = gate_matrix(Gate.X)
CX = gate_matrix(Gate.CX)
SWAP = gate_matrix(Gate.SWAP)


def keys_and_mats(circuit):
    return [(i.key(), None if i.matrix is None else i.matrix.copy())
            for i in circuit.instructions]


def assert_same_action(a, b, tol=1e-9):
    """Both circuits produce the same assert probabilities and final state."""
    pa, sa = oracles.circuit_states(a)
    pb, sb = oracles.circuit_states(b)
    assert pa == pytest.approx(pb, abs=tol)
    assert oracles.phase_distance(sa, sb) <= tol


# ---------------------------------------------------------------------------
# merge_1q


def test_merge_adjacent_inverse_pair():
    c = Circuit(1)
    c.h(0)
    c.h(0)
    out = merge_1q(c)
    (ins,) = out.instructions
    assert ins.gate is Gate.C1
    assert np.max(np.abs(ins.matrix - I2)) <= 1e-12


def test_merge_sees_per_qubit_timelines():
    c = Circuit(2)
    c.h(0)
    c.x(1)
    c.h(0)  # adjacent to the first h on qubit 0's own timeline
    out = merge_1q(c)
    assert gate_count(out) == 2
    by_qubit = {i.qubits[0]: i.matrix for i in out.instructions}
    assert np.max(np.abs(by_qubit[0] - I2)) <= 1e-12
    assert np.max(np.abs(by_qubit[1] - X)) <= 1e-12


def test_merge_multiplies_later_on_the_left():
    c = Circuit(1)
    c.s(0)
    c.h(0)
    (ins,) = merge_1q(c).instructions
    want = H @ gate_matrix(Gate.S)
    assert np.max(np.abs(ins.matrix - want)) <= 1e-14


@pytest.mark.parametrize("wall", ["measure", "reset", "barrier"])
def test_walls_stop_merging(wall):
    c = Circuit(1, [("c", 1)])
    c.h(0)
    if wall == "measure":
        c.measure(0, 0)
    elif wall == "reset":
        c.reset(0)
    else:
        c.barrier()
    c.h(0)
    out = merge_1q(c)
    assert gate_count(out) == 2
    assert [i.gate for i in out.instructions if i.is_gate] == [Gate.C1, Gate.C1]


def test_singleton_named_gate_becomes_c1():
    c = Circuit(1)
    c.h(0)
    out = merge_1q(c)
    assert [i.gate for i in out.instructions] == [Gate.C1]
    assert np.max(np.abs(out.instructions[0].matrix - H)) <= 1e-15


# ---------------------------------------------------------------------------
# absorb_1q


def test_absorb_before_two_qubit_gate():
    c = Circuit(2)
    c.h(0)
    c.cx(0, 1)
    out = absorb_1q(merge_1q(c))
    (ins,) = out.instructions
    assert ins.gate is Gate.C2
    assert ins.qubits == (0, 1)
    want = CX @ np.kron(I2, H)  # qubit 0 is the low matrix slot
    assert np.max(np.abs(ins.matrix - want)) <= 1e-12


def test_absorb_after_two_qubit_gate():
    c = Circuit(2)
    c.cx(0, 1)
    c.h(1)
    out = absorb_1q(merge_1q(c))
    (ins,) = out.instructions
    want = np.kron(H, I2) @ CX
    assert np.max(np.abs(ins.matrix - want)) <= 1e-12


def test_absorb_runs_to_fixpoint():
    c = Circuit(2)
    c.h(0)
    c.cx(0, 1)
    c.h(0)
    c.h(1)
    out = absorb_1q(merge_1q(c))
    (ins,) = out.instructions
    want = np.kron(H, I2) @ np.kron(I2, H) @ CX @ np.kron(I2, H)
    assert np.max(np.abs(ins.matrix - want)) <= 1e-12


def test_absorb_respects_walls():
    c = Circuit(2, [("c", 1)])
    c.h(0)
    c.measure(0, 0)
    c.reset(0)
    c.cx(0, 1)
    out = absorb_1q(merge_1q(c))
    kinds = [i.gate for i in out.instructions]
    assert kinds == [Gate.C1, Gate.MEASURE, Gate.RESET, Gate.CX]
    full, _ = fuse_pipeline(c)
    assert [i.gate for i in full.instructions] == [
        Gate.C1, Gate.MEASURE, Gate.RESET, Gate.C2]


def test_wide_gates_are_opaque():
    c = Circuit(3)
    c.h(0)
    c.gate_op(Gate.CCX, (0, 1, 2))
    c.h(0)
    out, stats = fuse_pipeline(c)
    kinds = [i.gate for i in out.instructions]
    assert kinds == [Gate.C1, Gate.CCX, Gate.C1]
    assert stats.gates_before == 3 and stats.gates_after == 3


# ---------------------------------------------------------------------------
# normalize_2q_order and fuse_2q


def test_normalize_swaps_slots_preserving_action():
    c = Circuit(2)
    c.cx(1, 0)  # control on qubit 1
    out = normalize_2q_order(c)
    (ins,) = out.instructions
    assert ins.qubits == (0, 1)
    assert np.max(np.abs(oracles.lift_matrix(ins.resolved_matrix(), (0, 1), 2)
                         - oracles.lift_matrix(CX, (1, 0), 2))) <= 1e-12


def test_fuse_inverse_pair_to_identity():
    c = Circuit(2)
    c.cx(0, 1)
    c.cx(0, 1)
    out = fuse_2q(normalize_2q_order(c))
    (ins,) = out.instructions
    assert ins.gate is Gate.C2
    assert np.max(np.abs(ins.matrix - np.eye(4))) <= 1e-12


def test_fuse_cx_triple_is_swap():
    c = Circuit(2)
    c.cx(0, 1)
    c.cx(1, 0)
    c.cx(0, 1)
    out, stats = fuse_pipeline(c)
    (ins,) = out.instructions
    assert ins.qubits == (0, 1)
    assert np.max(np.abs(ins.matrix - SWAP)) <= 1e-12
    assert stats.gates_after == 1


def test_fuse_keeps_disjoint_pairs_separate():
    c = Circuit(3)
    c.cx(0, 1)
    c.cx(0, 2)
    out = fuse_2q(normalize_2q_order(c))
    assert gate_count(out) == 2
    assert all(i.gate is Gate.C2 for i in out.instructions)


def test_fuse_flushes_on_shared_qubit():
    c = Circuit(3)
    c.cx(0, 1)
    c.cx(1, 2)
    c.cx(0, 1)
    out = fuse_2q(normalize_2q_order(c))
    assert gate_count(out) == 3


def test_fuse_respects_walls():
    c = Circuit(2, [("c", 1)])
    c.cx(0, 1)
    c.measure(1, 0)
    c.reset(1)
    c.cx(0, 1)
    out = fuse_2q(normalize_2q_order(c))
    assert gate_count(out) == 2


# ---------------------------------------------------------------------------
# pipeline


def test_pipeline_reports_four_passes():
    c = Circuit(2)
    c.h(0)
    c.cx(0, 1)
    out, stats = fuse_pipeline(c)
    assert [p.name for p in stats.per_pass] == [
        "merge_1q", "absorb_1q", "normalize_2q_order", "fuse_2q"]
    assert stats.gates_before == 2
    assert stats.gates_after == 1
    counts = [stats.gates_before] + [p.gates_after for p in stats.per_pass]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert stats.reduction_factor == pytest.approx(2.0)
    d = stats.to_dict()
    assert set(d) == {"gates_before", "gates_after", "reduction_factor", "per_pass"}
    assert len(d["per_pass"]) == 4


def test_pipeline_counts_each_circuit_once(monkeypatch):
    rng = np.random.default_rng(3)
    c = oracles.random_filter_shaped_circuit(rng, n_system=3, n_blocks=2,
                                             gates_per_block=12)
    # reference: every pass's input and output counted on its own
    current, want = c, []
    for name, fn in (("merge_1q", merge_1q), ("absorb_1q", absorb_1q),
                     ("normalize_2q_order", normalize_2q_order), ("fuse_2q", fuse_2q)):
        nxt = fn(current)
        want.append((name, gate_count(current), gate_count(nxt)))
        current = nxt
    scanned = []
    monkeypatch.setattr(fusion, "gate_count",
                        lambda circuit: scanned.append(circuit) or circuit.gate_count())
    _, stats = fuse_pipeline(c)
    assert len(scanned) == 1  # the input only: the passes drop only gates
    assert [(p.name, p.gates_before, p.gates_after) for p in stats.per_pass] == want
    assert (stats.gates_before, stats.gates_after) == (want[0][1], want[-1][2])


@pytest.mark.parametrize("slot", [0, 1])
def test_lift_equals_kron(slot):
    rng = np.random.default_rng(slot)
    for v in [H, X, oracles.random_unitary(rng, 2), rng.normal(size=(2, 2)) + 0j]:
        want = np.kron(I2, v) if slot == 0 else np.kron(v, I2)
        assert np.array_equal(gates._lift(v, (slot,), 2), want)


def test_pipeline_output_is_only_payloads_and_markers():
    rng = np.random.default_rng(4)
    c = oracles.random_filter_shaped_circuit(rng, n_system=3, n_blocks=2,
                                             gates_per_block=12)
    out, _ = fuse_pipeline(c)
    allowed = {Gate.C1, Gate.C2, Gate.MEASURE, Gate.RESET, Gate.BARRIER}
    assert {i.gate for i in out.instructions} <= allowed
    for ins in out.instructions:
        if ins.is_gate:
            m = ins.matrix
            assert np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) <= 1e-10


def test_pipeline_single_h_becomes_one_c1():
    c = Circuit(1)
    c.h(0)
    out, stats = fuse_pipeline(c)
    assert [i.gate for i in out.instructions] == [Gate.C1]
    assert stats.gates_before == 1 and stats.gates_after == 1
    assert stats.reduction_factor == pytest.approx(1.0)


def test_pipeline_on_marker_only_circuit():
    c = Circuit(2, [("c", 1)])
    c.barrier()
    c.measure(0, 0)
    out, stats = fuse_pipeline(c)
    assert stats.gates_before == 0 and stats.gates_after == 0
    assert stats.reduction_factor == 1.0
    assert [i.gate for i in out.instructions] == [Gate.BARRIER, Gate.MEASURE]


def test_pipeline_is_idempotent():
    rng = np.random.default_rng(6)
    c = oracles.random_filter_shaped_circuit(rng, n_system=3, n_blocks=2,
                                             gates_per_block=10)
    once, stats1 = fuse_pipeline(c)
    twice, stats2 = fuse_pipeline(once)
    assert stats2.gates_before == stats2.gates_after == stats1.gates_after
    assert [i.key() for i in twice.instructions] == [i.key() for i in once.instructions]
    for a, b in zip(twice.instructions, once.instructions):
        if a.matrix is not None:
            assert np.max(np.abs(a.matrix - b.matrix)) <= 1e-12


@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_pipeline_preserves_semantics(seed):
    rng = np.random.default_rng(seed)
    c = Circuit(4, [("c", 2)])
    oracles.random_gates(rng, c, 30)
    c.barrier()
    oracles.random_gates(rng, c, 10)
    out, _ = fuse_pipeline(c)
    assert_same_action(c, out)


def test_pipeline_preserves_assert_probs():
    rng = np.random.default_rng(12)
    c = oracles.random_filter_shaped_circuit(rng, n_system=3, n_blocks=3,
                                             gates_per_block=10)
    fused, stats = fuse_pipeline(c)
    plain = run(c, "mma", shots=16, seed=1, ancilla=3)
    opt = run(fused, "mma", shots=16, seed=1, ancilla=3)
    assert opt.assert_probs == pytest.approx(plain.assert_probs, abs=1e-9)
    assert opt.samples == plain.samples
    assert stats.gates_after <= stats.gates_before


# ---------------------------------------------------------------------------
# the memoized passes against the per-gate reference passes


def _payload_pool(rng, n):
    """Instructions to draw circuits from: named 1q/2q gates on either
    operand order, 3-qubit gates, C1/C2 payloads and measure/reset/barrier."""
    c = Circuit(n, [("c", 2)])
    oracles.random_gates(rng, c, 12, p_two=0.5)
    c.gate_op(Gate.CCX, tuple(int(q) for q in rng.permutation(n)[:3]))
    c.gate_op(Gate.CSWAP, (0, 1, 2))
    c.fused_1q(oracles.random_unitary(rng, 2), int(rng.integers(n)))
    a, b = rng.choice(n, size=2, replace=False)
    c.fused_2q(oracles.random_unitary(rng, 4), int(a), int(b))
    c.measure(int(rng.integers(n)), 1)
    c.reset(int(rng.integers(n)))
    c.barrier()
    c.barrier(int(rng.integers(n)))
    return c.instructions


def _count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args):
        calls.append(None)
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def _assert_same_circuit(got, want):
    assert [i.key() for i in got.instructions] == [i.key() for i in want.instructions]
    for a, b in zip(got.instructions, want.instructions):
        assert (a.matrix is None) == (b.matrix is None)
        if a.matrix is not None:
            assert np.array_equal(a.matrix, b.matrix)


@given(seed=st.integers(0, 2 ** 32 - 1), shared=st.booleans())
@settings(max_examples=60, deadline=None)
def test_passes_match_per_gate_reference(seed, shared):
    """Each pass and the pipeline give the reference's instructions, bit for
    bit, on repeated slices of shared or freshly built instructions."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 5))
    pool = _payload_pool(rng, n)
    # mostly 1q gates, so runs of unmerged 1q gates meet 2q gates
    weights = np.array([3.0 if i.is_gate and len(i.qubits) == 1 else 1.0 for i in pool])
    picks = rng.choice(len(pool), size=int(rng.integers(4, 16)), p=weights / weights.sum())
    body = [pool[k] for k in picks] * int(rng.integers(1, 5))
    c = Circuit(n, [("c", 2)])
    c.append_run(body if shared else [oracles.fresh_copy(i) for i in body], 1)

    current = c
    for fn in (merge_1q, absorb_1q, normalize_2q_order, fuse_2q):
        got = fn(current)
        _assert_same_circuit(got, getattr(oracles, fn.__name__)(current))
        current = got
    # absorb_1q also meets consecutive unmerged 1q gates when run first
    _assert_same_circuit(absorb_1q(c), oracles.absorb_1q(c))
    got, stats = fuse_pipeline(c)
    want, want_stats = oracles.fuse_pipeline(c)
    _assert_same_circuit(got, want)
    assert stats == want_stats


@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_passes_drop_only_the_gates_they_fold(seed):
    """fuse_pipeline counts only its input: across each pass the drop in
    instruction count must be the drop in gate_count."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 6))
    pool = _payload_pool(rng, n)
    picks = rng.choice(len(pool), size=int(rng.integers(0, 40)))
    c = Circuit(n, [("c", 2)])
    c.append_run([pool[k] for k in picks], 1)
    current = c
    for fn in (merge_1q, absorb_1q, normalize_2q_order, fuse_2q):
        out = fn(current)
        dropped = len(current.instructions) - len(out.instructions)
        assert dropped == gate_count(current) - gate_count(out) >= 0
        current = out


@pytest.mark.parametrize("repeated", [False, True], ids=["flat", "run"])
@pytest.mark.parametrize("chains", list(itertools.product(range(1, 5), repeat=2)),
                         ids="{0[0]}-{0[1]}".format)
def test_absorb_repeats_sweeps_while_needed(monkeypatch, chains, repeated):
    """k unmerged 1q gates right before a 2q gate take k sweeps: each sweep
    folds the last of them, and says so while another one is left."""
    rng = np.random.default_rng(7)
    body = [Instruction(Gate.RY, (q,), (float(rng.uniform(-np.pi, np.pi)),))
            for q, k in enumerate(chains) for _ in range(k)]
    body.append(Instruction(Gate.CX, (0, 1)))
    c = Circuit(2)
    c.append_run(body, 3 if repeated else 1)
    sweeps = _count_calls(monkeypatch, fusion, "_absorb_sweep")
    got, want = absorb_1q(c).instructions, oracles.absorb_1q(c).instructions
    assert [i.key() for i in got] == [i.key() for i in want]
    assert [i.resolved_matrix().tobytes() for i in got] == \
        [i.resolved_matrix().tobytes() for i in want]
    assert len(sweeps) == max(chains)


# ---------------------------------------------------------------------------
# work done per distinct instruction, counted


def test_fresh_products_do_not_grow_with_trotter_count(monkeypatch):
    memos = []

    class Recorded(fusion._Memo):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            memos.append(self)

    monkeypatch.setattr(fusion, "_Memo", Recorded)
    counts = []
    for trotter in (2, 50):
        memos.clear()
        fuse_pipeline(oracles.chain_filter_circuit(7, 6, trotter))
        assert len(memos) == 4  # one per pass call
        # every memo entry is one matrix computed afresh
        counts.append([(len(m._product), len(m._lift)) for m in memos])
    assert counts[0] == counts[1]
    assert sum(p for p, _ in counts[0]) > 0


def test_absorb_sweeps_once_on_merged_filter_circuit(monkeypatch):
    merged = merge_1q(oracles.chain_filter_circuit(3, 2, 4))
    sweeps = _count_calls(monkeypatch, fusion, "_absorb_sweep")
    _assert_same_circuit(absorb_1q(merged), oracles.absorb_1q(merged))
    assert len(sweeps) == 1


def test_pipeline_payloads_are_read_only():
    c = oracles.chain_filter_circuit(3, 2, 4)
    out, _ = fuse_pipeline(c)
    payloads = [i.matrix for i in out.instructions if i.matrix is not None]
    assert payloads and not any(m.flags.writeable for m in payloads)
