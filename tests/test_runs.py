"""Circuits held as repeated runs: every stage from build to run handles a
run at the cost of a few copies and gives what the flat walk gives."""

import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nucsim import (Circuit, PauliHamiltonian, TrialState, build_filter_circuit,
                    default_schedule, emit_qasm, fuse_pipeline, ground_state, infer_ancilla,
                    load_hamiltonian_text, parse_qasm, run, shift_rescale)
from nucsim import circuit as circuit_module
from nucsim import cli, engine, fusion
from nucsim.hamiltonian import format_pauli_text
from nucsim.errors import FilterAssertionError, MmaStructureError
from nucsim.gates import Gate

PASSES = ("merge_1q", "absorb_1q", "normalize_2q_order", "fuse_2q")


def assert_same_instructions(got, want):
    """Instruction keys and payload bytes, in order."""
    assert [i.key() for i in got] == [i.key() for i in want]
    for a, b in zip(got, want):
        assert (a.matrix is None) == (b.matrix is None)
        if a.matrix is not None:
            assert a.matrix.tobytes() == b.matrix.tobytes()


def without_wall_time(report) -> dict:
    d = report.to_dict()
    d.pop("wall_time_s")
    return d


def _body(rng, n, kind):
    """One slice: a throwaway circuit's instructions, shared by every copy."""
    c = Circuit(n, [("c", 2)])
    if kind == "cross":  # 1q/2q runs left pending across the copy boundary
        a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
        c.h(a)
        oracles.random_gates(rng, c, int(rng.integers(0, 4)))
        c.cx(a, b)
        c.rz(float(rng.uniform(-3, 3)), b)
        if rng.random() < 0.5:
            c.fused_2q(oracles.random_unitary(rng, 4), a, b)
    elif kind == "drift":  # the carried product changes every copy
        q = int(rng.integers(n))
        c.rx(float(rng.uniform(-3, 3)), q)
        if rng.random() < 0.5:
            c.s(q)
    else:
        oracles.random_gates(rng, c, int(rng.integers(1, 10)), p_two=0.5)
        if rng.random() < 0.3:
            c.fused_1q(oracles.random_unitary(rng, 2), int(rng.integers(n)))
        if rng.random() < 0.2 and n >= 3:
            c.gate_op(Gate.CCX, tuple(int(q) for q in rng.permutation(n)[:3]))
        if rng.random() < 0.15:
            c.barrier(int(rng.integers(n)))
        if rng.random() < 0.1:  # a body that cuts the plan never repeats
            c.reset(int(rng.integers(n)))
    return c.runs[0][0] if c.runs else []


def periodic_circuit(rng, n, n_runs):
    """Runs of 1-6 copies of random slices, with measures, resets and
    barriers between them; the last qubit is the ancilla."""
    anc = n - 1
    c = Circuit(n, [("c", n_runs), ("r", n)])
    for i in range(n_runs):
        kind = ("plain", "cross", "drift")[int(rng.integers(3))]
        c.append_run(_body(rng, n, kind), int(rng.integers(1, 7)))
        between = rng.random()
        if between < 0.4:  # a filter step's end
            c.ry(float(rng.uniform(0.3, 1.2)), anc)
            c.measure(anc, i)
            c.barrier()
            c.reset(anc)
        elif between < 0.55:
            q = int(rng.integers(n))
            c.ry(float(rng.uniform(0.5, 2.6)), q)
            c.reset(q)
        elif between < 0.7:
            c.barrier()
        elif between < 0.75:
            c.measure(int(rng.integers(n)), i)
    for q in range(n):
        c.measure(q, c.clbit_index("r", q))
    return c


def _layout(plan):
    """Each segment's blocks, expanded, by qubits, layout and matrix bytes."""
    return [[(b.qubits, b.shape, b.perm, b.u.tobytes()) for b in seg]
            for seg in oracles.plan_blocks(plan)]


def _outcome(fn):
    try:
        return without_wall_time(fn())
    except (FilterAssertionError, MmaStructureError) as exc:
        return type(exc).__name__, str(exc)


def absorb_sweeps(circuit) -> int:
    """How many sweeps absorb_1q makes on `circuit`."""
    sweep, calls = fusion._absorb_sweep, []

    def counted(*args):
        calls.append(None)
        return sweep(*args)

    fusion._absorb_sweep = counted
    try:
        fusion.absorb_1q(circuit)
    finally:
        fusion._absorb_sweep = sweep
    return len(calls)


def assert_matches_flat_walk(c, seed):
    """Every pass, the pipeline, the plan and the reports of a circuit held
    as runs against those of its expansion: the fusion passes against the
    per-gate oracle passes, the plan and reports against the flat walk."""
    n = c.n_qubits
    flat = oracles.flat_copy(c)
    current = c
    for name in PASSES:
        got = getattr(fusion, name)(current)
        if name == "absorb_1q":
            assert absorb_sweeps(current) == absorb_sweeps(oracles.flat_copy(current))
        want = getattr(oracles, name)(oracles.flat_copy(current))
        assert_same_instructions(oracles.flat_copy(got).instructions, want.instructions)
        current = got
    assert_same_instructions(oracles.flat_copy(fusion.absorb_1q(c)).instructions,
                             oracles.absorb_1q(oracles.flat_copy(c)).instructions)
    assert absorb_sweeps(c) == absorb_sweeps(flat)
    fused, stats = fuse_pipeline(c)
    want, want_stats = oracles.fuse_pipeline(flat)
    assert_same_instructions(oracles.flat_copy(fused).instructions, want.instructions)
    assert stats == want_stats
    assert (c.gate_count(), c.counts_by_width(), c.instruction_count()) == \
        (flat.gate_count(), flat.counts_by_width(), len(flat.instructions))
    assert emit_qasm(c, decompose=True) == emit_qasm(flat, decompose=True)

    ham = PauliHamiltonian(n, {"Z" + "X" * (n - 1): 0.4, "I" * (n - 1) + "Y": 0.3})
    for circ in (c, fused):
        flat_circ = oracles.flat_copy(circ)
        assert infer_ancilla(circ) == infer_ancilla(flat_circ)
        got, want = (engine._compile(x, "rejection", None) for x in (circ, flat_circ))
        assert got.points == want.points and got.n_steps == want.n_steps
        assert _layout(got) == _layout(want)
        for h in (None, ham):
            assert _outcome(lambda: run(circ, "rejection", 40, seed, None, hamiltonian=h)) \
                == _outcome(lambda: oracles.rejection_per_shot(flat_circ, 40, seed, h))
            assert _outcome(lambda: run(circ, "mma", 40, seed, n - 1, hamiltonian=h)) \
                == _outcome(lambda: run(flat_circ, "mma", 40, seed, n - 1, hamiltonian=h))


@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 6), n_runs=st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_random_runs_match_the_flat_walk(seed, n, n_runs):
    assert_matches_flat_walk(periodic_circuit(np.random.default_rng(seed), n, n_runs),
                             seed % 997)


@pytest.mark.parametrize("spins, steps, trotter", [(2, 2, 3), (3, 3, 7), (4, 2, 20)])
def test_filter_circuits_match_the_flat_walk(spins, steps, trotter):
    assert_matches_flat_walk(oracles.chain_filter_circuit(spins, steps, trotter), 7)


def _hand_written(case):
    c = Circuit(5, [("c", 2)])
    body = Circuit(5, [("c", 2)])
    if case == "1q product grows":  # from before the run, absorbed into the cx
        c.cx(0, 1)
        c.h(0)
        body.rx(0.3, 0)
    elif case == "2q product grows":
        body.cx(0, 1)
    elif case == "points in the body":
        body.cx(0, 1)
        body.ry(0.7, 1)
        body.reset(1)
    elif case == "period of two copies":  # 7 copies: one left over
        for q in range(4):
            body.cx(q, q + 1)
    elif case == "sampling block in the last copy":
        body.h(0)
        body.measure(0, 0)
    elif case == "adjacent only across copies":
        body.h(0)
        body.barrier(0)
        body.cx(0, 1)
    elif case == "one block spans every copy":  # 4 qubits: the block never closes
        c.h(3)
        body.barrier(2)
        body.cx(0, 1)
        body.ry(0.3, 2)
        body.cx(1, 2)
    c.append_run(body.runs[0][0], 7)
    if case != "sampling block in the last copy":
        c.h(2)
    return c


@pytest.mark.parametrize("case", ["1q product grows", "2q product grows", "points in the body",
                                  "period of two copies", "sampling block in the last copy",
                                  "adjacent only across copies", "one block spans every copy"])
def test_hand_written_runs_match_the_flat_walk(case):
    assert_matches_flat_walk(_hand_written(case), 3)


def test_block_spanning_every_copy_holds_nothing_per_copy(monkeypatch):
    """On 3 qubits every gate of a filter step fits one block of at most 4,
    so the open block grows through all 1,024 copies of the step's run.
    Once it holds a whole copy, the compile compares nothing at a copy
    boundary: the pairs its carried state holds stay within a small multiple
    of the copy count, where comparing the whole block at every boundary
    holds about 1.9e7.  The plan is the flat walk's."""
    trotter, held = 1024, []
    walk_run = engine.walk_run

    def counting(body, count, cells, walk, carried):
        def counted():
            label, pairs = carried()
            held.append(len(pairs))
            return label, pairs
        return walk_run(body, count, cells, walk, counted)

    monkeypatch.setattr(engine, "walk_run", counting)
    h = PauliHamiltonian(2, {"ZI": 0.15, "IZ": 0.15, "XX": 0.35, "ZZ": -0.5})
    c = build_filter_circuit(h, default_schedule(0.7, 1), trotter, TrialState.basis("00"), 2)
    plan = engine._compile(c, "mma", 2)
    assert 0 < len(held) and sum(held) <= 2 * trotter
    assert _layout(plan) == _layout(engine._compile(oracles.flat_copy(c), "mma", 2))


def test_filter_circuit_stays_in_runs_from_build_to_plan():
    c = oracles.chain_filter_circuit(4, 3, 20)
    assert [count for _, count in c.runs] == [20, 1, 20, 1, 20, 1]
    fused, _ = fuse_pipeline(c)
    plan = engine._compile(fused, "mma", 4)
    for held in (fused.runs, *plan.segments[:-1:2]):  # one segment per step
        # most copies of each step stay one repeated run
        assert max(count for _, count in held) >= 14
    assert fused.instruction_count() > 2 * sum(len(body) for body, _ in fused.runs)


def test_mma_errors_after_a_repeated_run_give_flat_positions():
    c = Circuit(5, [("c", 1)])
    body = Circuit(5)
    for q in range(4):
        body.cx(q, q + 1)
    c.append_run(body.runs[0][0], 20)
    c.measure(4, 0)
    c.h(4)  # between the assertion and its reset
    c.reset(4)
    c.h(0)
    plan = engine._compile(c, "rejection", None)
    assert max(count for _, count in plan.segments[0]) > 5  # a two-copy period
    for circ in (c, oracles.flat_copy(c)):
        with pytest.raises(MmaStructureError,
                           match=r"^measure at instruction 80 lacks a following ancilla reset$"):
            engine._compile(circ, "mma", 4)
    c.runs[-1][0][1:2] = []  # drop the h(4): the pair holds, the next reset does not
    c.reset(4)
    for circ in (c, oracles.flat_copy(c)):
        with pytest.raises(MmaStructureError,
                           match=r"^reset at instruction 83 is not paired with an assertion$"):
            engine._compile(circ, "mma", 4)


def _count_flat_reads(monkeypatch) -> list:
    """The circuits whose flat instruction view is read from now on."""
    reads = []
    view = circuit_module.Circuit.instructions
    monkeypatch.setattr(circuit_module.Circuit, "instructions",
                        property(lambda self: reads.append(self) or view.fget(self)))
    return reads


def test_pipeline_never_expands_its_runs(monkeypatch):
    """build -> fuse_pipeline -> run reads no flat instruction view."""
    reads = _count_flat_reads(monkeypatch)
    h = PauliHamiltonian(3, {"XII": 0.3, "ZZI": 0.2, "IYY": 0.1})
    c = build_filter_circuit(h, default_schedule(0.5, 3), 5, TrialState.basis("010"), 3)
    fused, stats = fuse_pipeline(c)
    energy = PauliHamiltonian(4, {"ZIII": 1.0})
    for mode in ("mma", "rejection"):
        run(fused, mode, 64, 1, infer_ancilla(fused), hamiltonian=energy,
            fusion_stats=stats.to_dict())
    assert reads == []


def test_qasm_path_never_expands_its_runs(monkeypatch, tmp_path, capsys):
    """emit_qasm -> parse_qasm -> fuse_pipeline -> run, and the simulate
    command with and without fusion, read no flat instruction view."""
    reads = _count_flat_reads(monkeypatch)
    text = emit_qasm(oracles.chain_filter_circuit(3, 2, 6))
    parsed = parse_qasm(text)
    assert max(count for _, count in parsed.runs) >= 5
    fused, stats = fuse_pipeline(parsed)
    energy = PauliHamiltonian(4, {"ZIII": 1.0, "IXXI": 0.5})
    for mode in ("mma", "rejection"):
        run(fused, mode, 64, 1, infer_ancilla(parsed), hamiltonian=energy,
            fusion_stats=stats.to_dict())
    qasm_path, ham_path = tmp_path / "filter.qasm", tmp_path / "energy.txt"
    qasm_path.write_text(text, encoding="utf-8")
    ham_path.write_text(format_pauli_text(energy), encoding="utf-8")
    for extra in ([], ["--no-fuse"]):
        assert cli.main(["simulate", "--input", str(qasm_path), "--hamiltonian", str(ham_path),
                         "--shots", "64", *extra]) == 0
    capsys.readouterr()
    assert reads == []


def test_flat_view_leaves_the_runs_unchanged():
    c = Circuit(2)
    c.h(0)
    body = list(c.runs[0][0])
    c.append_run([*body, body[0]], 3)
    c.x(1)
    assert [count for _, count in c.runs] == [1, 3, 1]
    assert (c.gate_count(), c.counts_by_width(), c.instruction_count()) == (8, {1: 8}, 8)
    runs = [(list(b), count) for b, count in c.runs]
    flat = c.instructions
    assert isinstance(flat, tuple) and len(flat) == 8
    assert flat == tuple(ins for b, count in runs for _ in range(count) for ins in b)
    assert c.runs == runs and c.instruction_count() == 8


def _toy_walker(cells):
    """A walk that holds the last cell of each copy open, lower case, until
    the next copy closes it, upper case."""
    held = [None]
    token = object()

    def walk(body):
        if held[0] is not None:
            cells[held[0]] = cells[held[0]].upper()
        cells.extend(body)
        held[0] = len(cells) - 1

    def carried():
        return "toy", [(held[0], token), (None, token)]
    return walk, carried


@pytest.mark.parametrize("count", [1, 2, 3, 4, 9])
def test_walk_run_marks_only_final_cells(count):
    """The carried state repeats after the second copy, while it still holds
    the last cell of that copy: walk_run walks one more copy, which closes
    it, before it marks those cells, and the marks give the flat walk."""
    body = ["a", "b"]
    flat = ["head"]
    walk, _ = _toy_walker(flat)
    for _ in range(count):
        walk(body)
    cells = ["head"]
    walk, carried = _toy_walker(cells)
    walks = []
    mark = circuit_module.walk_run(body, count, cells,
                                   lambda b: (walks.append(None), walk(b)), carried)
    marks = [mark] if mark is not None else []
    if count > 3:
        assert mark == (3, 5, count - 3) and cells[3:5] == ["a", "B"]
        assert len(walks) == 3
    else:
        assert mark is None and len(walks) == count
    pieces = circuit_module.run_pieces(cells, marks)
    assert [x for piece, n in pieces for _ in range(n) for x in piece] == flat


DEPTH_SCRIPT = """
import json, resource, sys
from nucsim import (PauliHamiltonian, TrialState, build_filter_circuit, default_schedule,
                    fuse_pipeline, gate_count, run)
n = 7
terms = {"I" * i + "X" + "I" * (n - i - 1): 0.12 + 0.01 * i for i in range(n)}
terms.update({"I" * i + "ZZ" + "I" * (n - i - 2): 0.08 for i in range(n - 1)})
circuit = build_filter_circuit(PauliHamiltonian(n, terms), default_schedule(0.5, 6),
                               int(sys.argv[1]), TrialState.basis("0" * n), n)
fused, _ = fuse_pipeline(circuit)
report = run(fused, "mma", 64, 3, n)
print(json.dumps({"gates": gate_count(circuit), "probs": report.assert_probs,
                  "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""


def test_ten_million_gates_run_in_constant_memory():
    """build -> fuse_pipeline -> run on 8 qubits, Trotter 14,300 against
    Trotter 1, each in its own process: peak RSS must not follow depth."""
    out = []
    for trotter in (1, 14300):
        proc = subprocess.run([sys.executable, "-c", DEPTH_SCRIPT, str(trotter)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        out.append(json.loads(proc.stdout.splitlines()[-1]))
    shallow, deep = out
    assert deep["gates"] >= 10 ** 7
    assert len(deep["probs"]) == 6 and all(0.0 < p <= 1.0 for p in deep["probs"])
    assert deep["rss_kb"] - shallow["rss_kb"] < 20 * 1024


def test_cli_runs_a_million_gate_filter_through_qasm(tmp_path):
    """nucsim prepare, then nucsim simulate, each in its own process, on an
    8-qubit filter circuit of over 10^6 gates: the report, but for its wall
    time, is that of build_filter_circuit -> fuse_pipeline -> run."""
    n, steps, trotter = 7, 2, 4300
    rng = np.random.default_rng(5)
    terms = {"I" * i + "X" + "I" * (n - i - 1): float(rng.uniform(0.1, 0.2)) for i in range(n)}
    terms.update({"I" * i + "ZZ" + "I" * (n - i - 2): 0.08 for i in range(n - 1)})
    h = PauliHamiltonian(n, terms)
    padded = PauliHamiltonian(n + 1, {s + "I": c for s, c in terms.items()})
    ham, ham_padded = tmp_path / "chain.txt", tmp_path / "chain_padded.txt"
    ham.write_text(format_pauli_text(h), encoding="utf-8")
    ham_padded.write_text(format_pauli_text(padded), encoding="utf-8")
    qasm_path, report_path = tmp_path / "filter.qasm", tmp_path / "report.json"
    for argv in (["prepare", "--hamiltonian", str(ham), "--steps", str(steps),
                  "--trotter", str(trotter), "--output", str(qasm_path)],
                 ["simulate", "--input", str(qasm_path), "--hamiltonian", str(ham_padded),
                  "--shots", "256", "--seed", "11", "--output", str(report_path)]):
        proc = subprocess.run([sys.executable, "-m", "nucsim.cli", *argv],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
    got = json.loads(report_path.read_text(encoding="utf-8"))
    got.pop("wall_time_s")

    loaded = load_hamiltonian_text(ham.read_text(encoding="utf-8"))
    gs = ground_state(loaded)
    circuit = build_filter_circuit(shift_rescale(loaded, gs.energy),
                                   default_schedule(gs.gap, steps), trotter,
                                   TrialState.basis("0" * n), n)
    assert circuit.gate_count() >= 10 ** 6
    fused, stats = fuse_pipeline(circuit)
    want = run(fused, "mma", 256, 11, infer_ancilla(circuit),
               hamiltonian=load_hamiltonian_text(ham_padded.read_text(encoding="utf-8")),
               fusion_stats=stats.to_dict())
    assert got == without_wall_time(want)
