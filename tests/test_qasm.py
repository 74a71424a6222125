"""OpenQASM 2.0 parser and emitter."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nucsim import Circuit, parse_qasm, emit_qasm, qasm
from nucsim.errors import QasmError
from nucsim.gates import QASM_NAMES, Gate

DATA = Path(__file__).parent / "data"
GOLDEN = sorted(DATA.glob("*.qasm"))

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


def compose_unitary(circuit):
    total = np.eye(2 ** circuit.n_qubits, dtype=complex)
    for ins in circuit.instructions:
        if ins.gate is Gate.BARRIER:
            continue
        assert ins.is_gate
        total = oracles.lift_matrix(ins.resolved_matrix(), ins.qubits,
                                    circuit.n_qubits) @ total
    return total


# ---------------------------------------------------------------------------
# parsing


def test_parse_wide_register_tiny_angle():
    c = parse_qasm(HEADER + "qreg q[21];\ncreg c[11];\nry(7.36183164e-07) q[0];\n")
    assert c.n_qubits == 21
    assert c.n_clbits == 11
    (ins,) = c.instructions
    assert ins.gate is Gate.RY
    assert ins.qubits == (0,)
    assert ins.params == (7.36183164e-07,)


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_golden_corpus_parses(path):
    c = parse_qasm(path.read_text())
    assert c.n_qubits >= 1
    assert c.instructions


def test_filter_block_structure():
    c = parse_qasm((DATA / "filter_block.qasm").read_text())
    assert c.cregs == [("c", 2), ("r", 4)]
    # whole-register measure expands ascending into r's flat offsets
    tail = c.instructions[-4:]
    assert [(i.gate, i.qubits[0], i.cbit) for i in tail] == [
        (Gate.MEASURE, 0, 2), (Gate.MEASURE, 1, 3),
        (Gate.MEASURE, 2, 4), (Gate.MEASURE, 3, 5)]
    barriers = [i for i in c.instructions if i.gate is Gate.BARRIER]
    assert all(i.qubits == (0, 1, 2, 3) for i in barriers)
    rz = next(i for i in c.instructions if i.gate is Gate.RZ)
    assert rz.params[0] == np.pi / 2  # folded from 2*0.78539816339744828
    resets = [i for i in c.instructions if i.gate is Gate.RESET]
    assert [i.qubits for i in resets] == [(3,)]


def test_creg_may_precede_qreg():
    c = parse_qasm((DATA / "creg_before_qreg.qasm").read_text())
    assert c.cregs == [("c", 2)]
    assert c.instructions[-1].cbit == 1


def test_expression_folding():
    c = parse_qasm((DATA / "expressions.qasm").read_text())
    gates = [i for i in c.instructions]
    assert gates[0].params == (np.pi / 2, -np.pi / 4, 3 * np.pi / 4)
    assert gates[1].params == (2.5e-3,)
    assert gates[2].params == (-np.pi,)
    assert gates[3].params == (0.25,)
    assert gates[4].params == (np.pi * (1 / 2 - 1 / 8),)
    assert gates[5].params == (0.1 + 0.2, 0.3 - 0.05)
    assert gates[6].params == (0.25,)


def test_every_gate_name_parses():
    c = parse_qasm((DATA / "all_gates.qasm").read_text())
    seen = {i.gate.value for i in c.instructions if i.is_gate}
    assert seen == set(QASM_NAMES)
    assert sum(1 for i in c.instructions if i.is_gate) == len(QASM_NAMES)


def test_whole_register_reset_and_barrier():
    c = parse_qasm(HEADER + "qreg q[3];\nreset q;\nbarrier q[2],q[0];\n")
    assert [i.key() for i in c.instructions] == [
        (Gate.RESET, (0,), (), None),
        (Gate.RESET, (1,), (), None),
        (Gate.RESET, (2,), (), None),
        (Gate.BARRIER, (2, 0), (), None)]


def test_comments_and_whitespace_ignored():
    text = HEADER + "// lead\nqreg q[1]; // trail\n\n  h   q[0]\n ;\n"
    c = parse_qasm(text)
    assert c.instructions[0].gate is Gate.H


@pytest.mark.parametrize("snippet,line,fragment", [
    ("OPENQASM 3.0;\nqreg q[1];\n", 1, "2.0"),
    (HEADER + "qreg q[1];\nqreg p[1];\n", 4, "one quantum register"),
    (HEADER + "h q[0];\n", 3, ""),
    (HEADER + "qreg q[2];\nfoo q[0];\n", 4, "foo"),
    (HEADER + "qreg q[2];\nrx q[0];\n", 4, ""),
    (HEADER + "qreg q[2];\nh(0.1) q[0];\n", 4, ""),
    (HEADER + "qreg q[2];\ncx q[0],q[0];\n", 4, ""),
    (HEADER + "qreg q[2];\nh q[2];\n", 4, "range"),
    (HEADER + "qreg q[2];\ncreg c[3];\nmeasure q -> c;\n", 5, ""),
    (HEADER + "qreg q[2];\nrz(1/0) q[0];\n", 4, "zero"),
    (HEADER + "qreg q[2];\ncreg c[2];\nmeasure q[0] -> d[0];\n", 5, "d"),
    (HEADER + "qreg q[2];\nh q[0]\nh q[1];\n", 5, ""),
    (HEADER + "qreg q[2];\n@ q[0];\n", 4, "@"),
    (HEADER + "qreg q[2];\ncx q,q[1];\n", 4, ""),
    (HEADER + "qreg q[1];\ncreg q[1];\nmeasure q[0] -> q[0];\n", 4,
     "duplicate register name 'q'"),
    (HEADER + "creg q[1];\nqreg q[1];\n", 4, "duplicate register name 'q'"),
])
def test_errors_carry_position(snippet, line, fragment):
    with pytest.raises(QasmError) as exc:
        parse_qasm(snippet)
    assert exc.value.line == line
    assert f"line {line}" in str(exc.value)
    if fragment:
        assert fragment in str(exc.value)


def test_include_restricted_to_qelib1():
    with pytest.raises(QasmError):
        parse_qasm('OPENQASM 2.0;\ninclude "other.inc";\nqreg q[1];\n')


# ---------------------------------------------------------------------------
# emitting


def test_emitted_header_and_layout():
    c = Circuit(2, [("c", 1)])
    c.h(0)
    c.measure(0, 0)
    lines = emit_qasm(c).strip().split("\n")
    assert lines[0] == "OPENQASM 2.0;"
    assert lines[1] == 'include "qelib1.inc";'
    assert lines[2] == "qreg q[2];"
    assert lines[3] == "creg c[1];"
    assert lines[4] == "h q[0];"
    assert lines[5] == "measure q[0] -> c[0];"


def test_full_width_barrier_prints_register_form():
    c = Circuit(3)
    c.barrier()
    c.barrier(1)
    out = emit_qasm(c)
    assert "barrier q;" in out
    assert "barrier q[1];" in out


def test_creg_named_like_the_emitted_qreg_is_refused():
    c = Circuit(2, [("q", 2)])
    with pytest.raises(ValueError, match="'q'"):
        emit_qasm(c)
    # a valid file whose quantum register has another name
    parsed = parse_qasm(HEADER + "qreg a[2];\ncreg q[2];\nmeasure a[0] -> q[1];\n")
    with pytest.raises(ValueError, match="'q'"):
        emit_qasm(parsed)


def test_seventeen_digit_angles_survive():
    values = [7.36183164e-07, np.pi / 2, 2 / 3, 1.2345678901234567e-3]
    c = Circuit(1)
    for v in values:
        c.ry(v, 0)
    back = parse_qasm(emit_qasm(c))
    assert [i.params[0] for i in back.instructions] == values


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_parse_emit_parse_is_parse(path):
    first = parse_qasm(path.read_text())
    second = parse_qasm(emit_qasm(first))
    assert second.n_qubits == first.n_qubits
    assert second.cregs == first.cregs
    assert [i.key() for i in second.instructions] == [i.key() for i in first.instructions]


def test_payloads_refuse_plain_emission():
    c = Circuit(2)
    c.fused_1q(oracles.random_unitary(np.random.default_rng(0), 2), 0)
    with pytest.raises(ValueError):
        emit_qasm(c)
    c2 = Circuit(2)
    c2.fused_2q(oracles.random_unitary(np.random.default_rng(1), 4), 0, 1)
    with pytest.raises(ValueError):
        emit_qasm(c2)


def test_decomposed_c1_is_single_u3():
    rng = np.random.default_rng(7)
    for _ in range(20):
        u = oracles.random_unitary(rng, 2)
        c = Circuit(1)
        c.fused_1q(u, 0)
        back = parse_qasm(emit_qasm(c, decompose=True))
        assert [i.gate for i in back.instructions] == [Gate.U3]
        assert oracles.phase_distance(compose_unitary(back), u) <= 1e-12


def test_decomposed_c2_matches_payload():
    rng = np.random.default_rng(8)
    for _ in range(20):
        u = oracles.random_unitary(rng, 4)
        c = Circuit(2)
        c.fused_2q(u, 0, 1)
        back = parse_qasm(emit_qasm(c, decompose=True))
        two_q = [i for i in back.instructions if len(i.qubits) == 2]
        assert all(i.gate in (Gate.CX, Gate.RZZ) for i in two_q)
        assert sum(1 for i in two_q if i.gate is Gate.CX) <= 2
        assert sum(1 for i in two_q if i.gate is Gate.RZZ) <= 2
        assert oracles.phase_distance(compose_unitary(back), u) <= 1e-9


def test_decomposed_c2_on_reversed_slots():
    rng = np.random.default_rng(9)
    u = oracles.random_unitary(rng, 4)
    c = Circuit(3)
    c.fused_2q(u, 2, 0)
    back = parse_qasm(emit_qasm(c, decompose=True))
    want = oracles.lift_matrix(u, (2, 0), 3)
    assert oracles.phase_distance(compose_unitary(back), want) <= 1e-9


@given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 25))
@settings(max_examples=40, deadline=None)
def test_round_trip_random_circuits(seed, count):
    rng = np.random.default_rng(seed)
    c = Circuit(4, [("c", 4)])
    oracles.random_gates(rng, c, count)
    c.measure(int(rng.integers(4)), int(rng.integers(4)))
    c.barrier()
    c.reset(0)
    back = parse_qasm(emit_qasm(c))
    assert [i.key() for i in back.instructions] == [i.key() for i in c.instructions]


# ---------------------------------------------------------------------------
# the fast path for emitted text against the token parser


def assert_same_circuit(a, b):
    assert a.n_qubits == b.n_qubits
    assert a.cregs == b.cregs
    assert [i.key() for i in a.instructions] == [i.key() for i in b.instructions]


@st.composite
def emitted_circuits(draw):
    n = draw(st.integers(3, 5))
    cregs = draw(st.lists(st.tuples(st.sampled_from(["c", "r", "m", "meas", "pi"]),
                                    st.integers(1, 4)),
                          max_size=3, unique_by=lambda r: r[0]))
    c = Circuit(n, cregs)
    angle = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, -0.0, 1e-300, 1e300]))
    ops = st.sampled_from(["gate", "gate", "u3", "measure", "reset", "barrier"])
    for op in draw(st.lists(ops, max_size=25)):
        if op == "measure" and c.n_clbits:
            c.measure(draw(st.integers(0, n - 1)), draw(st.integers(0, c.n_clbits - 1)))
        elif op == "reset":
            c.reset(draw(st.integers(0, n - 1)))
        elif op == "barrier":
            qs = draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
            c.barrier(*qs)
        else:
            gate = Gate.U3 if op == "u3" else draw(st.sampled_from(
                sorted(QASM_NAMES.values(), key=lambda g: g.value)))
            if gate.n_qubits > 3:
                gate = Gate.CCX
            qubits = draw(st.lists(st.integers(0, n - 1), min_size=gate.n_qubits,
                                   max_size=gate.n_qubits, unique=True))
            params = tuple(draw(angle) for _ in range(gate.n_params))
            c.gate_op(gate, tuple(qubits), params)
    return c


@given(circuit=emitted_circuits())
@settings(max_examples=60, deadline=None)
def test_fast_path_matches_token_parser_on_emitted_text(circuit):
    text = emit_qasm(circuit)
    fast = qasm._parse_emitted(text)
    assert fast is not None  # emitted text never needs the token parser
    assert_same_circuit(fast, qasm._Parser(text).parse())
    assert_same_circuit(parse_qasm(text), circuit)


_CANON = HEADER + "qreg q[3];\ncreg c[2];\n"


@pytest.mark.parametrize("body", [
    "h q[3];\n",                          # qubit out of range
    "cx q[1], q[1];\n",                   # duplicate operand
    "rz(0.5,0.25) q[0];\n",               # wrong parameter count
    "h(0.5) q[0];\n",
    "ccx q[0], q[1];\n",                  # wrong arity
    "foo q[0];\n",                        # unknown name
    "c2 q[0], q[1];\n",
    "h q[0]\n",                           # missing ;
    "h q[0]; // note\n",                  # trailing comment
    "cx q[0],  q[1];\n",                  # double space
    "rz(pi/2) q[0];\n",                   # expression
    "rz(inf) q[0];\n",                    # a non-finite angle as .17g writes it
    "measure q[0] -> c[2];\n",            # classical bit out of range
    "measure q[0] -> d[0];\n",            # unknown classical register
    "reset q;\n",                         # whole-register reset
    "barrier q[0], q[0];\n",              # repeated barrier operand
    "creg q[1];\n",                       # creg q after qreg q
    "h q[0];\n\nh q[1];\n",               # blank line
    "h q[0];",                             # no final newline
])
def test_fast_path_agrees_with_token_parser_near_canonical_form(body):
    """Lines close to the emitted form take the token parser, and both
    parse_qasm and the token parser give the same circuit or error."""
    for text in (_CANON + body, (_CANON + body).replace("\n", "\r\n")):
        assert qasm._parse_emitted(text) is None
        try:
            want = qasm._Parser(text).parse()
        except QasmError as exc:
            with pytest.raises(QasmError) as got:
                parse_qasm(text)
            assert (str(got.value), got.value.line, got.value.col) == \
                (str(exc), exc.line, exc.col)
        else:
            assert_same_circuit(parse_qasm(text), want)


def test_fast_path_shares_one_instruction_per_distinct_line():
    c = Circuit(2, [("c", 1)])
    for _ in range(3):
        c.h(0)
        c.cx(0, 1)
    c.measure(1, 0)
    parsed = qasm._parse_emitted(emit_qasm(c))
    assert len({id(i) for i in parsed.instructions}) == 3
    assert_same_circuit(parsed, c)
