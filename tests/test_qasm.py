"""OpenQASM 2.0 parser and emitter."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from nucsim import (Circuit, PauliHamiltonian, TrialState, build_filter_circuit,
                    default_schedule, emit_qasm, fuse_pipeline, parse_qasm, qasm)
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
    (HEADER + "qreg q[2];\nrz(1e999) q[0];\n", 4, "rz has a non-finite angle"),
    (HEADER + "qreg q[2];\nrx(1e999) q[0];\n", 4, "column 1: rx has a non-finite angle"),
    (HEADER + "qreg q[2];\nu3(0, 1e308*10-1e308*10, 0) q[0];\n", 4, "non-finite"),
    (HEADER + "creg c[1];\ncreg c[2];\nqreg q[1];\n", 4,
     "column 6: duplicate register name 'c'"),
    (HEADER + "qreg q[1];\ncreg c[1];\ncreg c[2];\n", 5,
     "column 6: classical register 'c' already declared"),
    (HEADER + "creg c[1];\nmeasure q[0] -> c[0];\nqreg q[1];\n", 4,
     "column 1: statement before any qreg declaration"),
    (HEADER + "reset q[0];\nqreg q[1];\n", 3, "column 1: statement before any qreg"),
    (HEADER + "  barrier q;\nqreg q[1];\n", 3, "column 3: statement before any qreg"),
    (HEADER + "qreg q[1];\ncreg c[0];\n", 4, "column 6: register size must be positive"),
    (HEADER + "qreg q;\n", 3, "column 6: expected a register size"),
    (HEADER + "qreg q[2];\ngate foo a;\n", 4, "user-defined gate blocks are not supported"),
    (HEADER + "qreg q[2];\nopaque foo a;\n", 4, "user-defined gate blocks are not supported"),
    (HEADER + "qreg q[2];\ncreg c[2];\nmeasure p[0] -> c[0];\n", 5,
     "column 9: unknown quantum register 'p'"),
    (HEADER + "qreg q[2];\ncreg c[2];\nmeasure q -> c[0];\n", 5,
     "measure needs both sides indexed or both whole registers"),
    (HEADER + "qreg q[2];\ncreg c[2];\nmeasure q[5] -> c[0];\n", 5, "q[5] out of range"),
    pytest.param(HEADER + "qreg q[1];\n  rz(" + "(" * 250 + "1" + ")" * 250 + ") q[0];\n", 4,
                 "column 3: rz has an angle expression nested too deeply", id="deep-parentheses"),
    pytest.param(HEADER + "qreg q[1];\nu3(0, " + "-" * 1000 + "1, 0) q[0];\n", 4,
                 "column 1: u3 has an angle expression nested too deeply", id="deep-unary-minus"),
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
    c = Circuit(3, [("c", 1)])
    c.h(0)
    c.measure(0, 0)
    c.reset(1)
    c.barrier(0, 1)
    lines = emit_qasm(c).strip().split("\n")
    assert lines[0] == "OPENQASM 2.0;"
    assert lines[1] == 'include "qelib1.inc";'
    assert lines[2] == "qreg q[3];"
    assert lines[3] == "creg c[1];"
    assert lines[4] == "h q[0];"
    assert lines[5] == "measure q[0] -> c[0];"
    assert lines[6] == "reset q[1];"
    assert lines[7] == "barrier q[0], q[1];"
    assert len(lines) == 8


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
# parse_qasm, which reuses repeated statement lines, against the former
# token parser (oracles.parse_qasm)


def assert_same_circuit(a, b):
    assert a.n_qubits == b.n_qubits
    assert a.cregs == b.cregs
    assert [i.key() for i in a.instructions] == [i.key() for i in b.instructions]


def assert_parses_as_oracle(text):
    """parse_qasm gives the oracle parser's circuit, or its error message,
    line and column."""
    try:
        want = oracles.parse_qasm(text)
    except QasmError as exc:
        with pytest.raises(QasmError) as got:
            parse_qasm(text)
        assert (str(got.value), got.value.line, got.value.col) == \
            (str(exc), exc.line, exc.col)
    else:
        assert_same_circuit(parse_qasm(text), want)


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
def test_parse_matches_oracle_parser_on_emitted_text(circuit):
    text = emit_qasm(circuit)
    assert_same_circuit(parse_qasm(text), oracles.parse_qasm(text))
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
    # repeated lines, which the parser reuses
    "h\nq[0];\nh\nq[0];\nh q[0];\nh\nq[0];\n",   # a statement split over two lines
    "h q[0]; cx q[0], q[1];\nh q[0]; cx q[0], q[1];\n",  # two statements on one line
    "creg d[3];\nmeasure q -> d;\nx q[1];\nmeasure q -> d;\n",
    "measure q[1] -> c[1];\ncreg d[1];\nmeasure q[1] -> c[1];\nmeasure q[0] -> d[0];\n",
    "rz(0.5) q[2];\nrz(0.5) q[2];\nrz(0.5) q[3];\n",  # an error after a repeat
    "h q[0];\nx q[1];\nh q[0];\nx q[1];\nh q[0];",  # no final newline, a repeat last
    "h q[0];\nh q[0];\nh q[0]; $\n",      # a repeat, then a bad character
    "h q[0];\nh q[0] // open\n;\nh q[0] // open\n;\n",
    "h q[0]; h q[0];\nh q[0];\nh q[0]; h q[0];\n",
    "barrier q;\nh q[0];\nbarrier q;\nreset q;\nreset q;\n",
    "h q[0];\nh q[0];\nh q[5];\nh q[0]; @\n",    # a parse error before a bad character
    "qreg q[3];\nh q[0];\n",             # a second qreg
    "creg d[1];\ncreg d[1];\n",           # a repeated creg line
    # a split statement whose two lines hold equally many tokens
    "rz(-pi)\nq[0];\nrz(-pi)\nq[1];\n",
])
def test_fast_path_agrees_with_token_parser_near_canonical_form(body):
    """Text near the emitted form, with and without repeated lines: parse_qasm
    and the oracle parser give the same circuit or the same error."""
    for text in (_CANON + body, (_CANON + body).replace("\n", "\r\n")):
        assert_parses_as_oracle(text)


def test_parse_shares_one_instruction_per_distinct_line():
    c = Circuit(2, [("c", 1)])
    for _ in range(3):
        c.h(0)
        c.cx(0, 1)
    c.measure(1, 0)
    parsed = parse_qasm(emit_qasm(c))
    assert len({id(i) for i in parsed.instructions}) == 3
    assert_same_circuit(parsed, c)


def test_parse_tokenizes_each_distinct_line_once(monkeypatch):
    text = emit_qasm(oracles.chain_filter_circuit(3, 2, 8))
    lines = []
    tokenize = qasm._tokenize
    monkeypatch.setattr(qasm, "_tokenize",
                        lambda line, number: lines.append(line) or tokenize(line, number))
    parsed = parse_qasm(text)
    assert len(text.split("\n")) > 2 * len(set(text.split("\n")))  # repeats to reuse
    assert sorted(lines) == sorted(set(text.split("\n")))
    assert_same_circuit(parsed, oracles.parse_qasm(text))


_LINES = st.sampled_from([
    "h q[0];", "cx q[0], q[1];", "rz(pi/4) q[2];", "rz(0.5) q[1]; // c", "measure q -> c;",
    "measure q[1] -> c[0];", "measure q[0] -> d[1];", "reset q;", "barrier q[0], q[2];",
    "creg d[2];", "creg c[3];", "qreg r[2];", "h q[0]; x q[1];", "h", "q[1];", "rz(", "0.25)",
    "", "  ", "// note", "h q[3];", "cx q[1], q[1];", "rz(1/0) q[0];", "foo q[0];", "h q[0] $",
    "OPENQASM 2.0;", "if", ";",
])


_HEADS = st.sampled_from([
    HEADER + "qreg q[3];\ncreg c[2];",
    'OPENQASM 2.0; include "qelib1.inc"; qreg q[3]; creg c[2]; h q[0];',
    "OPENQASM 2.0;\nqreg q[3]; creg c[2];",   # no include line
    "OPENQASM 2.0;\ncreg c[2];",              # no qreg yet
    "OPENQASM 2.0;",
])


@given(head=_HEADS, lines=st.lists(_LINES, max_size=12), crlf=st.booleans(),
       final=st.booleans())
@settings(max_examples=300, deadline=None)
def test_parse_agrees_with_oracle_on_hand_written_lines(head, lines, crlf, final):
    """Valid, split, failing and repeated lines in any order: the same circuit
    or the same first error as the oracle parser."""
    text = "\n".join([head] + lines) + ("\n" if final else "")
    assert_parses_as_oracle(text.replace("\n", "\r\n") if crlf else text)


@pytest.mark.parametrize("decompose", [False, True])
def test_emit_once_per_distinct_instruction_matches_per_line(decompose, monkeypatch):
    c = oracles.chain_filter_circuit(3, 2, 8)
    if decompose:
        c, _ = fuse_pipeline(c)
    # every line formatted on its own: each instruction and payload a new object
    fresh = c.copy_empty()
    fresh.append_run([oracles.fresh_copy(i) for i in c.instructions], 1)
    want = emit_qasm(fresh, decompose=decompose)
    ladders = []
    decompose_c2 = qasm.decompose_c2
    monkeypatch.setattr(qasm, "decompose_c2",
                        lambda u, a, b: ladders.append(u) or decompose_c2(u, a, b))
    assert len({id(i) for i in c.instructions}) < len(c.instructions)  # repeats to reuse
    assert emit_qasm(c, decompose=decompose) == want
    assert len(ladders) == len({id(i.matrix) for i in c.instructions if i.gate is Gate.C2})


# ---------------------------------------------------------------------------
# repeated runs of lines, which parse_qasm holds as repeated runs

_RUN_HEAD = HEADER + "qreg q[3];\ncreg c[3];"
_ONE = {  # a line of one statement -> the instructions it appends
    "h q[0];": 1, "cx q[0], q[1];": 1, "rz(pi/4) q[2];": 1, "rz(0.5) q[1]; // c": 1,
    "measure q[1] -> c[0];": 1, "measure q -> c;": 3, "reset q;": 3, "reset q[2];": 1,
    "barrier q[0], q[2];": 1, "barrier q;": 1,
}
_TWO = ["h q[0]; x q[1];", "cx q[1], q[2]; rz(0.25) q[0];"]  # a fresh parse each time
_NONE = ["", "  ", "// note"]
_FAULTS = ["h q[0]; $", "x q[1] @", "h q[3];", "cx q[1], q[1];", "measure q[0] -> e[0];",
           "creg d[1];"]  # the creg line fails only when repeated
_RUN_LINE = st.one_of(st.sampled_from(sorted(_ONE)), st.sampled_from(_NONE),
                      st.sampled_from(_TWO))


@st.composite
def repeated_blocks(draw):
    """Lines in blocks repeated 1-6 times, each after 0-3 other lines; at
    times a faulty line inside a block, or anywhere."""
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        lines += draw(st.lists(_RUN_LINE, max_size=3))
        block = draw(st.lists(_RUN_LINE, min_size=1, max_size=5))
        if draw(st.integers(0, 9)) == 0:
            block.insert(draw(st.integers(0, len(block))), draw(st.sampled_from(_FAULTS)))
        lines += block * draw(st.integers(1, 6))
    if draw(st.integers(0, 5)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_FAULTS)))
    return lines


def _line_tags(lines):
    """For each instruction the lines append, what it is shared with: the
    same text's instructions for a line of one statement, nothing else."""
    tags = []
    for at, line in enumerate(lines):
        if line in _ONE:
            tags += [(line, j) for j in range(_ONE[line])]
        elif line in _TWO:
            tags += [(at, 0), (at, 1)]
    return tags


@given(lines=repeated_blocks(), crlf=st.booleans())
@settings(max_examples=300, deadline=None)
def test_repeated_blocks_parse_as_the_oracle_parser(lines, crlf):
    """The same instructions, or the same first error, as the oracle parser;
    one set of objects per distinct line of one statement."""
    text = "\n".join([_RUN_HEAD, *lines]) + "\n"
    if crlf:
        text = text.replace("\n", "\r\n")
    assert_parses_as_oracle(text)
    try:
        got = parse_qasm(text).instructions
    except QasmError:
        return
    tags = _line_tags(lines)
    ids = [id(ins) for ins in got]
    assert len(ids) == len(tags)
    assert len(set(zip(tags, ids))) == len(set(tags)) == len(set(ids))


def test_a_repeated_creg_line_in_a_repeated_block_still_fails():
    text = _RUN_HEAD + "\n" + "h q[0];\ncreg d[1];\nx q[1];\n" * 3
    with pytest.raises(QasmError, match="already declared") as got:
        parse_qasm(text)
    assert got.value.line == 9
    assert_parses_as_oracle(text)


_PAULI = st.text(alphabet="IXYZ", min_size=1, max_size=4).filter(lambda p: p.strip("I"))


@given(terms=st.lists(st.tuples(_PAULI, st.sampled_from([0.5, 1.0]) | st.floats(0.05, 1.0)),
                      min_size=1, max_size=6),
       steps=st.integers(1, 3), trotter=st.integers(3, 7), seed=st.integers(0, 2 ** 16))
# three 44-line slices, each opening with one 8-line block twice: the slice
# period is found a line late, covering two copies, and the 8-line block
# recurs inside the last one; it must not cut that run flat
@example(terms=[("IX", 0.5), ("IZ", 0.5), ("XX", 0.5), ("XY", 0.5)], steps=1, trotter=3, seed=0)
@settings(max_examples=80, deadline=None)
def test_filter_text_parses_to_one_run_per_step(terms, steps, trotter, seed):
    """Whatever line of a Trotter slice its period is found at, each filter
    step of an emitted filter circuit parses to one run holding at least
    trotter - 1 slices.  Equal coefficients make lines recur inside a slice;
    a slice made of two equal halves may parse as twice as many halves."""
    n = len(terms[0][0])
    padded = {p.ljust(n, "I")[:n]: c for p, c in terms}
    h = PauliHamiltonian(n, {p: c for p, c in padded.items() if p.strip("I")})
    basis = "".join("01"[(seed >> q) & 1] for q in range(n))
    circuit = build_filter_circuit(h, default_schedule(0.5, steps), trotter,
                                   TrialState.basis(basis), n)
    (slice_len,) = {len(body) for body, count in circuit.runs if count > 1}
    parsed = parse_qasm(emit_qasm(circuit))
    spans = [len(body) * count for body, count in parsed.runs if count > 1]
    assert len([span for span in spans if span >= (trotter - 1) * slice_len]) == steps
    assert [i.key() for i in parsed.instructions] == [i.key() for i in circuit.instructions]


def test_deep_filter_text_parses_to_about_its_built_runs():
    """8 qubits, six steps of 50 Trotter slices, 35,000 gates: the parsed
    runs hold at most twice the instructions of the built circuit's, a step's
    slice once in its run and once split around it."""
    circuit = oracles.chain_filter_circuit(7, 6, 50)
    parsed = parse_qasm(emit_qasm(circuit))
    assert parsed.gate_count() == circuit.gate_count() > 35000
    assert sum(len(body) for body, _ in parsed.runs) <= \
        2 * sum(len(body) for body, _ in circuit.runs) < 1500
    counts = [count for _, count in parsed.runs if count > 1]
    assert len(counts) == 6 and min(counts) >= 49
