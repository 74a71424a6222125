"""OpenQASM 2.0 subset: parser and deterministic emitter.

Accepted input: the 2.0 header with the qelib1 include, exactly one qreg,
any number of named cregs, the qelib1 gate names of this package's gate
vocabulary, measure/reset/barrier (indexed or whole-register forms), and
``//`` comments.  Angle expressions allow decimal and scientific literals,
``pi``, unary sign, parentheses and ``+ - * /``; they are folded to doubles
at parse time.  User ``gate`` blocks, ``if``, and ``opaque`` are rejected.
The quantum and classical registers share one namespace.  Errors carry a
line and column.

Text in exactly the form the emitter writes (its header, ``qreg q[n];``,
``creg`` lines, then one statement per line with single spaces, numeric
angles and no comments) is read line by line: each distinct line is
matched and checked once, as Circuit.append checks it, and repeated lines
share one frozen instruction.  At the first line in any other form the
token parser parses the whole text again, so it is the only source of
errors and the only path for hand-written QASM.

The emitter writes one instruction per line with angles at 17 significant
digits, so parse(emit(parse(text))) reproduces parse(text) exactly.  It
refuses a circuit with a classical register named ``q``, the name it gives
the quantum register.  Fused C1/C2 payloads have no OpenQASM name; with
``decompose=True`` a C1 emits as one u3 and a C2 as a cosine-sine ladder
(two cx, two rzz, single-qubit layers), both exact up to global phase.
"""

from __future__ import annotations

import cmath
import math
import re

import numpy as np

from .circuit import Circuit, Instruction
from .errors import QasmError
from .gates import QASM_NAMES, Gate

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
            values = [self._expr()]
            while self._peek().text == ",":
                self._next()
                values.append(self._expr())
            self._expect("SYM", ")")
            params = tuple(values)
        if len(params) != gate.n_params:
            self._error(f"{gate.value} expects {gate.n_params} parameter(s), got {len(params)}",
                        name_tok)
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


# ---------------------------------------------------------------------------
# fast path for emitted text

_EMITTED_QREG = re.compile(r"qreg q\[([0-9]+)\];")
_EMITTED_CREG = re.compile(r"creg ([A-Za-z_][A-Za-z0-9_]*)\[([0-9]+)\];")
# name, optional (params), operands (q[i], q[j] or the whole register q),
# optional -> creg[k] of a measure
_EMITTED_OP = re.compile(
    r"([a-z][a-z0-9]*)(?:\(([^()]*)\))? (q|q\[[0-9]+\](?:, q\[[0-9]+\])*)"
    r"(?: -> ([A-Za-z_][A-Za-z0-9_]*)\[([0-9]+)\])?;")
# the literals the tokenizer reads as one optional '-' and a REAL or INT
_EMITTED_NUMBER = re.compile(r"-?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def _emitted_instruction(line: str, n_qubits: int,
                         clbits: dict[str, tuple[int, int]]) -> Instruction | None:
    """The instruction of one emitted statement line, checked as
    Circuit.append checks it, or None for any other line."""
    m = _EMITTED_OP.fullmatch(line)
    if m is None:
        return None
    name, params, operands, creg, cindex = m.groups()
    if operands == "q":
        if name != "barrier" or params is not None or creg is not None:
            return None
        return Instruction(Gate.BARRIER, tuple(range(n_qubits)))
    qubits = tuple(int(k) for k in operands[2:-1].split("], q["))
    if max(qubits) >= n_qubits or len(set(qubits)) != len(qubits):
        return None
    if creg is not None:
        if name != "measure" or params is not None or len(qubits) != 1 \
                or creg not in clbits:
            return None
        base, size = clbits[creg]
        if int(cindex) >= size:
            return None
        return Instruction(Gate.MEASURE, qubits, cbit=base + int(cindex))
    if name in ("reset", "barrier"):
        if params is not None or (name == "reset" and len(qubits) != 1):
            return None
        return Instruction(Gate.RESET if name == "reset" else Gate.BARRIER, qubits)
    gate = QASM_NAMES.get(name)
    if gate is None or len(qubits) != gate.n_qubits:
        return None
    values: tuple[float, ...] = ()
    if params is not None:
        texts = params.split(",")
        if not all(_EMITTED_NUMBER.fullmatch(t) for t in texts):
            return None
        values = tuple(float(t) for t in texts)
    if len(values) != gate.n_params:
        return None
    return Instruction(gate, qubits, values)


def _parse_emitted(text: str) -> Circuit | None:
    """The circuit of text written exactly as emit_qasm writes it, or None
    at the first line in any other form.  Identical statement lines share
    one (frozen) instruction."""
    lines = text.split("\n")
    if len(lines) < 4 or lines[0] != "OPENQASM 2.0;" \
            or lines[1] != 'include "qelib1.inc";' or lines[-1] != "":
        return None
    m = _EMITTED_QREG.fullmatch(lines[2])
    if m is None or int(m[1]) < 1:
        return None
    n_qubits = int(m[1])
    cregs: list[tuple[str, int]] = []
    clbits: dict[str, tuple[int, int]] = {}  # name -> (first flat bit, size)
    pos, base = 3, 0
    while (m := _EMITTED_CREG.fullmatch(lines[pos])) is not None:
        name, size = m[1], int(m[2])
        if size < 1 or name == "q" or name in clbits:
            return None
        clbits[name] = (base, size)
        cregs.append((name, size))
        pos, base = pos + 1, base + size
    circuit = Circuit(n_qubits, cregs)
    instrs = circuit.instructions
    seen: dict[str, Instruction] = {}
    for line in lines[pos:-1]:
        ins = seen.get(line)
        if ins is None:
            ins = _emitted_instruction(line, n_qubits, clbits)
            if ins is None:
                return None
            seen[line] = ins
        instrs.append(ins)
    return circuit


def parse_qasm(text: str) -> Circuit:
    """Parse OpenQASM 2.0 text into a Circuit.

    Text in exactly the form emit_qasm writes takes a line-by-line fast
    path; anything else, and every error, goes through the token parser."""
    circuit = _parse_emitted(text)
    return circuit if circuit is not None else _Parser(text).parse()


# ---------------------------------------------------------------------------
# emitter


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _zyz_u3(u: np.ndarray) -> tuple[float, float, float]:
    """Angles with u3(theta, phi, lam) = u up to global phase."""
    a, b = abs(u[0, 0]), abs(u[1, 0])
    theta = 2.0 * math.atan2(b, a)
    if b <= 1e-12:
        return 0.0, 0.0, cmath.phase(u[1, 1]) - cmath.phase(u[0, 0])
    if a <= 1e-12:
        return math.pi, cmath.phase(u[1, 0]), cmath.phase(-u[0, 1])
    gamma = cmath.phase(u[0, 0])
    return theta, cmath.phase(u[1, 0]) - gamma, cmath.phase(-u[0, 1]) - gamma


def _eig2_unitary(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvector columns of a 2x2 unitary."""
    if abs(m[0, 1]) + abs(m[1, 0]) <= 1e-12:
        return np.array([m[0, 0], m[1, 1]]), np.eye(2, dtype=complex)
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = cmath.sqrt(tr * tr - 4.0 * det)
    lam1, lam2 = (tr + disc) / 2.0, (tr - disc) / 2.0
    v1 = np.array([m[0, 1], lam1 - m[0, 0]])
    v1 = v1 / np.linalg.norm(v1)
    v2 = np.array([-v1[1].conjugate(), v1[0].conjugate()])
    return np.array([lam1, lam2]), np.stack([v1, v2], axis=1)


def _demux_gates(a0: np.ndarray, a1: np.ndarray, act: int, sel: int) -> list[tuple]:
    """Gates applying a0 on `act` when `sel` is 0, a1 when it is 1."""
    vals, w = _eig2_unitary(a0 @ a1.conj().T)
    half = np.array([cmath.phase(v) / 2.0 for v in vals])
    d = np.exp(1j * half)
    g = np.diag(d.conjugate()) @ w.conj().T @ a0
    mu, nu = (half[0] + half[1]) / 2.0, (half[0] - half[1]) / 2.0
    out = [("u3", (act,), _zyz_u3(g))]
    if abs(nu) > 1e-15:
        out.append(("rzz", (act, sel), (-2.0 * nu,)))
    if abs(mu) > 1e-15:
        out.append(("u1", (sel,), (-2.0 * mu,)))
    out.append(("u3", (act,), _zyz_u3(w)))
    return out


def decompose_c2(u: np.ndarray, a: int, b: int) -> list[tuple]:
    """Cosine-sine decomposition of a 4x4 unitary on qubits (a, b) into
    named gates (u3/u1/ry/cx/rzz), exact up to global phase."""
    from scipy.linalg import cossin

    (u1m, u2m), theta, (v1h, v2h) = cossin(np.asarray(u, dtype=complex), p=2, q=2,
                                           separate=True)
    gates: list[tuple] = []
    gates += _demux_gates(v1h, v2h, act=a, sel=b)
    plus, minus = theta[0] + theta[1], theta[0] - theta[1]
    gates.append(("cx", (a, b), ()))
    gates.append(("ry", (b,), (minus,)))
    gates.append(("cx", (a, b), ()))
    gates.append(("ry", (b,), (plus,)))
    gates += _demux_gates(u1m, u2m, act=a, sel=b)
    return gates


def _emit_line(name: str, params: tuple[float, ...], operands: list[str]) -> str:
    head = name if not params else f"{name}({','.join(_fmt(p) for p in params)})"
    return f"{head} {', '.join(operands)};"


def emit_qasm(circuit: Circuit, decompose: bool = False) -> str:
    """Serialize a circuit; requires decompose=True if it holds C1/C2."""
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"qreg q[{circuit.n_qubits}];"]
    for name, size in circuit.cregs:
        if name == "q":
            raise ValueError("classical register 'q' clashes with the emitted quantum register q")
        lines.append(f"creg {name}[{size}];")
    everything = tuple(range(circuit.n_qubits))
    for ins in circuit.instructions:
        g = ins.gate
        if g is Gate.MEASURE:
            reg, offset = circuit.clbit_location(ins.cbit)
            lines.append(f"measure q[{ins.qubits[0]}] -> {reg}[{offset}];")
        elif g is Gate.RESET:
            lines.append(f"reset q[{ins.qubits[0]}];")
        elif g is Gate.BARRIER:
            if ins.qubits == everything:
                lines.append("barrier q;")
            else:
                lines.append(_emit_line("barrier", (), [f"q[{q}]" for q in ins.qubits]))
        elif g is Gate.C1:
            if not decompose:
                raise ValueError("fused payload gates need decompose=True to serialize")
            lines.append(_emit_line("u3", _zyz_u3(ins.matrix), [f"q[{ins.qubits[0]}]"]))
        elif g is Gate.C2:
            if not decompose:
                raise ValueError("fused payload gates need decompose=True to serialize")
            for name, qs, params in decompose_c2(ins.matrix, *ins.qubits):
                lines.append(_emit_line(name, params, [f"q[{q}]" for q in qs]))
        else:
            lines.append(_emit_line(g.value, ins.params, [f"q[{q}]" for q in ins.qubits]))
    return "\n".join(lines) + "\n"
