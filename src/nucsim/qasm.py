"""OpenQASM 2.0 subset: parser and deterministic emitter.

Accepted input: the 2.0 header with the qelib1 include, exactly one qreg,
any number of named cregs, the qelib1 gate names of this package's gate
vocabulary, measure/reset/barrier (indexed or whole-register forms), and
``//`` comments.  Angle expressions allow decimal and scientific literals,
``pi``, unary sign, parentheses and ``+ - * /``; they are folded to doubles
at parse time.  User ``gate`` blocks, ``if``, and ``opaque`` are rejected.
The quantum and classical registers share one namespace.  Errors carry a
line and column.

The parser tokenizes one line at a time, as it reaches the line; an
unexpected character anywhere in the text is still the first error.  A line
that held exactly one gate, measure, reset or barrier statement, or no token
at all, is parsed once per parse call: a repeat of it appends the same
(frozen) instructions again without tokenizing it.  A statement depends
only on the one qreg, fixed once declared, and on the cregs, which only
grow, so a repeated line parses the same and cannot fail.  QASM 2.0 has no
loops, so a deep circuit's Trotter slices are written out line by line; the
parser finds them again.  When a line recurs, the distance to one of its
last few occurrences is a candidate period, a comparison of the line texts
confirms it, and the copies that follow are skipped at once and held as
one repeated run of the circuit (see ``circuit``); a shorter repeat that
starts inside a longer run found before it is read line by line instead of
cutting that run.  Only lines of the kind
above go into a run, so a qreg or creg line, a line of several statements
or a statement split over lines ends one.  The flat view holds the same
instruction objects, in the same order, as a line-by-line parse.  Parsing,
and every stage after it, therefore costs per distinct line, not per gate,
on the deep circuits whose evolution block repeats.

The emitter writes one instruction per line with angles at 17 significant
digits, so parse(emit(parse(text))) reproduces parse(text) exactly.  It
refuses a circuit with a classical register named ``q``, the name it gives
the quantum register.  Fused C1/C2 payloads have no OpenQASM name; with
``decompose=True`` a C1 emits as one u3 and a C2 as a cosine-sine ladder
(two cx, two rzz, single-qubit layers), both exact up to global phase.
One emit call formats each run of the circuit once and repeats its lines,
and decomposes each distinct C2 payload once; that memo lives for the call
only.
"""

from __future__ import annotations

import cmath
import math
import re
from collections import deque

import numpy as np

from .circuit import Circuit, Instruction
from .errors import QasmError
from .gates import QASM_NAMES, Gate

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>[ \t\r]+)
  | (?P<COMMENT>//[^\n]*)
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


def _tokenize(text: str, line: int) -> list[_Token]:
    """The tokens of one line (no newline in `text`), numbered `line`."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise QasmError(f"unexpected character {text[pos]!r}", line, pos + 1)
        if m.lastgroup not in ("WS", "COMMENT"):
            tokens.append(_Token(m.lastgroup, m.group(), line, pos + 1))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, check_width=lambda n_qubits: None):
        self.check_width = check_width  # called on the qreg size as it is declared
        self.lines = text.split("\n")
        self.eof = _Token("EOF", "", len(self.lines), len(self.lines[-1]) + 1)
        self.at = 0  # the index of the next line to read
        self.tokens: list[_Token] = []  # the tokens of the last line read
        self.pos = 0
        self.circuit: Circuit | None = None
        self.qreg: tuple[str, int] | None = None
        self.pre_cregs: list[tuple[str, int]] = []

    def _peek(self) -> _Token:
        while self.pos >= len(self.tokens):
            if self.at == len(self.lines):
                return self.eof
            self.tokens, self.pos = _tokenize(self.lines[self.at], self.at + 1), 0
            self.at += 1
        return self.tokens[self.pos]

    def _next(self) -> _Token:
        tok = self._peek()
        self.pos += 1
        return tok

    def _error(self, message: str, tok: _Token | None = None):
        tok = tok or self._peek()
        # an unexpected character anywhere in the text is the first error
        for at in range(self.at, len(self.lines)):
            _tokenize(self.lines[at], at + 1)
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

    def _qubits(self, name: str, index: int | None, tok: _Token,
                note: str = "") -> list[int] | range:
        """A quantum operand as [index], or the whole register when it has
        no index; `note` ends the out-of-range message."""
        if name != self.qreg[0]:
            self._error(f"unknown quantum register {name!r}", tok)
        if index is None:
            return range(self.qreg[1])
        if not 0 <= index < self.qreg[1]:
            self._error(f"{name}[{index}] out of range{note}", tok)
        return [index]

    def _qubit(self, name: str, index: int | None, tok: _Token) -> int:
        qubits = self._qubits(name, index, tok, f" (size {self.qreg[1]})")
        if index is None:
            self._error(f"gate operands must be indexed, write {name}[k]", tok)
        return qubits[0]

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
        self._statements()
        if self.circuit is None:
            self._error("no quantum register declared")
        return self.circuit

    def _statements(self) -> None:
        """Parse to the end of the text.  A line that held exactly one gate,
        measure, reset or barrier statement, or no token at all, maps to the
        instructions it appended, and a repeat of the line appends those same
        objects.  Where a run of such lines repeats, its later copies are
        found by comparing texts and stand as one repeated run."""
        lines = self.lines
        # each line read as one statement -> (its instructions, where it was
        # last read, in order)
        seen: dict[str, tuple[list[Instruction], deque[int]]] = {}
        known: dict[int, int] = {}  # period p -> a line that differs from the one p before it
        found: list[tuple[int, int]] = []  # (first, end) lines of each run so far, in order
        while self.pos < len(self.tokens):  # statements on the header's last line
            self._statement()
        fence = self.at  # a run's lines start here or later: none before went into `seen`
        while self.at < len(lines):
            at = self.at
            text = lines[at]
            hit = seen.get(text)
            if hit is not None:
                appended, earlier = hit
                begin, copies = _repeat(lines, at, earlier, fence, known)
                if copies and _cuts_longer(found, begin, (copies + 1) * (at - begin)):
                    copies = 0  # cut, a run of two copies would go flat
                if not copies:
                    if appended:  # a blank line may come before the qreg
                        self.circuit.append_run(appended, 1)
                    earlier.append(at)
                    self.at = at + 1
                    continue
                # lines[begin:at] and `copies` more of them, read as one run
                period = at - begin
                n = sum(len(seen[line][0]) for line in lines[begin:at])
                if n:
                    self.circuit.append_run(self.circuit.pop_last(n), copies + 1)
                self.at = at + copies * period
                found.append((begin, self.at))
                for x in range(self.at - period, self.at):  # the last copy
                    seen[lines[x]][1].append(x)
                continue
            self.at = at + 1
            tokens = self.tokens = _tokenize(text, at + 1)
            self.pos = 0
            if not tokens:
                seen[text] = [], deque([at], _RECALLED)
                continue
            if tokens[0].text not in ("qreg", "creg") and self.circuit is not None:
                flat = self.circuit._open_run()
                before = len(flat)
                self._statement()
                # the statement read no further line and filled this one
                if self.tokens is tokens and self.pos == len(tokens):
                    seen[text] = flat[before:], deque([at], _RECALLED)
                    continue
            while self.pos < len(self.tokens):  # statements after another on a line
                self._statement()
            fence = self.at

    def _statement(self) -> None:
        tok = self._peek()
        if tok.kind != "ID":
            self._error(f"expected a statement, found {tok.text!r}")
        word = tok.text
        if word in ("qreg", "creg"):
            self._parse_register()
        elif word in ("gate", "opaque"):
            self._error("user-defined gate blocks are not supported", tok)
        elif word == "if":
            self._error("classical control is not supported", tok)
        elif word not in ("measure", "reset", "barrier") and word not in QASM_NAMES:
            self._error(f"unknown statement or gate {word!r}", tok)
        elif self.circuit is None:
            self._error("statement before any qreg declaration", tok)
        elif word == "measure":
            self._parse_measure()
        elif word == "reset":
            self._parse_reset()
        elif word == "barrier":
            self._parse_barrier()
        else:
            self._parse_gate()

    def _parse_register(self) -> None:
        """A qreg or creg statement: its size present and positive, its name
        that of no register held before the qreg, nor of the qreg itself
        (the circuit refuses a creg name it already holds)."""
        kw = self._next()
        if kw.text == "qreg" and self.qreg is not None:
            self._error("only one quantum register is supported", kw)
        name, size, name_tok = self._reg_operand()
        if size is None:
            self._error("expected a register size", name_tok)
        if size < 1:
            self._error("register size must be positive", name_tok)
        self._expect("SYM", ";")
        if name in (dict(self.pre_cregs) if self.circuit is None else (self.qreg[0],)):
            self._error(f"duplicate register name {name!r}", name_tok)
        if kw.text == "qreg":
            self.check_width(size)
            self.qreg = (name, size)
            self.circuit = Circuit(size, self.pre_cregs)
        elif self.circuit is None:
            self.pre_cregs.append((name, size))  # cregs may precede the qreg
        else:
            try:
                self.circuit.add_creg(name, size)
            except ValueError as exc:
                self._error(str(exc), name_tok)

    def _parse_gate(self) -> None:
        name_tok = self._next()
        gate = QASM_NAMES[name_tok.text]
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
        self.circuit.gate_op(gate, tuple(qubits), params)

    def _parse_measure(self) -> None:
        self._next()
        circuit = self.circuit
        qname, qindex, qtok = self._reg_operand()
        self._expect("ARROW")
        cname, cindex, ctok = self._reg_operand()
        self._expect("SYM", ";")
        if qname != self.qreg[0]:
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
        self._next()
        name, index, tok = self._reg_operand()
        self._expect("SYM", ";")
        for q in self._qubits(name, index, tok):
            self.circuit.reset(q)

    def _parse_barrier(self) -> None:
        self._next()
        qubits = [*self._qubits(*self._reg_operand())]
        while self._peek().text == ",":
            self._next()
            qubits += self._qubits(*self._reg_operand())
        self._expect("SYM", ";")
        self.circuit.barrier(*dict.fromkeys(qubits))  # first occurrences, in order


# A line of a Trotter slice may recur inside the slice (a basis change and
# its undoing, equal angles on the ancilla), so that its last occurrence is
# not a slice back; some line recurs at most this often a slice.
_RECALLED = 4


def _repeat(lines: list[str], at: int, earlier: deque[int], fence: int,
            known: dict[int, int]) -> tuple[int, int]:
    """(begin, copies) for the latest position `begin` in `earlier`, where
    lines[at] was read before, such that lines[begin:at] is followed by
    `copies` >= 1 whole copies of itself; copies is 0 where none is.  Runs
    start at `fence` or later.  `known` holds, per period, a line that
    differs from the line that period before it, so that no stretch of text
    is compared twice at one period."""
    for begin in reversed(earlier):
        if begin < fence:
            break
        period = at - begin
        differs = known.get(period, -1)
        if at <= differs < at + period:
            continue
        end = min(at + period, len(lines))
        x = at + 1  # lines[at] is lines[begin]
        while x < end and lines[x] == lines[x - period]:
            x += 1
        if x < at + period:
            known[period] = x
            continue
        body, copies = lines[begin:at], 1
        while lines[x:x + period] == body:
            x += period
            copies += 1
        return begin, copies
    return at, 0


def _cuts_longer(found: list[tuple[int, int]], begin: int, span: int) -> bool:
    """Whether a run of `span` lines from `begin` starts inside a longer run
    of `found`, whose ends ascend."""
    for first, end in reversed(found):
        if end <= begin:
            return False
        if first < begin and span < end - first:
            return True
    return False


def parse_qasm(text: str) -> Circuit:
    """Parse OpenQASM 2.0 text into a Circuit."""
    return _Parser(text).parse()


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


def _emit_line(name: str, params: tuple[float, ...], qubits: tuple[int, ...]) -> str:
    head = name if not params else f"{name}({','.join(_fmt(p) for p in params)})"
    return f"{head} {', '.join(f'q[{q}]' for q in qubits)};"


def _emit_instruction(circuit: Circuit, ins: Instruction, decompose: bool,
                      ladders: dict[int, tuple[list[tuple], np.ndarray, dict]]) -> str:
    """The line, or lines, of one instruction.  `ladders` holds the
    decomposition of each C2 payload seen so far onto slots (0, 1), with the
    payload itself so that its id stays unique, and its formatted lines on
    each qubit pair it was emitted on."""
    g = ins.gate
    if g is Gate.MEASURE:
        reg, offset = circuit.clbit_location(ins.cbit)
        return f"measure q[{ins.qubits[0]}] -> {reg}[{offset}];"
    if g is Gate.BARRIER and ins.qubits == tuple(range(circuit.n_qubits)):
        return "barrier q;"
    if g is Gate.C1 or g is Gate.C2:
        if not decompose:
            raise ValueError("fused payload gates need decompose=True to serialize")
        if g is Gate.C1:
            return _emit_line("u3", _zyz_u3(ins.matrix), ins.qubits)
        hit = ladders.get(id(ins.matrix))
        if hit is None:
            hit = ladders[id(ins.matrix)] = (decompose_c2(ins.matrix, 0, 1), ins.matrix, {})
        text = hit[2].get(ins.qubits)
        if text is None:
            text = hit[2][ins.qubits] = "\n".join(
                _emit_line(name, params, tuple(ins.qubits[s] for s in slots))
                for name, slots, params in hit[0])
        return text
    return _emit_line(g.value, ins.params, ins.qubits)


def emit_qasm(circuit: Circuit, decompose: bool = False) -> str:
    """Serialize a circuit; requires decompose=True if it holds C1/C2."""
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"qreg q[{circuit.n_qubits}];"]
    for name, size in circuit.cregs:
        if name == "q":
            raise ValueError("classical register 'q' clashes with the emitted quantum register q")
        lines.append(f"creg {name}[{size}];")
    ladders: dict[int, tuple[list[tuple], np.ndarray, dict]] = {}  # this call's C2 ladders
    for body, count in circuit.runs:  # each run's lines are formatted once
        lines += [_emit_instruction(circuit, ins, decompose, ladders) for ins in body] * count
    return "\n".join(lines) + "\n"
