"""Pauli-sum Hamiltonians and the fermion-to-qubit mapping.

A Hamiltonian is a complex-weighted sum of Pauli strings.  A string is
written as a word over {I, X, Y, Z} whose character position equals the
qubit index (leftmost character = qubit 0); every bit/letter string in this
package reads that way.

Fermionic input is a one-body matrix t and an antisymmetrized two-body
tensor V:

    H = sum_ij t_ij a+_i a_j + 1/2 sum_ijkl V_ijkl a+_i a+_j a_l a_k

mapped through the Jordan-Wigner encoding

    a+_i = 1/2 (Z_0 ... Z_{i-1}) (X_i - i Y_i)
    a_i  = 1/2 (Z_0 ... Z_{i-1}) (X_i + i Y_i)

``pauli_masks`` alone decodes Pauli words (the X/Z masks of
arXiv:quant-ph/0406196), for dense matrices and for products of words
alike.  Exact spectra come from LAPACK's eigh, whose last bits can vary
with the BLAS thread count.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DegenerateSpectrumError, ResourceLimitError

DENSE_QUBIT_CAP = 14     # dense matrices and exact spectra stop here
REFERENCE_QUBIT_CAP = 10  # eigenbasis references (predictors, lcu) stop here
GAP_DISTINCT_TOL = 1e-9  # eigenvalues closer than this count as equal
_COEFF_EPS = 1e-14       # drop terms below this after simplification

_LETTERS = "IXYZ"

_FLIPS = str.maketrans("IXYZ", "0110")  # X and Y flip their qubit
_SIGNS = str.maketrans("IXYZ", "0011")  # Y and Z sign it
_WORD = str.maketrans("0123", "IXZY")   # flip bit + 2 * sign bit -> letter
_PHASES = (1, -1j, -1, 1j)              # (-i)^k


def pauli_masks(letters: str) -> tuple[int, int, int]:
    """The X/Z-mask form of a Pauli word: its flip mask f (X and Y qubits),
    sign mask z (Y and Z qubits) and number y of Y letters.  The word acts
    as (P psi)[i] = (-i)^y (-1)^popcount(i & z) psi[i ^ f]."""
    return (int(letters.translate(_FLIPS)[::-1], 2),
            int(letters.translate(_SIGNS)[::-1], 2), letters.count("Y"))


@lru_cache(maxsize=64)
def _parity(w: int) -> np.ndarray:
    """(-1)^popcount(j) for j < 2^w."""
    out = np.ones(1)
    for _ in range(w):
        out = np.concatenate([out, -out])
    return out


def _check_letters(letters: str, n_qubits: int) -> str:
    if len(letters) != n_qubits:
        raise ValueError(f"string {letters!r} does not span {n_qubits} qubits")
    bad = set(letters) - set(_LETTERS)
    if bad:
        raise ValueError(f"invalid Pauli letters {sorted(bad)}")
    return letters


class PauliHamiltonian:
    """Complex-weighted sum of Pauli strings with operator algebra."""

    def __init__(self, n_qubits: int, terms: dict[str, complex] | None = None):
        if n_qubits < 1:
            raise ValueError("need at least one qubit")
        self.n_qubits = n_qubits
        self.terms: dict[str, complex] = {}
        for letters, coeff in (terms or {}).items():
            _check_letters(letters, n_qubits)
            if not cmath.isfinite(coeff):
                raise ValueError(f"coefficient {coeff} of {letters} is not finite")
            if abs(coeff) > _COEFF_EPS:
                self.terms[letters] = complex(coeff)

    @classmethod
    def zero(cls, n_qubits: int) -> "PauliHamiltonian":
        return cls(n_qubits)

    @classmethod
    def identity(cls, n_qubits: int, coeff: complex = 1.0) -> "PauliHamiltonian":
        return cls(n_qubits, {"I" * n_qubits: coeff})

    @classmethod
    def single(cls, n_qubits: int, letters: str, coeff: complex = 1.0) -> "PauliHamiltonian":
        return cls(n_qubits, {letters: coeff})

    def sorted_terms(self) -> list[tuple[str, complex]]:
        """Terms in lexicographic string order; the deterministic iteration."""
        return sorted(self.terms.items())

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        inner = " + ".join(f"({c:.6g})*{s}" for s, c in self.sorted_terms()[:4])
        more = "" if len(self.terms) <= 4 else f" + {len(self.terms) - 4} more"
        return f"PauliHamiltonian({self.n_qubits}q: {inner}{more})"

    def _require_same_space(self, other: "PauliHamiltonian") -> None:
        if self.n_qubits != other.n_qubits:
            raise ValueError("operators act on different qubit counts")

    def __add__(self, other: "PauliHamiltonian") -> "PauliHamiltonian":
        self._require_same_space(other)
        merged = dict(self.terms)
        for s, c in other.terms.items():
            merged[s] = merged.get(s, 0j) + c
        return PauliHamiltonian(self.n_qubits, merged)

    def __sub__(self, other: "PauliHamiltonian") -> "PauliHamiltonian":
        return self + (-1.0) * other

    def __neg__(self) -> "PauliHamiltonian":
        return (-1.0) * self

    def __rmul__(self, scalar: complex) -> "PauliHamiltonian":
        return PauliHamiltonian(
            self.n_qubits, {s: scalar * c for s, c in self.terms.items()})

    def __mul__(self, other) -> "PauliHamiltonian":
        if isinstance(other, (int, float, complex)):
            return self.__rmul__(other)
        self._require_same_space(other)
        # a word is (-i)^y Z^z X^f, so P1 P2 has masks f1 ^ f2, z1 ^ z2 and
        # phase (-i)^k: both words' phases less the product word's, and a
        # sign per qubit where X of P1 passes Z of P2.  The key adds the
        # masks' binary digits as hex ones, flip + 2 sign, carry-free.
        n = self.n_qubits
        right = [(pauli_masks(s2), c2) for s2, c2 in other.terms.items()]
        out: dict[str, complex] = {}
        for s1, c1 in self.terms.items():
            f1, z1, y1 = pauli_masks(s1)
            for (f2, z2, y2), c2 in right:
                f, z = f1 ^ f2, z1 ^ z2
                k = (y1 + y2 - (f & z).bit_count() + 2 * (f1 & z2).bit_count()) % 4
                key = f"{int(f'{f:b}', 16) + 2 * int(f'{z:b}', 16):0{n}x}"[::-1].translate(_WORD)
                out[key] = out.get(key, 0j) + c1 * c2 * _PHASES[k]
        return PauliHamiltonian(n, out)

    def dagger(self) -> "PauliHamiltonian":
        return PauliHamiltonian(self.n_qubits, {s: c.conjugate() for s, c in self.terms.items()})

    def is_hermitian(self, atol: float = 1e-9) -> bool:
        """Pauli strings are Hermitian, so H = H+ iff all coefficients are real."""
        return all(abs(c.imag) <= atol for c in self.terms.values())

    def weight_sum(self) -> float:
        """Sum of |coefficients|, an easy operator-norm upper bound."""
        return float(sum(abs(c) for c in self.terms.values()))

    def dense(self) -> np.ndarray:
        """Full 2^n x 2^n matrix, one indexed add per term from its masks
        (pauli_masks) and no BLAS; guarded, intended for oracle-scale checks."""
        if self.n_qubits > DENSE_QUBIT_CAP:
            raise ResourceLimitError(
                f"dense form limited to {DENSE_QUBIT_CAP} qubits, got {self.n_qubits}")
        rows = np.arange(1 << self.n_qubits)
        out = np.zeros((rows.size, rows.size), dtype=complex)
        for letters, coeff in self.terms.items():
            flip, sign, y = pauli_masks(letters)
            out[rows, rows ^ flip] += coeff * (-1j) ** y * _parity(self.n_qubits)[rows & sign]
        return out


def apply_pauli_string(vec: np.ndarray, letters: str) -> None:
    """In-place P|v> for a Pauli word (character position = qubit index)."""
    for q, letter in enumerate(letters):
        if letter == "I":
            continue
        view = vec.reshape(-1, 2, 2 ** q)
        if letter == "Z":
            view[:, 1, :] *= -1
        elif letter == "X":
            tmp = view[:, 0, :].copy()
            view[:, 0, :] = view[:, 1, :]
            view[:, 1, :] = tmp
        else:  # Y: |0> -> i|1>, |1> -> -i|0>
            tmp = view[:, 0, :].copy()
            view[:, 0, :] = -1j * view[:, 1, :]
            view[:, 1, :] = 1j * tmp


def jw_creation(i: int, n_modes: int) -> PauliHamiltonian:
    """Creation operator a+_i as a two-term Pauli sum."""
    if not 0 <= i < n_modes:
        raise ValueError(f"mode {i} out of range")
    z = "Z" * i
    pad = "I" * (n_modes - i - 1)
    return PauliHamiltonian(n_modes, {z + "X" + pad: 0.5, z + "Y" + pad: -0.5j})


def jw_annihilation(i: int, n_modes: int) -> PauliHamiltonian:
    """Annihilation operator a_i, the adjoint of a+_i."""
    return jw_creation(i, n_modes).dagger()


@dataclass
class SecondQuantizedInput:
    """One-body t and antisymmetrized two-body V with symmetry enforcement."""

    n_modes: int
    t: dict[tuple[int, int], float] = field(default_factory=dict)
    v: dict[tuple[int, int, int, int], float] = field(default_factory=dict)

    def _check_mode(self, *idx: int) -> None:
        for m in idx:
            if not 0 <= m < self.n_modes:
                raise ValueError(f"mode index {m} out of range for {self.n_modes} modes")

    def _store(self, table: dict, key: tuple, value: float) -> None:
        if not math.isfinite(value):
            raise ValueError(f"value {value} for {key} is not finite")
        old = table.get(key)
        if old is not None and abs(old - value) > 1e-12:
            raise ValueError(f"conflicting value for {key}: {old} vs {value}")
        table[key] = value

    def add_t(self, i: int, j: int, value: float) -> None:
        """Store t_ij = t_ji (symmetric one-body matrix)."""
        self._check_mode(i, j)
        self._store(self.t, (i, j), value)
        self._store(self.t, (j, i), value)

    def add_v(self, i: int, j: int, k: int, l: int, value: float) -> None:
        """Store V_ijkl with V antisymmetric in (i,j) and in (k,l)."""
        self._check_mode(i, j, k, l)
        if (i == j or k == l) and value != 0.0:
            raise ValueError(f"antisymmetry forces V[{i},{j},{k},{l}] = 0")
        self._store(self.v, (i, j, k, l), value)
        self._store(self.v, (j, i, k, l), -value)
        self._store(self.v, (i, j, l, k), -value)
        self._store(self.v, (j, i, l, k), value)


def build_hamiltonian(sq: SecondQuantizedInput) -> PauliHamiltonian:
    """Map the second-quantized input onto qubits; result must be Hermitian."""
    n = sq.n_modes
    h = PauliHamiltonian.zero(n)
    create = [jw_creation(i, n) for i in range(n)]
    destroy = [jw_annihilation(i, n) for i in range(n)]
    for (i, j), value in sq.t.items():
        if value != 0.0:
            h = h + value * (create[i] * destroy[j])
    for (i, j, k, l), value in sq.v.items():
        if value != 0.0:
            h = h + (0.5 * value) * (create[i] * create[j] * destroy[l] * destroy[k])
    if not h.is_hermitian():
        raise ValueError("input produced a non-Hermitian operator "
                         "(check V_ijkl = V_klij for the stored real tensor)")
    # symmetrization rounding: keep the real part only
    return PauliHamiltonian(n, {s: complex(c.real) for s, c in h.terms.items()})


@dataclass(frozen=True)
class GroundState:
    """Exact spectrum summary: E0, its eigenvector, and the spectral gap."""

    energy: float
    vector: np.ndarray
    gap: float
    spectrum: np.ndarray


def _eigh(h: PauliHamiltonian, cap: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """eigh of h's dense form, for a Hermitian h of at most `cap` qubits:
    eigh reads one triangle only, so it would answer for another operator."""
    if h.n_qubits > cap:
        raise ResourceLimitError(f"{what} limited to {cap} qubits, got {h.n_qubits}")
    if not h.is_hermitian():
        raise ValueError("operator is not Hermitian")
    return np.linalg.eigh(h.dense())


def ground_state(h: PauliHamiltonian) -> GroundState:
    """Exact ground state and gap via dense Hermitian eigendecomposition.

    The gap is the distance from E0 to the second *distinct* eigenvalue
    (tolerance GAP_DISTINCT_TOL); a spectrum with a single distinct value
    raises DegenerateSpectrumError.
    """
    w, v = _eigh(h, DENSE_QUBIT_CAP, "exact spectrum")
    e0 = float(w[0])
    above = w[w > e0 + GAP_DISTINCT_TOL]
    if above.size == 0:
        raise DegenerateSpectrumError(
            f"no second distinct eigenvalue above E0 = {e0:.12g}")
    return GroundState(energy=e0, vector=v[:, 0].copy(),
                       gap=float(above[0] - e0), spectrum=w)


def eigen_components(h: PauliHamiltonian, state: np.ndarray):
    """(energies, vectors, vectors^+ state): the eigenbasis of h by dense
    eigh, and the state expanded in it; the reference of the predictors and
    the lcu filter."""
    energies, vectors = _eigh(h, REFERENCE_QUBIT_CAP, "dense eigenbasis reference")
    vec = np.asarray(state, dtype=complex).reshape(-1)
    if vec.size != 1 << h.n_qubits:
        raise ValueError(f"state has {vec.size} amplitudes, expected {1 << h.n_qubits}")
    return energies, vectors, vectors.conj().T @ vec


def shift_rescale(h: PauliHamiltonian, e0: float, scale: float = 1.0) -> PauliHamiltonian:
    """Return (H - e0)/scale by adjusting the identity coefficient."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    ident = "I" * h.n_qubits
    terms = dict(h.terms)
    terms[ident] = terms.get(ident, 0j) - e0
    return PauliHamiltonian(h.n_qubits, {s: c / scale for s, c in terms.items()})


def jacobi_eigh(a: np.ndarray, tol: float = 1e-12, max_sweeps: int = 60):
    """Cyclic Jacobi eigensolver for Hermitian matrices.

    The Hermitian input A + iB embeds as the real symmetric [[A, -B], [B, A]],
    whose spectrum is that of the input with every eigenvalue doubled; cyclic
    Jacobi rotations then annihilate off-diagonal entries until convergence.
    Returns (eigenvalues ascending, eigenvectors as columns).  Kept as a
    documented reference implementation and test oracle; eigenvectors inside
    degenerate subspaces are not guaranteed independent.
    """
    h = np.asarray(a, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(h).all():
        raise ValueError("matrix has a non-finite entry")
    if np.max(np.abs(h - h.conj().T)) > 1e-10 * max(1.0, np.max(np.abs(h))):
        raise ValueError("matrix is not Hermitian")
    d = h.shape[0]
    m = np.block([[h.real, -h.imag], [h.imag, h.real]])
    n = 2 * d
    vecs = np.eye(n)
    scale = np.linalg.norm(m) or 1.0
    for _ in range(max_sweeps):
        off = math.sqrt(max(0.0, np.sum(m * m) - np.sum(np.diag(m) ** 2)))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = m[p, q]
                if abs(apq) <= 1e-300:
                    continue
                tau = (m[q, q] - m[p, p]) / (2.0 * apq)
                t = (1.0 if tau >= 0 else -1.0) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                col_p, col_q = m[:, p].copy(), m[:, q].copy()
                m[:, p] = c * col_p - s * col_q
                m[:, q] = s * col_p + c * col_q
                row_p, row_q = m[p, :].copy(), m[q, :].copy()
                m[p, :] = c * row_p - s * row_q
                m[q, :] = s * row_p + c * row_q
                vec_p, vec_q = vecs[:, p].copy(), vecs[:, q].copy()
                vecs[:, p] = c * vec_p - s * vec_q
                vecs[:, q] = s * vec_p + c * vec_q
    else:
        raise RuntimeError(f"Jacobi sweep limit {max_sweeps} reached")
    order = np.argsort(np.diag(m), kind="stable")
    values = np.diag(m)[order][0::2].copy()
    picked = vecs[:, order][:, 0::2]
    out_vecs = picked[:d, :] + 1j * picked[d:, :]
    out_vecs /= np.linalg.norm(out_vecs, axis=0, keepdims=True)
    return values, out_vecs


# ---------------------------------------------------------------------------
# text formats


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def parse_pauli_text(text: str) -> PauliHamiltonian:
    """Parse 'coefficient letters' lines ('#' starts a comment)."""
    terms: dict[str, complex] = {}
    n_qubits = None
    for lineno, line in _content_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'coefficient letters'")
        try:
            coeff = float(parts[0])
            if not math.isfinite(coeff):
                raise ValueError
        except ValueError:
            raise ValueError(f"line {lineno}: bad coefficient {parts[0]!r}") from None
        letters = parts[1].upper()
        if n_qubits is None:
            n_qubits = len(letters)
        _check_letters(letters, n_qubits)
        terms[letters] = terms.get(letters, 0j) + coeff
    if n_qubits is None:
        raise ValueError("no terms found")
    return PauliHamiltonian(n_qubits, terms)


def format_pauli_text(h: PauliHamiltonian) -> str:
    """Serialize with 17 significant digits; requires real coefficients."""
    if not h.is_hermitian():
        raise ValueError("only Hermitian operators serialize to the text form")
    lines = [f"{c.real:.17g} {s}" for s, c in h.sorted_terms()]
    return "\n".join(lines) + "\n"


def parse_second_quantized_text(text: str) -> SecondQuantizedInput:
    """Parse 'ns N', 't i j value' and 'v i j k l value' records.  A mode
    count wider than the engine's size guard allows raises
    ResourceLimitError."""
    records = _content_lines(text)
    n_modes = 0
    body: list[tuple[int, list[str]]] = []
    for lineno, line in records:
        parts = line.split()
        if parts[0] == "ns":
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'ns N'")
            n_modes = max(n_modes, int(parts[1]))
        else:
            body.append((lineno, parts))
            idx = parts[1:-1]
            try:
                n_modes = max(n_modes, max(int(i) for i in idx) + 1)
            except ValueError:
                raise ValueError(f"line {lineno}: bad mode index") from None
    if n_modes == 0:
        raise ValueError("no records found")
    from .engine import _check_width  # the engine imports this module
    # one qubit per mode: a register too wide to simulate is refused here,
    # before build_hamiltonian builds 2n Jordan-Wigner operators of n letters
    _check_width(n_modes)
    sq = SecondQuantizedInput(n_modes)
    for lineno, parts in body:
        try:
            if parts[0] == "t" and len(parts) == 4:
                sq.add_t(int(parts[1]), int(parts[2]), float(parts[3]))
            elif parts[0] == "v" and len(parts) == 6:
                sq.add_v(int(parts[1]), int(parts[2]), int(parts[3]),
                         int(parts[4]), float(parts[5]))
            else:
                raise ValueError("expected 't i j value' or 'v i j k l value'")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return sq


def load_hamiltonian_text(text: str) -> PauliHamiltonian:
    """Auto-detect the two text formats and return the qubit operator."""
    for _, line in _content_lines(text):
        head = line.split()[0]
        if head in ("t", "v", "ns"):
            return build_hamiltonian(parse_second_quantized_text(text))
        return parse_pauli_text(text)
    raise ValueError("empty input")
