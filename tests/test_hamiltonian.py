"""Pauli-sum algebra, fermionic mapping, diagonalization, and text formats."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nucsim import (DegenerateSpectrumError, PauliHamiltonian, cli, hamiltonian,
                    SecondQuantizedInput, build_hamiltonian, ground_state,
                    jacobi_eigh, jw_annihilation, jw_creation,
                    load_hamiltonian_text, shift_rescale)
from nucsim.errors import ResourceLimitError
from nucsim.hamiltonian import (apply_pauli_string, format_pauli_text,
                                parse_pauli_text, parse_second_quantized_text)

LETTERS = st.text(alphabet="IXYZ", min_size=1, max_size=4)


def ham(n, terms):
    return PauliHamiltonian(n, terms)


# ---------------------------------------------------------------------------
# Pauli algebra


def test_term_bookkeeping():
    h = ham(2, {"XI": 1.0, "ZZ": -0.5})
    assert len(h) == 2
    assert h.sorted_terms() == [("XI", 1.0), ("ZZ", -0.5)]
    with pytest.raises(ValueError):
        ham(2, {"X": 1.0})
    with pytest.raises(ValueError):
        ham(2, {"XQ": 1.0})
    for bad in (float("nan"), float("inf"), complex(0.5, float("nan"))):
        with pytest.raises(ValueError, match="not finite"):
            ham(2, {"XI": bad})
    # near-zero coefficients are dropped at construction
    assert len(ham(1, {"X": 1e-16})) == 0


def test_linear_ops_and_hermiticity():
    a = ham(1, {"X": 1.0})
    b = ham(1, {"X": 2.0, "Z": 1.0})
    assert (a + b).terms == {"X": 3.0, "Z": 1.0}
    assert (b - a).terms == {"X": 1.0, "Z": 1.0}
    assert (2.0 * a).terms == {"X": 2.0}
    assert (-a).terms == {"X": -1.0}
    assert a.is_hermitian()
    assert not ham(1, {"X": 1j}).is_hermitian()
    assert ham(1, {"X": 1j}).dagger().terms == {"X": -1j}
    assert b.weight_sum() == pytest.approx(3.0)
    with pytest.raises(ValueError):
        a + ham(2, {"XX": 1.0})


def test_string_products_carry_phases():
    x = ham(1, {"X": 1.0})
    y = ham(1, {"Y": 1.0})
    assert (x * y).terms == {"Z": 1j}
    assert (y * x).terms == {"Z": -1j}
    assert (x * x).terms == {"I": (1 + 0j)}


@given(a=LETTERS, b=LETTERS)
@settings(max_examples=80, deadline=None)
def test_products_match_dense_multiplication(a, b):
    n = max(len(a), len(b))
    a, b = a.ljust(n, "I"), b.ljust(n, "I")
    prod = ham(n, {a: 1.0}) * ham(n, {b: 1.0})
    want = oracles.pauli_string_dense(a) @ oracles.pauli_string_dense(b)
    assert np.max(np.abs(prod.dense() - want)) <= 1e-12


def test_dense_examples():
    assert np.allclose(ham(1, {"Z": 1.0}).dense(), np.diag([1, -1]))
    xx = ham(2, {"XX": 1.0}).dense()
    assert np.allclose(xx, np.fliplr(np.eye(4)))
    # letters are qubit-0-first: ZI is Z on the low bit
    assert np.allclose(ham(2, {"ZI": 1.0}).dense(), np.diag([1, -1, 1, -1]))


def test_dense_matches_oracle_on_random_sums():
    rng = np.random.default_rng(31)
    strings = ["IXZ", "ZZY", "XII", "YXZ"]
    coeffs = rng.normal(size=4)
    h = ham(3, dict(zip(strings, coeffs)))
    want = sum(c * oracles.pauli_string_dense(s) for s, c in zip(strings, coeffs))
    assert np.max(np.abs(h.dense() - want)) <= 1e-12
    assert np.max(np.abs(h.dense() - h.dense().conj().T)) <= 1e-12


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal as uint64 words, so that the sign of a zero counts."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_dense_is_bit_identical_to_kron_chains():
    rng = np.random.default_rng(19)
    for trial in range(120):
        n = int(rng.integers(1, 8))
        terms = {}
        for _ in range(int(rng.integers(1, 12))):
            letters = "".join(rng.choice(list("IXYZ"), size=n))
            terms[letters] = complex(rng.normal(), rng.normal() if trial % 2 else 0.0)
        h = ham(n, terms)
        assert _same_bits(h.dense(), oracles.dense_kron(h))
        assert _same_bits((-1j * h).dense(), oracles.dense_kron(-1j * h))
    for n in (1, 2, 3, 4):
        ops = [jw_creation(i, n) for i in range(n)] + [jw_annihilation(i, n) for i in range(n)]
        for a in ops:
            for b in ops:
                for op in (a, a * b, a * b * a.dagger()):
                    assert _same_bits(op.dense(), oracles.dense_kron(op))


def _same_terms(a: PauliHamiltonian, b: PauliHamiltonian) -> bool:
    """Same words in the same order, coefficients equal as uint64 words."""
    return list(a.terms) == list(b.terms) and _same_bits(
        np.array(list(a.terms.values()), dtype=complex),
        np.array(list(b.terms.values()), dtype=complex))


def test_products_are_bit_identical_to_the_letter_table():
    coeffs = [1.0, -0.5j, complex(0.3, -0.0), complex(-0.0, 0.7), complex(-1.2, 0.4)]
    for n in (1, 2, 3):
        words = ["".join(w) for w in itertools.product("IXYZ", repeat=n)]
        for i, a in enumerate(words):
            for j, b in enumerate(words):
                x, y = ham(n, {a: coeffs[i % 5]}), ham(n, {b: coeffs[(i + j) % 5]})
                assert _same_terms(x * y, oracles.pauli_product(x, y))
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        x, y = (ham(n, {"".join(rng.choice(list("IXYZ"), size=n)):
                        complex(rng.normal(), rng.normal()) * rng.choice([1, 1j, -1, -1j])
                        for _ in range(int(rng.integers(1, 9)))}) for _ in range(2))
        assert _same_terms(x * y, oracles.pauli_product(x, y))
    for n in (2, 4, 6):
        ops = [jw_creation(i, n) for i in range(n)] + [jw_annihilation(i, n) for i in range(n)]
        for a in ops:
            for b in ops:
                assert _same_terms(a * b, oracles.pauli_product(a, b))
                for c in ops[::3]:
                    want = oracles.pauli_product(oracles.pauli_product(a, b), c)
                    assert _same_terms(a * b * c, want)


def test_dense_cap():
    with pytest.raises(ResourceLimitError):
        ham(15, {"I" * 15: 1.0}).dense()


def test_apply_pauli_string_acts_on_low_qubits_of_larger_state():
    rng = np.random.default_rng(6)
    vec = oracles.random_state(rng, 8)
    got = vec.copy()
    apply_pauli_string(got, "XZ")
    want = oracles.lift_matrix(
        oracles.pauli_string_dense("XZ"), (0, 1), 3) @ vec
    assert np.max(np.abs(got - want)) <= 1e-12


# ---------------------------------------------------------------------------
# fermionic mapping


def test_annihilation_lowering_matrix():
    assert np.allclose(jw_annihilation(0, 1).dense(), [[0, 1], [0, 0]])


def test_mapped_operator_strings():
    a0 = jw_annihilation(0, 2)
    assert a0.terms == {"XI": 0.5, "YI": 0.5j}
    assert list(a0.terms) == ["XI", "YI"]
    with pytest.raises(ValueError):
        jw_annihilation(2, 2)
    c1 = jw_creation(1, 2)
    assert c1.terms == {"ZX": 0.5, "ZY": -0.5j}


def test_creation_is_adjoint_of_annihilation():
    for n in (1, 2, 4):
        for i in range(n):
            c = jw_creation(i, n).dense()
            a = jw_annihilation(i, n).dense()
            assert np.max(np.abs(c - a.conj().T)) <= 1e-14
    with pytest.raises(ValueError):
        jw_creation(2, 2)


def test_canonical_anticommutation_relations():
    n = 6
    dim = 2 ** n
    eye = np.eye(dim)
    a = [jw_annihilation(i, n).dense() for i in range(n)]
    c = [m.conj().T for m in a]
    for i in range(n):
        assert np.max(np.abs(a[i] @ a[i])) <= 1e-12
        for j in range(n):
            mixed = a[i] @ c[j] + c[j] @ a[i]
            want = eye if i == j else 0 * eye
            assert np.max(np.abs(mixed - want)) <= 1e-12
            both = a[i] @ a[j] + a[j] @ a[i]
            assert np.max(np.abs(both)) <= 1e-12


# ---------------------------------------------------------------------------
# second-quantized builder


def test_single_mode_number_operator():
    sq = SecondQuantizedInput(1)
    sq.add_t(0, 0, 0.45)
    h = build_hamiltonian(sq)
    assert np.allclose(h.dense(), np.diag([0.0, 0.45]), atol=1e-14)
    assert h.terms == pytest.approx({"I": 0.225, "Z": -0.225})


def test_empty_input_is_zero_operator():
    h = build_hamiltonian(SecondQuantizedInput(2))
    assert len(h) == 0
    assert np.max(np.abs(h.dense())) == 0.0


def test_hopping_spectrum():
    g = 0.37
    sq = SecondQuantizedInput(2)
    sq.add_t(0, 1, g)
    h = build_hamiltonian(sq)
    w = np.linalg.eigvalsh(h.dense())
    assert w == pytest.approx([-g, 0.0, 0.0, g], abs=1e-12)


def test_two_body_term_counts_pairs():
    u = 0.83
    sq = SecondQuantizedInput(2)
    sq.add_v(0, 1, 0, 1, u)
    h = build_hamiltonian(sq)
    # (1/2) sum over all four stored sign variants = 2u on the doubly
    # occupied state
    assert np.allclose(h.dense(), np.diag([0, 0, 0, 2 * u]), atol=1e-12)


def test_builder_output_is_hermitian():
    rng = np.random.default_rng(44)
    sq = SecondQuantizedInput(4)
    for i in range(4):
        for j in range(i, 4):
            sq.add_t(i, j, float(rng.normal()))
    va, vb = float(rng.normal()), float(rng.normal())
    sq.add_v(0, 1, 2, 3, va)
    sq.add_v(2, 3, 0, 1, va)  # V_ijkl = V_klij keeps the operator Hermitian
    sq.add_v(0, 2, 1, 3, vb)
    sq.add_v(1, 3, 0, 2, vb)
    h = build_hamiltonian(sq)
    d = h.dense()
    assert np.max(np.abs(d - d.conj().T)) <= 1e-12


def test_symmetry_enforcement():
    sq = SecondQuantizedInput(3)
    sq.add_t(0, 1, 0.5)
    assert sq.t[(1, 0)] == 0.5
    with pytest.raises(ValueError):
        sq.add_t(1, 0, 0.25)  # conflicts with the symmetric partner
    sq.add_v(0, 1, 0, 2, 0.125)
    assert sq.v[(1, 0, 0, 2)] == -0.125
    assert sq.v[(0, 1, 2, 0)] == -0.125
    with pytest.raises(ValueError):
        sq.add_v(0, 0, 1, 2, 0.3)  # i == j forces zero
    with pytest.raises(ValueError):
        sq.add_t(0, 3, 1.0)


# ---------------------------------------------------------------------------
# exact diagonalization


def test_ground_state_of_single_spin():
    gs = ground_state(ham(1, {"Z": 1.0}))
    assert gs.energy == pytest.approx(-1.0, abs=1e-12)
    assert gs.gap == pytest.approx(2.0, abs=1e-12)
    assert abs(gs.vector[1]) == pytest.approx(1.0, abs=1e-12)
    assert gs.spectrum == pytest.approx([-1.0, 1.0])


def test_ground_state_of_hopping_pair():
    sq = SecondQuantizedInput(2)
    sq.add_t(0, 1, 1.0)
    gs = ground_state(build_hamiltonian(sq))
    assert gs.energy == pytest.approx(-1.0, abs=1e-12)
    assert gs.gap == pytest.approx(1.0, abs=1e-12)


def test_degenerate_spectrum_is_an_error():
    with pytest.raises(DegenerateSpectrumError):
        ground_state(PauliHamiltonian.zero(2))
    with pytest.raises(DegenerateSpectrumError):
        ground_state(PauliHamiltonian.identity(1, 3.0))


def test_ground_state_guards():
    with pytest.raises(ValueError):
        ground_state(ham(1, {"X": 1j}))
    with pytest.raises(ResourceLimitError):
        ground_state(PauliHamiltonian.single(15, "Z" + "I" * 14))


def test_shift_rescale():
    h = ham(1, {"Z": 1.0, "I": 0.25})
    gs = ground_state(h)
    shifted = shift_rescale(h, gs.energy)
    gs2 = ground_state(shifted)
    assert gs2.energy == pytest.approx(0.0, abs=1e-10)
    halved = shift_rescale(h, gs.energy, scale=2.0)
    assert ground_state(halved).gap == pytest.approx(gs.gap / 2, abs=1e-12)
    with pytest.raises(ValueError):
        shift_rescale(h, 0.0, scale=0.0)
    with pytest.raises(ValueError):
        shift_rescale(h, 0.0, scale=-1.0)


def test_shift_rescale_can_map_into_unit_interval():
    rng = np.random.default_rng(7)
    h = ham(3, {"ZZI": float(rng.normal()), "XIX": float(rng.normal()),
                "IYY": float(rng.normal()), "ZIZ": float(rng.normal())})
    gs = ground_state(h)
    spread = float(gs.spectrum[-1] - gs.spectrum[0])
    tilde = shift_rescale(h, gs.energy, scale=spread * 1.0001)
    w = np.linalg.eigvalsh(tilde.dense())
    assert w[0] == pytest.approx(0.0, abs=1e-10)
    assert w[-1] < 1.0


def test_jacobi_agrees_with_library_eigensolver():
    rng = np.random.default_rng(9)
    for n in (2, 3, 4, 8):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m = m + m.conj().T
        vals, vecs = jacobi_eigh(m)
        ref = np.linalg.eigvalsh(m)
        assert np.max(np.abs(vals - ref)) <= 1e-9
        # columns are eigenvectors to matching eigenvalues
        for k in range(n):
            r = m @ vecs[:, k] - vals[k] * vecs[:, k]
            assert np.max(np.abs(r)) <= 1e-7


def test_jacobi_rejects_non_hermitian():
    with pytest.raises(ValueError):
        jacobi_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        jacobi_eigh(np.full((2, 2), np.nan))
    with pytest.raises(ValueError, match="must be square"):
        jacobi_eigh(np.zeros((2, 3)))


def test_eigensolvers_agree_with_characteristic_polynomial():
    rng = np.random.default_rng(10)
    for n_qubits in (2, 3):
        strings = ["".join(rng.choice(list("IXYZ"), n_qubits))
                   for _ in range(5)]
        coeffs = rng.normal(size=5)
        h = ham(n_qubits, {})
        for s, c in zip(strings, coeffs):
            h = h + ham(n_qubits, {s: c})
        if len(h) == 0:
            continue
        dense = h.dense()
        roots = oracles.charpoly_eigenvalues(dense)
        vals, _ = jacobi_eigh(dense)
        assert np.max(np.abs(np.sort(vals) - roots)) <= 1e-6
        assert np.max(np.abs(np.linalg.eigvalsh(dense) - roots)) <= 1e-6


# ---------------------------------------------------------------------------
# text formats


def test_pauli_text_round_trip():
    h = ham(2, {"ZI": 0.7, "IZ": 0.3, "XX": 0.25})
    back = parse_pauli_text(format_pauli_text(h))
    assert back.n_qubits == 2
    assert back.terms == pytest.approx(h.terms)


def test_pauli_text_parsing_details():
    text = "# comment line\n0.5 ZI  # trailing comment\n-0.25 xx\n0.25 XX\n"
    h = parse_pauli_text(text)
    assert h.terms == pytest.approx({"ZI": 0.5})  # xx and XX cancel to zero
    with pytest.raises(ValueError):
        parse_pauli_text("0.5\n")
    with pytest.raises(ValueError):
        parse_pauli_text("abc ZI\n")
    with pytest.raises(ValueError):
        parse_pauli_text("0.5 ZI\n0.5 XYZ\n")
    with pytest.raises(ValueError):
        parse_pauli_text("# nothing\n")
    for bad in ("nan", "inf", "-Infinity"):
        with pytest.raises(ValueError, match="^line 2: bad coefficient"):
            parse_pauli_text(f"0.5 ZI\n{bad} IZ\n")


def test_format_requires_hermitian():
    with pytest.raises(ValueError):
        format_pauli_text(ham(1, {"X": 1j}))


def test_second_quantized_text():
    text = """
# two modes, hopping plus interaction
ns 2
t 0 1 -0.5
v 0 1 0 1 0.25
"""
    sq = parse_second_quantized_text(text)
    assert sq.n_modes == 2
    assert sq.t[(1, 0)] == -0.5
    assert sq.v[(1, 0, 0, 1)] == -0.25
    with pytest.raises(ValueError):
        parse_second_quantized_text("t 0 1\n")
    with pytest.raises(ValueError):
        parse_second_quantized_text("w 0 1 0.5\n")
    with pytest.raises(ValueError):
        parse_second_quantized_text("\n")
    with pytest.raises(ValueError, match="^line 1: expected 'ns N'$"):
        parse_second_quantized_text("ns\nt 0 1 0.5\n")
    with pytest.raises(ValueError, match="^line 1: bad mode index$"):
        parse_second_quantized_text("t 0 a 0.5\n")
    for bad in ("t 0 0 nan", "t 0 1 inf", "v 0 1 0 1 -inf"):
        with pytest.raises(ValueError, match="^line 2: .*not finite"):
            parse_second_quantized_text(f"ns 2\n{bad}\n")


def test_a_mode_count_too_wide_to_simulate_is_refused_before_any_operator(monkeypatch, tmp_path):
    # the engine's size guard, stated once: 4,001 qubits need far more than
    # physical memory, so the loader stops before the Jordan-Wigner build,
    # whose cost grows as the square of the mode count
    def built(*args):
        raise AssertionError("a Jordan-Wigner operator was built")

    monkeypatch.setattr(hamiltonian, "jw_creation", built)
    for text in ("t 0 4000 0.5\n", "ns 4001\nt 0 1 0.5\n", "ns 1000000000000\nt 0 1 0.5\n"):
        with pytest.raises(ResourceLimitError, match="physical memory"):
            load_hamiltonian_text(text)
    path = tmp_path / "wide.txt"
    path.write_text("t 0 4000 0.5\n", encoding="utf-8")
    assert cli.main(["spectrum", "--hamiltonian", str(path)]) == 4
    assert parse_second_quantized_text("t 0 3 0.5\n").n_modes == 4  # narrow texts load


def test_mode_count_inferred_from_indices():
    sq = parse_second_quantized_text("t 0 3 0.5\n")
    assert sq.n_modes == 4


def test_load_auto_detects_format():
    pauli = load_hamiltonian_text("0.7 ZI\n0.3 IZ\n")
    assert pauli.terms == pytest.approx({"ZI": 0.7, "IZ": 0.3})
    sq_text = "ns 1\nt 0 0 0.45\n"
    built = load_hamiltonian_text(sq_text)
    assert np.allclose(built.dense(), np.diag([0, 0.45]), atol=1e-14)
    with pytest.raises(ValueError):
        load_hamiltonian_text("# only comments\n")
