"""Binomial coefficient windows and the dense cos^2m filter reference."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

import oracles
from nucsim import (LcuExpansion, PauliHamiltonian, apply_cos_filter,
                    lcu_coefficients, lcu_reference, lcu_success_probability,
                    shift_rescale)
from nucsim.errors import (ProjectionError, ResourceLimitError,
                           SpectrumGuardError)

_FULL_WINDOW = 1e-300   # small enough that m0 always grows to m


def two_level(e: float) -> PauliHamiltonian:
    """diag(0, e): ground state |0> at energy zero, excited state at e."""
    return PauliHamiltonian(1, {"I": e / 2, "Z": -e / 2})


def random_bounded_h(rng: np.random.Generator, n: int) -> PauliHamiltonian:
    """Random Hermitian Pauli sum rescaled so the spectrum fits in [-1.2, 1.2]."""
    terms = {}
    for _ in range(3 * n):
        letters = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        terms[letters] = terms.get(letters, 0.0) + float(rng.normal())
    h = PauliHamiltonian(n, terms)
    w = np.linalg.eigvalsh(h.dense())
    return shift_rescale(h, 0.0, scale=max(abs(w[0]), abs(w[-1])) / 1.2)


def shifted_random_h(rng: np.random.Generator, n: int) -> PauliHamiltonian:
    """Random Hermitian Pauli sum with ground energy 0 and spectrum in [0, 1.2]."""
    terms = {}
    for _ in range(3 * n):
        letters = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        terms[letters] = terms.get(letters, 0.0) + float(rng.normal())
    h = PauliHamiltonian(n, terms)
    w = np.linalg.eigvalsh(h.dense())
    return shift_rescale(h, float(w[0]), scale=float(w[-1] - w[0]) / 1.2)


def dense_window_operator(h: PauliHamiltonian, exp: LcuExpansion) -> np.ndarray:
    """Brute-force O = sum_k alpha_k expm(-2iHk), one matrix exponential per term."""
    d = h.dense()
    ks = range(-exp.m0, exp.m0 + 1)
    return sum(a * expm(-2.0j * k * d) for a, k in zip(exp.coeffs, ks))


def dense_cos_power(h: PauliHamiltonian, m: int) -> np.ndarray:
    w, v = np.linalg.eigh(h.dense())
    return (v * np.cos(w) ** (2 * m)) @ v.conj().T


# ---------------------------------------------------------------------------
# coefficient windows


def test_m1_binomial_row():
    exp = lcu_coefficients(1)
    assert exp.m == 1 and exp.m0 == 1
    # cos^2 x = (1/4) e^{2ix} + 1/2 + (1/4) e^{-2ix}
    assert exp.coeffs.tolist() == [0.25, 0.5, 0.25]
    assert exp.tail_mass == 0.0
    assert exp.alpha_sum == 1.0


def test_symmetry_and_normalization_exact_to_m_200():
    for m in range(1, 201):
        # the binomial row sums to 4^m exactly, checked in big integers
        assert sum(math.comb(2 * m, m + k) for k in range(-m, m + 1)) == 4 ** m
        exp = lcu_coefficients(m, tail_tol=_FULL_WINDOW)
        assert exp.m0 == m
        assert exp.tail_mass == 0.0
        assert np.all(exp.coeffs >= 0.0)
        # binom(2m, m+k) == binom(2m, m-k), so mirrored entries round identically
        assert np.array_equal(exp.coeffs, exp.coeffs[::-1])
        assert exp.alpha_sum == pytest.approx(1.0, abs=1e-12)


def test_m50_window_against_direct_summation():
    exp = lcu_coefficients(50, tail_tol=1e-8)
    total = 4 ** 50
    inside = math.comb(100, 50)
    radius = 0
    while (total - inside) / total > 1e-8:
        radius += 1
        inside += 2 * math.comb(100, 50 + radius)
    assert exp.m0 == radius
    assert 0.0 <= exp.tail_mass <= 1e-8
    assert exp.tail_mass == pytest.approx((total - inside) / total, rel=1e-12)
    # one ring fewer would have left too much weight outside
    leaner = inside - 2 * math.comb(100, 50 + radius)
    assert (total - leaner) / total > 1e-8
    want = [math.comb(100, 50 + k) / total for k in range(-radius, radius + 1)]
    assert exp.coeffs.tolist() == want


def test_large_m_stays_cheap_and_valid():
    exp = lcu_coefficients(2000)
    assert exp.m0 < 2000
    assert exp.tail_mass <= 1e-8
    assert exp.alpha_sum == pytest.approx(1.0 - exp.tail_mass, abs=1e-12)


def test_coefficients_validation():
    with pytest.raises(ValueError):
        lcu_coefficients(0)
    with pytest.raises(ValueError):
        lcu_coefficients(-3)
    with pytest.raises(ValueError):
        lcu_coefficients(2, tail_tol=0.0)
    with pytest.raises(ValueError):
        lcu_coefficients(2, tail_tol=1.0)


def test_expansion_window_shape_guard():
    with pytest.raises(ValueError):
        LcuExpansion(m=2, m0=2, coeffs=np.array([0.25, 0.5, 0.25]),
                     tail_mass=0.0)


# ---------------------------------------------------------------------------
# apply_cos_filter


def test_ground_state_at_zero_energy_is_fixed():
    h = two_level(0.9)
    psi = np.array([1.0, 0.0], dtype=complex)
    for m in (1, 5, 40):
        assert oracles.overlap(apply_cos_filter(h, m, psi), psi) == \
            pytest.approx(1.0, abs=1e-12)


def test_two_level_suppression_factor():
    e, m = 0.8, 3
    out = apply_cos_filter(two_level(e), m, np.array([1.0, 1.0]) / math.sqrt(2))
    assert abs(out[1]) / abs(out[0]) == pytest.approx(math.cos(e) ** (2 * m),
                                                      abs=1e-12)
    want = np.array([1.0, math.cos(e) ** (2 * m)])
    want /= np.linalg.norm(want)
    assert oracles.phase_distance(out, want) <= 1e-12


def test_m_zero_is_identity():
    rng = np.random.default_rng(7)
    h = random_bounded_h(rng, 2)
    psi = oracles.random_state(rng, 4)
    assert np.allclose(apply_cos_filter(h, 0, psi), psi, atol=1e-12)


def test_annihilated_state_raises():
    # cos(1.5)^400 underflows to zero, wiping out a pure excited state
    with pytest.raises(ProjectionError):
        apply_cos_filter(two_level(1.5), 200, np.array([0.0, 1.0]))


def test_apply_cos_filter_validation():
    h = two_level(0.5)
    with pytest.raises(ValueError):
        apply_cos_filter(h, -1, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        apply_cos_filter(h, 1, np.ones(3))


# ---------------------------------------------------------------------------
# spectrum guard and resource cap


def test_spectrum_guard_rejects_wide_spectra():
    state = np.array([1.0, 0.0], dtype=complex)
    apply_cos_filter(PauliHamiltonian(1, {"Z": 1.5}), 1, state)  # inside: fine
    exp = lcu_coefficients(1)
    for bad in (PauliHamiltonian(1, {"Z": 1.6}),
                PauliHamiltonian(1, {"I": 1.0, "Z": 0.8})):
        with pytest.raises(SpectrumGuardError):
            apply_cos_filter(bad, 1, state)
        with pytest.raises(SpectrumGuardError):
            lcu_reference(bad, exp, state)
        with pytest.raises(SpectrumGuardError):
            lcu_success_probability(bad, exp, state)


def test_spectrum_guard_boundary_is_excluded():
    h = PauliHamiltonian(1, {"Z": math.pi / 2})
    with pytest.raises(SpectrumGuardError):
        apply_cos_filter(h, 1, np.array([1.0, 0.0]))


def test_resource_cap_at_ten_qubits():
    h = PauliHamiltonian(11, {"Z" + "I" * 10: 0.1})
    psi = np.zeros(2 ** 11, dtype=complex)
    psi[0] = 1.0
    exp = lcu_coefficients(2)
    with pytest.raises(ResourceLimitError):
        apply_cos_filter(h, 1, psi)
    with pytest.raises(ResourceLimitError):
        lcu_reference(h, exp, psi)
    with pytest.raises(ResourceLimitError):
        lcu_success_probability(h, exp, psi)


@pytest.mark.parametrize("call", [
    lambda h, psi: apply_cos_filter(h, 1, psi),
    lambda h, psi: lcu_reference(h, lcu_coefficients(2), psi),
    lambda h, psi: lcu_success_probability(h, lcu_coefficients(2), psi),
], ids=["apply_cos_filter", "lcu_reference", "lcu_success_probability"])
def test_non_hermitian_operators_are_refused(call):
    """eigh reads one triangle only: {X: 0.3j, Z: 0.2} would pass for
    0.2 Z + 0.3 Y."""
    with pytest.raises(ValueError, match="operator is not Hermitian"):
        call(PauliHamiltonian(1, {"X": 0.3j, "Z": 0.2}), np.array([1.0, 0.0]))


def test_state_length_is_checked_before_the_spectrum():
    exp = lcu_coefficients(2)
    for h in (two_level(0.5), PauliHamiltonian(1, {"Z": 1.6})):  # in and out of range
        for psi in (np.ones(3) / math.sqrt(3), np.zeros(4)):
            with pytest.raises(ValueError):
                apply_cos_filter(h, 1, psi)
            with pytest.raises(ValueError):
                lcu_reference(h, exp, psi)
            with pytest.raises(ValueError):
                lcu_success_probability(h, exp, psi)


# ---------------------------------------------------------------------------
# lcu_reference


def test_untruncated_window_matches_cos_filter():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 4):
        for m in (1, 2, 3, 4):
            h = random_bounded_h(rng, n)
            psi = oracles.random_state(rng, 2 ** n)
            exp = lcu_coefficients(m, tail_tol=_FULL_WINDOW)
            assert exp.m0 == m
            got = lcu_reference(h, exp, psi)
            want = dense_cos_power(h, m) @ psi
            assert np.max(np.abs(got - want)) <= 1e-10


def test_truncation_error_bounded_by_tail_mass():
    rng = np.random.default_rng(23)
    for m, tol in ((20, 1e-2), (40, 1e-3)):
        exp = lcu_coefficients(m, tail_tol=tol)
        assert 0 < exp.m0 < m
        h = random_bounded_h(rng, 3)
        o = dense_window_operator(h, exp)
        c = dense_cos_power(h, m)
        assert np.linalg.norm(o - c, 2) <= exp.tail_mass + 1e-12
        for _ in range(5):
            psi = oracles.random_state(rng, 8)
            got = lcu_reference(h, exp, psi)
            assert np.linalg.norm(got - o @ psi) <= 1e-10
            assert np.linalg.norm(got - c @ psi) <= exp.tail_mass + 1e-12


def test_ground_state_window_action():
    rng = np.random.default_rng(31)
    h = shifted_random_h(rng, 3)
    psi = np.linalg.eigh(h.dense())[1][:, 0]
    exp = lcu_coefficients(25, tail_tol=1e-3)
    out = lcu_reference(h, exp, psi)
    # at energy 0 the window factor is 1 - tail_mass, a pure rescaling
    assert np.linalg.norm(out - psi) <= exp.tail_mass + 1e-10
    assert np.linalg.norm(out - psi) == pytest.approx(exp.tail_mass, abs=1e-6)


# ---------------------------------------------------------------------------
# success probability


def test_ground_state_success_is_unity():
    rng = np.random.default_rng(43)
    h = shifted_random_h(rng, 2)
    psi = np.linalg.eigh(h.dense())[1][:, 0]
    exp = lcu_coefficients(6, tail_tol=_FULL_WINDOW)
    assert lcu_success_probability(h, exp, psi) == pytest.approx(1.0,
                                                                 abs=1e-12)


def test_high_energy_state_success_is_negligible():
    p = lcu_success_probability(two_level(1.4), lcu_coefficients(20),
                                np.array([0.0, 1.0]))
    assert 0.0 <= p < 1e-12


def test_success_matches_dense_operator():
    rng = np.random.default_rng(47)
    h = random_bounded_h(rng, 3)
    exp = lcu_coefficients(12, tail_tol=1e-4)
    o = dense_window_operator(h, exp)
    denom = float(np.abs(exp.coeffs).sum()) ** 2
    for _ in range(5):
        psi = oracles.random_state(rng, 8)
        want = float(np.real(psi.conj() @ (o @ (o @ psi)))) / denom
        got = lcu_success_probability(h, exp, psi)
        assert got == pytest.approx(want, abs=1e-10)
        assert 0.0 <= got <= 1.0 + 1e-12


def test_target_success_approaches_one_as_tail_vanishes():
    rng = np.random.default_rng(53)
    h = shifted_random_h(rng, 2)
    psi = np.linalg.eigh(h.dense())[1][:, 0]
    gaps = []
    for tol in (0.3, 1e-2, 1e-5, 1e-9, _FULL_WINDOW):
        p = lcu_success_probability(h, lcu_coefficients(30, tail_tol=tol), psi)
        gaps.append(abs(1.0 - p))
    # the target rides the window factor in numerator and denominator alike,
    # so every window is already within float noise of one
    assert max(gaps) <= 1e-10
    assert gaps[-1] <= 1e-13


# ---------------------------------------------------------------------------
# filter quality


def test_infidelity_decreases_monotonically_in_m():
    rng = np.random.default_rng(17)
    h = shifted_random_h(rng, 3)
    ground = np.linalg.eigh(h.dense())[1][:, 0]
    trial = 0.8 * ground + 0.6 * oracles.random_state(rng, 8)
    trial /= np.linalg.norm(trial)
    infid = []
    for m in (1, 2, 4, 8, 16):
        out = apply_cos_filter(h, m, trial)
        infid.append(1.0 - oracles.overlap(out, ground) ** 2)
    assert all(b < a for a, b in zip(infid, infid[1:]))
    # this instance has gap 0.18 after rescaling; the decay rate itself
    # depends on the gap, only the monotone trend is generic
    assert infid[-1] < 0.15 * infid[0]
