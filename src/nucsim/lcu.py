"""Numerical reference for the cos^2m energy filter as a sum of unitaries.

cos^2m(H') expands exactly into sum_{k=-m}^{m} alpha_k e^{-2iH'k} with
binomial weights alpha_k = binom(2m, m+k)/4^m.  Truncating the sum to
|k| <= m0 keeps 1 - tail_mass of the weight and approximates the filter
with 2*m0+1 time evolutions.  Everything here is dense linear algebra on
small systems; it exists to cross-check the gate-level projection filter,
not to generate circuits.

H' must already be shifted so the target state sits at energy 0 and the
whole spectrum lies inside (-pi/2, pi/2), keeping cos positive and monotone
around the target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ProjectionError, SpectrumGuardError
from .hamiltonian import PauliHamiltonian, eigen_components

_SPECTRUM_BOUND = math.pi / 2.0


@dataclass(frozen=True, slots=True)
class LcuExpansion:
    """Truncated binomial expansion of cos^2m: weights for k in [-m0, m0]."""

    m: int
    m0: int
    coeffs: np.ndarray          # alpha_{-m0} ... alpha_{+m0}
    tail_mass: float            # weight outside the window, exact to double

    @property
    def alpha_sum(self) -> float:
        return float(self.coeffs.sum())

    def __post_init__(self):
        if self.coeffs.shape != (2 * self.m0 + 1,):
            raise ValueError("coefficient window does not match m0")


def lcu_coefficients(m: int, tail_tol: float = 1e-8) -> LcuExpansion:
    """Binomial weights with the smallest window whose tail is <= tail_tol.

    Weights are exact big-integer binomials divided by 4^m only at the final
    conversion to double, so symmetry and normalization hold exactly.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 0.0 < tail_tol < 1.0:
        raise ValueError(f"tail_tol must be in (0, 1), got {tail_tol}")
    total = 4 ** m
    window = math.comb(2 * m, m)
    m0 = 0
    while m0 < m and (total - window) / total > tail_tol:
        m0 += 1
        window += 2 * math.comb(2 * m, m + m0)
    coeffs = np.array([math.comb(2 * m, m + k) / total for k in range(-m0, m0 + 1)])
    return LcuExpansion(m=m, m0=m0, coeffs=coeffs, tail_mass=(total - window) / total)


def _guarded_components(h: PauliHamiltonian, state: np.ndarray):
    """eigen_components, for a spectrum inside (-pi/2, pi/2)."""
    energies, vectors, comps = eigen_components(h, state)
    low, high = float(energies[0]), float(energies[-1])
    if low <= -_SPECTRUM_BOUND or high >= _SPECTRUM_BOUND:
        raise SpectrumGuardError(
            f"spectrum [{low:.6g}, {high:.6g}] leaves (-pi/2, pi/2); rescale first")
    return energies, vectors, comps


def apply_cos_filter(h: PauliHamiltonian, m: int, state: np.ndarray) -> np.ndarray:
    """Normalized cos^2m(H') applied to the state, via eigenvalues."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    energies, vectors, comps = _guarded_components(h, state)
    comps *= np.cos(energies) ** (2 * m)
    norm = np.linalg.norm(comps)
    if norm <= 0.0:
        raise ProjectionError("filter annihilated the state")
    return vectors @ (comps / norm)


def _window_factor(expansion: LcuExpansion, energies: np.ndarray) -> np.ndarray:
    ks = np.arange(-expansion.m0, expansion.m0 + 1)
    return np.exp(-2.0j * np.outer(energies, ks)) @ expansion.coeffs


def _lcu_action(h: PauliHamiltonian, expansion: LcuExpansion,
                state: np.ndarray) -> tuple[np.ndarray, float]:
    """(lcu_reference, lcu_success_probability) from one decomposition."""
    energies, vectors, comps = _guarded_components(h, state)
    factor = _window_factor(expansion, energies)
    eta2 = float(np.sum(np.abs(comps) ** 2 * np.abs(factor) ** 2))
    return (vectors @ (factor * comps),
            eta2 / float(np.abs(expansion.coeffs).sum()) ** 2)


def lcu_reference(h: PauliHamiltonian, expansion: LcuExpansion,
                  state: np.ndarray) -> np.ndarray:
    """Unnormalized action of the truncated sum of evolutions on the state.

    Each e^{-2iH'k} is applied through the eigendecomposition; the result
    differs from cos^2m(H') by at most tail_mass in operator norm.
    """
    return _lcu_action(h, expansion, state)[0]


def lcu_success_probability(h: PauliHamiltonian, expansion: LcuExpansion,
                            state: np.ndarray) -> float:
    """Post-selection success <phi|O^2|phi> / (sum |alpha_k|)^2."""
    return _lcu_action(h, expansion, state)[1]
