"""State-vector engine with assertion-based mid-circuit measurement.

Amplitudes are a dense complex128 array indexed little-endian: qubit 0 is
the least significant bit of the basis index.  Kernels work inside the live
array and one reusable scratch buffer and swap the two after each gate, so
memory stays at two vectors regardless of circuit depth.

The execution plan is the circuit cut at its mid-circuit measure and reset
points: one segment of blocks before each point and one after the last.
Each stretch of consecutive gates is packed into blocks on at most
``_BLOCK_QUBITS`` qubits, greedily and in circuit order, and each block's
product matrix is built at compile time, once per distinct block, by
``gates._compose``: each gate is placed in the block's 2^k x 2^k space by
the cached index lift ``gates._lift`` and left-multiplied onto the product
of the gates before it.  The Trotter slices of a filter step repeat the
same blocks, so one compile keeps a memo from each block's gates (matrix
bytes and qubits) to its plan entry, which lives for that compile only.
A circuit holds a step's slices as one repeated run (see ``circuit``), and
the compile walks such a run only until the block it leaves open at a copy
boundary repeats; a segment then holds runs ``(blocks, count)`` that the
executors loop over, the blocks and order of a flat walk, so compile costs
per distinct slice and the plan's size does not grow with the Trotter
count.

Each distinct block becomes the cheapest plan entry of its exact
structure.  A slot of its product whose off-diagonal couplings have a norm
within 1e-14 acts as a control, as the ancilla does in every inner block
of a filter step up to rounding: the matrix is stored as its diagonal
sub-blocks, one batch axis per such slot.  One kernel, allocating nothing,
then runs every gate and block in one of two forms.  Gathered, in three
passes over the state: a strided copy gathers the amplitudes into scratch as
one contiguous row per value of the operand bits, one (batched) matmul
multiplies the rows into the live array, and a strided copy scatters the
result back into scratch in state order.  In place, in one pass, where the
non-diagonal operands form one run of adjacent qubits below every diagonal
slot: the batched matmul reads the state through a view and writes scratch
in state order.  One cached walk, ``_layout``, groups the bits into axes for
both forms, and, given the register width, picks the in-place form where
the matmul gets enough columns for the products it runs (see
``_in_place_pays``: on 8 qubits nearly every filter block, on 16 those with
at least 32 amplitudes below their run); both forms give the same bytes.

The executors bind each distinct plan entry to the state's two buffers
once, as the views its kernel reads and writes (``_bind``), so running a
block makes only its one to three numpy calls: on narrow registers the
per-call cost, not the arithmetic, bounds a deep circuit.

Two execution modes:

``mma``        one pass; every mid-circuit measurement asserts outcome |0>,
               records its probability, projects and renormalizes; the
               trailing measurement block is replaced by sampling the final
               state ``shots`` times.
``rejection``  draws every mid-circuit outcome per shot; a shot with a
               nonzero measure outcome is rejected, accepted shots
               contribute one sample each.  A shot's state at a measure or
               reset depends only on the outcomes drawn before it, so one
               run memoizes the outcome tree by prefix (P(0) per visited
               prefix, the sampling CDF of the latest accepted one) and
               computes each new prefix once, with one cursor state, on
               which a Hamiltonian is also read in place.  It costs about
               one mma pass plus the per-shot draws, read in chunks; each
               leaf's sample draws are inverted on its CDF together.

Randomness comes from numpy's Philox bit generator (a documented 64-bit
counter-based generator with splittable seeding), so identical seeds give
identical reports; sampling inverts cumulative probabilities with a binary
search.  A rejection shot draws as if it ran the plan alone: one
``random()`` per measure or reset in circuit order, then one
``random(1)`` for its sample; the uniforms are read from chunks of the same
stream, which leave the generator where those calls would.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .circuit import Circuit, run_pieces, walk_run
from .errors import (FilterAssertionError, MmaStructureError, ProjectionError,
                     ResourceLimitError)
from .gates import Gate, _compose, _lift_index, gate_matrix, sort_operands
from .hamiltonian import PauliHamiltonian, _parity, pauli_masks

EPS_MMA = 1e-12          # assertion fails below this |0> probability
_NORM_ATOL = 1e-9        # accepted state-norm drift
_X = gate_matrix(Gate.X)  # flips a reset qubit back to |0>
# the plan walk compares every instruction's gate with these: a module-level
# name is cheaper to read than a member looked up on the enum
_BARRIER, _MEASURE, _RESET = Gate.BARRIER, Gate.MEASURE, Gate.RESET


def _check_width(n_qubits: int) -> None:
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    # state plus scratch is 32 * 2^n bytes; compare exponents so a huge n is
    # refused without forming 2^n
    phys = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if n_qubits + 5 >= phys.bit_length():
        raise ResourceLimitError(
            f"{n_qubits} qubits need 2^{n_qubits + 5} bytes for state and scratch, "
            f"more than the {phys} bytes of physical memory")


class StateVector:
    """Dense state over n qubits, starting at |0...0>."""

    __slots__ = ("n_qubits", "amps", "_scratch")

    def __init__(self, n_qubits: int):
        _check_width(n_qubits)
        self.n_qubits = n_qubits
        self.amps = np.zeros(1 << n_qubits, dtype=np.complex128)
        self.amps[0] = 1.0
        self._scratch: np.ndarray | None = None

    @classmethod
    def _adopt(cls, amps: np.ndarray) -> "StateVector":
        """A state over a contiguous complex128 array of 2^n >= 2 entries,
        used as is: nothing is allocated."""
        n = amps.shape[0].bit_length() - 1
        _check_width(n)
        state = cls.__new__(cls)
        state.n_qubits, state.amps, state._scratch = n, amps, None
        return state

    @classmethod
    def from_amplitudes(cls, amps: np.ndarray) -> "StateVector":
        """A state over the given normalized amplitudes.  A contiguous
        complex128 array is adopted, not copied: the kernels overwrite it."""
        arr = np.ascontiguousarray(amps, dtype=np.complex128)
        n = int(arr.shape[0]).bit_length() - 1
        if arr.ndim != 1 or arr.shape[0] != 1 << n or arr.shape[0] < 2:
            raise ValueError("amplitude count must be a power of two")
        norm = np.linalg.norm(arr)
        if not abs(norm - 1.0) <= _NORM_ATOL:  # a NaN norm fails too
            raise ValueError(f"state is not normalized (norm {norm:.12g})")
        return cls._adopt(arr)

    def scratch(self) -> np.ndarray:
        if self._scratch is None:
            self._scratch = np.empty_like(self.amps)
        return self._scratch

    def restart(self) -> None:
        """Return to |0...0> in place."""
        self.amps.fill(0)
        self.amps[0] = 1.0

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def copy(self) -> "StateVector":
        return StateVector._adopt(self.amps.copy())


def _check_qubit(state: StateVector, q: int) -> None:
    if not 0 <= q < state.n_qubits:
        raise ValueError(f"qubit {q} out of range for {state.n_qubits} qubits")


# _compile packs consecutive gates into blocks on at most this many qubits.
# On 2^16 amplitudes one gathered dense block costs about 0.48 ms on 2
# qubits, 0.56 ms on 4, 0.70 ms on 5 and 0.96 ms on 6.  With structured
# blocks (diagonal slots batched, in place where the layout allows), median
# of 7 in-process on a 2-core host, compile + execute took: chain16_mma 140
# blocks (98 in place) in 6.6 + 58.6 ms at 4 against 100 blocks in
# 9.2 + 59.6 ms at 5 and 74 in 80.5 + 60.5 ms at 6; narrow_cli 900 blocks
# in 8.7 + 17.1 ms at 4 against 600 in 12.5 + 11.3 ms at 5; narrow_rejection,
# which compiles on every op, 160 blocks in 4.0 + 2.7 ms at 4 against 120
# in 8.0 + 2.0 ms at 5.  5 is no faster in total than 4, and 4 keeps the
# plan's matrices at 4 KiB each.
_BLOCK_QUBITS = 4


# One kernel definition, _kernel_calls, runs every gate and block at every
# width (see the module docstring).  _bind lays each plan entry onto a
# state's two buffers once, so the executors make only its numpy calls; the
# public apply_* functions validate and then call _kernel_block.
def _kernel_calls(a: np.ndarray, s: np.ndarray, u: np.ndarray, shape: tuple[int, ...],
                  perm: tuple[int, ...], in_place: bool = False) -> tuple:
    """The numpy calls of one kernel that reads the amplitudes in buffer a
    and leaves the result in buffer s, a then being scratch.

    shape and perm come from _layout: its gathered perm, or its in-place
    perm when in_place is set; u is indexed over the sorted operand qubits,
    sum(bit(qubits[i]) * 2^i), with one leading axis per diagonal slot (see
    _plan_entry).  Nothing is allocated when the calls run."""
    view = a.reshape(shape).transpose(perm)
    if in_place:
        return (partial(np.matmul, u, view, s.reshape(shape).transpose(perm)),)
    rows = u.shape[:-1] + (-1,)
    return (partial(np.copyto, s.reshape(view.shape), view),
            partial(np.matmul, u, s.reshape(rows), a.reshape(rows)),
            partial(np.copyto, s.reshape(shape).transpose(perm), a.reshape(view.shape)))


def _kernel_block(state: StateVector, u: np.ndarray, shape: tuple[int, ...],
                  perm: tuple[int, ...], in_place: bool = False) -> None:
    for call in _kernel_calls(state.amps, state.scratch(), u, shape, perm, in_place):
        call()
    state.amps, state._scratch = state._scratch, state.amps


# The gathering kernel's copies are slow on short inner loops: on 2^16
# amplitudes a 4-qubit block on (1, 2, 3, 15) took 1.14 ms with the bit-0
# axis innermost and 0.73 ms with it outermost, (1, 15) 0.80 against
# 0.39 ms; with the 8 amplitudes of bits 0-2 innermost, (3, 9) took 0.46 ms
# against 0.54 ms with them outermost.
_COPY_RUN = 8


# Where the layout allows it, a block multiplies in place when its matmul
# gets at least 32 columns, or at least 4 with at most 2 x columns products
# in the batched call, diagonal-slot values not counted.  us per kernel call,
# in place / gathered, for an 8 x 8 block on the run lo..lo+2 diagonal in the
# top qubit, with the calls bound as the executors make them (median of
# 7 x 400 calls, one BLAS thread, 2-core host); * marks the rule's pick:
#
#    n   lo = 0        1            2            3            4
#    6    2.4*/4.5     2.9/4.4*     1.9*/3.3
#    8    2.3*/4.1     6.2/4.2*     4.0*/4.4     2.9*/4.9     2.6*/4.7
#   10    4.6*/8.2    20.3/7.6*    11.0/8.5*     9.9*/9.4     5.4*/7.8
#   12   16.1*/21.3   83.3/23.7*   43.7/20.7*   25.1/21.5*   16.6*/20.3
#   14   34.8*/79.5    335/77.9*    158/77.9*   89.6/68.4*   60.0/66.3*
#   16    139*/323    1261/340*     608/336*     357/315*     248/284*
#
# A narrow state pays the call, not the arithmetic, so in place wins there
# with few columns; a wide one pays a product per few columns.  Below 4
# columns the in-place bytes differ from the gathered ones (the matmul takes
# another BLAS path): at 4-11 qubits in 171 of 216 layouts with 2 columns,
# and in none of 477 with 4 or more, under 1 and 2 BLAS threads.
_IN_PLACE_COLUMNS = 32
_FEW_PRODUCTS = 2


def _in_place_pays(columns: int, others: int) -> bool:
    """Whether a block that can multiply in place does, its matrix getting
    `columns` columns of the `others` amplitudes per value of its operand
    bits: the batched matmul then runs others / columns products for each
    value of the diagonal slots."""
    return columns >= _IN_PLACE_COLUMNS or columns >= 4 and others <= _FEW_PRODUCTS * columns ** 2


@lru_cache(maxsize=4096)
def _layout(qubits: tuple[int, ...], diag: tuple[int, ...], n_qubits: int):
    """State axes for _kernel_calls on ascending qubits of an n_qubits
    state, of which diag (ascending) are diagonal slots: (shape, gathered
    perm, in-place perm or None).

    Each diagonal slot is one axis of size 2, each run of adjacent other
    operands one axis of size 2^m, as are the bits between them; the bits
    above all operands are a leading -1 axis.  The gathered perm puts the
    diagonal axes first, then the other operand axes, each highest first,
    then the others in state order, apart from those spanning under
    _COPY_RUN amplitudes, which go first.

    The kernel can multiply in place where the other operands are one run of
    m >= 2 qubits below every diagonal slot: its matrix then gets as columns
    the 2^lo amplitudes below the run, or, with the run at bit 0, the rows
    between it and the lowest diagonal slot or the top (the run axis and
    that one swapped).  It does where _in_place_pays says so.  The in-place
    perm puts the diagonal axes just before those two (where u's batch axes
    broadcast) and every other axis before them."""
    sizes, kinds = _runs([("slot", q) if q in diag else "run" if q in qubits else None
                          for q in range(qubits[-1] + 1)])
    shape = (-1, *sizes)
    slots = [ax for ax, kind in enumerate(kinds, 1) if kind not in ("run", None)]
    dense = [ax for ax, kind in enumerate(kinds, 1) if kind == "run"]
    rest = [0] + [ax for ax, kind in enumerate(kinds, 1) if kind is None]
    # a copy whose innermost axis spans under _COPY_RUN amplitudes runs that
    # short loop once per element, so such axes go outermost
    rest.sort(key=lambda ax: not 0 < shape[ax] < _COPY_RUN)
    in_place = None
    if len(dense) == 1 and shape[dense[0]] >= 4 and dense[0] > max(slots, default=0):
        run = dense[0]
        cols = run + 1 if run + 1 < len(shape) else run - 1
        columns = shape[cols] if cols else 1 << (n_qubits - 1 - qubits[-1])
        if _in_place_pays(columns, 1 << (n_qubits - len(qubits))):
            in_place = tuple([ax for ax in range(run) if ax != cols and ax not in slots]
                             + slots + [run, cols])
    return shape, tuple(slots + dense + rest), in_place


class Block(NamedTuple):
    """A plan entry: a matrix on ascending qubits, run as the calls of
    _kernel_calls(amps, scratch, u, shape, perm, in_place)."""
    qubits: tuple[int, ...]
    u: np.ndarray
    shape: tuple[int, ...]
    perm: tuple[int, ...]
    in_place: bool


# A slot of a block matrix is diagonal when its off-diagonal couplings (the
# entries whose row and column differ in that slot) have a Frobenius norm of
# at most this, so each is at most this too.  In the filter circuits' block
# products each sits either at or below 1.5e-16 (the ancilla, rounding of
# an exact control) or at or above 9.6e-4.
_DIAG_ATOL = 1e-14


@lru_cache(maxsize=8)
def _slot_masks(k: int) -> np.ndarray:
    """(k, 2 * 4^k) floats: row j is 1 on the real and imaginary part of
    each entry of a 2^k x 2^k matrix whose row and column differ in bit j.
    Its product with the squared parts gives each slot's squared coupling
    norm.  One product, not a comparison per entry: on narrow_rejection,
    which compiles every op, np.abs(u) > tol cost more per block and its
    numpy loops, used nowhere else in a run, added 0.13-0.25 MB of resident
    code.  The product is one dot per row, the same bits under 1 and 2 BLAS
    threads."""
    r = np.arange(1 << k)
    differ = (r[:, None] ^ r) >> np.arange(k)[:, None, None] & 1
    return np.repeat(differ.reshape(k, -1), 2, axis=1).astype(np.float64)


def _plan_entry(qubits: tuple[int, ...], u: np.ndarray, n_qubits: int) -> Block:
    """The plan entry for a matrix u on ascending qubits of an n_qubits state.

    A slot whose off-diagonal couplings have a norm within _DIAG_ATOL acts
    as a control, as the ancilla of a filter step's inner blocks does up to
    rounding: u is stored as its diagonal sub-blocks, shape (2,) * d +
    (2^m, 2^m) for d such slots and m = k - d, dropping those couplings, and
    the kernel batches its matmul over them.  The entry keeps _layout's
    in-place perm where there is one, else its gathered perm."""
    k = len(qubits)
    coupling = _slot_masks(k) @ np.square(u.view(np.float64)).ravel()
    diag = [j for j, c in enumerate(coupling.tolist()) if c <= _DIAG_ATOL ** 2]
    if diag:
        # the sub-block for each setting of the diagonal slots, highest first
        dense = tuple(j for j in range(k) if j not in diag)
        u = u.ravel().take(_lift_index(dense, k)).reshape(
            (2,) * len(diag) + (1 << len(dense),) * 2)
    shape, gathered, in_place = _layout(qubits, tuple(qubits[j] for j in diag), n_qubits)
    return Block(qubits, u, shape, in_place or gathered, in_place is not None)


def _fuse_block(gates: list[tuple[np.ndarray, tuple[int, ...]]], n_qubits: int) -> Block:
    """The plan entry for consecutive gates, given as (matrix, qubits) in
    circuit order: their product on the sorted union of their qubits
    (gates._compose), as _plan_entry lays it out on n_qubits."""
    return _plan_entry(*_compose(gates), n_qubits)


def apply_1q(state: StateVector, u: np.ndarray, q: int) -> StateVector:
    """In-place 1-qubit update; pairs (s, s + 2^q) with s ranging over
    floor(i / 2^q) * 2^(q+1) + (i mod 2^q)."""
    _check_qubit(state, q)
    if u.shape != (2, 2):
        raise ValueError("matrix must be 2x2")
    _kernel_block(state, u, *_layout((q,), (), state.n_qubits)[:2])
    return state


def apply_2q(state: StateVector, u: np.ndarray, p: int, q: int) -> StateVector:
    """In-place 2-qubit update on ordered qubits p < q; the matrix is indexed
    by bit(p) + 2*bit(q).  Callers normalize order by conjugating with the
    SWAP permutation when their operands arrive reversed."""
    _check_qubit(state, p)
    _check_qubit(state, q)
    if p == q:
        raise ValueError("qubits must be distinct")
    if p > q:
        raise ValueError("qubits must be ordered p < q")
    if u.shape != (4, 4):
        raise ValueError("matrix must be 4x4")
    _kernel_block(state, u, *_layout((p, q), (), state.n_qubits)[:2])
    return state


def apply_dense(state: StateVector, u: np.ndarray, qubits: tuple[int, ...]) -> StateVector:
    """Apply a dense k-qubit matrix on arbitrary distinct qubits (slot 0 of
    the matrix is the first listed qubit)."""
    k = len(qubits)
    if not k:
        raise ValueError("need at least one qubit")
    if len(set(qubits)) != k:
        raise ValueError(f"duplicate qubit in {qubits}")
    if u.shape != (1 << k, 1 << k):
        raise ValueError(f"matrix must be {1 << k}x{1 << k}")
    for q in qubits:
        _check_qubit(state, q)
    u, qubits = sort_operands(u, qubits)
    _kernel_block(state, u, *_layout(qubits, (), state.n_qubits)[:2])
    return state


# Probabilities and expectations reduce with einsum over the float64 view of
# the amplitudes, not with a BLAS dot product: einsum sums in one fixed order
# on one thread, while OpenBLAS splits a dot product across its threads from
# about 2^14 entries, so the last bits would depend on the BLAS thread count.
# Neither allocates a temporary vector.

def _branch_probability(amps: np.ndarray, q: int, outcome: int) -> float:
    view = amps.view(np.float64).reshape(-1, 2, 2 << q)[:, outcome, :]
    return float(np.einsum("ij,ij->", view, view))


def _project(amps: np.ndarray, q: int, outcome: int, prob: float) -> None:
    view = amps.reshape(-1, 2, 1 << q)
    view[:, 1 - outcome, :] = 0
    amps *= 1.0 / np.sqrt(prob)


def measure_project(state: StateVector, q: int, outcome: int) -> float:
    """Project onto the given outcome and renormalize; returns the outcome
    probability.  Probability below EPS_MMA cannot be projected onto."""
    _check_qubit(state, q)
    if outcome not in (0, 1):
        raise ValueError("outcome must be 0 or 1")
    p = _branch_probability(state.amps, q, outcome)
    if p < EPS_MMA:
        raise ProjectionError(f"outcome {outcome} on qubit {q} has probability {p:.3e}")
    _project(state.amps, q, outcome, p)
    return p


def assert_measure(state: StateVector, q: int, step: int = -1) -> float:
    """Assert a mid-circuit measurement finds |0>: record P(|0>), project,
    renormalize.  Raises FilterAssertionError below the EPS_MMA threshold."""
    _check_qubit(state, q)
    p0 = _branch_probability(state.amps, q, 0)
    if p0 < EPS_MMA:
        raise FilterAssertionError(step, p0)
    _project(state.amps, q, 0, p0)
    return p0


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if not 0 <= int(seed) < 1 << 64:
        raise ValueError("seed must fit in 64 bits")
    return np.random.Generator(np.random.Philox(int(seed)))


def bitstring(index: int, n_qubits: int) -> str:
    """Basis index as a string whose character position is the qubit index."""
    return format(index, f"0{n_qubits}b")[::-1]


def _probabilities(state: StateVector) -> np.ndarray:
    """|psi|^2, written into the first half of the state's scratch buffer,
    idle between kernels; the second half holds the squared imaginary parts."""
    n, amps = state.amps.shape[0], state.amps
    square = state.scratch().view(np.float64)
    np.square(amps.real, out=square[:n])
    np.square(amps.imag, out=square[n:])
    return np.add(square[:n], square[n:], out=square[:n])


def _cdf(state: StateVector) -> np.ndarray:
    """Cumulative basis-state probabilities, the table _draw inverts; the
    table is the only allocation."""
    return np.cumsum(_probabilities(state))


def _draw(cum: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Basis indices of draws from a cumulative table, one per uniform in
    [0, 1): a binary search per draw."""
    idx = np.searchsorted(cum, uniforms * cum[-1], side="right")
    np.clip(idx, 0, len(cum) - 1, out=idx)
    return idx


def _tally(idx: np.ndarray, n_qubits: int) -> dict[str, int]:
    """Drawn basis indices as bitstring counts, in index order."""
    # bincount, not np.unique: the first sort of a few hundred draws adds
    # about 0.5 MB to a process's peak RSS, as much as a 15-qubit state
    counts = np.bincount(idx)
    vals = np.flatnonzero(counts)
    # bitstring's characters for every value at once: code point 48 + bit q
    # at position q, read as one string per row.  In place: one temporary
    # table less took 0.6 MB off chain16_mma's peak RSS (1,779 values)
    codes = vals[:, None] >> np.arange(n_qubits)
    codes &= 1
    codes += 48
    keys = codes.astype(np.uint32).view(f"U{n_qubits}").ravel().tolist()
    return dict(zip(keys, counts[vals].tolist()))


def sample(state: StateVector, shots: int, seed) -> dict[str, int]:
    """Draw shots basis states by cumulative-probability inversion (binary
    search); deterministic for a given seed."""
    if shots < 0:
        raise ValueError("shots must be nonnegative")
    rng = _as_rng(seed)
    if shots == 0:
        return {}
    return _tally(_draw(_cdf(state), rng.random(shots)), state.n_qubits)


def _runs(labels: list) -> tuple[list[int], list]:
    """Axes of a C-ordered table indexed by bits 0..len(labels)-1: each
    maximal run of adjacent bits with equal labels is one axis.  Returns
    (sizes, labels) of the axes, highest first."""
    sizes: list[int] = []
    kinds: list = []
    for label in reversed(labels):
        if kinds and kinds[-1] == label:
            sizes[-1] *= 2
        else:
            sizes.append(2)
            kinds.append(label)
    return sizes, kinds


@lru_cache(maxsize=1024)
def _sign_axes(bits: int, mask: int) -> tuple[list[int], list[int]]:
    """Axes of a table over `bits` bits by runs of bits in and out of mask,
    and the axes in it."""
    sizes, kinds = _runs([mask >> i & 1 for i in range(bits)])
    return sizes, [i for i, k in enumerate(kinds) if k]


def _signed_sum(table: np.ndarray, bits: int, mask: int) -> float:
    """sum_j table[j] (-1)^popcount(j & mask) for a float table over `bits`
    bits: one einsum onto the bits of mask, one against their parity table."""
    sizes, signed = _sign_axes(bits, mask)
    small = np.einsum(table.reshape(sizes), list(range(len(sizes))), signed)
    if not signed:
        return float(small)
    return float(np.einsum("i,i->", small.ravel(), _parity(mask.bit_count())))


@lru_cache(maxsize=1024)
def _pair_axes(n: int, flip: int, union: int):
    """For expectation_pauli's flip group: the axes of 2^n amplitudes (and a
    last real/imaginary axis) by runs of qubits alike in flip, in union and
    in being the top flipped qubit t; the index of the amplitudes with bit t
    0, and of their partners (bit t 1, the other flipped axes reversed);
    einsum labels of the axes left and of the union axes; the union axes'
    shape."""
    top = flip.bit_length() - 1
    sizes, kinds = _runs([(q == top, flip >> q & 1, union >> q & 1) for q in range(n)])
    low = tuple(0 if t else slice(None) for t, _, _ in kinds)
    high = tuple(1 if t else slice(None, None, -1) if f else slice(None) for t, f, _ in kinds)
    axes = [i for i, (t, _, _) in enumerate(kinds) if not t]
    out = [i for i, (_, _, z) in enumerate(kinds) if z]
    return [*sizes, 2], low, high, axes, out, [sizes[i] for i in out]


def _check_operator(h: PauliHamiltonian, n_qubits: int) -> None:
    """Refuse an operator that expectation_pauli cannot measure on n qubits."""
    if h.n_qubits > n_qubits:
        raise ValueError("operator acts on more qubits than the state")
    if not h.is_hermitian():
        raise ValueError("operator is not Hermitian")


def expectation_pauli(state: StateVector, h: PauliHamiltonian) -> float:
    """<psi|H|psi>, reading the amplitudes in place.

    A Pauli word with masks f, z and y Y letters (hamiltonian.pauli_masks)
    acts as (P psi)[i] = (-i)^y (-1)^popcount(i & z) psi[i ^ f].  Terms are
    grouped by flip mask.  The Z-only terms (f = 0) share one |psi|^2 table,
    written into the state's idle scratch buffer, and each sums it with its
    signs.  A flip group pairs each amplitude a = psi[i] whose top flipped bit
    t is 0 with b = psi[i ^ f], read through a view of the amplitudes with the
    other flipped axes reversed; <P> is 2 (-1)^(y // 2) times the signed sum
    of Re(conj(a) b) for even y, of Im(conj(a) b) for odd y.  Those products
    are summed onto the group's sign qubits (t aside) into tables in the
    scratch buffer, which each term then sums with its signs.  Every reduction
    is an einsum, in one fixed order on one thread; nothing of the state's
    size is allocated (a term's signed table takes 8 * 2^popcount(z) bytes).
    """
    _check_operator(h, state.n_qubits)
    n, amps = state.n_qubits, state.amps
    groups: dict[int, list[tuple[int, int, complex]]] = {}
    for letters, coeff in h.sorted_terms():
        flip, sign, y = pauli_masks(letters)
        groups.setdefault(flip, []).append((sign, y, coeff))
    tables = state.scratch().view(np.float64)  # 2^(n+1) floats, idle between kernels
    acc = 0j
    for flip in sorted(groups):
        terms = groups[flip]
        if not flip:
            p = _probabilities(state)
            for sign, _, coeff in terms:
                acc += coeff * _signed_sum(p, n, sign)
            continue
        union = 0
        for sign, _, _ in terms:
            union |= sign
        union &= ~(1 << (flip.bit_length() - 1))  # bit t of i is 0 throughout
        sizes, low, high, axes, out, shape = _pair_axes(n, flip, union)
        view = amps.view(np.float64).reshape(sizes)  # last axis: real, imaginary
        a, b = view[low], view[high]
        size = 1 << union.bit_count()  # at most 2^(n-1): three fit in the scratch
        re, im, im_rest = (tables[j * size:(j + 1) * size].reshape(shape) for j in range(3))
        if any(y % 2 == 0 for _, y, _ in terms):
            reim = len(sizes) - 1
            np.einsum(a, axes + [reim], b, axes + [reim], out, out=re)
        if any(y % 2 for _, y, _ in terms):
            np.einsum(a[..., 0], axes, b[..., 1], axes, out, out=im)
            np.einsum(a[..., 1], axes, b[..., 0], axes, out, out=im_rest)
            np.subtract(im, im_rest, out=im)
        qubits = [q for q in range(n) if union >> q & 1]
        for sign, y, coeff in terms:
            mask = sum(1 << i for i, q in enumerate(qubits) if sign >> q & 1)
            part = _signed_sum(im if y % 2 else re, len(qubits), mask)
            acc += coeff * (2.0 * (-1) ** (y // 2) * part)
    if abs(acc.imag) > 1e-9:
        raise ValueError(f"expectation has imaginary part {acc.imag:.3e}")
    return float(acc.real)


def success_product(probs) -> float:
    """Left-to-right float product of per-assertion probabilities."""
    return math.prod(probs, start=1.0)


@dataclass
class RunReport:
    """Result of one :func:`run` call; serializes to a stable JSON layout."""

    mode: str
    n_qubits: int
    shots: int
    seed: int
    ancilla: int | None
    assert_probs: list[float]
    overall_success: float
    samples: dict[str, int]
    energy: float | None = None
    fusion_stats: dict | None = None
    accepted: int | None = None
    rejected: int | None = None
    step_rejections: list[int] | None = None
    wall_time_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "n_qubits": self.n_qubits,
            "shots": self.shots,
            "seed": self.seed,
            "ancilla": self.ancilla,
            "assert_probs": list(self.assert_probs),
            "overall_success": self.overall_success,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "step_rejections": self.step_rejections,
            "samples": {k: self.samples[k] for k in sorted(self.samples)},
            "energy": self.energy,
            "fusion_stats": self.fusion_stats,
            "wall_time_s": self.wall_time_s,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _executed_runs(circuit: Circuit) -> list[tuple[list, int]]:
    """The runs before the trailing measure/barrier block, the sampling
    point: everything that executes."""
    runs = list(circuit.runs)
    while runs:
        body, count = runs[-1]
        j = len(body)
        while j and body[j - 1].gate in (_MEASURE, _BARRIER):
            j -= 1
        if j == len(body):
            break
        runs.pop()
        if j:  # the block starts in the last copy
            if count > 1:
                runs.append((body, count - 1))
            runs.append((body[:j], 1))
            break
    return runs


class Plan(NamedTuple):
    """A circuit before its sampling block, cut at its mid-circuit points.
    segments[i] holds the blocks that run before points[i], the last segment
    those after every point; a point is (qubit, step) for the step-th
    measure and (qubit, None) for a reset.  A segment is a list of runs
    (blocks, count): `count` copies of the same blocks, in order."""
    segments: list[list[tuple[list[Block], int]]]
    points: list[tuple[int, int | None]]
    n_steps: int


def _compile(circuit: Circuit, mode: str, ancilla: int | None) -> Plan:
    """Resolve matrices, pack gates into blocks, cut at measures and resets.

    Each run of consecutive gates is cut greedily, in circuit order, into
    blocks on at most _BLOCK_QUBITS qubits (a wider gate is a block of its
    own); a measure or reset closes the open block and the segment, barriers
    do not.  Each block's product matrix is built here, once per distinct
    block, and repeats share its Block.

    A repeated run of the circuit is walked copy by copy only until the open
    block at a copy boundary repeats (circuit.walk_run); the blocks since
    its earlier occurrence then stand for the rest of the run, as one run
    of the plan.  An open block that holds a whole copy of the run takes
    every later copy whole, so the rest of the run is walked with nothing
    compared.  The blocks and their order are those of a flat walk.

    In mma mode the same walk validates the layout: mid-circuit measures
    hit the ancilla and pair with a following reset of it, and every reset
    is preceded by such a measure (barriers between them are skipped).
    ``run`` has checked the ancilla's range.
    """
    # Trotter slices repeat their blocks, so each distinct block, keyed by its
    # gates' matrix bytes and qubits, is fused once per call and its Block
    # shared by every segment entry that repeats it
    blocks: dict[tuple, Block] = {}
    cells: list[Block] = []   # every segment's blocks, in order
    cuts: list[int] = []      # where each segment but the last ends in cells
    marks: list[list] = [[]]  # each segment's repeats, from walk_run
    block: list[tuple[np.ndarray, tuple[int, ...]]] = []  # the open block's gates
    block_qubits: set[int] = set()
    opened = last = 0  # positions of the open block's first and last gates
    points: list[tuple[int, int | None]] = []
    step = 0
    measured = None  # mma: position of a measure whose ancilla reset comes next
    pos = 0          # of the next instruction in the flat sequence

    def close_block() -> None:
        key = tuple((u.tobytes(), u.dtype, qs) for u, qs in block)
        entry = blocks.get(key)
        if entry is None:
            entry = blocks[key] = _fuse_block(block, circuit.n_qubits)
        cells.append(entry)

    def walk(body: list) -> None:
        nonlocal block, block_qubits, opened, last, step, measured, pos
        for at, ins in enumerate(body, pos):
            g = ins.gate
            if g is _BARRIER:
                continue
            if measured is not None and (g is not _RESET or ins.qubits[0] != ancilla):
                raise MmaStructureError(
                    f"measure at instruction {measured} lacks a following ancilla reset")
            if ins.is_gate:
                joined = block_qubits.union(ins.qubits)
                if block and len(joined) > _BLOCK_QUBITS:
                    close_block()
                    block, joined = [], set(ins.qubits)
                if not block:
                    opened = at
                block.append((ins.resolved_matrix(), ins.qubits))
                block_qubits, last = joined, at
                continue
            if block:
                close_block()
                block, block_qubits = [], set()
            if g is _MEASURE:
                if mode == "mma":
                    if ins.qubits[0] != ancilla:
                        raise MmaStructureError(
                            f"mid-circuit measure on qubit {ins.qubits[0]} is not the ancilla")
                    measured = at
                points.append((ins.qubits[0], step))
                step += 1
            else:
                if mode == "mma" and measured is None:
                    raise MmaStructureError(
                        f"reset at instruction {at} is not paired with an assertion")
                measured = None
                points.append((ins.qubits[0], None))
            cuts.append(len(cells))
            marks.append([])
        pos += len(body)

    def carried() -> tuple[tuple, list]:
        copy = pos - len(body)  # where the copy just walked starts
        if block and start <= copy and opened <= copy <= last:
            # the open block holds a whole copy of this run, so it takes
            # every later copy whole and grows until the run ends: no later
            # boundary can repeat this one, and nothing needs comparing
            return (object(),), []
        # a copy that cut the plan changed len(points): no repeat
        return ((len(points), measured, tuple(qs for _, qs in block)),
                [(None, u) for u, _ in block])

    for body, count in _executed_runs(circuit):
        start, end = pos, pos + len(body) * count
        # a copy with a point never repeats, so a mark falls in one segment
        mark = walk_run(body, count, cells, walk, carried)
        if mark is not None:
            marks[-1].append(mark)
        pos = end  # past the copies walked and those the mark stands for
    if block:
        close_block()
    bounds = [0, *cuts, len(cells)]
    return Plan([run_pieces(cells, m, lo, hi) for lo, hi, m in zip(bounds, bounds[1:], marks)],
                points, step)


def infer_ancilla(circuit: Circuit) -> int | None:
    """The unique target of all mid-circuit measures, or None.

    Trailing measure/barrier instructions are the sampling block and do not
    count.  Returns None when there are no mid-circuit measures or when they
    hit more than one qubit.
    """
    targets = {ins.qubits[0] for body, _ in _executed_runs(circuit) for ins in body
               if ins.gate is _MEASURE}
    if len(targets) == 1:
        return targets.pop()
    return None


def _bind(state: StateVector, plan: Plan) -> tuple[np.ndarray, list]:
    """The plan laid onto the state's two buffers: (buffer 0, the one that
    holds the amplitudes now; segments).  Each run of a segment becomes
    (calls, count, flips): calls[p] are the numpy calls of one copy of its
    blocks when the copy starts with the amplitudes in buffer p, and flips
    is 1 when a copy ends in the other buffer (an odd number of blocks).
    Each distinct Block is bound once per buffer, by _kernel_calls."""
    buffers = (state.amps, state.scratch())
    bound: dict[tuple[int, int], tuple] = {}

    def copy_calls(blocks: list[Block], p: int) -> list:
        out = []
        for b in blocks:
            key = (id(b), p)
            if key not in bound:
                bound[key] = _kernel_calls(buffers[p], buffers[1 - p], *b[1:])
            out += bound[key]
            p ^= 1
        return out

    return buffers[0], [[((copy_calls(blocks, 0), copy_calls(blocks, 1)), count, len(blocks) % 2)
                         for blocks, count in segment] for segment in plan.segments]


def _run_segment(state: StateVector, first: np.ndarray, segment: list) -> None:
    """Run one segment bound by _bind, whose buffer 0 is `first`."""
    p = state.amps is not first
    for calls, count, flips in segment:
        for _ in range(count):
            for call in calls[p]:
                call()
            p ^= flips
    if p != (state.amps is not first):
        state.amps, state._scratch = state._scratch, state.amps


def _execute_mma(state: StateVector, plan: Plan) -> list[float]:
    """Run a compiled plan in one pass, asserting |0> at every mid-circuit
    measurement; returns the assertion probabilities in order."""
    first, segments = _bind(state, plan)
    assert_probs: list[float] = []
    for segment, (q, step) in zip(segments, plan.points):
        _run_segment(state, first, segment)
        if step is not None:  # a reset finds the |0> its paired assertion left
            assert_probs.append(assert_measure(state, q, step))
    _run_segment(state, first, segments[-1])
    return assert_probs


# _execute_rejection draws its uniforms at most this many at a time, so a
# run of many shots holds 32 KiB of them, not 8 bytes per shot (and a Python
# float each)
_DRAW_CHUNK = 4096


def _execute_rejection(state: StateVector, plan: Plan, shots: int,
                       rng: np.random.Generator, hamiltonian: PauliHamiltonian | None):
    """Run shots of a compiled plan, drawing each mid-circuit outcome.

    A shot's state at a measure or reset point depends only on the outcomes
    drawn before it, its prefix, so the outcome tree is memoized for this
    call: P(0) at the next point of every visited prefix, and the sampling
    CDF of the latest accepted prefix, one state-sized table at a time.  One
    cursor state computes each new prefix, one segment on from its parent
    when the cursor sits there, otherwise by a replay from |0...0>, so no
    shot costs more than one plan pass.

    A shot reads one uniform per point it reaches and one for its sample:
    those of one rng.random() each, in shot order, read from chunks of the
    same stream.  A chunk holds at most one uniform per shot still to run,
    and each of them reads at least one, so the generator ends where a
    per-shot loop leaves it.  The sample uniforms of the shots that reach a
    leaf are held and inverted on its CDF together, before it is dropped.

    Returns (accepted, samples, step_rejections, energy), energy being the
    hamiltonian's on the first accepted shot's state, read in place, or None.
    """
    first, segments = _bind(state, plan)
    points = plan.points
    p0s: dict[tuple[int, ...], float] = {}
    leaf: tuple | None = None             # (accepted prefix, its CDF)
    at: tuple[int, ...] | None = None    # the prefix the cursor state sits at

    def seek(prefix: tuple[int, ...]) -> None:
        nonlocal at
        if prefix and prefix[:-1] == at:
            start = len(at)
        else:
            start = 0
            state.restart()
            _run_segment(state, first, segments[0])
        for i in range(start, len(prefix)):
            q = points[i][0]
            if prefix[i] == 0:
                _project(state.amps, q, 0, p0s[prefix[:i]])
            else:  # a reset found |1>
                # measured, not 1 - p0, which cancels when P(1) is tiny
                _project(state.amps, q, 1, _branch_probability(state.amps, q, 1))
                _kernel_block(state, _X, *_layout((q,), (), state.n_qubits)[:2])
            _run_segment(state, first, segments[i + 1])
        at = prefix

    def chunks():
        while True:
            yield from rng.random(min(shots - shot, _DRAW_CHUNK)).tolist()

    uniform = chunks().__next__
    step_rejections = [0] * plan.n_steps
    drawn = np.empty(shots, dtype=np.intp)
    held: list[float] = []  # the sample uniforms of the shots accepted at leaf
    accepted = 0
    energy: float | None = None
    for shot in range(shots):
        prefix: tuple[int, ...] = ()
        for q, step in points:
            p0 = p0s.get(prefix)
            if p0 is None:
                seek(prefix)
                p0 = p0s[prefix] = _branch_probability(state.amps, q, 0)
            if uniform() < p0:
                prefix += (0,)
            elif step is None:
                prefix += (1,)
            else:
                # later outcomes cannot change rejection; stop early
                step_rejections[step] += 1
                break
        else:
            if leaf is None or leaf[0] != prefix:
                if held:
                    drawn[accepted - len(held):accepted] = _draw(leaf[1], np.array(held))
                    held.clear()
                leaf = None  # drop the old table before building the new one
                seek(prefix)
                leaf = (prefix, _cdf(state))
                if hamiltonian is not None and energy is None:
                    # the CDF is its own array, so the scratch buffer is idle
                    energy = expectation_pauli(state, hamiltonian)
            held.append(uniform())
            accepted += 1
    if held:
        drawn[accepted - len(held):accepted] = _draw(leaf[1], np.array(held))
    return accepted, _tally(drawn[:accepted], state.n_qubits), step_rejections, energy


def run(circuit: Circuit, mode: str, shots: int, seed: int, ancilla: int | None,
        hamiltonian: PauliHamiltonian | None = None,
        fusion_stats: dict | None = None) -> RunReport:
    """Execute a filter-style circuit and report success statistics.

    ``ancilla`` names the qubit every mid-circuit measurement must assert in
    mma mode; rejection mode needs none and only checks the range of one
    given.  ``hamiltonian``, if given, is measured on the pre-sampling state
    and reported as ``energy``; in rejection mode that is the state of the
    first accepted shot.  An operator it cannot measure is refused before
    anything runs, also when no shot would be accepted.

    The plan is compiled for this register's width, which picks each
    block's kernel form, and bound to the state's two buffers once, so each
    block runs as its numpy calls alone; that changes no byte of a report.
    Rejection mode memoizes the outcome tree for this call only (see
    ``_execute_rejection``): each distinct outcome prefix is computed once,
    and the report equals that of restarting the plan from |0...0> for every
    shot, drawing from the generator in the same order.
    """
    if mode not in ("mma", "rejection"):
        raise ValueError(f"unknown mode {mode!r}")
    if shots < 1:
        raise ValueError("shots must be positive")
    rng = _as_rng(seed)
    if (ancilla is None and mode == "mma"
            or ancilla is not None and not 0 <= ancilla < circuit.n_qubits):
        raise MmaStructureError(f"ancilla index {ancilla} out of range")
    if hamiltonian is not None:
        _check_operator(hamiltonian, circuit.n_qubits)
    t0 = time.perf_counter()
    state = StateVector(circuit.n_qubits)
    plan = _compile(circuit, mode, ancilla)

    if mode == "mma":
        assert_probs = _execute_mma(state, plan)
        energy = expectation_pauli(state, hamiltonian) if hamiltonian is not None else None
        samples = sample(state, shots, rng)
        fields = dict(assert_probs=assert_probs, overall_success=success_product(assert_probs))
    else:
        accepted, samples, step_rejections, energy = _execute_rejection(
            state, plan, shots, rng, hamiltonian)
        fields = dict(assert_probs=[], overall_success=accepted / shots, accepted=accepted,
                      rejected=shots - accepted, step_rejections=step_rejections)
    return RunReport(mode=mode, n_qubits=circuit.n_qubits, shots=shots, seed=seed,
                     ancilla=ancilla, samples=samples, energy=energy,
                     fusion_stats=fusion_stats, wall_time_s=time.perf_counter() - t0,
                     **fields)
