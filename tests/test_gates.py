"""Gate matrix conventions and algebraic identities."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nucsim import gates as gates_module
from nucsim.gates import QASM_NAMES, Gate, _compose, _lift, gate_matrix, sort_operands

ANGLES = st.floats(min_value=-2 * np.pi, max_value=2 * np.pi,
                   allow_nan=False, allow_infinity=False)

_SQ2 = 1 / np.sqrt(2)


def u3_formula(theta, phi, lam):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -np.exp(1j * lam) * s],
                     [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]])


def controlled(u, n_controls):
    """Low-slot controls: the top-left block is identity, the bottom-right
    (all controls set) block is u, interleaved by bit pattern."""
    k = u.shape[0].bit_length() - 1
    dim = 2 ** (n_controls + k)
    full = np.eye(dim, dtype=complex)
    mask = (1 << n_controls) - 1
    rows = [i for i in range(dim) if i & mask == mask]
    for a, i in enumerate(rows):
        for b, j in enumerate(rows):
            full[i, j] = u[a, b]
    return full


def all_param_cases():
    rng = np.random.default_rng(11)
    for gate in Gate:
        if gate in (Gate.MEASURE, Gate.RESET, Gate.BARRIER, Gate.C1, Gate.C2):
            continue
        params = tuple(float(x) for x in rng.uniform(-np.pi, np.pi, gate.n_params))
        yield gate, params


@pytest.mark.parametrize("gate,params", list(all_param_cases()),
                         ids=lambda v: v.value if isinstance(v, Gate) else "p")
def test_everything_is_unitary(gate, params):
    u = gate_matrix(gate, params)
    dim = 2 ** gate.n_qubits
    assert u.shape == (dim, dim)
    assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) <= 1e-12


def test_hadamard_literal():
    assert np.allclose(gate_matrix(Gate.H), _SQ2 * np.array([[1, 1], [1, -1]]), atol=1e-15)


def test_u3_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(50):
        t, p, l = rng.uniform(-2 * np.pi, 2 * np.pi, 3)
        assert np.allclose(gate_matrix(Gate.U3, (t, p, l)), u3_formula(t, p, l), atol=1e-14)
    assert np.allclose(gate_matrix(Gate.U3, (0, 0, 0)), np.eye(2), atol=1e-15)


def test_u2_is_u3_at_half_pi():
    assert np.allclose(gate_matrix(Gate.U2, (0.3, -1.1)),
                       u3_formula(np.pi / 2, 0.3, -1.1), atol=1e-14)


def test_u1_and_rz_phase_convention():
    lam = 0.7321
    u1 = gate_matrix(Gate.U1, (lam,))
    rz = gate_matrix(Gate.RZ, (lam,))
    assert np.allclose(u1, np.diag([1, np.exp(1j * lam)]), atol=1e-15)
    # rz carries the -lam/2 global phase relative to u1
    assert np.allclose(rz, np.exp(-1j * lam / 2) * u1, atol=1e-14)
    assert np.allclose(rz, np.diag([np.exp(-1j * lam / 2), np.exp(1j * lam / 2)]), atol=1e-15)


def test_phase_gate_ladder():
    s, t, z = gate_matrix(Gate.S), gate_matrix(Gate.T), gate_matrix(Gate.Z)
    assert np.allclose(s @ s, z, atol=1e-15)
    assert np.allclose(t @ t, s, atol=1e-15)
    assert np.allclose(gate_matrix(Gate.SDG), s.conj().T, atol=1e-15)
    assert np.allclose(gate_matrix(Gate.TDG), t.conj().T, atol=1e-15)


def test_cx_little_endian_action():
    cx = gate_matrix(Gate.CX)
    # control is qubit 0 (index bit 0); |q1 q0> = |01> at index 1 -> index 3
    state = np.zeros(4, dtype=complex)
    state[1] = 1.0
    assert np.argmax(np.abs(cx @ state)) == 3
    # control clear: index 2 stays
    state[:] = 0
    state[2] = 1.0
    assert np.argmax(np.abs(cx @ state)) == 2


@pytest.mark.parametrize("gate,base,n_params", [
    (Gate.CY, Gate.Y, 0),
    (Gate.CZ, Gate.Z, 0),
    (Gate.CH, Gate.H, 0),
    (Gate.CRX, Gate.RX, 1),
    (Gate.CRY, Gate.RY, 1),
    (Gate.CRZ, Gate.RZ, 1),
    (Gate.CU1, Gate.U1, 1),
])
def test_controlled_embeddings(gate, base, n_params):
    params = (0.8371,) * n_params
    assert np.allclose(gate_matrix(gate, params),
                       controlled(gate_matrix(base, params), 1), atol=1e-14)


def test_cu3_embedding():
    params = (1.1, -0.4, 2.2)
    assert np.allclose(gate_matrix(Gate.CU3, params),
                       controlled(gate_matrix(Gate.U3, params), 1), atol=1e-14)


def test_multi_controlled_x_family():
    x = gate_matrix(Gate.X)
    assert np.allclose(gate_matrix(Gate.CCX), controlled(x, 2), atol=1e-14)
    assert np.allclose(gate_matrix(Gate.C3X), controlled(x, 3), atol=1e-14)
    assert np.allclose(gate_matrix(Gate.C4X), controlled(x, 4), atol=1e-14)
    sqrt_x = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
    assert np.allclose(sqrt_x @ sqrt_x, x, atol=1e-15)
    assert np.allclose(gate_matrix(Gate.C3SQRTX), controlled(sqrt_x, 3), atol=1e-14)


def test_relative_phase_toffolis_match_magnitudes():
    # rccx/rc3x equal ccx/c3x up to relative phases: same magnitude pattern
    assert np.allclose(np.abs(gate_matrix(Gate.RCCX)),
                       np.abs(gate_matrix(Gate.CCX)), atol=1e-12)
    assert np.allclose(np.abs(gate_matrix(Gate.RC3X)),
                       np.abs(gate_matrix(Gate.C3X)), atol=1e-12)


# the gate bodies of rccx and rc3x, as qelib1.inc writes them
RCCX_BODY = ("u2(0,pi) c; u1(pi/4) c; cx b,c; u1(-pi/4) c; cx a,c; u1(pi/4) c; "
             "cx b,c; u1(-pi/4) c; u2(0,pi) c;")
RC3X_BODY = ("u2(0,pi) d; u1(pi/4) d; cx c,d; u1(-pi/4) d; u2(0,pi) d; cx a,d; "
             "u1(pi/4) d; cx b,d; u1(-pi/4) d; cx a,d; u1(pi/4) d; cx b,d; "
             "u1(-pi/4) d; u2(0,pi) d; u1(pi/4) d; cx c,d; u1(-pi/4) d; u2(0,pi) d;")


_BODY_ANGLES = {"0": 0.0, "pi": math.pi, "pi/4": math.pi / 4, "-pi/4": -math.pi / 4}


def body_product(body: str, n: int) -> np.ndarray:
    """A qelib1 gate body on operands a, b, c, ... (slots 0, 1, 2, ...) as
    one matrix: each statement lifted by oracles.lift_matrix and
    left-multiplied in order, starting from the identity."""
    acc = np.eye(1 << n, dtype=complex)
    for name, params, operands in re.findall(r"(\w+)(?:\(([^)]*)\))? ([a-z,]+);", body):
        args = tuple(_BODY_ANGLES[p] for p in params.split(",") if p)
        slots = tuple(ord(o) - ord("a") for o in operands.split(","))
        acc = oracles.lift_matrix(gate_matrix(QASM_NAMES[name], args), slots, n) @ acc
    return acc


def test_relative_phase_toffolis_are_their_qelib1_bodies():
    # bit for bit: the all_gates.qasm reports depend on these matrices
    assert np.array_equal(gate_matrix(Gate.RCCX), body_product(RCCX_BODY, 3))
    assert np.array_equal(gate_matrix(Gate.RC3X), body_product(RC3X_BODY, 4))


_ONE_QUBIT = [gate_matrix(g) for g in (Gate.H, Gate.X, Gate.S, Gate.T)]
_TWO_QUBIT = [gate_matrix(g) for g in (Gate.CX, Gate.CZ, Gate.SWAP, Gate.CH)]


@given(seed=st.integers(0, 2 ** 32 - 1), width=st.integers(1, 4), n_gates=st.integers(1, 11),
       wide=st.booleans())
@settings(max_examples=200, deadline=None)
def test_compose_equals_the_kernel_on_identity_product(seed, width, n_gates, wide):
    rng = np.random.default_rng(seed)
    space = [int(q) for q in rng.choice(9, size=width, replace=False)]
    gates = []
    for _ in range(n_gates):
        k = int(rng.integers(1, min(width, 2) + 1))
        qubits = tuple(int(q) for q in rng.choice(space, size=k, replace=False))  # either order
        named = _ONE_QUBIT if k == 1 else _TWO_QUBIT
        u = (named[int(rng.integers(len(named)))] if rng.random() < 0.4
             else oracles.random_unitary(rng, 1 << k))
        gates.append((u, qubits))
    if wide:  # one 5-qubit gate on unsorted operands
        gates = [(oracles.random_unitary(rng, 32), tuple(int(q) for q in rng.permutation(5)))]
    want_qubits, want = oracles.block_product_on_identity(gates)
    qubits, got = _compose(gates)
    assert qubits == want_qubits
    assert np.array_equal(got, want)

    slot = {q: i for i, q in enumerate(qubits)}
    for u, qs in gates:
        slots = tuple(slot[q] for q in qs)
        assert np.array_equal(_lift(u, slots, len(qubits)),
                              oracles.lift_matrix(u, slots, len(qubits)))


@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 5))
@settings(max_examples=60, deadline=None)
def test_sort_operands_is_the_lift_onto_sorted_slots(seed, n):
    rng = np.random.default_rng(seed)
    qubits = tuple(int(q) for q in rng.choice(9, size=n, replace=False))
    u = oracles.random_unitary(rng, 1 << n)
    u.setflags(write=False)  # as every shared gate matrix and payload is
    got, ordered = sort_operands(u, qubits)
    assert ordered == tuple(sorted(qubits))
    want = oracles.lift_matrix(u, tuple(ordered.index(q) for q in qubits), n)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_wide_reorders_leave_no_index_in_the_cache():
    """An index for n slots takes 8 * 4^n bytes: only those of at most five
    slots, the widest gate, are kept."""
    cache = gates_module._cached_slot_index
    n = 10
    u = np.arange(4 ** n, dtype=complex).reshape(1 << n, 1 << n)
    before = cache.cache_info().currsize
    got, ordered = sort_operands(u, tuple(range(n - 1, -1, -1)))
    assert cache.cache_info().currsize == before
    # slot j of the result is slot n - 1 - j of u, for rows and columns alike
    axes = [*range(n - 1, -1, -1), *range(2 * n - 1, n - 1, -1)]
    want = u.reshape((2,) * (2 * n)).transpose(axes).reshape(1 << n, 1 << n)
    assert ordered == tuple(range(n)) and np.array_equal(got, want)
    sort_operands(oracles.random_unitary(np.random.default_rng(0), 32), (4, 2, 3, 0, 1))
    assert cache.cache_info().currsize <= before + 1


def test_swap_and_cswap_permutations():
    swap = gate_matrix(Gate.SWAP)
    expect = np.eye(4)[[0, 2, 1, 3]]
    assert np.allclose(swap, expect, atol=1e-15)
    cswap = gate_matrix(Gate.CSWAP)
    perm = np.eye(8)
    perm[[3, 5]] = perm[[5, 3]]
    assert np.allclose(cswap, perm, atol=1e-15)
    # the products of their qelib1 bodies equal the former tables as uint64
    # words, so that the sign of a zero counts
    for got, table in ((swap, oracles.swap_matrix()), (cswap, oracles.cswap_matrix())):
        assert got.shape == table.shape
        assert np.array_equal(got.view(np.uint64), table.view(np.uint64))


def test_two_qubit_rotations():
    theta = 0.917
    rzz = gate_matrix(Gate.RZZ, (theta,))
    assert np.allclose(rzz, np.diag([1, np.exp(1j * theta), np.exp(1j * theta), 1]),
                       atol=1e-15)
    rxx = gate_matrix(Gate.RXX, (theta,))
    xx = np.kron(gate_matrix(Gate.X), gate_matrix(Gate.X))
    expect = np.cos(theta / 2) * np.eye(4) - 1j * np.sin(theta / 2) * xx
    assert np.allclose(rxx, expect, atol=1e-14)


@given(a=ANGLES, b=ANGLES)
@settings(max_examples=60, deadline=None)
def test_rz_additivity(a, b):
    prod = gate_matrix(Gate.RZ, (b,)) @ gate_matrix(Gate.RZ, (a,))
    assert np.max(np.abs(prod - gate_matrix(Gate.RZ, (a + b,)))) <= 1e-12


@given(theta=ANGLES)
@settings(max_examples=60, deadline=None)
def test_ry_is_real_rotation(theta):
    ry = gate_matrix(Gate.RY, (theta,))
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    assert np.max(np.abs(ry - np.array([[c, -s], [s, c]]))) <= 1e-12


def test_param_count_enforced():
    with pytest.raises(ValueError):
        gate_matrix(Gate.RX, ())
    with pytest.raises(ValueError):
        gate_matrix(Gate.H, (0.1,))


def test_markers_and_payload_tags_have_no_matrix():
    for gate in (Gate.MEASURE, Gate.RESET, Gate.BARRIER, Gate.C1, Gate.C2):
        with pytest.raises(ValueError):
            gate_matrix(gate)


def test_matrices_are_fresh_copies():
    a = gate_matrix(Gate.H)
    a[0, 0] = 99.0
    assert gate_matrix(Gate.H)[0, 0] == pytest.approx(_SQ2)


def test_qasm_name_table_round_trips():
    for name, gate in QASM_NAMES.items():
        assert gate.value == name
    assert Gate.C1 not in QASM_NAMES.values()
    assert Gate.MEASURE not in QASM_NAMES.values()


def test_member_arities_match_the_tables():
    """Each named gate's matrix table entry takes the member's parameter
    count and acts on its qubit count."""
    for g in QASM_NAMES.values():
        dim = 2 ** g.n_qubits
        assert gate_matrix(g, (0.3,) * g.n_params).shape == (dim, dim)
    for g in Gate:
        assert "n_qubits" in vars(g) and "n_params" in vars(g)
