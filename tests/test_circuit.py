"""Circuit container validation and classical register bookkeeping."""

import numpy as np
import pytest

from nucsim import Circuit, bitstring
from nucsim.circuit import Instruction
from nucsim.gates import Gate


def test_bitstring_is_qubit_zero_first():
    # index 1 means qubit 0 set: leftmost character
    assert bitstring(1, 3) == "100"
    assert bitstring(4, 3) == "001"
    assert bitstring(6, 4) == "0110"
    assert bitstring(0, 2) == "00"


def test_builder_shorthands_record_instructions():
    c = Circuit(3, [("c", 2)])
    c.h(0)
    c.rz(0.5, 2)
    c.cx(0, 1)
    c.measure(1, 0)
    c.reset(1)
    c.barrier()
    keys = [i.key() for i in c.instructions]
    assert keys == [
        (Gate.H, (0,), (), None),
        (Gate.RZ, (2,), (0.5,), None),
        (Gate.CX, (0, 1), (), None),
        (Gate.MEASURE, (1,), (), 0),
        (Gate.RESET, (1,), (), None),
        (Gate.BARRIER, (0, 1, 2), (), None),
    ]


def test_qubit_validation():
    c = Circuit(2)
    with pytest.raises(ValueError):
        c.h(2)
    with pytest.raises(ValueError):
        c.h(-1)
    with pytest.raises(ValueError):
        c.cx(0, 0)
    with pytest.raises(ValueError):
        c.h(0.5)
    with pytest.raises(ValueError):
        c.gate_op(Gate.CX, (0,))
    with pytest.raises(ValueError):
        c.gate_op(Gate.RZ, (0,), ())
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="non-finite"):
            c.rz(bad, 0)
        with pytest.raises(ValueError, match="non-finite"):
            c.gate_op(Gate.U3, (1,), (0.1, bad, 0.2))
    assert c.instruction_count() == 0
    with pytest.raises(ValueError):
        Circuit(0)


def test_measure_bit_range():
    c = Circuit(1, [("c", 1)])
    c.measure(0, 0)
    with pytest.raises(ValueError):
        c.measure(0, 1)


def test_flat_classical_indexing_spans_registers():
    c = Circuit(2, [("c", 3), ("r", 2)])
    assert c.n_clbits == 5
    assert c.clbit_index("c", 0) == 0
    assert c.clbit_index("c", 2) == 2
    assert c.clbit_index("r", 0) == 3
    assert c.clbit_index("r", 1) == 4
    assert c.clbit_location(3) == ("r", 0)
    assert c.clbit_location(2) == ("c", 2)
    with pytest.raises(ValueError):
        c.clbit_index("c", 3)
    with pytest.raises(ValueError):
        c.clbit_index("x", 0)
    with pytest.raises(ValueError):
        c.clbit_location(5)


def test_add_creg_rules():
    c = Circuit(1)
    c.add_creg("a", 2)
    with pytest.raises(ValueError):
        c.add_creg("a", 1)
    with pytest.raises(ValueError):
        c.add_creg("b", 0)
    # the constructor declares its registers by the same rules: a duplicate
    # name would emit text that does not parse back
    with pytest.raises(ValueError, match="already declared"):
        Circuit(2, [("c", 1), ("c", 1)])
    with pytest.raises(ValueError, match="size must be positive"):
        Circuit(2, [("c", 0)])


def test_fused_payloads_must_be_unitary():
    c = Circuit(2)
    c.fused_1q(np.eye(2, dtype=complex), 0)
    c.fused_2q(np.eye(4, dtype=complex), 0, 1)
    with pytest.raises(ValueError):
        c.fused_1q(2.0 * np.eye(2, dtype=complex), 0)
    with pytest.raises(ValueError):
        c.fused_2q(np.eye(2, dtype=complex), 0, 1)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            c.fused_1q(np.full((2, 2), bad), 0)
        with pytest.raises(ValueError, match="non-finite"):
            c.fused_2q(np.full((4, 4), bad), 0, 1)


def test_append_refuses_a_matrix_on_a_named_gate():
    # it would run as the matrix but emit and parse back as the name
    c = Circuit(1, [("c", 1)])
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    with pytest.raises(ValueError, match="carries no matrix"):
        c.append(Instruction(Gate.H, (0,), (), x))
    with pytest.raises(ValueError, match="carries no matrix"):
        c.append(Instruction(Gate.MEASURE, (0,), (), x, 0))
    assert c.instruction_count() == 0


def test_append_checks_a_payload_as_fused_gates_do():
    c = Circuit(2)
    with pytest.raises(ValueError, match="not unitary"):
        c.append(Instruction(Gate.C2, (0, 1), (), np.zeros((4, 4), dtype=complex)))
    with pytest.raises(ValueError, match="payload must be 2x2"):
        c.append(Instruction(Gate.C1, (0,)))
    m = np.eye(2, dtype=complex)
    c.append(Instruction(Gate.C1, (1,), (), m))
    m[0, 0] = 5.0
    (ins,) = c.instructions
    assert np.array_equal(ins.matrix, np.eye(2)) and not ins.matrix.flags.writeable


def test_append_allows_a_classical_bit_only_on_a_measure():
    c = Circuit(1, [("c", 1)])
    for gate in (Gate.H, Gate.RESET):
        with pytest.raises(ValueError, match="takes no classical bit"):
            c.append(Instruction(gate, (0,), cbit=0))
    with pytest.raises(ValueError, match="takes no classical bit"):
        c.append(Instruction(Gate.BARRIER, (0,), cbit=0))
    assert c.instruction_count() == 0


def test_append_checks_marker_parameters_and_arity():
    c = Circuit(2, [("c", 1)])
    with pytest.raises(ValueError, match="takes 0 parameters"):
        c.append(Instruction(Gate.MEASURE, (0,), (0.5,), cbit=0))
    with pytest.raises(ValueError, match="takes 0 parameters"):
        c.append(Instruction(Gate.BARRIER, (0, 1), (0.5,)))
    with pytest.raises(ValueError, match="takes 1 qubits"):
        c.append(Instruction(Gate.RESET, (0, 1)))
    c.barrier(1)  # a barrier takes any set
    assert c.instruction_count() == 1


def test_counts_exclude_markers():
    c = Circuit(2, [("c", 1)])
    c.h(0)
    c.cx(0, 1)
    c.measure(0, 0)
    c.barrier()
    c.reset(0)
    assert c.gate_count() == 2
    assert c.counts_by_width() == {1: 1, 2: 1}


def test_copy_empty_preserves_layout():
    c = Circuit(3, [("c", 2), ("r", 3)])
    c.h(0)
    d = c.copy_empty()
    assert d.n_qubits == 3
    assert d.cregs == [("c", 2), ("r", 3)]
    assert d.instructions == ()
    assert c.instructions  # original untouched


def test_resolved_matrix_prefers_payload():
    payload = np.array([[0, 1], [1, 0]], dtype=complex)
    ins = Instruction(Gate.C1, (0,), matrix=payload)
    assert np.array_equal(ins.resolved_matrix(), payload)
    plain = Instruction(Gate.H, (0,))
    assert np.allclose(plain.resolved_matrix(),
                       np.array([[1, 1], [1, -1]]) / np.sqrt(2))


def test_is_gate_flags():
    assert Instruction(Gate.H, (0,)).is_gate
    assert Instruction(Gate.C2, (0, 1), matrix=np.eye(4, dtype=complex)).is_gate
    assert not Instruction(Gate.MEASURE, (0,), cbit=0).is_gate
    assert not Instruction(Gate.BARRIER, (0,)).is_gate


def test_fused_payload_is_a_read_only_copy():
    c = Circuit(2)
    m1 = np.eye(2, dtype=complex)
    m2 = np.eye(4, dtype=complex)
    c.fused_1q(m1, 0)
    c.fused_2q(m2, 0, 1)
    m1[0, 0] = m2[0, 0] = 5.0
    for ins, dim in zip(c.instructions, (2, 4)):
        assert np.array_equal(ins.matrix, np.eye(dim))
        assert not ins.matrix.flags.writeable
