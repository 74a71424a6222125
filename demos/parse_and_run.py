"""Parse an OpenQASM 2.0 filter block and simulate it both ways.

The circuit below is the smallest interesting shape this package targets:
one system qubit entangled with an ancilla, a mid-circuit measurement that
asserts the ancilla landed in |0>, a reset, and a final read-out of both
qubits.  We run it once in mma mode (one pass, forced projections, exact
success bookkeeping) and once in rejection mode (drawn outcomes per shot,
like hardware post-selection) and show that the two agree.
"""

import math

from nucsim import parse_qasm, run

SOURCE = """\
OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[1];
creg r[2];
h q[0];
cx q[0], q[1];
ry(0.31) q[1];
measure q[1] -> c[0];
barrier q;
reset q[1];
barrier q;
measure q -> r;
"""


def main() -> None:
    circuit = parse_qasm(SOURCE)
    print(f"parsed {circuit.n_qubits} qubits, "
          f"{circuit.instruction_count()} instructions")

    mma = run(circuit, "mma", shots=2000, seed=7, ancilla=1)
    print("\nmma mode")
    print(f"  assert probabilities : {[round(p, 6) for p in mma.assert_probs]}")
    print(f"  overall success      : {mma.overall_success:.6f}")
    print(f"  samples              : {dict(sorted(mma.samples.items()))}")

    rej = run(circuit, "rejection", shots=2000, seed=7, ancilla=None)
    print("\nrejection mode")
    print(f"  accepted / shots     : {rej.accepted} / {rej.shots}")
    print(f"  empirical success    : {rej.overall_success:.6f}")
    print(f"  samples              : {dict(sorted(rej.samples.items()))}")

    # the empirical acceptance rate is a Bernoulli estimate of the mma product
    p = mma.overall_success
    sigma = math.sqrt(p * (1 - p) / rej.shots)
    pull = abs(rej.overall_success - p) / sigma
    print(f"\nagreement: |empirical - exact| = {pull:.2f} sigma")


if __name__ == "__main__":
    main()
