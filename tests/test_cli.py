"""End-to-end command-line behavior: reports, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from nucsim import cli as cli_module
from nucsim import gate_count, parse_qasm
from nucsim.circuit import Circuit
from nucsim.cli import main
from nucsim.errors import (DegenerateSpectrumError, FilterAssertionError, QasmError,
                           ResourceLimitError)
from nucsim.gates import Gate

_SCHEMA = json.loads((Path(__file__).resolve().parent.parent /
                      "docs" / "run_report.schema.json").read_text())

_REPORT_KEYS = ["mode", "n_qubits", "shots", "seed", "ancilla", "assert_probs",
                "overall_success", "accepted", "rejected", "step_rejections",
                "samples", "energy", "fusion_stats", "wall_time_s"]


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    d = tmp_path_factory.mktemp("cli")
    (d / "zneg.txt").write_text("-1 Z\n", encoding="utf-8")
    (d / "zpos.txt").write_text("1 Z\n", encoding="utf-8")
    (d / "pair.txt").write_text("0.7 ZI\n0.3 IZ\n0.25 XX\n", encoding="utf-8")
    (d / "hop.txt").write_text("ns 2\nt 0 1 -1.0\n", encoding="utf-8")
    (d / "z_q0_of3.txt").write_text("1.0 ZII\n", encoding="utf-8")
    code = main(["prepare", "--hamiltonian", str(d / "pair.txt"),
                 "--steps", "2", "--trotter", "2",
                 "--output", str(d / "filter.qasm")])
    assert code == 0
    return d


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_single_z(workdir, capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--hamiltonian",
                           str(workdir / "zpos.txt"))
    assert code == 0
    data = json.loads(out)
    assert data["eigenvalues"] == pytest.approx([-1.0, 1.0], abs=1e-12)
    assert data["e0"] == pytest.approx(-1.0, abs=1e-12)
    assert data["gap"] == pytest.approx(2.0, abs=1e-12)


def test_spectrum_hopping_pair(workdir, capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--hamiltonian",
                           str(workdir / "hop.txt"))
    assert code == 0
    data = json.loads(out)
    assert data["e0"] == pytest.approx(-1.0, abs=1e-9)
    assert data["gap"] == pytest.approx(1.0, abs=1e-9)


def test_spectrum_degenerate_exits_2(tmp_path, capsys):
    path = tmp_path / "zero.txt"
    path.write_text("0.0 Z\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "spectrum", "--hamiltonian", str(path))
    assert code == 2
    assert "error:" in err


def test_missing_hamiltonian_file_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "spectrum", "--hamiltonian",
                           str(tmp_path / "nope.txt"))
    assert code == 2
    assert "error:" in err


def test_resource_guard_exits_4(tmp_path, capsys):
    path = tmp_path / "wide.txt"
    path.write_text("1.0 Z" + "I" * 14 + "\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "spectrum", "--hamiltonian", str(path))
    assert code == 4
    assert "error:" in err


def test_simulate_too_wide_register_exits_4(tmp_path, capsys):
    # refused by the state-vector width guard before any allocation
    path = tmp_path / "wide.qasm"
    path.write_text(
        "OPENQASM 2.0;\n"
        "include \"qelib1.inc\";\n"
        "qreg q[62];\n"
        "creg c[1];\n"
        "h q[61];\n"
        "measure q[61] -> c[0];\n"
        "reset q[61];\n"
        "measure q[0] -> c[0];\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "simulate", "--input", str(path))
    assert code == 4
    assert "physical memory" in err


@pytest.mark.parametrize("mode", ["mma", "rejection"])
@pytest.mark.parametrize("statements", ["creg c[1000000]; measure q -> c;", "reset q;"],
                         ids=["measure", "reset"])
def test_simulate_refuses_a_too_wide_register_at_its_qreg(tmp_path, capsys, monkeypatch,
                                                          statements, mode):
    # refused as the qreg is read, before a whole-register statement expands
    appended = 0
    append = Circuit.append

    def counting(self, ins):
        nonlocal appended
        appended += 1
        append(self, ins)

    monkeypatch.setattr(Circuit, "append", counting)
    path = tmp_path / "wide.qasm"
    path.write_text(f"OPENQASM 2.0; qreg q[1000000]; {statements}\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "simulate", "--input", str(path), "--mode", mode)
    assert (code, out, appended) == (4, "", 0)
    assert "physical memory" in err


_FAILING_FILTER = (
    "OPENQASM 2.0;\n"
    "include \"qelib1.inc\";\n"
    "qreg q[2];\n"
    "creg c[1];\n"
    "x q[1];\n"
    "measure q[1] -> c[0];\n"
    "reset q[1];\n")


@pytest.mark.parametrize("command, option, text, raised, code", [
    ("simulate", "--input", "OPENQASM 3.0;\nqreg q[1];\n", QasmError, 2),
    ("prepare", "--hamiltonian", "1.0 Z\n", ValueError, 2),  # neither --steps nor --schedule
    ("simulate", "--input", None, OSError, 2),
    ("spectrum", "--hamiltonian", "0.0 Z\n", DegenerateSpectrumError, 2),
    ("spectrum", "--hamiltonian", "1.0 Z" + "I" * 14 + "\n", ResourceLimitError, 4),
    ("simulate", "--input", _FAILING_FILTER, FilterAssertionError, 3),
], ids=["QasmError", "ValueError", "OSError", "DegenerateSpectrumError",
        "ResourceLimitError", "FilterAssertionError"])
def test_each_failure_prints_one_error_line(tmp_path, capsys, monkeypatch, command, option,
                                            text, raised, code):
    seen = []

    def recording(config, command_fn=cli_module._COMMANDS[command]):
        try:
            return command_fn(config)
        except Exception as exc:
            seen.append(exc)
            raise

    monkeypatch.setitem(cli_module._COMMANDS, command, recording)
    path = tmp_path / "input"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    got, out, err = run_cli(capsys, command, option, str(path))
    assert len(seen) == 1 and isinstance(seen[0], raised)
    assert (got, out) == (code, "")
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# simulate


def test_simulate_report_validates_against_schema(workdir, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "simulate", "--input",
                         str(workdir / "filter.qasm"), "--shots", "64",
                         "--seed", "9", "--output", str(report_path))
    assert code == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    jsonschema.Draft7Validator.check_schema(_SCHEMA)
    jsonschema.validate(report, _SCHEMA)
    assert list(report) == _REPORT_KEYS
    assert report["mode"] == "mma"
    assert report["shots"] == 64
    assert report["seed"] == 9
    assert report["ancilla"] == 2
    assert len(report["assert_probs"]) == 2
    assert len(report["fusion_stats"]["per_pass"]) == 4
    assert sum(report["samples"].values()) == 64
    assert all(len(k) == 3 for k in report["samples"])


def test_simulate_no_fuse_matches_fused(workdir, tmp_path, capsys):
    reports = []
    for flag, name in ((), "fused"), (("--no-fuse",), "plain"):
        path = tmp_path / f"{name}.json"
        code, _, _ = run_cli(capsys, "simulate", "--input",
                             str(workdir / "filter.qasm"), "--shots", "16",
                             "--seed", "3", "--hamiltonian",
                             str(workdir / "z_q0_of3.txt"),
                             "--output", str(path), *flag)
        assert code == 0
        reports.append(json.loads(path.read_text(encoding="utf-8")))
    fused, plain = reports
    assert fused["assert_probs"] == pytest.approx(plain["assert_probs"],
                                                  abs=1e-9)
    assert fused["overall_success"] == pytest.approx(plain["overall_success"],
                                                     abs=1e-9)
    assert fused["energy"] == pytest.approx(plain["energy"], abs=1e-9)
    assert fused["fusion_stats"] is not None
    assert plain["fusion_stats"] is None


def test_simulate_deterministic_across_threads(workdir, tmp_path, capsys):
    reports = []
    for threads in ("1", "7"):
        path = tmp_path / f"t{threads}.json"
        code, _, _ = run_cli(capsys, "simulate", "--input",
                             str(workdir / "filter.qasm"), "--shots", "128",
                             "--seed", "42", "--threads", threads,
                             "--output", str(path))
        assert code == 0
        reports.append(json.loads(path.read_text(encoding="utf-8")))
    a, b = reports
    a.pop("wall_time_s")
    b.pop("wall_time_s")
    assert a == b


def test_simulate_identical_across_blas_thread_counts(tmp_path, capsys):
    # 10 system qubits plus the ancilla, so 1q gates too take the gathered
    # kernels.  Their multiply is a BLAS gemm with an inner dimension of 2
    # or 4: one thread computes each output amplitude whole, so a thread
    # split cannot reorder a sum.  At this width OpenBLAS likely keeps the
    # gemm and the energy's dot products on one thread anyway, so the test
    # guards the formulation rather than a threaded run.
    terms = [f"{0.3 + 0.05 * i} {'I' * i}Z{'I' * (9 - i)}" for i in range(10)]
    terms += [f"0.25 {'I' * i}XX{'I' * (8 - i)}" for i in range(9)]
    ham = tmp_path / "chain.txt"
    ham.write_text("\n".join(terms) + "\n", encoding="utf-8")
    qasm = tmp_path / "chain.qasm"
    code, _, _ = run_cli(capsys, "prepare", "--hamiltonian", str(ham),
                         "--steps", "2", "--trotter", "2", "--output", str(qasm))
    assert code == 0
    reports = []
    for blas_threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads)
        proc = subprocess.run(
            [sys.executable, "-m", "nucsim.cli", "simulate", "--input", str(qasm),
             "--shots", "256", "--seed", "9", "--hamiltonian", str(ham)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        reports.append([ln for ln in proc.stdout.splitlines()
                        if '"wall_time_s"' not in ln])
    assert json.loads(proc.stdout)["n_qubits"] == 11
    assert reports[0] == reports[1]


def test_threads_default_comes_from_env(workdir, capsys, monkeypatch):
    monkeypatch.setenv("NUCSIM_THREADS", "3")
    code, out, _ = run_cli(capsys, "simulate", "--input",
                           str(workdir / "filter.qasm"), "--shots", "8",
                           "--seed", "1")
    assert code == 0
    assert json.loads(out)["shots"] == 8
    monkeypatch.setenv("NUCSIM_THREADS", "0")
    code, _, err = run_cli(capsys, "simulate", "--input",
                           str(workdir / "filter.qasm"))
    assert code == 2
    assert "threads" in err


def test_option_defaults_come_from_run_config():
    # the parser leaves options out as None, so RunConfig holds each default once
    parser = cli_module.build_parser()
    for argv, want in [
            (["simulate", "--input", "c.qasm"], cli_module.RunConfig("simulate", input="c.qasm")),
            (["prepare", "--hamiltonian", "h.txt"],
             cli_module.RunConfig("prepare", hamiltonian="h.txt")),
            (["filter-lcu", "--hamiltonian", "h.txt"],
             cli_module.RunConfig("filter-lcu", hamiltonian="h.txt"))]:
        args = parser.parse_args(argv)
        assert all(getattr(args, k, None) is None
                   for k in ("mode", "shots", "seed", "trotter", "m", "tail_tol", "threads"))
        args.threads = 1
        assert cli_module.RunConfig.from_args(args) == want


def test_simulate_rejection_mode(workdir, tmp_path, capsys):
    path = tmp_path / "rej.json"
    code, _, _ = run_cli(capsys, "simulate", "--input",
                         str(workdir / "filter.qasm"), "--mode", "rejection",
                         "--shots", "200", "--seed", "5",
                         "--output", str(path))
    assert code == 0
    report = json.loads(path.read_text(encoding="utf-8"))
    jsonschema.validate(report, _SCHEMA)
    assert report["mode"] == "rejection"
    assert report["accepted"] + report["rejected"] == 200
    assert len(report["step_rejections"]) == 2
    assert sum(report["samples"].values()) == report["accepted"]


def test_simulate_assertion_failure_exits_3(tmp_path, capsys):
    path = tmp_path / "fail.qasm"
    path.write_text(
        "OPENQASM 2.0;\n"
        "include \"qelib1.inc\";\n"
        "qreg q[2];\n"
        "creg c[1];\n"
        "creg r[2];\n"
        "x q[1];\n"
        "measure q[1] -> c[0];\n"
        "barrier q;\n"
        "reset q[1];\n"
        "barrier q;\n"
        "measure q -> r;\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "simulate", "--input", str(path))
    assert code == 3
    assert "step 0" in err


def test_simulate_cannot_infer_ancilla_exits_2(tmp_path, capsys):
    path = tmp_path / "flat.qasm"
    path.write_text(
        "OPENQASM 2.0;\n"
        "qreg q[1];\n"
        "creg c[1];\n"
        "h q[0];\n"
        "measure q[0] -> c[0];\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "simulate", "--input", str(path))
    assert code == 2
    assert "ancilla" in err


def test_simulate_bad_qasm_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.qasm"
    for text, where in (("OPENQASM 3.0;\nqreg q[1];\n", "line 1"),
                        ("OPENQASM 2.0;\nqreg q[1];\nrz(1e999) q[0];\n", "line 3, column 1"),
                        ("OPENQASM 2.0;\nqreg q[1];\nrx(1e999) q[0];\n", "line 3, column 1")):
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "simulate", "--input", str(path))
        assert code == 2 and out == ""
        assert where in err


def test_simulate_config_validation_exits_2(workdir, capsys):
    src = str(workdir / "filter.qasm")
    for extra in (("--shots", "0"), ("--seed", "-1"),
                  ("--seed", str(2 ** 64)), ("--threads", "0"),
                  ("--mode", "rejection", "--ancilla", "-1"),
                  ("--mode", "rejection", "--ancilla", "3")):
        code, _, err = run_cli(capsys, "simulate", "--input", src, *extra)
        assert code == 2
        assert "error:" in err


# ---------------------------------------------------------------------------
# prepare


def test_prepare_writes_roundtrippable_qasm(workdir, capsys):
    text = (workdir / "filter.qasm").read_text(encoding="utf-8")
    circuit = parse_qasm(text)
    assert circuit.n_qubits == 3
    resets = sum(1 for ins in circuit.instructions if ins.gate is Gate.RESET)
    assert resets == 2          # one reset block per filter step


def test_prepare_info_layout(workdir, tmp_path, capsys):
    out_path = tmp_path / "c.qasm"
    code, out, _ = run_cli(capsys, "prepare", "--hamiltonian",
                           str(workdir / "pair.txt"), "--steps", "2",
                           "--trotter", "2", "--output", str(out_path))
    assert code == 0
    info = json.loads(out)
    assert list(info) == ["gates", "two_qubit_gates", "n_qubits",
                          "filter_steps", "ancilla_index",
                          "ancilla_index_listing_convention"]
    assert info["n_qubits"] == 3
    assert info["filter_steps"] == 2
    assert info["ancilla_index"] == 2
    assert info["ancilla_index_listing_convention"] == 0
    assert info["gates"] == gate_count(parse_qasm(out_path.read_text()))
    assert 0 < info["two_qubit_gates"] < info["gates"]


def test_prepare_places_the_ancilla_last_with_no_option_for_it(workdir, capsys):
    # the filter circuit takes no other ancilla, so even its own index is refused
    with pytest.raises(SystemExit) as exc:
        main(["prepare", "--hamiltonian", str(workdir / "pair.txt"), "--steps", "1",
              "--ancilla", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --ancilla 2" in capsys.readouterr().err


def test_prepare_minimal_single_step(workdir, capsys):
    code, out, err = run_cli(capsys, "prepare", "--hamiltonian",
                             str(workdir / "zpos.txt"), "--steps", "1")
    assert code == 0
    circuit = parse_qasm(out)   # circuit on stdout, info on stderr
    resets = [ins for ins in circuit.instructions if ins.gate is Gate.RESET]
    measures = [ins for ins in circuit.instructions
                if ins.gate is Gate.MEASURE]
    assert len(resets) == 1
    assert len(measures) == 3   # one mid-circuit assert, two final reads
    info = json.loads(err)
    assert info["filter_steps"] == 1
    assert info["gates"] == gate_count(circuit)


def test_prepare_trotter_doubling(workdir, tmp_path, capsys):
    gates = {}
    for r in (1, 2, 4):
        code, out, _ = run_cli(capsys, "prepare", "--hamiltonian",
                               str(workdir / "pair.txt"), "--steps", "1",
                               "--gap", "1.0", "--trotter", str(r),
                               "--output", str(tmp_path / f"r{r}.qasm"))
        assert code == 0
        gates[r] = json.loads(out)["gates"]
    slice_cost = gates[2] - gates[1]
    assert slice_cost > 0
    assert gates[4] == gates[2] + 2 * slice_cost


def test_prepare_respects_explicit_schedule_and_e0(workdir, tmp_path, capsys):
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps({"steps": [{"t": 0.5, "delta": 0.1},
                                            {"t": 0.25}]}), encoding="utf-8")
    code, out, _ = run_cli(capsys, "prepare", "--hamiltonian",
                           str(workdir / "pair.txt"), "--schedule", str(sched),
                           "--e0", "-1.03", "--output",
                           str(tmp_path / "s.qasm"))
    assert code == 0
    assert json.loads(out)["filter_steps"] == 2


def test_prepare_with_a_malformed_schedule_exits_2(workdir, tmp_path, capsys):
    sched = tmp_path / "sched.json"
    for steps, fragment in (('[{"t": null}]', "needs numbers"),
                            ('[{"t": Infinity}]', "positive and finite"),
                            ('[{"t": 1.0, "delta": NaN}]', "phases must be finite"),
                            ("[" * 1000 + "]" * 1000, "nested too deeply")):
        sched.write_text('{"steps": %s}' % steps, encoding="utf-8")
        code, _, err = run_cli(capsys, "prepare", "--hamiltonian", str(workdir / "pair.txt"),
                               "--schedule", str(sched), "--output", str(tmp_path / "s.qasm"))
        assert code == 2 and not (tmp_path / "s.qasm").exists()
        assert "Traceback" not in err and fragment in err


@pytest.mark.parametrize("command, text, extra, fragment", [
    ("spectrum", "0.7 ZI\nnan IZ\n", (), "line 2: bad coefficient"),
    ("spectrum", "ns 2\nt 0 0 nan\n", (), "line 2: value nan"),
    ("prepare", "0.7 ZI\n0.3 IZ\n", ("--steps", "1", "--gap", "0.5", "--e0", "nan"),
     "not finite"),
], ids=["pauli-coefficient", "matrix-element", "e0"])
def test_non_finite_operator_numbers_exit_2(tmp_path, capsys, command, text, extra, fragment):
    path = tmp_path / "h.txt"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, command, "--hamiltonian", str(path), *extra)
    assert code == 2 and out == ""
    assert fragment in err


def test_prepare_without_schedule_or_steps_exits_2(workdir, capsys):
    code, _, err = run_cli(capsys, "prepare", "--hamiltonian",
                           str(workdir / "pair.txt"))
    assert code == 2
    assert "--schedule" in err


@pytest.mark.parametrize("extra, calls", [
    ((), 1),                             # gap and e0 both from one eigensolve
    (("--gap", "0.5"), 1),               # e0 only
    (("--e0", "-1.03"), 1),              # gap only
    (("--gap", "0.5", "--e0", "-1.03"), 0),
])
def test_prepare_computes_the_ground_state_at_most_once(workdir, tmp_path, capsys,
                                                        monkeypatch, extra, calls):
    seen, solve = [], cli_module.ground_state

    def counting(h):
        seen.append(h)
        return solve(h)

    monkeypatch.setattr(cli_module, "ground_state", counting)
    code, _, _ = run_cli(capsys, "prepare", "--hamiltonian", str(workdir / "pair.txt"),
                         "--steps", "2", *extra, "--output", str(tmp_path / "p.qasm"))
    assert code == 0
    assert len(seen) == calls


# ---------------------------------------------------------------------------
# fuse


def test_fuse_stats_layout(workdir, capsys):
    code, out, _ = run_cli(capsys, "fuse", "--input",
                           str(workdir / "filter.qasm"))
    assert code == 0
    stats = json.loads(out)
    assert [p["name"] for p in stats["per_pass"]] == \
        ["merge_1q", "absorb_1q", "normalize_2q_order", "fuse_2q"]
    assert stats["gates_after"] <= stats["gates_before"]
    assert stats["reduction_factor"] >= 1.0


def test_fuse_all_barrier_factor_one(tmp_path, capsys):
    path = tmp_path / "bars.qasm"
    path.write_text(
        "OPENQASM 2.0;\n"
        "qreg q[2];\n"
        "barrier q;\n"
        "barrier q[0];\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "fuse", "--input", str(path))
    assert code == 0
    assert json.loads(out)["reduction_factor"] == 1.0


def test_fuse_payoff_on_generated_circuit(workdir, tmp_path, capsys):
    deep = tmp_path / "deep.qasm"
    code, _, _ = run_cli(capsys, "prepare", "--hamiltonian",
                         str(workdir / "pair.txt"), "--steps", "2",
                         "--trotter", "16", "--output", str(deep))
    assert code == 0
    code, out, _ = run_cli(capsys, "fuse", "--input", str(deep))
    assert code == 0
    assert json.loads(out)["reduction_factor"] >= 1.5


def test_fuse_decomposed_output_preserves_behavior(workdir, tmp_path, capsys):
    fused_path = tmp_path / "fused.qasm"
    code, _, _ = run_cli(capsys, "fuse", "--input",
                         str(workdir / "filter.qasm"), "--decompose",
                         "--output", str(fused_path))
    assert code == 0
    probs = []
    for src in (workdir / "filter.qasm", fused_path):
        out_path = tmp_path / (src.stem + ".json")
        code, _, _ = run_cli(capsys, "simulate", "--input", str(src),
                             "--shots", "8", "--seed", "2", "--no-fuse",
                             "--output", str(out_path))
        assert code == 0
        probs.append(json.loads(out_path.read_text())["assert_probs"])
    assert probs[0] == pytest.approx(probs[1], abs=1e-9)


def test_fuse_refuses_payload_emission_without_decompose(workdir, tmp_path,
                                                         capsys):
    code, _, err = run_cli(capsys, "fuse", "--input",
                           str(workdir / "filter.qasm"),
                           "--output", str(tmp_path / "fused.qasm"))
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# filter-lcu


def test_filter_lcu_ground_trial(workdir, capsys):
    code, out, _ = run_cli(capsys, "filter-lcu", "--hamiltonian",
                           str(workdir / "zneg.txt"), "--m", "1")
    assert code == 0
    data = json.loads(out)
    assert list(data) == ["m", "m0", "tail_mass", "P_s",
                          "energy_after_filter"]
    assert data["m"] == 1
    assert data["m0"] == 1
    assert data["tail_mass"] == 0.0
    assert data["P_s"] == pytest.approx(1.0, abs=1e-12)
    assert data["energy_after_filter"] == pytest.approx(-1.0, abs=1e-12)


def test_filter_lcu_excited_trial(workdir, capsys):
    # |0> sits at the rescaled top energy pi/4, so the m=1 window factor
    # is 1/4 e^{i pi/2} + 1/2 + 1/4 e^{-i pi/2} = 1/2 and P_s = 1/4
    code, out, _ = run_cli(capsys, "filter-lcu", "--hamiltonian",
                           str(workdir / "zpos.txt"), "--m", "1")
    assert code == 0
    data = json.loads(out)
    assert data["P_s"] == pytest.approx(0.25, abs=1e-12)
    assert data["energy_after_filter"] == pytest.approx(1.0, abs=1e-12)


def test_filter_lcu_tail_shrinks_with_window(workdir, capsys):
    tails = []
    for tol in ("1e-1", "1e-6"):
        code, out, _ = run_cli(capsys, "filter-lcu", "--hamiltonian",
                               str(workdir / "pair.txt"), "--m", "40",
                               "--tail-tol", tol)
        assert code == 0
        data = json.loads(out)
        tails.append((data["m0"], data["tail_mass"]))
    assert tails[0][0] < tails[1][0]
    assert tails[0][1] > tails[1][1]


# ---------------------------------------------------------------------------
# process-level entry point


def test_console_invocation_round_trip(workdir, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "nucsim.cli", "spectrum", "--hamiltonian",
         str(workdir / "zpos.txt")],
        capture_output=True, text=True, env=os.environ.copy())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["gap"] == pytest.approx(2.0, abs=1e-12)
