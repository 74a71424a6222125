"""Command-line surface: parse, fuse, simulate, and Hamiltonian tooling.

Subcommands:

- ``simulate``    QASM in, fusion unless --no-fuse, run, JSON report out
- ``fuse``        QASM in, fusion statistics out, optional fused QASM file
- ``prepare``     Hamiltonian in, filter circuit (ancilla last) out as QASM plus gate counts
- ``spectrum``    Hamiltonian in, eigenvalues / ground energy / gap out
- ``filter-lcu``  Hamiltonian in, truncated-expansion filter report out

Exit codes: 0 success, 2 parse or configuration error, 3 assertion failure,
4 resource guard; ``simulate`` refuses a register too wide for memory at its
``qreg`` line, before any statement expands.  ``--threads`` (default from
NUCSIM_THREADS) is validated but does not yet change how a run is
scheduled, so it changes no reported number; reports are bitwise
reproducible for a fixed seed.  ``simulate`` and ``fuse`` give the same
bytes under any BLAS thread count; ``spectrum``, ``prepare`` and
``filter-lcu`` diagonalize with LAPACK, whose last bits can depend on it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .engine import _check_width, infer_ancilla, run
from .errors import (DegenerateSpectrumError, FilterAssertionError,
                     MmaStructureError, ProjectionError, QasmError,
                     ResourceLimitError, SpectrumGuardError)
from .fusion import fuse_pipeline, gate_count
from .hamiltonian import GroundState, ground_state, load_hamiltonian_text, shift_rescale
from .lcu import _lcu_action, lcu_coefficients
from .projection import FilterSchedule, TrialState, build_filter_circuit, default_schedule
from .qasm import _Parser, emit_qasm, parse_qasm

# the exit code of each error group; the groups share no class
_EXIT_CODES = {3: (FilterAssertionError, ProjectionError),
               4: (ResourceLimitError, MemoryError),
               2: (QasmError, MmaStructureError, DegenerateSpectrumError,
                   SpectrumGuardError, ValueError, OSError)}
_ERRORS = sum(_EXIT_CODES.values(), ())


@dataclass(frozen=True, slots=True)
class RunConfig:
    """Validated per-invocation settings shared by the subcommands.  Its
    defaults are the command line's: an option left out parses as None,
    which from_args drops."""

    command: str
    input: str | None = None
    mode: str = "mma"
    shots: int = 1024
    seed: int = 1234
    ancilla: int | None = None
    trotter: int = 1
    schedule: str | None = None
    gap: float | None = None
    steps: int | None = None
    threads: int = 1
    no_fuse: bool = False
    hamiltonian: str | None = None
    output: str | None = None
    decompose: bool = False
    e0: float | None = None
    m: int = 8
    tail_tol: float = 1e-8

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        fields = {k: v for k, v in vars(args).items()
                  if k in cls.__dataclass_fields__ and v is not None}
        return cls(**fields)


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_out(data: dict, path: str | None) -> None:
    _write_output(json.dumps(data, indent=2) + "\n", path)


def cmd_simulate(config: RunConfig) -> int:
    circuit = _Parser(_read_text(config.input), _check_width).parse()
    stats = None
    fused = circuit
    if not config.no_fuse:
        fused, fusion = fuse_pipeline(circuit)
        stats = fusion.to_dict()
    hamiltonian = None
    if config.hamiltonian is not None:
        hamiltonian = load_hamiltonian_text(_read_text(config.hamiltonian))
    ancilla = config.ancilla
    if config.mode == "mma" and ancilla is None:
        ancilla = infer_ancilla(circuit)
        if ancilla is None:
            raise MmaStructureError(
                "cannot infer the ancilla from mid-circuit measures; give --ancilla")
    report = run(fused, config.mode, config.shots, config.seed, ancilla,
                 hamiltonian=hamiltonian, fusion_stats=stats)
    _write_output(report.to_json() + "\n", config.output)
    return 0


def cmd_fuse(config: RunConfig) -> int:
    fused, stats = fuse_pipeline(parse_qasm(_read_text(config.input)))
    if config.output is not None:
        _write_output(emit_qasm(fused, decompose=config.decompose), config.output)
    print(json.dumps(stats.to_dict(), indent=2))
    return 0


def _load_schedule(config: RunConfig, h) -> tuple[FilterSchedule, GroundState | None]:
    """The filter schedule, and the ground state if the gap needed it."""
    if config.schedule is not None:
        return FilterSchedule.from_json(_read_text(config.schedule)), None
    if config.steps is None:
        raise ValueError("provide --schedule or --steps (with optional --gap)")
    if config.gap is not None:
        return default_schedule(config.gap, config.steps), None
    gs = ground_state(h)
    return default_schedule(gs.gap, config.steps), gs


def cmd_prepare(config: RunConfig) -> int:
    h = load_hamiltonian_text(_read_text(config.hamiltonian))
    schedule, gs = _load_schedule(config, h)
    if config.e0 is not None:
        e0 = config.e0
    else:
        e0 = (gs if gs is not None else ground_state(h)).energy
    shifted = shift_rescale(h, e0)
    trial = TrialState.basis("0" * h.n_qubits)
    circuit = build_filter_circuit(shifted, schedule, config.trotter, trial, h.n_qubits)
    info = {
        "gates": gate_count(circuit),
        "two_qubit_gates": circuit.counts_by_width().get(2, 0),
        "n_qubits": circuit.n_qubits,
        "filter_steps": schedule.n_steps,
        "ancilla_index": h.n_qubits,
        "ancilla_index_listing_convention": 0,
    }
    _write_output(emit_qasm(circuit), config.output)
    print(json.dumps(info, indent=2), file=sys.stderr if config.output is None else sys.stdout)
    return 0


def cmd_spectrum(config: RunConfig) -> int:
    gs = ground_state(load_hamiltonian_text(_read_text(config.hamiltonian)))
    _json_out({"eigenvalues": [float(e) for e in gs.spectrum],
               "e0": gs.energy, "gap": gs.gap}, config.output)
    return 0


def cmd_filter_lcu(config: RunConfig) -> int:
    h = load_hamiltonian_text(_read_text(config.hamiltonian))
    gs = ground_state(h)
    # map the spectrum into (-pi/2, pi/2) with the ground state at 0
    spread = float(gs.spectrum[-1] - gs.energy)
    scale = spread / (np.pi / 4.0) if spread > 0.0 else 1.0
    shifted = shift_rescale(h, gs.energy, scale)
    expansion = lcu_coefficients(config.m, config.tail_tol)
    trial = TrialState.basis("0" * h.n_qubits).to_vector()
    filtered, p_s = _lcu_action(shifted, expansion, trial)
    norm = np.linalg.norm(filtered)
    if norm <= 0.0:
        raise ProjectionError("filter annihilated the trial state")
    filtered /= norm
    energy = float(np.real(np.vdot(filtered, h.dense() @ filtered)))
    _json_out({"m": expansion.m, "m0": expansion.m0,
               "tail_mass": expansion.tail_mass, "P_s": p_s,
               "energy_after_filter": energy}, config.output)
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "fuse": cmd_fuse,
    "prepare": cmd_prepare,
    "spectrum": cmd_spectrum,
    "filter-lcu": cmd_filter_lcu,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nucsim",
        description="State-vector simulator for deep projection-filtering circuits.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--threads", type=int, default=None,
                       help="worker hint, default from NUCSIM_THREADS (results identical)")
        p.add_argument("--output", default=None, help="write the result here instead of stdout")

    p = sub.add_parser("simulate", help="run a QASM circuit and report statistics")
    p.add_argument("--input", required=True, help="OpenQASM 2.0 circuit file")
    p.add_argument("--mode", choices=("mma", "rejection"), default=None)
    p.add_argument("--shots", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--ancilla", type=int, default=None,
                   help="assertion qubit; default: inferred from mid-circuit measures")
    p.add_argument("--no-fuse", action="store_true", dest="no_fuse")
    p.add_argument("--hamiltonian", default=None,
                   help="operator file; adds an energy expectation to the report")
    common(p)

    p = sub.add_parser("fuse", help="fuse a QASM circuit and print pass statistics")
    p.add_argument("--input", required=True)
    p.add_argument("--decompose", action="store_true",
                   help="decompose fused payloads to named gates in the output file")
    common(p)

    p = sub.add_parser("prepare", help="compile a projection-filter circuit to QASM")
    p.add_argument("--hamiltonian", required=True)
    p.add_argument("--schedule", default=None, help="schedule JSON file")
    p.add_argument("--gap", type=float, default=None,
                   help="spectral gap for the default schedule (else computed)")
    p.add_argument("--steps", type=int, default=None, help="default-schedule step count")
    p.add_argument("--trotter", type=int, default=None, help="slices per filter step")
    p.add_argument("--e0", type=float, default=None,
                   help="ground energy to shift by (else computed)")
    common(p)

    p = sub.add_parser("spectrum", help="print eigenvalues, ground energy and gap")
    p.add_argument("--hamiltonian", required=True)
    common(p)

    p = sub.add_parser("filter-lcu", help="truncated sum-of-unitaries filter report")
    p.add_argument("--hamiltonian", required=True)
    p.add_argument("--m", type=int, default=None, help="filter half-power")
    p.add_argument("--tail-tol", type=float, default=None, dest="tail_tol")
    common(p)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "threads", None) is None:
            args.threads = int(os.environ.get("NUCSIM_THREADS", "1"))
        config = RunConfig.from_args(args)
        return _COMMANDS[config.command](config)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for code, group in _EXIT_CODES.items() if isinstance(exc, group))


if __name__ == "__main__":
    sys.exit(main())
