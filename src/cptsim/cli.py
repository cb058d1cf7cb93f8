"""Command-line interface: run scenarios, validate configs, solve Eq-style
utility values, and dump time-domain traces.

Exit codes: 0 success, 2 invalid configuration or arguments, 1 runtime
failure (surfaced with scenario context).  The CPTSIM_OUT_DIR environment
variable overrides the configured output directory; an explicit --out-dir
beats both.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .config import ConfigError, ScenarioConfig, parse_config
from .core import ParameterError
from .runner import emit_csv, run_scenario
from .sweep import symmetrizing_detuning
from .timedomain import integrate_ground_state

TWO_PI = 2.0 * math.pi


def _load_config(path: str) -> ScenarioConfig | int:
    """The parsed config, or exit code 2 after reporting why it failed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
    except ConfigError as exc:
        print(f"invalid configuration {path}:\n{exc}", file=sys.stderr)
    return 2


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    if isinstance(config, int):
        return config
    out_dir = args.out_dir or os.environ.get("CPTSIM_OUT_DIR") or None
    try:
        result = run_scenario(config, out_dir)
    except (ParameterError, ValueError, OSError) as exc:
        print(f"scenario {args.config} failed: {exc}", file=sys.stderr)
        return 1
    for path in result.csv_paths + result.roots_paths:
        print(path)
    print(result.manifest_path)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    if isinstance(config, int):
        return config
    print(f"{args.config}: OK")
    print(
        f"sweep axis {config.sweep.axis}, {config.sweep.points} points, "
        f"path {config.sweep.path}"
    )
    return 0


def _cmd_sym_detuning(args: argparse.Namespace) -> int:
    try:
        root = symmetrizing_detuning(
            Gamma=TWO_PI * 1e6 * args.gamma,
            omega_e=TWO_PI * 1e6 * args.omega_e,
            dipole_ratio_sq=args.dipole_ratio_sq,
        )
    except ParameterError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 2
    print(f"{root / (TWO_PI * 1e6):.6f}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if not math.isfinite(args.delta_hz):
        print(
            f"invalid arguments: --delta-hz must be finite, got {args.delta_hz}",
            file=sys.stderr,
        )
        return 2
    config = _load_config(args.config)
    if isinstance(config, int):
        return config
    atom = config.atom.to_params()
    spectrum = config.spectrum.to_spectrum(atom.omega_g / 2.0)
    modulation = config.modulation.to_params()
    try:
        trace = integrate_ground_state(
            atom, spectrum, modulation, TWO_PI * args.delta_hz
        )
        emit_csv(
            args.out,
            ["t", "rho22", "rho11", "Re_rho21", "Im_rho21", "kappa"],
            zip(trace.t, trace.rho22, trace.rho11, trace.rho21.real,
                trace.rho21.imag, trace.kappa),
        )
    except (ParameterError, ValueError, OSError) as exc:
        print(f"trace for {args.config} failed: {exc}", file=sys.stderr)
        return 1
    print(args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cptsim",
        description=(
            "Modulation spectroscopy of CPT dark resonances: error-signal "
            "sweeps, insensitivity points, and servo-lock emulation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario config")
    p_run.add_argument("config", help="path to a YAML scenario file")
    p_run.add_argument(
        "--out-dir",
        default=None,
        help="output directory (beats CPTSIM_OUT_DIR and the config value)",
    )
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="check a scenario config")
    p_val.add_argument("config", help="path to a YAML scenario file")
    p_val.set_defaults(func=_cmd_validate)

    p_sym = sub.add_parser(
        "sym-detuning",
        help="solve the symmetrizing one-photon detuning (prints MHz)",
    )
    p_sym.add_argument("--gamma", type=float, required=True,
                       help="optical relaxation Gamma / 2 pi, MHz")
    p_sym.add_argument("--omega-e", type=float, required=True,
                       help="excited-state splitting / 2 pi, MHz")
    p_sym.add_argument("--dipole-ratio-sq", type=float, default=1.0 / 3.0,
                       help="d_d^2/d_u^2 weight (default 1/3)")
    p_sym.set_defaults(func=_cmd_sym_detuning)

    p_tr = sub.add_parser("trace", help="dump a time-domain trace as CSV")
    p_tr.add_argument("config", help="path to a YAML scenario file")
    p_tr.add_argument("--delta-hz", type=float, default=0.0,
                      help="two-photon detuning delta / 2 pi, Hz")
    p_tr.add_argument("--out", default="trace.csv", help="output CSV path")
    p_tr.set_defaults(func=_cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
