"""Command line interface.

Subcommands: ``validate``, ``evolve``, ``traj``, ``kernel``, ``stationary``,
``example``.  Exit codes are stable for scripting: 0 success, 1 usage or
configuration error (an output file that cannot be written included), 2
complete-positivity validation failure, 3 engine failure (diagnostics on
stderr).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import solver  # stationary_projector is looked up here, where perfbench/tracing.py wraps it
from ._rng import check_seed
from .config import ConfigError, RunConfig, _laplace_point, load_config, preset_config
from .model import CPValidationError, validate_model
from .output import deterministic_table, emit_csv, example_table, kernel_table, stationary_table, stochastic_table
from .qubit import PRESETS, h_of_t
from .solver import _evolve_blocks, evolve, homogeneity_check, memory_kernel_at, stationary_state
from .stochastic import run_ensemble

_DEFAULT_KERNEL_POINTS = [0.5 + 0.0j, 1.0 + 0.0j, 2.0 + 0.0j, 4.0 + 0.0j]

# The arguments that some commands read, besides --config and --preset.
_FLAGS = {
    "--out": {"help": "output CSV path (default: stdout)"},
    "--seed": {"type": int, "help": "master seed for stochastic runs"},
    "--n": {"type": int, "help": "trajectory count for stochastic runs"},
    "--u": {"help": "comma-separated Laplace points for the kernel table"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lre", description="Lindblad rate equation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, doc, flags) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=doc)
        cmd.add_argument("--config", help="path to a JSON run configuration")
        cmd.add_argument("--preset", choices=sorted(PRESETS), help="named preset instead of a config")
        for flag in flags:
            cmd.add_argument(flag, **_FLAGS[flag])
    return parser


def _missing_trajectories_or_seed(config: RunConfig) -> str:
    """The names of the trajectory count and seed that neither a flag nor the config sets."""
    named = (("--n/$.trajectories", config.trajectories), ("--seed/$.seed", config.seed))
    return " and ".join(name for name, value in named if value is None)


def _load(args) -> RunConfig:
    """The ``--config`` or ``--preset`` run, under the command's flags."""
    flags = vars(args)  # holds only the flags of args.command
    seed, n = flags.get("seed"), flags.get("n")
    if seed is not None:
        try:
            check_seed(seed)
        except ValueError as exc:
            raise ConfigError("--seed", str(exc)) from exc
    if n is not None and n < 1:
        raise ConfigError("--n", f"trajectory count must be >= 1, got {n}")
    if args.config:
        config = load_config(args.config)
    elif args.preset:
        config = preset_config(args.preset)
    else:
        raise ConfigError("--config/--preset", "a config file or preset name is required")
    if flags.get("u"):  # comma-separated finite real Laplace points other than 0
        try:
            points = [float(x) for x in flags["u"].split(",")]
        except ValueError as exc:
            raise ConfigError("--u", f"expected comma-separated numbers, got {flags['u']!r}") from exc
        config.kernel_points = [_laplace_point(u, "--u") for u in points]
    config.output = flags.get("out") or config.output
    config.trajectories = n or config.trajectories
    config.seed = config.seed if seed is None else seed
    return config


def _cmd_validate(config: RunConfig) -> int:
    rate_model, _ = config.model.build()
    report = validate_model(rate_model)
    for blk in report.blocks:
        status = "PSD" if blk.is_psd else "NOT PSD"
        print(
            f"block {blk.tag}: hermiticity residual {blk.hermiticity_residual:.3e}, "
            f"min eigenvalue {blk.min_eigenvalue:+.12e} -> {status}"
        )
    print(f"weights: sum {report.weight_sum:.12f}, nonnegative {report.weights_nonnegative}")
    print(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 2


def _cmd_evolve(config: RunConfig) -> int:
    rate_model, _ = config.model.build()
    # one block of grid times at a time, from propagation to CSV text
    blocks = _evolve_blocks(rate_model, config.initial_state, config.grid)
    emit_csv(map(deterministic_table, blocks), config.output)
    return 0


def _cmd_traj(config: RunConfig) -> int:
    _, walk = config.model.build()
    if walk is None:
        print("traj requires a preset or walk-form model", file=sys.stderr)
        return 1
    missing = _missing_trajectories_or_seed(config)
    if missing:
        print(f"traj requires {missing}", file=sys.stderr)
        return 1
    acc = run_ensemble(walk, config.initial_state, config.grid, config.trajectories, config.seed)
    emit_csv(stochastic_table(acc), config.output)
    return 0


def _cmd_kernel(config: RunConfig) -> int:
    rate_model, _ = config.model.build()
    analysis = solver.stationary_projector(rate_model)
    samples = [memory_kernel_at(analysis, u) for u in config.kernel_points or _DEFAULT_KERNEL_POINTS]
    emit_csv(kernel_table(samples), config.output)
    return 0


def _cmd_stationary(config: RunConfig) -> int:
    rate_model, _ = config.model.build()
    analysis = solver.stationary_projector(rate_model)
    rho_inf = stationary_state(analysis, config.initial_state)
    report = homogeneity_check(analysis)
    print(f"stationary state:\n{np.array_str(rho_inf, precision=10, suppress_small=True)}")
    print(f"homogeneity holds: {report.holds}")
    print(f"coherence-sector residual norm: {report.coherence_residual_norm:.6e}")
    for sector, norm in report.sector_norms.items():
        print(f"  sector {sector}: {norm:.6e}")
    if config.output:
        emit_csv(stationary_table(rho_inf), config.output)
    return 0


def _cmd_example(config: RunConfig) -> int:
    name = config.model.preset_name()
    if name is None:
        print("example requires a preset", file=sys.stderr)
        return 1
    missing = _missing_trajectories_or_seed(config)
    if missing and (config.trajectories is not None or config.seed is not None):
        print(f"example requires {missing} for the Monte Carlo columns", file=sys.stderr)
        return 1
    phi0 = config.initial_state[0, 1]
    if phi0 == 0:
        print("example requires an initial state with nonzero coherence", file=sys.stderr)
        return 1
    rate_model, walk = config.model.build()
    closed = np.atleast_1d(h_of_t(PRESETS[name], config.grid))
    result = evolve(rate_model, config.initial_state, config.grid)
    acc = None if missing else run_ensemble(walk, config.initial_state, config.grid, config.trajectories, config.seed)
    emit_csv(example_table(closed, result, phi0, acc), config.output)
    return 0


# Each command: its body, its help, and every flag it reads besides --config and --preset.
_COMMANDS = {
    "validate": (_cmd_validate, "check complete positivity of a model", ()),
    "evolve": (_cmd_evolve, "deterministic evolution table", ("--out",)),
    "traj": (_cmd_traj, "Monte Carlo trajectory ensemble table", ("--out", "--seed", "--n")),
    "kernel": (_cmd_kernel, "Laplace-domain memory kernel samples", ("--out", "--u")),
    "stationary": (_cmd_stationary, "stationary state and homogeneity report", ("--out",)),
    "example": (_cmd_example, "closed-form preset table with engine cross-checks", ("--out", "--seed", "--n")),
}

_PARSER: argparse.ArgumentParser | None = None  # built by the first main() call


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        config = _load(args)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command][0](config)
    except OSError as exc:  # only emit_csv touches files here
        print(f"output error: cannot write {exc.filename or 'stdout'}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    except CPValidationError as exc:
        print(f"{exc}; `lre validate` reports each block", file=sys.stderr)
        return 2
    except (RuntimeError, FloatingPointError, ZeroDivisionError, ValueError) as exc:
        print(f"engine failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
