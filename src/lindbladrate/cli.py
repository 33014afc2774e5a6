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
from .config import (
    _DEFAULT_STATE,
    ConfigError,
    ModelSource,
    OutputTable,
    RunConfig,
    _laplace_point,
    deterministic_table,
    emit_csv,
    load_config,
    stochastic_table,
)
from .model import CPValidationError, validate_model
from .qubit import PRESETS, h_of_t
from .solver import _evolve_blocks, evolve, homogeneity_check, memory_kernel_at, stationary_state
from .stochastic import run_ensemble

_DEFAULT_GRID = np.linspace(0.0, 20.0, 201)
_DEFAULT_KERNEL_POINTS = [0.5 + 0.0j, 1.0 + 0.0j, 2.0 + 0.0j, 4.0 + 0.0j]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lre", description="Lindblad rate equation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in [
        ("validate", "check complete positivity of a model"),
        ("evolve", "deterministic evolution table"),
        ("traj", "Monte Carlo trajectory ensemble table"),
        ("kernel", "Laplace-domain memory kernel samples"),
        ("stationary", "stationary state and homogeneity report"),
        ("example", "closed-form preset table with engine cross-checks"),
    ]:
        cmd = sub.add_parser(name, help=doc)
        cmd.add_argument("--config", help="path to a JSON run configuration")
        cmd.add_argument("--preset", choices=sorted(PRESETS), help="named preset instead of a config")
        cmd.add_argument("--out", help="output CSV path (default: stdout)")
        cmd.add_argument("--seed", type=int, help="master seed for stochastic runs")
        cmd.add_argument("--n", type=int, help="trajectory count for stochastic runs")
        cmd.add_argument("--u", help="comma-separated Laplace points for the kernel table")
        if name == "example":
            cmd.add_argument("preset_name", nargs="?", choices=sorted(PRESETS), help="preset to tabulate")
    return parser


def _laplace_points(text: str) -> list[complex]:
    """Parse ``--u``: comma-separated finite real Laplace points other than 0."""
    try:
        points = [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise ConfigError("--u", f"expected comma-separated numbers, got {text!r}") from exc
    return [_laplace_point(u, "--u") for u in points]


def _trajectories_and_seed(config: RunConfig, args):
    """``(n, seed, missing)``: flags over config fields, and the names of those unset."""
    n = args.n or config.trajectories
    seed = args.seed if args.seed is not None else config.seed
    named = (("--n/$.trajectories", n), ("--seed/$.seed", seed))
    missing = " and ".join(name for name, value in named if value is None)
    return n, seed, missing


def _load(args) -> RunConfig | None:
    if args.seed is not None:
        try:
            check_seed(args.seed)
        except ValueError as exc:
            raise ConfigError("--seed", str(exc)) from exc
    if args.n is not None and args.n < 1:
        raise ConfigError("--n", f"trajectory count must be >= 1, got {args.n}")
    if args.config:
        config = load_config(args.config)
    else:
        preset = getattr(args, "preset_name", None) or args.preset
        if not preset:
            return None
        config = RunConfig(
            model=ModelSource("preset", {"name": preset}),
            initial_state=_DEFAULT_STATE.copy(),
            grid=_DEFAULT_GRID.copy(),
            trajectories=args.n,
            seed=args.seed,
        )
    if args.u:
        config.kernel_points = _laplace_points(args.u)
    return config


def _cmd_validate(config: RunConfig, args) -> int:
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


def _cmd_evolve(config: RunConfig, args) -> int:
    rate_model, _ = config.model.build()
    # one block of grid times at a time, from propagation to CSV text
    blocks = _evolve_blocks(rate_model, config.initial_state, config.grid)
    emit_csv(map(deterministic_table, blocks), args.out or config.output)
    return 0


def _cmd_traj(config: RunConfig, args) -> int:
    _, walk = config.model.build()
    if walk is None:
        print("traj requires a preset or walk-form model", file=sys.stderr)
        return 1
    n, seed, missing = _trajectories_and_seed(config, args)
    if missing:
        print(f"traj requires {missing}", file=sys.stderr)
        return 1
    acc = run_ensemble(walk, config.initial_state, config.grid, n, seed)
    emit_csv(stochastic_table(acc), args.out or config.output)
    return 0


def _cmd_kernel(config: RunConfig, args) -> int:
    rate_model, _ = config.model.build()
    points = config.kernel_points or _DEFAULT_KERNEL_POINTS
    d2 = rate_model.dim ** 2
    columns = ["u_re", "u_im", "shifted", "condition"]
    columns += [f"K_{i}{j}_{part}" for i in range(d2) for j in range(d2) for part in ("re", "im")]
    rows = []
    analysis = solver.stationary_projector(rate_model)
    for u in points:
        sample = memory_kernel_at(analysis, u)
        head = [u.real, u.imag, float(sample.shifted), sample.condition]
        rows.append(np.concatenate([head, np.stack([sample.kernel.real, sample.kernel.imag], -1).reshape(-1)]))
    emit_csv(OutputTable(columns, np.array(rows)), args.out or config.output)
    return 0


def _cmd_stationary(config: RunConfig, args) -> int:
    rate_model, _ = config.model.build()
    analysis = solver.stationary_projector(rate_model)
    rho_inf = stationary_state(analysis, config.initial_state)
    report = homogeneity_check(analysis)
    print(f"stationary state:\n{np.array_str(rho_inf, precision=10, suppress_small=True)}")
    print(f"homogeneity holds: {report.holds}")
    print(f"coherence-sector residual norm: {report.coherence_residual_norm:.6e}")
    for sector, norm in report.sector_norms.items():
        print(f"  sector {sector}: {norm:.6e}")
    if args.out or config.output:
        d = rate_model.dim
        columns = [f"rho_{i}{j}_{part}" for i in range(d) for j in range(d) for part in ("re", "im")]
        row = np.stack([rho_inf.real, rho_inf.imag], -1).reshape(1, -1)
        emit_csv(OutputTable(columns, row), args.out or config.output)
    return 0


def _cmd_example(config: RunConfig, args) -> int:
    name = config.model.preset_name()
    if name is None:
        print("example requires a preset", file=sys.stderr)
        return 1
    n, seed, missing = _trajectories_and_seed(config, args)
    if missing and (n is not None or seed is not None):
        print(f"example requires {missing} for the Monte Carlo columns", file=sys.stderr)
        return 1
    phi0 = config.initial_state[0, 1]
    if phi0 == 0:
        print("example requires an initial state with nonzero coherence", file=sys.stderr)
        return 1
    rate_model, walk = config.model.build()
    grid = config.grid
    closed = np.atleast_1d(h_of_t(PRESETS[name], grid))
    result = evolve(rate_model, config.initial_state, grid)
    engine_h = (result.system[:, 0, 1] / phi0).real
    columns = ["t", "h_closed", "h_engine", "abs_residual"]
    data = [grid, closed, engine_h, np.abs(engine_h - closed)]
    if not missing:
        acc = run_ensemble(walk, config.initial_state, grid, n, seed)
        mc_h = (acc.system_estimate()[:, 0, 1] / phi0).real
        se_re, _ = acc.system_standard_error()
        columns += ["h_mc", "se_mc", "abs_mc_residual"]
        data += [mc_h, se_re[:, 0, 1] / abs(phi0), np.abs(mc_h - closed)]
    emit_csv(OutputTable(columns, np.stack(data, axis=1)), args.out or config.output)
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "evolve": _cmd_evolve,
    "traj": _cmd_traj,
    "kernel": _cmd_kernel,
    "stationary": _cmd_stationary,
    "example": _cmd_example,
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
    if config is None:
        print("a --config file or --preset name is required", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](config, args)
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
