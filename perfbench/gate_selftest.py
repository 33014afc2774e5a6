#!/usr/bin/env python3
"""Show that the correctness gate passes real output and fires on corrupted output.

For every operation kind of every workload, runs one generated operation
through ``lindbladrate.cli.main``, checks its CSV, then adds 0.5 to one
value at a position the gate checks and checks again; 0.5 is far beyond the
Monte Carlo tolerance of 7 standard errors (about 0.1 at n = 1024).  Exits 1
unless every clean CSV passes and every corrupted one fails.  Run from the
repository root:

    python3 perfbench/gate_selftest.py --seed 1
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def corrupt(path: str, op: dict) -> str:
    """Add 0.5 to one checked value; returns which one."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    column = {
        "evolve": "coh_01_re",
        "traj": "pop_0",
        "kernel": "K_11_re",
        "stationary": "rho_00_re",
    }[op["command"]]
    row = 1 + (op["check_rows"][1] if op.get("check_rows") and not op["model"].startswith("fig") else (len(lines) - 1) // 2)
    fields = lines[row].split(",")
    col = header.index(column)
    fields[col] = repr(float(fields[col]) + 0.5)
    lines[row] = ",".join(fields)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return f"{column} row {row - 1}"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    root = os.getcwd()
    sys.path[:0] = [HERE, os.path.join(root, "src")]
    import lindbladrate
    import lindbladrate.cli as cli

    import oracle
    from workloads import DEPOL_HOPS, DEPOL_WEIGHTS, MC_GRID, WORKLOADS, generate

    maps = oracle.depolarizing_maps(
        lindbladrate.qubit,
        lindbladrate.solver.evolve,
        lindbladrate.stochastic.convert_walk_to_rate_model,
        oracle.grid_of(MC_GRID),
        DEPOL_HOPS,
        DEPOL_WEIGHTS,
    )
    gate = oracle.Gate(lindbladrate.qubit, maps)
    workdir = os.path.join(root, ".perfbench_work", "gate-selftest")
    os.makedirs(workdir, exist_ok=True)
    cfg_path, out_csv = os.path.join(workdir, "cfg.json"), os.path.join(workdir, "out.csv")
    bad = 0
    try:
        for workload in WORKLOADS:
            seen = set()
            for op in generate(workload, args.seed, 2):
                kind = f"{op['command']}:{op['model']}"
                if kind in seen:
                    continue
                seen.add(kind)
                with open(cfg_path, "w", encoding="utf-8") as fh:
                    json.dump(op["config"], fh)
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main([op["command"], "--config", cfg_path, "--out", out_csv])
                clean = gate.check(op, op["config"], out_csv) if rc == 0 else f"exit {rc}"
                where = corrupt(out_csv, op)
                dirty = gate.check(op, op["config"], out_csv)
                ok = clean is None and dirty is not None
                bad += not ok
                print(f"{'ok ' if ok else 'BAD'} {workload:12s} {kind:20s} clean: {clean or 'pass'}; +0.5 at {where}: {dirty or 'pass'}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
