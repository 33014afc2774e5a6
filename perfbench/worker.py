"""Measuring process of the benchmark; started by ``run.py``, one at a time.

``worker.py setup WORKDIR`` times the set-up alone in a fresh process:
importing ``lindbladrate.cli``, then parsing every generated config and
building its models.  ``worker.py run WORKDIR ...`` does the same set-up,
then runs the closed loop: each operation is one in-process call of
``lindbladrate.cli.main(argv)`` with ``--out`` pointing at a scratch CSV,
started only after the previous one returned and was checked by the gate.
Only the calls are timed; checking happens between them.

The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time


def _setup(workdir: str, src: str) -> tuple[dict, list]:
    """Import the CLI, then parse and build every config.  Returns timings
    and the operation list."""
    t0 = time.perf_counter()
    import lindbladrate.cli as cli

    t_import = time.perf_counter()
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"lindbladrate imported from {cli.__file__}, not from {src}")
    with open(os.path.join(workdir, "ops.json"), encoding="utf-8") as fh:
        ops = json.load(fh)
    for op in ops:
        cli.load_config(os.path.join(workdir, op["config_path"])).model.build()
    t_build = time.perf_counter()
    return {"import_s": t_import - t0, "build_s": t_build - t_import}, ops


def blas_threads() -> dict:
    """Thread count each bundled OpenBLAS reports, keyed by library file."""
    import ctypes
    import glob

    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype, fn.argtypes = ctypes.c_int, []
                    found[os.path.basename(path)] = int(fn())
                    break
    return found


def _cycles(ops: list) -> list[list]:
    out: list[list] = []
    for op in ops:
        if op["cycle"] == len(out):
            out.append([])
        out[-1].append(op)
    return out


def _run(args) -> dict:
    setup, ops = _setup(args.workdir, args.src)
    import lindbladrate
    import lindbladrate.cli as cli

    import oracle
    from tracing import Tracer, summarize

    depol_maps = None
    if any(op["model"] == "depol" for op in ops):
        from workloads import DEPOL_HOPS, DEPOL_WEIGHTS, MC_GRID

        depol_maps = oracle.depolarizing_maps(
            lindbladrate.qubit,
            lindbladrate.solver.evolve,
            lindbladrate.stochastic.convert_walk_to_rate_model,
            oracle.grid_of(MC_GRID),
            DEPOL_HOPS,
            DEPOL_WEIGHTS,
        )
    gate = oracle.Gate(lindbladrate.qubit, depol_maps)
    tracer = Tracer() if args.trace else None
    modules = {name: mod for name, mod in sys.modules.items() if name.startswith("lindbladrate")}
    out_csv = os.path.join(args.workdir, "out.csv")
    records = []

    def run_op(op, traced: bool) -> None:
        cfg_path = os.path.join(args.workdir, op["config_path"])
        argv = [op["command"], "--config", cfg_path, "--out", out_csv]
        main = cli.main
        if traced:
            tracer.op_id = op["id"]
            tracer.install(modules)
            main = tracer.span("op", cli.main)
        err = io.StringIO()
        rc = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main(argv)
        except Exception as exc:  # an escaping exception is a failed operation
            err.write(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        if traced:
            tracer.uninstall()
        rec = {"id": op["id"], "seconds": elapsed, "traced": traced, "rc": rc, "bytes": 0, "error": None}
        if rc != 0:
            rec["error"] = f"exit {rc}: {err.getvalue().strip()[-300:]}"
        else:
            rec["bytes"] = os.path.getsize(out_csv)
            with open(cfg_path, encoding="utf-8") as fh:
                cfg = json.load(fh)
            try:
                rec["error"] = gate.check(op, cfg, out_csv)
            except (ValueError, IndexError, KeyError) as exc:
                rec["error"] = f"unreadable output: {exc}"
        if os.path.exists(out_csv):
            os.remove(out_csv)
        records.append(rec)

    # Run whole cycles until the timed operations add up to ``seconds``; a
    # traced run alternates an untraced and a traced cycle and stops after a
    # whole pair, so both halves have the same mix.  A machine so slow that
    # checking makes the run pass 2.5 times its length stops early, within
    # the time limit.
    wall0 = time.perf_counter()
    cycles = _cycles(ops)
    step = 2 if args.trace else 1
    for c in range(0, len(cycles) - step + 1, step):
        for k in range(step):
            for op in cycles[c + k]:
                run_op(op, traced=k == 1)
        if sum(r["seconds"] for r in records) >= args.seconds or time.perf_counter() - wall0 > 2.5 * args.seconds:
            break

    result = {
        "setup": setup,
        "records": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": blas_threads(),
    }
    if tracer is not None:
        result["layers"] = summarize(tracer.spans)
        with open(args.spans_out, "w", encoding="utf-8") as fh:
            json.dump(
                [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "op": s[4]} for s in tracer.spans], fh
            )
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "run"])
    parser.add_argument("workdir")
    parser.add_argument("--src", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans-out")
    args = parser.parse_args()
    if args.mode == "setup":
        result = {"setup": _setup(args.workdir, args.src)[0]}
    else:
        result = _run(args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
