#!/usr/bin/env python3
"""lindbladrate benchmark: closed-loop CLI workloads, end-to-end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload mc --seed 1 --seconds 34 --trace 0

Workloads (see ``workloads.py`` for the operation mixes):

* ``mc``          -- ``lre traj`` on the dephasing presets and a depolarizing
                     walk: the Monte Carlo kernel dominates;
* ``laplace``     -- ``lre kernel`` / ``lre stationary`` on random rate models
                     and fig2: generator assembly dominates;
* ``evolve-long`` -- ``lre evolve`` on 1.2*10^4..1.5*10^4-point grids:
                     per-grid-point packaging and CSV output dominate.

One client in one process sends the seed-generated operations one after the
other (closed loop, ``workers`` stays 1); each is an in-process call of
``lindbladrate.cli.main`` whose CSV is checked against an independent
reference (``oracle.py``).  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a run whose layer boundaries are
wrapped by timing spans (``tracing.py``).  Every result is printed beside the
machine facts and the computed work counts; the last line of standard output
is the JSON result.  The program is imported from ``src/`` of the current
directory; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 3  # fresh processes timed for set-up (the measuring one included)
RUN_TIMEOUT_S = 170.0


# One BLAS thread: the matrices here are at most 108 x 108, and on a 2-CPU
# machine a second OpenBLAS thread made the mc workload about 30% slower
# (its waiting thread competes with the interpreter for the other CPU).
BLAS_THREADS = 1


def _child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _spawn(args: list[str], env: dict, timeout: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        env=env,
        stdout=subprocess.PIPE,
        timeout=timeout,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# provenance and computed work
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: str) -> str | None:
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def _source_digest(src: str) -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(src, "lindbladrate")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def provenance(root: str, src: str, seed: int, blas: dict) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "blas_threads": blas,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(src),
        "seed": seed,
    }


def expected_transfers(hops, p_a: float, horizon: float) -> float:
    """Mean transfers per trajectory of the two-state hop chain on [0, T].

    ``hops = (gamma_ab, gamma_ba)``: rate b -> a and rate a -> b.  The jump
    rate is ``beta + (alpha - beta) p_a(t)`` with ``p_a`` relaxing at
    ``alpha + beta`` to ``beta / (alpha + beta)``.
    """
    beta, alpha = hops
    lam = alpha + beta
    if lam == 0.0:
        return 0.0
    pa_inf = beta / lam
    integral_pa = pa_inf * horizon + (p_a - pa_inf) * (1.0 - math.exp(-lam * horizon)) / lam
    return beta * horizon + (alpha - beta) * integral_pa


def computed_work(meta: list, presets) -> dict:
    """Work counts that follow from the inputs alone.

    Annotates each trajectory operation with its expected segment count
    (transfers + 1 per trajectory) and summarizes the counts per operation
    kind.
    """
    from workloads import DEPOL_HOPS, DEPOL_WEIGHTS, MC_GRID

    summary: dict = {}
    for op in meta:
        ent = summary.setdefault(f"{op['command']}:{op['model']}", {"stacked_size": op["stacked_size"]})
        if "laplace_points" in op:
            ent.setdefault("laplace_points_per_op", set()).add(op["laplace_points"])
        if "grid_points" in op:
            ent.setdefault("grid_points_per_op", set()).add(op["grid_points"])
        if op["command"] == "traj":
            if op["model"] == "depol":
                hops, p_a = DEPOL_HOPS, DEPOL_WEIGHTS[0]
            else:
                p = presets[op["model"]]
                hops, p_a = (p.gamma_ab, p.gamma_ba), p.p_a
            transfers = expected_transfers(hops, p_a, MC_GRID["stop"])
            op["segments"] = op["trajectories"] * (1.0 + transfers)
            ent["expected_transfers_per_traj"] = round(transfers, 4)
            ent.setdefault("trajectories_per_op", set()).add(op["trajectories"])
            ent.setdefault("segments_per_op", set()).add(round(op["segments"], 1))
    return {kind: {key: sorted(val) if isinstance(val, set) else val for key, val in ent.items()} for kind, ent in summary.items()}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(durations: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten operations beyond it."""
    xs = sorted(durations)
    idx = max(0, len(xs) - 11)
    return xs[idx], 100.0 * (idx + 1) / len(xs)


def end_to_end(records: list, setup_s: float, rss_mb: float) -> tuple[dict, dict]:
    secs = [r["seconds"] for r in records]
    value, pct = tail(secs)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(secs) / sum(secs), "1/s"),
        "op_s_p50": (statistics.median(secs), "s"),
        "op_s_tail": (value, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    extra = {"op_s_tail_percentile": round(pct, 2), "operations": len(secs)}
    return metrics, extra


def per_layer(records: list, layers: dict, ops_by_id: dict, setups: list) -> tuple[dict, dict]:
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    n = len(traced)

    def total(name):
        return layers.get(name, {}).get("total_s", 0.0)

    def own(name):
        return layers.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    blocks_s = total("kernels.run_blocks")
    trajectories = sum(ops_by_id[r["id"]].get("trajectories", 0) for r in traced)
    segments = sum(ops_by_id[r["id"]].get("segments", 0.0) for r in traced)
    metrics = {
        "model.assemble_s": (total("model.assemble") / n, "s"),
        "model.assemble.calls": (calls("model.assemble") / n, "count"),
        "model.validate_s": (total("model.validate") / n, "s"),
        "solver.stationary_projector_s": (total("solver.stationary_projector") / n, "s"),
        "solver.stationary_projector.calls": (calls("solver.stationary_projector") / n, "count"),
        "solver.memory_kernel_self_s": (own("solver.memory_kernel") / n, "s"),
        "solver.stationary_state_self_s": (own("solver.stationary_state") / n, "s"),
        "solver.homogeneity_self_s": (own("solver.homogeneity") / n, "s"),
        "solver.evolve_self_s": (own("solver.evolve") / n, "s"),
        "config.emit_s": (total("config.emit") / n, "s"),
        "config.emit_bytes": (sum(r["bytes"] for r in traced) / n, "bytes"),
        "config.table_s": (total("config.table") / n, "s"),
        "config.load_s": (total("config.load") / n, "s"),
        "kernels.run_blocks_s": (blocks_s / n, "s"),
        "stochastic.traj_per_s": (trajectories / blocks_s if blocks_s else 0.0, "1/s"),
        "stochastic.segments_per_s": (segments / blocks_s if blocks_s else 0.0, "1/s"),
        "stochastic.run_ensemble_self_s": (own("stochastic.run_ensemble") / n, "s"),
        "stochastic.reduce_s": (total("stochastic.reduce") / n, "s"),
        "setup.import_s": (statistics.median(s["import_s"] for s in setups), "s"),
        "setup.build_s": (statistics.median(s["build_s"] for s in setups), "s"),
        "trace.overhead_ratio": (statistics.mean(r["seconds"] for r in traced) / statistics.mean(r["seconds"] for r in plain), "ratio"),
    }
    op_s = sum(r["seconds"] for r in traced)
    shares = {name: round(rec["self_s"] / op_s, 4) for name, rec in sorted(layers.items())}
    extra = {"traced_operations": n, "self_time_share_of_op_time": shares}
    return metrics, extra


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "lindbladrate", "cli.py")):
        print(f"perfbench: no program source under {src}; run from the repository root", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [HERE, src]
    import lindbladrate.qubit as qubit

    from workloads import WORKLOADS, generate, max_cycles

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; available: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    workdir = os.path.join(root, ".perfbench_work", f"{args.workload}-s{args.seed}-p{os.getpid()}")
    outdir = os.path.join(root, ".perfbench_out")
    os.makedirs(os.path.join(workdir, "cfg"), exist_ok=True)
    os.makedirs(outdir, exist_ok=True)
    try:
        ops = generate(args.workload, args.seed, max_cycles(args.workload, args.seconds, bool(args.trace)))
        meta = []
        for op in ops:
            entry = {key: val for key, val in op.items() if key != "config"}
            entry["config_path"] = os.path.join("cfg", f"op{op['id']:04d}.json")
            with open(os.path.join(workdir, entry["config_path"]), "w", encoding="utf-8") as fh:
                json.dump(op["config"], fh)
            meta.append(entry)
        work = computed_work(meta, qubit.PRESETS)
        with open(os.path.join(workdir, "ops.json"), "w", encoding="utf-8") as fh:
            json.dump(meta, fh)

        env = _child_env(src)
        setups = [_spawn(["setup", workdir, "--src", src], env, 60.0)["setup"] for _ in range(SETUP_SAMPLES - 1)]
        spans_out = os.path.join(outdir, f"spans-{args.workload}-s{args.seed}.json")
        budget = RUN_TIMEOUT_S - (time.perf_counter() - started)
        run = _spawn(
            ["run", workdir, "--src", src, "--seconds", str(args.seconds), "--trace", str(args.trace), "--spans-out", spans_out],
            env,
            budget,
        )
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops_by_id = {entry["id"]: entry for entry in meta}
    setups.append(run["setup"])
    records = run["records"]
    with open(os.path.join(outdir, f"ops-{args.workload}-s{args.seed}-t{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump([dict(r, **{k: ops_by_id[r["id"]][k] for k in ("command", "model", "cycle")}) for r in records], fh)
    failed = [r for r in records if r["error"]]
    setup_s = statistics.median(s["import_s"] + s["build_s"] for s in setups)
    if args.trace:
        metrics, extra = per_layer(records, run["layers"], ops_by_id, setups)
    else:
        metrics, extra = end_to_end(records, setup_s, run["peak_rss_mb"])
    extra["fail_ratio"] = len(failed) / len(records)
    extra["setup_samples_s"] = [round(s["import_s"] + s["build_s"], 4) for s in setups]
    bytes_by_kind: dict = {}
    for r in records:
        op = ops_by_id[r["id"]]
        bytes_by_kind.setdefault(f"{op['command']}:{op['model']}", []).append(r["bytes"])
    work["csv_bytes_per_op_measured"] = {k: round(statistics.mean(v)) for k, v in sorted(bytes_by_kind.items())}

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("provenance " + json.dumps(provenance(root, src, args.seed, run["blas_threads"])))
    print("work(computed) " + json.dumps(work))
    print("run " + json.dumps(extra))
    for r in failed[:5]:
        op = ops_by_id[r["id"]]
        print(f"FAILED op {r['id']} {op['command']}:{op['model']}: {r['error']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    print(f"  {'fail_ratio':36s} {extra['fail_ratio']:14.6g} ratio")
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
