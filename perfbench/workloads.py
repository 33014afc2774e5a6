"""Seeded workload generator.

A workload is a repeating *cycle* of CLI operations with a fixed mix of
commands, models and sizes; the seed draws the random models, initial
states, Laplace points, trajectory seeds and the order of the operations
inside each cycle.  Every operation gets its own config, so no two
operations in a run are the same input.  The program only ever sees the
generated JSON configs.

Random rate models are built the way the test suite's
``random_rate_model`` builds them (unitary-mixed matrix-unit basis, PSD
blocks for every ordered channel pair, random Hermitian Hamiltonians),
re-implemented here so the benchmark does not import ``tests/``.
"""

from __future__ import annotations

import math

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)

# Two-channel depolarizing walk: no self-dynamics, jump map
# (sigma_x . sigma_x + sigma_y . sigma_y) / 2 on every transfer.
DEPOL_HOPS = (1.0, 0.5)  # (gamma_ab: b -> a, gamma_ba: a -> b)
DEPOL_WEIGHTS = (0.3, 0.7)

MC_GRID = {"stop": 20.0, "count": 201}

# One cycle per workload: (command, model, size, extra), or a list of such
# entries taken in turn from one cycle to the next.  A run repeats whole
# cycles until it has measured ``--seconds``; ``nominal_cycle_s`` is the
# typical cost of one cycle on a 2-vCPU Intel Xeon and only sizes the list of
# operations generated in advance (see ``max_cycles``).
#
# Within a workload the sizes are chosen so that the operations that carry
# its mechanism cost about the same (~0.7 s on ``mc`` and ``evolve-long``,
# ~1.7 s on ``laplace``, whose cheap and dear operations balance).  The
# median and the tail then fall inside one large group of like operations,
# sampled all through the run, instead of on the few samples of one kind or
# on the border between two kinds of different cost, where a small shift of
# the machine's speed moves them a long way.
WORKLOADS = {
    # Trajectory ensembles.  fig2 and fig1-lower average 4.3 transfers per
    # trajectory, fig1-upper none and the depolarizing walk 13.5, so per-jump
    # and per-grid-sample costs both show.
    "mc": {
        "nominal_cycle_s": 2.8,
        "cycle": [
            ("traj", "fig2", 2304, None),
            ("traj", "fig1-lower", 2304, None),
            ("traj", "fig1-upper", 10000, None),
            ("traj", "depol", 1000, None),
        ],
    },
    # Laplace-domain kernels and stationary analysis: one generator assembly
    # per Laplace point and two per stationary call dominate.  The fig2
    # operation (a kernel in even cycles, a stationary state in odd ones) is
    # cheap, a closed-form check of the preset path; the 8-point kernel above
    # the ~1.7 s pair balances it, so the median falls inside that pair.
    "laplace": {
        "nominal_cycle_s": 5.6,
        "cycle": [
            ("kernel", (4, 4), 6, None),
            ("stationary", (6, 3), None, None),
            ("kernel", (4, 4), 8, None),
            [("kernel", "fig2", 8, None), ("stationary", "fig2", None, None)],
        ],
    },
    # Long deterministic grids: per-grid-point packaging and CSV output.
    "evolve-long": {
        "nominal_cycle_s": 4.9,
        "cycle": [
            ("evolve", "fig2", 13000, "linear"),
            ("evolve", "fig1-lower", 14000, "log"),
            ("evolve", "fig1-upper", 15000, "linear"),
            ("evolve", (2, 2), 14000, "log"),
            ("evolve", (3, 2), 14000, "linear"),
            ("evolve", (3, 3), 12000, "log"),
            ("evolve", (3, 3), 12000, "linear"),
        ],
    },
}


def max_cycles(workload: str, seconds: float, traced: bool) -> int:
    """Cycles generated for one run: room for a machine at two thirds of the
    nominal speed.  The run itself stops after the first whole cycle (pair of
    cycles when traced) that ends after ``seconds`` of timed operations."""
    cycles = math.ceil(1.5 * seconds / WORKLOADS[workload]["nominal_cycle_s"]) + 1
    return cycles + cycles % 2 if traced else cycles


# ---------------------------------------------------------------------------
# random models (mirrors tests/conftest.py)
# ---------------------------------------------------------------------------


def random_hermitian(rng, d: int) -> np.ndarray:
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (x + x.conj().T)


def random_psd(rng, m: int) -> np.ndarray:
    x = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return (x @ x.conj().T) / m


def random_density(rng, d: int) -> np.ndarray:
    rho = random_psd(rng, d)
    return rho / np.trace(rho)


def random_rate_model(rng, d: int, k: int) -> dict:
    """Random CP-valid coupled rate model as raw arrays."""
    m = d * d
    units = np.eye(m).reshape(m, d, d).astype(complex)
    x = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    q, _ = np.linalg.qr(x)
    ops = np.tensordot(q, units, axes=(1, 0))
    weights = rng.uniform(0.2, 1.0, size=k)
    weights = weights / weights.sum()
    blocks = np.zeros((k, k, m, m), dtype=complex)
    for r in range(k):
        for rp in range(k):
            blocks[r, rp] = random_psd(rng, m)
    hams = np.stack([random_hermitian(rng, d) for _ in range(k)])
    return {"ops": ops, "weights": weights, "blocks": blocks, "hamiltonians": hams}


def random_qubit_state(rng) -> np.ndarray:
    """Random mixed qubit state with a coherence of modulus at least 0.1."""
    while True:
        rho = random_density(rng, 2)
        if abs(rho[0, 1]) >= 0.1:
            return rho


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def cmatrix(a) -> list:
    """Complex matrix as nested rows of ``[re, im]`` pairs."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(a, dtype=complex)]


def rate_model_section(spec: dict) -> dict:
    k = spec["weights"].shape[0]
    blocks = spec["blocks"]
    return {
        "type": "rate",
        "basis": [cmatrix(op) for op in spec["ops"]],
        "weights": [float(w) for w in spec["weights"]],
        "diagonal_blocks": [cmatrix(blocks[r, r]) for r in range(k)],
        "offdiagonal_blocks": [
            {"to": r, "from": rp, "block": cmatrix(blocks[r, rp])} for r in range(k) for rp in range(k) if rp != r
        ],
        "hamiltonians": [cmatrix(h) for h in spec["hamiltonians"]],
    }


def depol_walk_section() -> dict:
    g_ab, g_ba = DEPOL_HOPS
    zero = np.zeros((2, 2))
    kraus = [cmatrix(SIGMA_X / np.sqrt(2.0)), cmatrix(SIGMA_Y / np.sqrt(2.0))]
    return {
        "type": "walk",
        "basis": [cmatrix(SIGMA_X), cmatrix(SIGMA_Y)],
        "hamiltonian": cmatrix(zero),
        "channel_dissipators": [cmatrix(zero), cmatrix(zero)],
        "hop_rates": [[0.0, g_ab], [g_ba, 0.0]],
        "jump_kraus": [kraus, kraus],
        "weights": list(DEPOL_WEIGHTS),
    }


# ---------------------------------------------------------------------------
# operation list
# ---------------------------------------------------------------------------


def _model_op(rng, command, model, size, extra) -> dict:
    """One operation: its config plus the facts the gate and the work counts need."""
    name = model if isinstance(model, str) else f"rate{model[0]}x{model[1]}"
    cfg = {}
    op = {"command": command, "model": name, "config": cfg}
    if isinstance(model, tuple):
        d, k = model
        cfg["model"] = rate_model_section(random_rate_model(rng, d, k))
        rho0 = random_density(rng, d)
        op["stacked_size"] = k * d * d
    elif model == "depol":
        cfg["model"] = depol_walk_section()
        rho0 = random_density(rng, 2)
        op["stacked_size"] = 8
    else:
        cfg["model"] = {"type": "preset", "name": model}
        rho0 = random_qubit_state(rng)
        op["stacked_size"] = 8
    cfg["initial_state"] = cmatrix(rho0)

    if command == "traj":
        cfg["grid"] = dict(MC_GRID)
        cfg["engine"] = "stochastic"
        cfg["trajectories"] = op["trajectories"] = int(size)
        cfg["seed"] = int(rng.integers(0, 2**63))
    elif command == "evolve":
        stop = 20.0 if isinstance(model, str) else float(rng.uniform(5.0, 10.0))
        cfg["grid"] = {"stop": stop, "count": int(size), "spacing": extra}
        if extra == "log":
            cfg["grid"]["decades"] = 4
        op["grid_points"] = int(size)
        # random models are checked against expm at three grid times
        op["check_rows"] = sorted(int(i) for i in rng.choice(np.arange(1, int(size)), size=3, replace=False))
    elif command == "kernel":
        cfg["grid"] = {"stop": 1.0, "count": 2}
        # fig2's kernel has a pole at u = 0.72 (zero of h(u)); stay clear of it
        lo = 1.5 if isinstance(model, str) else 0.5
        cfg["kernel_u"] = [[float(u), 0.0] for u in np.sort(rng.uniform(lo, 6.0, size=int(size)))]
        op["laplace_points"] = int(size)
    elif command == "stationary":
        cfg["grid"] = {"stop": 1.0, "count": 2}
    else:
        raise ValueError(f"unknown command {command!r}")
    return op


def generate(workload: str, seed: int, cycles: int) -> list[dict]:
    """The operation list: ``cycles`` cycles, each shuffled by the seed."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; available: {sorted(WORKLOADS)}")
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    cycle = WORKLOADS[workload]["cycle"]
    ops = []
    for c in range(cycles):
        for slot in rng.permutation(len(cycle)):
            entry = cycle[slot]
            op = _model_op(rng, *(entry[c % len(entry)] if isinstance(entry, list) else entry))
            op["id"] = len(ops)
            op["cycle"] = c
            ops.append(op)
    return ops
