"""Correctness gate: independent references for every benchmark operation.

Each reference avoids the code path being timed:

* dephasing presets are checked against the closed forms ``h_of_t``,
  ``h_of_u``/``dephasing_kernel`` and ``dephasing_stationary``, and the
  channel traces against the two-state hop chain;
* the depolarizing walk is checked against ``evolve`` on its converted rate
  model (the deterministic engine, not the Monte Carlo one being timed);
* random rate models are checked against a generator built here from the
  rate equations, one stacked matrix unit (one column) at a time:
  ``expm`` at three grid times for ``evolve``, the long-time limit for
  ``stationary``, and the defining relation
  ``R(u) L(u) = (1| (u-G)^{-1} M |P)`` (shifted by the stationary part)
  for ``kernel``.

Monte Carlo means must lie within ``MC_SIGMAS`` standard errors of the
reference.  A check returns an error string, or ``None`` when it passes.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

MC_SIGMAS = 7.0
DET_TOL = 1e-8
STATIONARY_TOL = 1e-7
KERNEL_TOL = 1e-7
_PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


# ---------------------------------------------------------------------------
# model data from a generated config
# ---------------------------------------------------------------------------


def _cm(rows) -> np.ndarray:
    return np.array([[complex(x[0], x[1]) if isinstance(x, list) else complex(x) for x in row] for row in rows])


def rate_spec(section: dict) -> dict:
    """Raw arrays of a generated ``rate`` model section."""
    ops = np.array([_cm(m) for m in section["basis"]])
    weights = np.array(section["weights"], dtype=float)
    k, m = weights.shape[0], ops.shape[0]
    blocks = np.zeros((k, k, m, m), dtype=complex)
    for r, blk in enumerate(section["diagonal_blocks"]):
        blocks[r, r] = _cm(blk)
    for ent in section.get("offdiagonal_blocks", []):
        blocks[ent["to"], ent["from"]] = _cm(ent["block"])
    hams = np.array([_cm(h) for h in section["hamiltonians"]])
    return {"ops": ops, "weights": weights, "blocks": blocks, "hamiltonians": hams}


def preset_spec(params) -> dict:
    """Raw arrays of a dephasing preset: basis {sigma_z}, self blocks
    ``gamma_R / 2``, feed blocks the bare hop rates."""
    ops = np.array([[[1.0, 0.0], [0.0, -1.0]]], dtype=complex)
    blocks = np.zeros((2, 2, 1, 1), dtype=complex)
    blocks[0, 0] = params.gamma_a / 2.0
    blocks[1, 1] = params.gamma_b / 2.0
    blocks[0, 1] = params.gamma_ab
    blocks[1, 0] = params.gamma_ba
    return {
        "ops": ops,
        "weights": np.array([params.p_a, params.p_b]),
        "blocks": blocks,
        "hamiltonians": np.zeros((2, 2, 2), dtype=complex),
    }


def grid_of(section: dict) -> np.ndarray:
    stop, count = float(section["stop"]), int(section["count"])
    if section.get("spacing", "linear") == "log":
        inner = np.geomspace(stop * 10.0 ** (-section.get("decades", 4)), stop, count - 1)
        return np.concatenate([[0.0], inner])
    return np.linspace(0.0, stop, count)


# ---------------------------------------------------------------------------
# reference generator from the rate equations
# ---------------------------------------------------------------------------


def reference_generator(spec: dict) -> np.ndarray:
    """Stacked generator applied column by column to matrix units.

    Channel ``R`` obeys ``d rho_R/dt = -i[H_R, rho_R] + sum_{a,g} a_R[a,g]
    (V_a rho_R V_g^+ - 1/2 {V_g^+ V_a, rho_R}) - sum_{R''!=R} 1/2 {D(R''<-R),
    rho_R} + sum_{R'!=R} sum_{a,g} a[R,R'][a,g] V_a rho_R' V_g^+``.
    """
    ops, blocks, hams = spec["ops"], spec["blocks"], spec["hamiltonians"]
    k, d = blocks.shape[0], ops.shape[1]
    n = d * d
    # C[r, rp, a] = sum_g a[r, rp][a, g] V_g^+ so that the sandwich part is
    # sum_a V_a X C_a and the anticommutator operator is 1/2 sum_a C_a V_a.
    adj = ops.conj().transpose(0, 2, 1)
    c = np.einsum("xyag,gij->xyaij", blocks, adj)
    dop = 0.5 * np.einsum("xyaij,ajk->xyik", c, ops)
    gen = np.zeros((k * n, k * n), dtype=complex)
    for rp in range(k):
        for idx in range(n):
            unit = np.zeros((d, d), dtype=complex)
            unit[idx % d, idx // d] = 1.0
            col = np.zeros((k, d, d), dtype=complex)
            for r in range(k):
                if r == rp:
                    esc = sum(dop[rpp, r] for rpp in range(k) if rpp != r)
                    acc = -1j * (hams[r] @ unit - unit @ hams[r])
                    acc += np.einsum("aij,jk,akl->il", ops, unit, c[r, r])
                    acc -= dop[r, r] @ unit + unit @ dop[r, r]
                    acc -= esc @ unit + unit @ esc
                else:
                    acc = np.einsum("aij,jk,akl->il", ops, unit, c[r, rp])
                col[r] = acc
            gen[:, rp * n + idx] = np.concatenate([col[r].reshape(-1, order="F") for r in range(k)])
    return gen


def _embed(weights: np.ndarray, n: int) -> np.ndarray:
    return np.kron(weights.reshape(-1, 1), np.eye(n))


def _channel_sum(cols: np.ndarray, k: int, n: int) -> np.ndarray:
    return cols.reshape(k, n, -1).sum(axis=0)


def long_time_limit(gen: np.ndarray) -> np.ndarray:
    """``exp(t G)`` at a time where every decaying mode is below 1e-17."""
    vals = np.linalg.eigvals(gen)
    scale = max(1.0, float(np.abs(vals).max()))
    decaying = vals.real[vals.real < -1e-9 * scale]
    rate = float(-decaying.max()) if decaying.size else 1.0
    return scipy.linalg.expm((40.0 / rate) * gen)


# ---------------------------------------------------------------------------
# CSV reading
# ---------------------------------------------------------------------------


def read_csv(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


def observable_columns(d: int) -> list[str]:
    cols = [f"pop_{i}" for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            cols += [f"coh_{i}{j}_re", f"coh_{i}{j}_im"]
    return cols


def observables(states: np.ndarray) -> np.ndarray:
    d = states.shape[-1]
    cols = [states[..., i, i].real for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            cols += [states[..., i, j].real, states[..., i, j].imag]
    return np.stack(cols, axis=-1)


def _table_header(d: int, k: int, stochastic: bool) -> list[str]:
    obs = observable_columns(d)
    head = ["t"] + obs + [f"trace_ch{r}" for r in range(k)] + ["min_eig"]
    return head + [f"se_{c}" for c in obs] if stochastic else head


def _worst(actual, expected, tol) -> float:
    """Largest excess of ``|actual - expected|`` over its tolerance (<= 0 passes)."""
    return float(np.max(np.abs(np.asarray(actual) - np.asarray(expected)) - tol))


# ---------------------------------------------------------------------------
# closed forms for the dephasing presets
# ---------------------------------------------------------------------------


def hop_chain_traces(params, times: np.ndarray) -> np.ndarray:
    """Channel occupations of the two-state hop chain, shape (T, 2)."""
    total = params.gamma_ab + params.gamma_ba
    if total == 0.0:
        return np.tile([params.p_a, params.p_b], (times.shape[0], 1))
    pa_inf = params.gamma_ab / total
    pa = pa_inf + (params.p_a - pa_inf) * np.exp(-total * times)
    return np.stack([pa, 1.0 - pa], axis=1)


def dephasing_states(params, rho0: np.ndarray, times: np.ndarray, h_of_t) -> np.ndarray:
    h = np.atleast_1d(h_of_t(params, times))
    states = np.broadcast_to(rho0, (times.shape[0], 2, 2)).copy()
    states[:, 0, 1] = h * rho0[0, 1]
    states[:, 1, 0] = h * rho0[1, 0]
    return states


def min_eigenvalue(states: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(0.5 * (states + states.conj().transpose(0, 2, 1)))[:, 0]


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------


class Gate:
    """Checks one operation's CSV against its reference.

    ``qubit`` is the program's closed-form module and ``depol_maps`` the
    reduced maps of the depolarizing walk on the Monte Carlo grid (both
    passed in, so this module imports nothing from the program).
    """

    def __init__(self, qubit, depol_maps=None):
        self.qubit = qubit
        self.depol_maps = depol_maps

    def check(self, op: dict, cfg: dict, csv_path: str) -> str | None:
        header, data = read_csv(csv_path)
        if not np.all(np.isfinite(data)):
            return "non-finite value in output"
        return getattr(self, "_check_" + op["command"])(op, cfg, header, data)

    def _model(self, cfg):
        section = cfg["model"]
        if section["type"] == "preset":
            params = self.qubit.PRESETS[section["name"]]
            return preset_spec(params), params
        return rate_spec(section), None

    def _check_evolve(self, op, cfg, header, data):
        spec, params = self._model(cfg)
        d, k = spec["ops"].shape[1], spec["weights"].shape[0]
        if header != _table_header(d, k, False):
            return f"unexpected header {header[:4]}..."
        times = grid_of(cfg["grid"])
        if data.shape[0] != times.shape[0] or not np.array_equal(data[:, 0], times):
            return "time column differs from the configured grid"
        obs = data[:, 1 : 1 + d * d]
        traces = data[:, 1 + d * d : 1 + d * d + k]
        pops = obs[:, :d].sum(axis=1)
        if _worst(pops, 1.0, DET_TOL) > 0 or _worst(traces.sum(axis=1), 1.0, DET_TOL) > 0:
            return "total trace departs from 1"
        rho0 = _cm(cfg["initial_state"])
        if params is not None:
            rows = np.arange(times.shape[0])
            states = dephasing_states(params, rho0, times, self.qubit.h_of_t)
            ref_traces = hop_chain_traces(params, times)
        else:
            rows = np.array(op["check_rows"])
            gen = reference_generator(spec)
            y0 = np.concatenate([w * rho0.reshape(-1, order="F") for w in spec["weights"]])
            stacked = np.array([scipy.linalg.expm(times[i] * gen) @ y0 for i in rows]).reshape(len(rows), k, d, d)
            stacked = stacked.transpose(0, 1, 3, 2)
            states = stacked.sum(axis=1)
            ref_traces = np.einsum("tkii->tk", stacked).real
        if _worst(obs[rows], observables(states), DET_TOL) > 0:
            return "state differs from the reference"
        if _worst(traces[rows], ref_traces, DET_TOL) > 0:
            return "channel traces differ from the reference"
        if _worst(data[rows, -1], min_eigenvalue(states), DET_TOL) > 0:
            return "min_eig differs from the reference"
        return None

    def _check_traj(self, op, cfg, header, data):
        n = cfg["trajectories"]
        k, d = 2, 2
        if header != _table_header(d, k, True):
            return f"unexpected header {header[:4]}..."
        times = grid_of(cfg["grid"])
        if data.shape[0] != times.shape[0] or not np.array_equal(data[:, 0], times):
            return "time column differs from the configured grid"
        rho0 = _cm(cfg["initial_state"])
        section = cfg["model"]
        if section["type"] == "preset":
            params = self.qubit.PRESETS[section["name"]]
            states = dephasing_states(params, rho0, times, self.qubit.h_of_t)
            ref_traces = hop_chain_traces(params, times)
        else:
            maps, ref_trace_maps = self.depol_maps
            vec0 = rho0.reshape(-1, order="F")
            states = (maps @ vec0).reshape(-1, d, d).transpose(0, 2, 1)
            ref_traces = (ref_trace_maps @ vec0).real
        nobs = d * d
        obs, se = data[:, 1 : 1 + nobs], data[:, -nobs:]
        traces = data[:, 1 + nobs : 1 + nobs + k]
        # The 10/n floor covers outcomes too rare to appear in the sample (the
        # sample error is then 0): with n trajectories an unseen outcome has
        # probability of order 1/n, and each trajectory contributes at most 1.
        if _worst(obs, observables(states), MC_SIGMAS * se + 10.0 / n) > 0:
            return f"Monte Carlo estimate beyond {MC_SIGMAS:g} standard errors of the reference"
        trace_se = np.sqrt(np.clip(ref_traces * (1.0 - ref_traces), 0.0, None) / n)
        if _worst(traces, ref_traces, MC_SIGMAS * trace_se + 1e-9) > 0:
            return "channel occupation beyond tolerance of the hop chain"
        return None

    def _check_stationary(self, op, cfg, header, data):
        spec, params = self._model(cfg)
        d = spec["ops"].shape[1]
        expected_head = [f"rho_{i}{j}_{p}" for i in range(d) for j in range(d) for p in ("re", "im")]
        if header != expected_head or data.shape[0] != 1:
            return "unexpected stationary table shape"
        got = data[0, 0::2] + 1j * data[0, 1::2]
        rho0 = _cm(cfg["initial_state"])
        if params is not None:
            ref = self.qubit.dephasing_stationary(params, rho0).matrix()
        else:
            k, n = spec["weights"].shape[0], d * d
            limit = long_time_limit(reference_generator(spec))
            y0 = np.concatenate([w * rho0.reshape(-1, order="F") for w in spec["weights"]])
            ref = _channel_sum((limit @ y0)[:, None], k, n).reshape(d, d, order="F")
        if _worst(got, ref.reshape(-1), STATIONARY_TOL) > 0:
            return "stationary state differs from the long-time limit"
        return None

    def _check_kernel(self, op, cfg, header, data):
        spec, params = self._model(cfg)
        d, k = spec["ops"].shape[1], spec["weights"].shape[0]
        n = d * d
        points = np.array([complex(u[0], u[1]) for u in cfg["kernel_u"]])
        if header[:4] != ["u_re", "u_im", "shifted", "condition"] or len(header) != 4 + 2 * n * n:
            return "unexpected kernel header"
        if data.shape[0] != points.shape[0]:
            return "one kernel row per Laplace point expected"
        if not (np.array_equal(data[:, 0], points.real) and np.array_equal(data[:, 1], points.imag)):
            return "Laplace points differ from the config"
        gen = reference_generator(spec)
        m_part = gen  # the generated models carry no system Hamiltonian
        limit = long_time_limit(gen)
        embed = _embed(spec["weights"], n)
        pi = _channel_sum(limit @ embed, k, n)
        shifted = float(np.abs(pi).max()) > 1e-9
        shift_rhs = _channel_sum(limit @ (m_part @ embed), k, n)
        eye = np.eye(k * n)
        for row, u in zip(data, points):
            if bool(row[2]) != shifted:
                return f"shift flag differs at u = {u}"
            if not row[3] >= 1.0:
                return f"implausible condition number at u = {u}"
            kern = (row[4::2] + 1j * row[5::2]).reshape(n, n)
            lu = scipy.linalg.lu_factor(u * eye - gen)
            lhs = _channel_sum(scipy.linalg.lu_solve(lu, embed), k, n)
            rhs = _channel_sum(scipy.linalg.lu_solve(lu, m_part @ embed), k, n)
            if shifted:
                lhs, rhs = lhs - pi / u, rhs - shift_rhs / u
            scale = max(1.0, float(np.abs(rhs).max()), float(np.abs(lhs).max() * np.abs(kern).max()))
            if float(np.abs(lhs @ kern - rhs).max()) > KERNEL_TOL * scale:
                return f"kernel violates its defining relation at u = {u}"
            if params is not None:
                # coherence sector: (h(u) - h_inf / u) kappa = u h(u) - 1, where
                # h_inf is the surviving coherence fraction (zero unshifted)
                h = self.qubit.h_of_u(params, u)
                h_inf = 2.0 * self.qubit.dephasing_stationary(params, _PLUS).coh_plus.real
                if h_inf == 0.0:
                    ref = -self.qubit.dephasing_kernel(params, u)
                else:
                    ref = (u * h - 1.0) / (h - h_inf / u)
                if _worst(kern[[1, 2], [1, 2]], ref, 1e-8 * max(1.0, abs(ref))) > 0:
                    return f"coherence kernel differs from the closed form at u = {u}"
        return None


def depolarizing_maps(qubit, evolve, convert, grid: np.ndarray, hops, weights):
    """Reduced maps ``vec rho0 -> rho(t)`` and ``-> channel traces`` of the
    depolarizing walk, from ``evolve`` on its converted rate model.

    ``evolve`` is linear in the initial state, so four states that span the
    qubit operators determine the maps on the whole grid.
    """
    params = qubit.DepolarizingParams(*hops, *weights)
    _, walk = qubit.depolarizing_model(params)
    rate_model = convert(walk, walk.basis)
    plus_i = np.array([[0.5, -0.5j], [0.5j, 0.5]], dtype=complex)
    basis_states = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex), _PLUS, plus_i]
    vecs = np.array([s.reshape(-1, order="F") for s in basis_states]).T  # (4, 4)
    outs, trs = [], []
    for s in basis_states:
        res = evolve(rate_model, s, grid)
        outs.append(res.system.transpose(0, 2, 1).reshape(grid.shape[0], -1))
        trs.append(res.channel_traces())
    inv = np.linalg.inv(vecs)
    maps = np.einsum("stx,sy->txy", np.array(outs), inv)
    trace_maps = np.einsum("stk,sy->tky", np.array(trs), inv)
    return maps, trace_maps
