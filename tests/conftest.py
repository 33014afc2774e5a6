"""Shared oracles and random-model factories for the test suite."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg

from lindbladrate._rng import draw_u64, stream_key, to_unit
from lindbladrate.linalg import vectorize
from lindbladrate.model import LindbladRateModel, OperatorBasis
from lindbladrate.qubit import SIGMA_X, SIGMA_Y, SIGMA_Z


def vec_oracle(matrix: np.ndarray) -> np.ndarray:
    """Column stacking written out longhand (independent of linalg.vectorize)."""
    d = matrix.shape[0]
    out = np.empty(d * d, dtype=complex)
    for j in range(d):
        for i in range(d):
            out[i + d * j] = matrix[i, j]
    return out


def apply_rate_equation(model: LindbladRateModel, stacked: np.ndarray) -> np.ndarray:
    """Direct elementwise evaluation of the coupled equations of motion.

    Works on (K, d, d) matrices with plain products; serves as the
    independent oracle for the assembled superoperator.
    """
    k = model.num_channels
    ops = model.basis.ops
    m = model.basis.size
    out = np.zeros_like(stacked)
    for r in range(k):
        h = model.hamiltonians[r]
        rho = stacked[r]
        acc = -1j * (h @ rho - rho @ h)
        for alpha in range(m):
            for gamma in range(m):
                a = model.blocks[r, r, alpha, gamma]
                vg_va = ops[gamma].conj().T @ ops[alpha]
                acc += a * (ops[alpha] @ rho @ ops[gamma].conj().T - 0.5 * (vg_va @ rho + rho @ vg_va))
        for rpp in range(k):
            if rpp == r:
                continue
            for alpha in range(m):
                for gamma in range(m):
                    a = model.blocks[rpp, r, alpha, gamma]
                    vg_va = ops[gamma].conj().T @ ops[alpha]
                    acc -= 0.5 * a * (vg_va @ rho + rho @ vg_va)
        for rp in range(k):
            if rp == r:
                continue
            for alpha in range(m):
                for gamma in range(m):
                    a = model.blocks[r, rp, alpha, gamma]
                    acc += a * (ops[alpha] @ stacked[rp] @ ops[gamma].conj().T)
        out[r] = acc
    return out


# Scalar trajectory reference: one trajectory, one sojourn segment at a time,
# written from the jump-process definition.  The lockstep kernel in
# lindbladrate._kernels must reproduce it trajectory by trajectory.


class CounterStream:
    """Stateful view of one substream of the package's counter-based streams."""

    def __init__(self, master_seed: int, index: int = 0):
        self.key = stream_key(master_seed, index)
        self.counter = 0

    def uniform(self) -> float:
        u = to_unit(draw_u64(self.key, self.counter))
        self.counter += 1
        return u


@dataclass
class TrajectoryState:
    channel: int
    matrix: np.ndarray  # normalized conditional density matrix
    time: float


@dataclass
class TrajectoryEvent:
    kind: str  # "jump" or "horizon"
    time: float
    source: int
    target: int | None


def init_channel(weights, rng: CounterStream) -> int:
    """Draw the starting channel by cumulative inversion of the weights."""
    cum = np.cumsum(np.asarray(weights, dtype=float))
    cum[-1] = 1.0
    r = rng.uniform()
    for k, bound in enumerate(cum):
        if r <= bound:
            return k
    return cum.shape[0] - 1


def sample_sojourn(channel: int, rates: np.ndarray, rng: CounterStream) -> float:
    """Exponential sojourn time in ``channel``; infinite when it never escapes."""
    gamma = float(np.sum(rates[:, channel]) - rates[channel, channel])
    if gamma <= 0.0:
        return np.inf
    return -np.log(rng.uniform()) / gamma


def select_next_channel(channel: int, rates: np.ndarray, rng: CounterStream) -> int:
    """Destination draw with probabilities ``gamma[R', R] / Gamma_R``; never R itself."""
    k = rates.shape[0]
    gamma = float(np.sum(rates[:, channel]) - rates[channel, channel])
    if gamma <= 0.0:
        raise ValueError(f"channel {channel} has no escape rate")
    u = rng.uniform()
    cum = 0.0
    last = -1
    for dest in range(k):
        if dest == channel:
            continue
        rate = rates[dest, channel]
        if rate <= 0.0:
            continue
        cum += rate / gamma
        last = dest
        if u <= cum:
            return dest
    return last


def step_trajectory(state: TrajectoryState, model, rng: CounterStream, horizon: float):
    """Advance one trajectory of a ``StochasticModel`` by a single sojourn segment.

    Propagates with the channel self-propagator until the sampled transfer
    or the horizon, whichever comes first.  A transfer applies the source
    channel's jump map, renormalizes the trace and switches channel.
    Returns ``(new_state, events)``.
    """
    if not np.all(np.isfinite(state.matrix)):
        raise FloatingPointError("non-finite trajectory state")
    d = model.dim
    gen = model.self_generator(state.channel)
    dt_jump = sample_sojourn(state.channel, model.hop_rates, rng)
    t_jump = state.time + dt_jump
    if t_jump >= horizon:
        prop = scipy.linalg.expm((horizon - state.time) * gen)
        vec = prop @ vectorize(state.matrix)
        mat = vec.reshape(d, d, order="F")
        event = TrajectoryEvent("horizon", horizon, state.channel, None)
        return TrajectoryState(state.channel, mat, horizon), [event]
    prop = scipy.linalg.expm(dt_jump * gen)
    vec = model.jump_superoperator(state.channel) @ (prop @ vectorize(state.matrix))
    tr = np.trace(vec.reshape(d, d, order="F"))
    if abs(tr - 1.0) > 1e-10:
        raise FloatingPointError(f"trace drift {abs(tr - 1.0):.3e} beyond 1e-10 at jump")
    vec = vec / tr
    target = select_next_channel(state.channel, model.hop_rates, rng)
    event = TrajectoryEvent("jump", t_jump, state.channel, target)
    return TrajectoryState(target, vec.reshape(d, d, order="F"), t_jump), [event]


def lindblad_superop_oracle(h: np.ndarray, ops: np.ndarray, a: np.ndarray) -> np.ndarray:
    """K=1 generator built by applying the map to every matrix unit.

    Avoids any Kronecker identity: column n of the superoperator is the
    vectorized image of the n-th matrix unit.
    """
    d = h.shape[0]
    m = ops.shape[0]
    gen = np.empty((d * d, d * d), dtype=complex)
    for col in range(d * d):
        unit = np.zeros((d, d), dtype=complex)
        unit[col % d, col // d] = 1.0
        img = -1j * (h @ unit - unit @ h)
        for alpha in range(m):
            for gamma in range(m):
                vg_va = ops[gamma].conj().T @ ops[alpha]
                img += a[alpha, gamma] * (
                    ops[alpha] @ unit @ ops[gamma].conj().T - 0.5 * (vg_va @ unit + unit @ vg_va)
                )
        gen[:, col] = vec_oracle(img)
    return gen


def random_hermitian(rng, d: int, scale: float = 1.0) -> np.ndarray:
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * 0.5 * (x + x.conj().T)


def random_psd(rng, m: int, scale: float = 1.0) -> np.ndarray:
    x = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return scale * (x @ x.conj().T) / m


def random_density(rng, d: int) -> np.ndarray:
    rho = random_psd(rng, d)
    return rho / np.trace(rho)


def random_basis(rng, d: int, m: int | None = None) -> OperatorBasis:
    """Random well-conditioned operator basis (unitary mixing of matrix units)."""
    m = m or d * d
    units = np.eye(d * d).reshape(d * d, d, d).astype(complex)
    x = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
    q, _ = np.linalg.qr(x)
    mixed = np.tensordot(q[:m], units, axes=(1, 0))
    return OperatorBasis(mixed)


def random_rate_model(rng, d: int = 2, k: int = 2, coupled: bool = True, rate: float = 1.0) -> LindbladRateModel:
    """Random CP-valid model: PSD blocks, Hermitian Hamiltonians."""
    basis = random_basis(rng, d)
    m = basis.size
    weights = rng.uniform(0.2, 1.0, size=k)
    weights = weights / weights.sum()
    blocks = np.zeros((k, k, m, m), dtype=complex)
    for r in range(k):
        blocks[r, r] = random_psd(rng, m, rate)
        for rp in range(k):
            if rp != r and coupled:
                blocks[r, rp] = random_psd(rng, m, rate)
    hams = np.stack([random_hermitian(rng, d) for _ in range(k)])
    return LindbladRateModel(basis, weights, blocks, hams)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture
def pauli():
    return SIGMA_X, SIGMA_Y, SIGMA_Z
