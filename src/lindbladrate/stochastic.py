"""Monte Carlo unraveling of Walk-class rate models.

A Walk-class model is a set of propagation channels: channel R evolves the
conditional state with a trace-preserving self-generator, hops to channel
R' at rate ``gamma[R', R]``, and every transfer out of R applies the CP
trace-preserving jump map attached to R (the source channel).  Averaging
occupancy-masked conditional states over trajectories reproduces the
auxiliary matrices of the equivalent Lindblad rate model.

Trajectories carry normalized conditional states; the statistical weight is
carried entirely by the random channel occupancy (initial channels are drawn
from the model weights, which realizes the weighted initial condition).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._rng import check_seed
from .linalg import (
    devectorize,
    eig_factor,
    hamiltonian_superop,
    kraus_superop,
    psd_check,
    vectorize,
)
from .model import (
    PROJECTION_TOL,
    LindbladRateModel,
    ModelFieldError,
    OperatorBasis,
    _check_density,
    _checked_hamiltonian,
    _checked_shape,
    _checked_weights,
    _cp_refusal,
    _grid_array,
    _per_channel,
    dissipator_superop,
)

__all__ = [
    "StochasticModel",
    "EnsembleAccumulator",
    "convert_walk_to_rate_model",
    "run_ensemble",
]


@dataclass
class StochasticModel:
    """Walk-class model: self-generators, hop rates, jump maps, weights.

    ``hop_rates[R', R]`` is the rate of transfers R -> R' (diagonal ignored,
    must be zero).  ``dissipator_blocks[R]`` are the self-Lindblad
    coefficients of channel R in ``basis``; the full self-generator is
    exposed by :meth:`self_generator`, trace preserving by construction.
    Construction checks shapes, weights, the Hamiltonian, hop-rate rows and
    jump maps per channel, raising :class:`~lindbladrate.model.ModelFieldError`.
    """

    basis: OperatorBasis
    hamiltonian: np.ndarray  # (d, d), shared by all channels
    dissipator_blocks: np.ndarray  # (K, m, m)
    hop_rates: np.ndarray  # (K, K)
    kraus_maps: list  # per channel: list of (d, d) Kraus operators
    weights: np.ndarray  # (K,)

    def __post_init__(self):
        d, m = self.basis.dim, self.basis.size
        self.weights = _checked_weights(self.weights)
        k = self.weights.shape[0]
        self.hamiltonian = _checked_hamiltonian(self.hamiltonian, d, "hamiltonian")
        blocks = _per_channel(self.dissipator_blocks, k, "dissipator_blocks", (m, m), f"basis size {m}")
        self.dissipator_blocks = np.array(blocks)
        rows = _per_channel(self.hop_rates, k, "hop_rates", (k,), f"one rate per channel, {k} weights", float)
        for r, row in enumerate(rows):
            if not (np.all(row >= 0) and row[r] == 0):
                why = f"rates must be nonnegative with entry [{r}] zero (no self transfers)"
                raise ModelFieldError(f"hop_rates[{r}]", f"{why}, got {row.tolist()}")
        self.hop_rates = np.array(rows)
        self.kraus_maps = _per_channel(self.kraus_maps, k, "kraus_maps")
        why = f"system dimension {d}"
        for r, ops in enumerate(self.kraus_maps):
            ops = [_checked_shape(op, (d, d), why, f"kraus_maps[{r}][{i}]") for i, op in enumerate(ops)]
            # not <=, so that NaN, from an entry whose square overflows, is refused too (and unwarned)
            with np.errstate(over="ignore", invalid="ignore"):
                residual = np.linalg.norm(sum(op.conj().T @ op for op in ops) - np.eye(d))
            if not residual <= 1e-10:
                raise ModelFieldError(f"kraus_maps[{r}]", f"jump map of channel {r} is not trace preserving")
            self.kraus_maps[r] = ops

    @property
    def num_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.dim

    def self_generator(self, channel: int) -> np.ndarray:
        """Superoperator ``-i[H, .] + F_R[.] - {D_R, .}`` of one channel."""
        return hamiltonian_superop(self.hamiltonian) + dissipator_superop(
            self.basis, self.dissipator_blocks[channel]
        )

    def jump_superoperator(self, channel: int) -> np.ndarray:
        return kraus_superop(self.kraus_maps[channel])

    def escape_rates(self) -> np.ndarray:
        """Total escape rate per channel, ``Gamma_R = sum_{R'} gamma[R', R]``."""
        return self.hop_rates.sum(axis=0)


@dataclass
class _TrajectoryKit:
    """Precomputed propagation data read by the trajectory kernel."""

    grid: np.ndarray
    weights_cum: np.ndarray
    eigvals: np.ndarray  # (K, d^2)
    eigvecs: np.ndarray  # (K, d^2, d^2)
    eiginvs: np.ndarray
    jump_ops: np.ndarray  # (K, d^2, d^2)
    trans_cum: np.ndarray  # (K_source, K_dest) cumulative transfer probabilities
    escape: np.ndarray
    rho0_vec: np.ndarray
    dim: int


def _build_kit(model: StochasticModel, rho0: np.ndarray, grid: np.ndarray) -> _TrajectoryKit:
    k, d = model.num_channels, model.dim
    n = d * d
    eigvals = np.empty((k, n), dtype=complex)
    eigvecs = np.empty((k, n, n), dtype=complex)
    eiginvs = np.empty((k, n, n), dtype=complex)
    jump_ops = np.empty((k, n, n), dtype=complex)
    for r in range(k):
        try:
            eigvals[r], eigvecs[r], eiginvs[r] = eig_factor(model.self_generator(r))
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"self-generator of channel {r} is {exc}; trajectories need its eigenbasis") from None
        jump_ops[r] = model.jump_superoperator(r)
    escape = model.escape_rates()
    trans_cum = np.zeros((k, k))
    for src in range(k):
        if escape[src] <= 0:
            continue
        cum = 0.0
        last = -1
        for dest in range(k):
            if dest != src and model.hop_rates[dest, src] > 0:
                cum += model.hop_rates[dest, src] / escape[src]
                last = dest
            trans_cum[src, dest] = cum
        trans_cum[src, last:] = 1.0
    weights_cum = np.cumsum(model.weights)
    weights_cum[-1] = 1.0
    return _TrajectoryKit(
        grid=np.asarray(grid, dtype=float),
        weights_cum=weights_cum,
        eigvals=eigvals,
        eigvecs=eigvecs,
        eiginvs=eiginvs,
        jump_ops=jump_ops,
        trans_cum=trans_cum,
        escape=np.asarray(escape, dtype=float),
        rho0_vec=vectorize(rho0),
        dim=d,
    )


@dataclass
class EnsembleAccumulator:
    """Running sums (and squares) of occupancy-masked conditional states."""

    grid: np.ndarray
    channel_sums: np.ndarray  # (K, T, d^2) complex
    channel_sq_re: np.ndarray  # (K, T, d^2)
    channel_sq_im: np.ndarray
    count: int
    dim: int

    @property
    def num_channels(self) -> int:
        return self.channel_sums.shape[0]

    def channel_estimates(self) -> np.ndarray:
        """Estimated auxiliary matrices, shape (K, T, d, d)."""
        return devectorize(self.channel_sums / self.count)

    def system_estimate(self) -> np.ndarray:
        """Estimated physical state, shape (T, d, d)."""
        return self.channel_estimates().sum(axis=0)

    def system_standard_error(self):
        """Standard errors of the state estimate (real and imaginary parts)."""
        n = self.count
        sums = self.channel_sums.sum(axis=0)
        sq_re = self.channel_sq_re.sum(axis=0)
        sq_im = self.channel_sq_im.sum(axis=0)
        if n < 2:
            zero = np.zeros((self.grid.shape[0], self.dim, self.dim))
            return zero, zero.copy()
        var_re = np.maximum(sq_re - sums.real**2 / n, 0.0) / (n - 1)
        var_im = np.maximum(sq_im - sums.imag**2 / n, 0.0) / (n - 1)
        return devectorize(np.sqrt(var_re / n)), devectorize(np.sqrt(var_im / n))

    def channel_occupation(self) -> np.ndarray:
        """Estimated channel occupation probabilities, shape (T, K)."""
        return np.einsum("ktii->tk", devectorize(self.channel_sums)).real / self.count


def run_ensemble(
    model: StochasticModel,
    rho0: np.ndarray,
    grid,
    n: int,
    master_seed: int,
) -> EnsembleAccumulator:
    """Average ``n`` independent trajectories over a time grid.

    Results are a pure function of ``(model, rho0, grid, n, master_seed)``:
    trajectory ``i`` consumes substream ``i`` of the master seed and partial
    sums are merged in fixed block order.  ``master_seed`` must be an integer
    in ``[0, 2**64)``.  Raises ``CPValidationError`` where ``evolve`` of the
    walk's rate model would.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    master_seed = check_seed(master_seed)
    times = _grid_array(grid)
    # The rate model of the walk has the dissipator blocks on its diagonal and
    # hop-rate-scaled Kraus Gram matrices, PSD by construction, off it; the
    # weights and Hamiltonian were checked in __post_init__.  So its CP check
    # is that of the dissipator blocks.
    failed = [(r, r) for r, block in enumerate(model.dissipator_blocks) if not psd_check(block)[0]]
    if failed:
        raise _cp_refusal(failed)
    rho0 = _check_density(rho0, model.dim)
    kit = _build_kit(model, rho0, times)
    sums, sq_re, sq_im = _kernels.run_blocks(kit, n, master_seed)
    return EnsembleAccumulator(times, sums, sq_re, sq_im, n, model.dim)


def convert_walk_to_rate_model(model: StochasticModel, basis: OperatorBasis) -> LindbladRateModel:
    """Express a Walk-class model as a Lindblad rate model.

    The feed block of the ordered pair (R <- R') is the source jump map's
    Kraus Gram matrix in ``basis`` scaled by the hop rate; trace
    preservation of the jump maps makes the matching escape term exactly
    ``-gamma[R', R] rho_R``.  Self-dissipators are re-expressed in ``basis``
    by congruence when it differs from the model's own basis.
    """
    k, m = model.num_channels, basis.size
    grams = []
    for r in range(k):
        coeffs = []
        for op in model.kraus_maps[r]:
            c, resid = basis.expand(np.asarray(op, dtype=complex))
            if not resid <= PROJECTION_TOL * max(1.0, np.linalg.norm(op)):
                why = f"jump map of channel {r} has a Kraus operator not expandable in the basis"
                raise ModelFieldError(f"kraus_maps[{r}]", f"{why} (residual {resid:.3e})")
            coeffs.append(c)
        grams.append(sum(np.outer(c, c.conj()) for c in coeffs))

    if basis.same_as(model.basis):
        diag = model.dissipator_blocks.copy()
    else:
        change = np.empty((model.basis.size, m), dtype=complex)
        for alpha in range(model.basis.size):
            c, resid = basis.expand(model.basis.ops[alpha])
            if not resid <= PROJECTION_TOL * max(1.0, np.linalg.norm(model.basis.ops[alpha])):
                raise ModelFieldError("basis", f"model basis operator {alpha} is not expandable in the target basis")
            change[alpha] = c
        diag = np.stack([change.T @ model.dissipator_blocks[r] @ change.conj() for r in range(k)])

    blocks = np.zeros((k, k, m, m), dtype=complex)
    for r in range(k):
        blocks[r, r] = diag[r]
        for rp in range(k):
            if rp != r:
                with np.errstate(over="ignore"):  # an overflow is refused below
                    blocks[r, rp] = model.hop_rates[r, rp] * grams[rp]
        if not np.all(np.isfinite(blocks[r])):
            raise ModelFieldError(f"hop_rates[{r}]", "a hop rate times its jump map's Gram matrix overflows")
    hams = np.stack([model.hamiltonian] * k)
    return LindbladRateModel(basis, model.weights.copy(), blocks, hams, model.hamiltonian)
