"""Deterministic evolution, stationary analysis and Laplace-domain kernels.

The stacked generator G drives ``d|rho)/dt = G |rho)``.  Time evolution is
the exact exponential, one block of grid times at a time: eigenpropagation,
or expm stepping when the generator is not reliably diagonalizable.
Stationary structure comes from the spectral projector onto the zero
eigenvalue of G; the Laplace-domain objects are the channel-summed,
weight-embedded resolvent ``R(u) = (1| (u - G)^{-1} |P)`` and the memory
kernel ``L(u)`` solving ``R(u) L(u) = (1| (u-G)^{-1} M |P)`` where ``M`` is
the generator minus its channel-independent Hamiltonian part.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import TRACE_TOL, _kron, devectorize, eig_factor, hamiltonian_superop, min_eigenvalue, vectorize
from .model import (
    LindbladRateModel,
    StackedGenerator,
    _check_density,
    _grid_array,
    assemble_generator,
    embed_channels,
    sum_channels,
)

__all__ = [
    "EvolutionResult",
    "StationaryProjector",
    "HomogeneityReport",
    "KernelSample",
    "SolverError",
    "DefectiveSpectrumError",
    "SingularSolveError",
    "evolve",
    "stationary_projector",
    "homogeneity_check",
    "memory_kernel_at",
    "stationary_state",
]

ZERO_TOL = 1e-9  # zero cluster: |lambda| < ZERO_TOL * max(1, |G|_2)
HOMOGENEITY_TOL = 1e-9  # the reduced stationary map vanishes when no entry exceeds this
RESIDUAL_TOL = 1e-8  # kernel solve residual, relative to max(1, |rhs|)
CROSS_TOL = 1e-6  # largest entry of spectral minus long-time stationary state
# Grid times per evolve block, and rows per CSV write (config.emit_csv), so
# that each block is formatted in one piece; bounds the memory either holds.
_BLOCK_ROWS = 1024


class SolverError(RuntimeError):
    """A solution failed its check: the total trace of an evolution drifted
    from 1, or the stationary cross-check failed (non-decaying modes, or the
    spectral state disagrees with the long-time exponential)."""


class DefectiveSpectrumError(RuntimeError):
    """The zero eigenvalue carries a Jordan block; no stationary projector exists."""


class SingularSolveError(RuntimeError):
    """A Laplace-domain linear solve was singular or inconsistent."""


@dataclass
class EvolutionResult:
    """Time-gridded stacked solution with per-point diagnostics."""

    times: np.ndarray  # (T,)
    stacked: np.ndarray  # (T, K, d, d)
    system: np.ndarray  # (T, d, d)
    trace_residual: np.ndarray  # (T,)  |total trace - 1|
    hermiticity_residual: np.ndarray  # (T,)  of rho_S
    min_eigenvalue: np.ndarray  # (T,)  of rho_S

    @property
    def num_channels(self) -> int:
        return self.stacked.shape[1]

    @property
    def dim(self) -> int:
        return self.stacked.shape[2]

    def channel_traces(self) -> np.ndarray:
        """Real traces of the auxiliary matrices, shape (T, K)."""
        return np.einsum("tkii->tk", self.stacked).real


@dataclass
class StationaryProjector:
    """Spectral analysis of one stacked generator: the projector onto its zero
    eigenvalue and the parts of it that the spectral functions reuse.

    ``stationary_state``, ``homogeneity_check`` and ``memory_kernel_at``
    accept it in place of a model, so a command that builds it once
    validates, assembles and Schur-decomposes its generator once.  The
    memory parts exist only when it was built from a model, whose
    system Hamiltonian fixes the split ``M = G - blockdiag(-i[H_S, .])``.
    """

    projector: np.ndarray  # (K d^2, K d^2)
    reduced_map: np.ndarray  # (d^2, d^2): rho_0 -> stationary rho_S
    zero_dimension: int
    generator: StackedGenerator
    eigenvalues: np.ndarray  # (K d^2,) Schur diagonal, zero cluster first
    scale: float  # max(1, |G|_2)
    embedding: np.ndarray  # (K d^2, d^2): vec(rho) -> (P_R vec(rho))_R
    memory_embedding: np.ndarray | None = None  # M @ embedding
    stationary_memory: np.ndarray | None = None  # (d^2, d^2): (1| P M |P)

    @property
    def num_channels(self) -> int:
        return self.generator.num_channels

    @property
    def dim(self) -> int:
        return self.generator.dim

    def slowest_rate(self) -> float | None:
        """Largest real part among the nonzero eigenvalues, ``None`` when
        every eigenvalue lies in the zero cluster."""
        rest = self.eigenvalues[self.zero_dimension :]
        return float(np.max(rest.real)) if rest.size else None


@dataclass
class HomogeneityReport:
    holds: bool
    coherence_residual_norm: float
    sector_norms: dict[str, float]
    reduced_map: np.ndarray


@dataclass
class KernelSample:
    u: complex
    kernel: np.ndarray  # (d^2, d^2)
    shifted: bool
    condition: float
    rank: int
    residual: float


def _as_generator(model_or_generator) -> StackedGenerator:
    if isinstance(model_or_generator, StackedGenerator):
        return model_or_generator
    if isinstance(model_or_generator, StationaryProjector):
        return model_or_generator.generator
    return assemble_generator(model_or_generator)


def _as_analysis(model_or_analysis) -> StationaryProjector:
    if isinstance(model_or_analysis, StationaryProjector):
        return model_or_analysis
    return stationary_projector(model_or_analysis)


def _propagate_blocks(gen: np.ndarray, y0: np.ndarray, times: np.ndarray):
    """Yield ``(t, ys)``: the next at most ``_BLOCK_ROWS`` grid times and the
    stacked states at them.  Eigenpropagation, or expm stepping carried
    across the blocks where :func:`~lindbladrate.linalg.eig_factor` refuses
    the eigenbasis.

    No block has one row unless the grid has: BLAS forms a one-row product
    as a matrix-vector product, which rounds differently from the
    matrix-matrix product of longer blocks, so a last row on its own is
    moved into a block of two.
    """
    try:
        vals, vecs, inv = eig_factor(gen)
    except np.linalg.LinAlgError:
        vals = None
        import scipy.linalg  # loaded only where used: importing it is ~0.2 s of start-up

        y, prev = y0.astype(complex), 0.0
    else:
        coeffs = inv @ y0
    edges = [*range(0, times.shape[0], _BLOCK_ROWS), times.shape[0]]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        edges[-2] -= 1
    for start, stop in zip(edges[:-1], edges[1:]):
        t = times[start:stop]
        if vals is None:
            ys = np.empty((t.shape[0], y0.shape[0]), dtype=complex)
            for i, ti in enumerate(t):
                if ti != prev:
                    y = scipy.linalg.expm((ti - prev) * gen) @ y
                    prev = ti
                ys[i] = y
        else:
            ys = np.multiply.outer(t, vals)
            np.exp(ys, out=ys)
            ys *= coeffs
            ys = ys @ vecs.T
        yield t, ys


def _evolve_blocks(model: LindbladRateModel, rho0: np.ndarray, grid):
    """Yield the :class:`EvolutionResult` of each block of at most
    ``_BLOCK_ROWS`` grid times, in order.

    The state, grid and model are checked and the generator diagonalized
    once, when the first block is asked for.  A block whose total trace
    drifts from 1 by more than ``TRACE_TOL`` raises :class:`SolverError`:
    on long grids, rounding in the zero eigenvalues grows with t.
    """
    times = _grid_array(grid)
    gen = assemble_generator(model)
    y0 = embed_channels(model.weights, vectorize(_check_density(rho0, model.dim)))
    for t, ys in _propagate_blocks(gen.matrix, y0, times):
        block = _package_result(t, ys, gen.num_channels)
        drift = np.flatnonzero(~(block.trace_residual <= TRACE_TOL))
        if drift.size:
            i = drift[0]
            raise SolverError(
                f"total trace drifts from 1 by {block.trace_residual[i]:.3e} at t = {t[i]:.17g}, "
                f"beyond TRACE_TOL = {TRACE_TOL:g}"
            )
        yield block


def evolve(model: LindbladRateModel, rho0: np.ndarray, grid) -> EvolutionResult:
    """Evolve the stacked state over a time grid starting at 0 with the exact
    exponential (see :func:`_propagate_blocks`).  Raises :class:`SolverError`
    where the total trace drifts from 1 (see :func:`_evolve_blocks`)."""
    blocks = [vars(block).values() for block in _evolve_blocks(model, rho0, grid)]
    return EvolutionResult(*map(np.concatenate, zip(*blocks)))


def _package_result(times: np.ndarray, ys: np.ndarray, k: int) -> EvolutionResult:
    """Decode the stacked states ``ys`` ``(T, K d**2)`` with their diagnostics."""
    stacked = devectorize(ys.reshape(times.shape[0], k, -1))
    system = devectorize(sum_channels(ys.T, k).T)
    trace_res = np.abs(np.einsum("tii->t", system) - 1.0)
    herm_res = np.linalg.norm(system - system.conj().transpose(0, 2, 1), axis=(1, 2))
    return EvolutionResult(times, stacked, system, trace_res, herm_res, min_eigenvalue(system))


def stationary_projector(model_or_generator) -> StationaryProjector:
    """Spectral analysis of a model or stacked generator (see
    :class:`StationaryProjector`).

    Uses a sorted complex Schur form; the zero cluster collects eigenvalues
    with ``|lambda| < ZERO_TOL * max(1, |G|_2)``.  A non-vanishing restriction
    of G to that cluster means a defective (Jordan) zero sector, which is
    refused rather than approximated.
    """
    gen = _as_generator(model_or_generator)
    g = gen.matrix
    n_total = g.shape[0]
    scale = max(1.0, float(np.linalg.norm(g, 2)))
    thr = ZERO_TOL * scale
    import scipy.linalg  # loaded only where used: importing it is ~0.2 s of start-up

    tmat, q, sdim = scipy.linalg.schur(g, output="complex", sort=lambda lam: abs(lam) < thr)
    n = gen.dim * gen.dim
    if sdim == 0:
        proj = np.zeros((n_total, n_total), dtype=complex)
    else:
        t11 = tmat[:sdim, :sdim]
        if np.linalg.norm(t11) > thr * max(1, sdim):
            raise DefectiveSpectrumError(
                f"zero eigenvalue cluster (dimension {sdim}) is defective: "
                f"restriction norm {np.linalg.norm(t11):.3e}"
            )
        if sdim == n_total:
            proj = np.eye(n_total, dtype=complex)
        else:
            t12 = tmat[:sdim, sdim:]
            t22 = tmat[sdim:, sdim:]
            coupling = scipy.linalg.solve_sylvester(t11, -t22, t12)
            block = np.zeros((n_total, n_total), dtype=complex)
            block[:sdim, :sdim] = np.eye(sdim)
            block[:sdim, sdim:] = coupling
            proj = q @ block @ q.conj().T
        if np.linalg.norm(proj @ proj - proj) > 1e-8 * max(1.0, np.linalg.norm(proj)):
            raise DefectiveSpectrumError("projector is not idempotent within tolerance")
        if np.linalg.norm(g @ proj) > 1e-8 * scale:
            raise DefectiveSpectrumError("projector does not annihilate the generator")
    k = gen.num_channels
    embed = embed_channels(gen.weights, np.eye(n))
    reduced = sum_channels(proj @ embed, k)
    memory_embed = stationary_memory = None
    if isinstance(model_or_generator, LindbladRateModel):
        memory = g - _kron(np.eye(k), hamiltonian_superop(model_or_generator.system_hamiltonian))
        memory_embed = memory @ embed
        stationary_memory = sum_channels(proj @ memory_embed, k)
    eigenvalues = np.diag(tmat).copy()
    return StationaryProjector(proj, reduced, sdim, gen, eigenvalues, scale, embed, memory_embed, stationary_memory)


def _sector_indices(dim: int):
    pop = [i + dim * i for i in range(dim)]
    coh = [i for i in range(dim * dim) if i not in pop]
    return pop, coh


def homogeneity_check(model_or_analysis) -> HomogeneityReport:
    """Test whether the reduced stationary map vanishes (no entry above
    ``HOMOGENEITY_TOL``).

    The convolution form of the reduced dynamics is valid without an
    initial-state term exactly when this map is zero.  Models that conserve
    some observable (e.g. dephasing populations) always fail globally, so
    the report also resolves the population/coherence sectors.
    """
    proj = _as_analysis(model_or_analysis)
    mat = proj.reduced_map
    pop, coh = _sector_indices(proj.dim)
    sectors = {
        "population<-population": float(np.linalg.norm(mat[np.ix_(pop, pop)])),
        "population<-coherence": float(np.linalg.norm(mat[np.ix_(pop, coh)])),
        "coherence<-population": float(np.linalg.norm(mat[np.ix_(coh, pop)])),
        "coherence<-coherence": float(np.linalg.norm(mat[np.ix_(coh, coh)])),
    }
    coh_norm = float(np.linalg.norm(mat[coh, :]))
    holds = float(np.abs(mat).max()) <= HOMOGENEITY_TOL
    return HomogeneityReport(holds, coh_norm, sectors, mat)


def _reduced_solves(gen: StackedGenerator, u: complex, *rhs: np.ndarray) -> list[np.ndarray]:
    """``(1| (u - G)^{-1} B`` for each stacked right-hand side ``B``, all from
    one LU factorization of ``u - G``."""
    import scipy.linalg  # loaded only where used: importing it is ~0.2 s of start-up

    try:
        with warnings.catch_warnings():  # an exactly zero pivot is a singular solve, not a warning
            warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
            lu = scipy.linalg.lu_factor(u * np.eye(gen.matrix.shape[0]) - gen.matrix)
    except (scipy.linalg.LinAlgError, scipy.linalg.LinAlgWarning, ValueError) as exc:
        raise SingularSolveError(f"resolvent solve singular at u = {u}") from exc
    cols = [scipy.linalg.lu_solve(lu, b) for b in rhs]
    if not all(np.all(np.isfinite(c)) for c in cols):
        raise SingularSolveError(f"resolvent solve singular at u = {u}")
    return [sum_channels(c, gen.num_channels) for c in cols]


def memory_kernel_at(model_or_analysis, u: complex) -> KernelSample:
    """Sample the Laplace-domain memory kernel at one point.

    Takes a model or its :func:`stationary_projector` (built from the model,
    which fixes the memory part ``M``); sampling many points from one
    projector analyses the generator once.

    Solves ``R(u) L(u) = (1| (u-G)^{-1} M |P)`` as a linear system
    (never by inverting the reduced propagator; conditioning is reported).
    When the reduced stationary map is nonzero (the opposite of
    :func:`homogeneity_check`'s verdict) the defining relation is
    first shifted by its ``u -> 0`` singular part and the sample is flagged
    ``shifted``.  The shifted system is rank deficient along the stationary
    directions; that gauge freedom is resolved by picking, among its exact
    solutions, the one closest to satisfying the unshifted relation (so a
    Markovian model still yields its bare dissipative generator).
    """
    proj = _as_analysis(model_or_analysis)
    if proj.memory_embedding is None:
        raise TypeError("memory_kernel_at needs a model or a stationary_projector built from one")
    n = proj.dim * proj.dim
    resolvent, rhs_plain = _reduced_solves(proj.generator, u, proj.embedding, proj.memory_embedding)

    shifted = float(np.abs(proj.reduced_map).max()) > HOMOGENEITY_TOL
    lhs, rhs = resolvent, rhs_plain
    if shifted:
        lhs = resolvent - proj.reduced_map / u
        rhs = rhs_plain - proj.stationary_memory / u

    left, sv, right_h = np.linalg.svd(lhs)
    # Structural zeros of the shifted system carry LU/Schur cancellation noise
    # well above machine epsilon; directions cut here are re-pinned by the
    # unshifted relation below, so the generous threshold is the safe side.
    rank_tol = 1e-11 * (sv[0] if sv.size else 0.0)
    rank = int(np.sum(sv > rank_tol))
    if rank == 0:
        raise SingularSolveError(f"reduced propagator vanishes at u = {u}")
    kernel = right_h[:rank].conj().T @ ((left[:, :rank].conj().T @ rhs) / sv[:rank, None])
    residual = float(np.linalg.norm(lhs @ kernel - rhs))
    if residual > RESIDUAL_TOL * max(1.0, np.linalg.norm(rhs)):
        raise SingularSolveError(
            f"reduced propagator is singular at u = {u} (inconsistent system, residual {residual:.3e})"
        )
    if rank < n:
        null = right_h[rank:].conj().T  # (n, n - rank): exact-solution gauge directions
        correction = np.linalg.lstsq(resolvent @ null, rhs_plain - resolvent @ kernel, rcond=None)[0]
        kernel = kernel + null @ correction
    condition = float(sv[0] / sv[rank - 1])
    return KernelSample(u, kernel, shifted, condition, rank, residual)


def stationary_state(model_or_analysis, rho0: np.ndarray) -> np.ndarray:
    """Stationary physical state reached from ``rho0``.

    Computed spectrally from the stationary projector; by construction it
    may depend on the initial state.  The state ``expm(t G) y0`` at
    ``t = 20 / |Re lambda_2|`` (slowest decaying nonzero mode, read off the
    Schur diagonal) cross-checks the spectral result within ``CROSS_TOL``.
    ``rho0`` must be a ``(d, d)`` density matrix, as in :func:`evolve`;
    otherwise ``ValueError`` is raised.
    """
    proj = _as_analysis(model_or_analysis)
    gen = proj.generator
    vec0 = vectorize(_check_density(rho0, gen.dim))
    stat = devectorize(proj.reduced_map @ vec0)
    slowest = proj.slowest_rate()
    if slowest is not None:
        if slowest > -1e-12 * proj.scale:
            raise SolverError("non-decaying modes present; no stationary limit")
        t_relax = 20.0 / abs(slowest)
        import scipy.linalg  # loaded only where used: importing it is ~0.2 s of start-up

        y_end = scipy.linalg.expm(t_relax * gen.matrix) @ embed_channels(gen.weights, vec0)
        rho_end = devectorize(sum_channels(y_end, gen.num_channels))
        if np.abs(rho_end - stat).max() > CROSS_TOL:
            raise SolverError(
                f"spectral stationary state disagrees with long-time integration "
                f"by {np.abs(rho_end - stat).max():.3e}"
            )
    return stat
