"""Lindblad rate models: validation, generator assembly and builders.

A model couples ``K`` auxiliary matrices.  Channel ``R`` carries an
effective Hamiltonian ``H_R`` and a diagonal rate block ``a_R``; ordered
channel pairs carry off-diagonal blocks ``a[R, R']`` feeding channel ``R``
from channel ``R'``.  All blocks are ``m x m`` in the indices of a shared
operator basis ``{V_alpha}``; all of them Hermitian and PSD is sufficient
for the solution map to be completely positive.  The stacked generator acts on the
channel-major vector ``(vec rho_0, ..., vec rho_{K-1})``, which
:func:`embed_channels` (the weighted embedding ``|P)``) builds and
:func:`sum_channels` (the channel sum ``(1|``) reduces; its block ``(R, R)``
is ``-i[H_R, .] - {D_R, .} + F_R[.] - sum_{R''!=R} {D(R''<-R), .}`` and its
block ``(R, R')`` is the sandwich part ``F(R<-R')[.]``, with

    D = (1/2) sum a[alpha, gamma] V_gamma^dag V_alpha,
    F[.] = sum a[alpha, gamma] V_alpha . V_gamma^dag.

The escape and feed terms of a pair share one coefficient block, which is
what conserves the total trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    HERMITIAN_TOL,
    PSD_TOL,
    TRACE_TOL,
    anticommutator_superop,
    coefficient_superop,
    hamiltonian_superop,
    hermiticity_residual,
    min_eigenvalue,
    psd_check,
)

__all__ = [
    "OperatorBasis",
    "LindbladRateModel",
    "StackedGenerator",
    "BlockReport",
    "ValidationReport",
    "ModelFieldError",
    "ModelStructureError",
    "MarkovDecayError",
    "CPValidationError",
    "validate_model",
    "assemble_generator",
    "embed_channels",
    "sum_channels",
    "reduce_from_tripartite",
    "build_from_correlations",
    "dissipator_superop",
]

GRAM_CONDITION_LIMIT = 1e8
STRUCTURE_TOL = 1e-10  # pair-off-diagonal tripartite coefficients, relative to max(1, max |b|)
DECAY_TOL = 1e-8  # correlation tail at the window's end, relative to its peak
PROJECTION_TOL = 1e-8  # residual of an operator expanded in a basis, relative to max(1, |op|)


class ModelFieldError(ValueError):
    """A model input breaks an invariant: ``field`` names it (``hop_rates[1]``), ``reason`` says why."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")


class ModelStructureError(ModelFieldError):
    """Tripartite coefficients ``b`` do not have the rate-equation structure."""


class MarkovDecayError(ModelFieldError):
    """Correlation samples ``chi`` have not decayed at the end of the time window."""


class CPValidationError(ValueError):
    """A model failed the complete-positivity block condition of :func:`validate_model`."""


def _checked_shape(value, shape: tuple, why: str, field: str, dtype=complex) -> np.ndarray:
    """``value`` as an array of ``shape``; ``why`` says where the shape comes from."""
    out = np.asarray(value, dtype=dtype)
    if out.shape != shape:
        raise ModelFieldError(field, f"expected shape {shape} ({why}), got {out.shape}")
    return out


def _checked_hamiltonian(value, dim: int, field: str) -> np.ndarray:
    """A Hermitian ``(dim, dim)`` matrix with a finite norm."""
    h = _checked_shape(value, (dim, dim), f"system dimension {dim}", field)
    residual = hermiticity_residual(h)
    if not residual <= HERMITIAN_TOL:  # NaN, from a norm that overflows, is refused too
        raise ModelFieldError(field, f"Hamiltonian is not Hermitian (residual {residual:.3e})")
    with np.errstate(over="ignore"):  # a Hermitian H's residual is 0 / inf when its norm overflows
        if not np.isfinite(np.linalg.norm(h)):
            raise ModelFieldError(field, "the norm of the Hamiltonian overflows")
    return h


@np.errstate(over="ignore")  # weights whose sum overflows are refused
def _checked_weights(value) -> np.ndarray:
    """Channel weights: a vector of nonnegative numbers summing to 1."""
    weights = np.asarray(value, dtype=float)
    if weights.ndim != 1 or not (np.all(weights >= 0) and abs(weights.sum() - 1.0) <= 1e-10):
        raise ModelFieldError("weights", f"weights must be nonnegative and sum to 1, got {weights.tolist()}")
    return weights


def _per_channel(items, k: int, field: str, shape: tuple | None = None, why: str = "", dtype=complex) -> list:
    """``items`` as a list of one entry per channel, each of ``shape`` when one is given."""
    items = list(items)
    if len(items) != k:
        raise ModelFieldError(field, f"expected one entry per channel ({k} weights), got {len(items)}")
    if shape is not None:
        items = [_checked_shape(item, shape, why, f"{field}[{r}]", dtype) for r, item in enumerate(items)]
    return items


@dataclass
class OperatorBasis:
    """Shared system operator basis ``{V_alpha}``.

    The ``m <= d**2`` operators must be linearly independent; this is
    enforced through the condition number of their Hilbert-Schmidt Gram
    matrix at construction time.
    """

    ops: np.ndarray  # (m, d, d)
    gram: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ops = np.asarray(self.ops, dtype=complex)
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
            raise ValueError(f"basis must be (m, d, d), got {ops.shape}")
        m, d = ops.shape[0], ops.shape[1]
        if m > d * d:
            raise ValueError(f"{m} operators cannot be independent in dimension {d}")
        self.ops = ops
        flat = ops.reshape(m, d * d)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing Gram matrix is refused below
            self.gram = flat.conj() @ flat.T
            cond = np.linalg.cond(self.gram)
        if not np.isfinite(cond) or cond > GRAM_CONDITION_LIMIT:
            raise ValueError(f"basis Gram matrix condition {cond:.3e} exceeds {GRAM_CONDITION_LIMIT:.0e}")

    @property
    def dim(self) -> int:
        return self.ops.shape[1]

    @property
    def size(self) -> int:
        return self.ops.shape[0]

    def expand(self, matrix: np.ndarray):
        """Hilbert-Schmidt projection of ``matrix`` onto the basis.

        Returns ``(coeffs, residual)`` with ``matrix ~ sum_a coeffs[a] V_a``
        and ``residual`` the Frobenius norm of the unrepresented part.
        """
        x = np.asarray(matrix, dtype=complex)
        rhs = self.ops.reshape(self.size, -1).conj() @ x.reshape(-1)
        coeffs = np.linalg.solve(self.gram, rhs)
        recon = np.tensordot(coeffs, self.ops, axes=(0, 0))
        return coeffs, float(np.linalg.norm(recon - x))

    def same_as(self, other: "OperatorBasis") -> bool:
        return self.ops.shape == other.ops.shape and np.array_equal(self.ops, other.ops)


@dataclass
class LindbladRateModel:
    """Complete specification of a Lindblad rate evolution.

    ``blocks[R, R]`` holds the diagonal block ``a_R`` and ``blocks[R, R']``
    the off-diagonal block feeding ``R`` from ``R'``.  ``system_hamiltonian``
    is the channel-independent part of the Hamiltonians, used only to split
    the generator for memory-kernel extraction; it defaults to zero.
    Models are treated as immutable once validated.  Construction checks
    shapes, weights and Hermitian Hamiltonians (raising :class:`ModelFieldError`);
    complete positivity is left to :func:`validate_model`.
    """

    basis: OperatorBasis
    weights: np.ndarray  # (K,)
    blocks: np.ndarray  # (K, K, m, m)
    hamiltonians: np.ndarray | None = None  # (K, d, d)
    system_hamiltonian: np.ndarray | None = None  # (d, d)

    def __post_init__(self):
        m, d = self.basis.size, self.basis.dim
        self.blocks = np.asarray(self.blocks, dtype=complex)
        k = self.blocks.shape[0] if self.blocks.ndim else 0
        _checked_shape(self.blocks, (k, k, m, m), f"K channels, basis size {m}", "blocks")
        self.weights = _checked_weights(self.weights)
        if self.weights.shape[0] != k:
            raise ModelFieldError("weights", f"expected {k} weights, one per channel, got {self.weights.shape[0]}")
        if self.hamiltonians is None:
            self.hamiltonians = np.zeros((k, d, d), dtype=complex)
        else:
            hams = _per_channel(self.hamiltonians, k, "hamiltonians")
            self.hamiltonians = np.array([_checked_hamiltonian(h, d, f"hamiltonians[{r}]") for r, h in enumerate(hams)])
        if self.system_hamiltonian is None:
            self.system_hamiltonian = np.zeros((d, d), dtype=complex)
        else:
            self.system_hamiltonian = _checked_hamiltonian(self.system_hamiltonian, d, "system_hamiltonian")

    @classmethod
    def from_blocks(
        cls,
        basis: OperatorBasis,
        weights,
        diagonal,
        offdiagonal: dict[tuple[int, int], np.ndarray] | None = None,
        hamiltonians=None,
        system_hamiltonian=None,
    ) -> "LindbladRateModel":
        """Build from per-channel diagonal blocks and a pair-keyed dict."""
        k, m = len(weights), basis.size
        blocks = np.zeros((k, k, m, m), dtype=complex)
        for r, block in enumerate(_per_channel(diagonal, k, "diagonal", (m, m), f"basis size {m}")):
            blocks[r, r] = block
        for (r, rp), mat in (offdiagonal or {}).items():
            if r == rp:
                raise ModelFieldError("offdiagonal", f"off-diagonal tag ({r}, {rp}) must have distinct channels")
            blocks[r, rp] = np.asarray(mat, dtype=complex)
        return cls(basis, weights, blocks, hamiltonians, system_hamiltonian)

    @property
    def num_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.dim


@dataclass
class StackedGenerator:
    """Dense generator on the channel-major stacked space (``K d**2``)."""

    matrix: np.ndarray
    num_channels: int
    dim: int
    weights: np.ndarray


@dataclass
class BlockReport:
    tag: tuple[int, int]
    hermiticity_residual: float
    min_eigenvalue: float
    is_psd: bool


@dataclass
class ValidationReport:
    blocks: list[BlockReport]
    weight_sum: float
    weights_nonnegative: bool
    hamiltonian_residual: float
    passed: bool

    def failures(self) -> list[BlockReport]:
        return [b for b in self.blocks if not b.is_psd]


def validate_model(model: LindbladRateModel) -> ValidationReport:
    """Check the sufficient complete-positivity condition block by block.

    Every diagonal and off-diagonal block must pass :func:`psd_check` in
    the basis indices, the weights be nonnegative and normalized, and the
    channel Hamiltonians Hermitian.  The report carries per-block residuals
    and minimal eigenvalues so failures are attributable.
    """
    reports = []
    for tag in np.ndindex(model.blocks.shape[:2]):
        block = model.blocks[tag]
        ok, min_eig = psd_check(block)
        reports.append(BlockReport(tag, hermiticity_residual(block), min_eig, ok))
    all_psd = all(b.is_psd for b in reports)
    wsum = float(model.weights.sum())
    wpos = bool(np.all(model.weights >= 0))
    hres = max(
        hermiticity_residual(model.system_hamiltonian),
        max(hermiticity_residual(h) for h in model.hamiltonians),
    )
    passed = all_psd and wpos and abs(wsum - 1.0) <= 1e-10 and hres <= HERMITIAN_TOL
    return ValidationReport(reports, wsum, wpos, hres, passed)


def _cp_refusal(tags) -> CPValidationError:
    """The error for a model that fails :func:`validate_model`, naming the
    failing blocks by their ``(R, R')`` tags."""
    bad = ", ".join(str(tag) for tag in tags)
    return CPValidationError(f"model failed CP validation (blocks: {bad or 'weights/hamiltonians'})")


def _dissipation_pieces(basis: OperatorBasis, blocks: np.ndarray):
    """Return ``(D, F)`` for coefficient blocks of shape ``(..., m, m)``: the
    anticommutator operators ``D`` and the sandwich superoperators ``F``."""
    d = basis.dim
    fop = coefficient_superop(basis.ops, blocks)
    lead = fop.shape[:-2]
    # Tr F[X] = 2 Tr(D X) for every X, so the trace functional (the sum of the
    # rows i + d*i of F) applied to F is 2 vec(D^T), read back row-major as 2 D.
    trace_row = np.einsum("...iic->...c", fop.reshape(*lead, d, d, d * d))
    return 0.5 * trace_row.reshape(*lead, d, d), fop


def dissipator_superop(basis: OperatorBasis, block: np.ndarray) -> np.ndarray:
    """Superoperator ``F[.] - {D, .}`` of one coefficient block."""
    dop, fop = _dissipation_pieces(basis, block)
    return fop - anticommutator_superop(dop)


def assemble_generator(model: LindbladRateModel, validate: bool = True) -> StackedGenerator:
    """Build the dense stacked generator of a model.

    Layout is channel-major: stacked index ``R*d**2 + (i + d*j)``.
    """
    if validate:
        report = validate_model(model)
        if not report.passed:
            raise _cp_refusal([b.tag for b in report.failures()])
    k, d = model.num_channels, model.dim
    n = d * d
    dops, fops = _dissipation_pieces(model.basis, model.blocks)
    gen = fops.transpose(0, 2, 1, 3).reshape(k * n, k * n)
    # One anticommutator per channel: escape[R] = sum_R'' D(R''<-R) holds D_R and all escape terms.
    escape = dops.sum(axis=0)
    for r in range(k):
        gen[r * n : (r + 1) * n, r * n : (r + 1) * n] += hamiltonian_superop(
            model.hamiltonians[r]
        ) - anticommutator_superop(escape[r])
    return StackedGenerator(gen, k, d, model.weights.copy())


def embed_channels(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The weighted embedding ``|P)``: ``(n, ...) -> (K n, ...)``, channel
    ``R`` holding ``P_R x`` (the channel-major layout of the generator)."""
    x = np.asarray(x)
    w = np.asarray(weights).reshape(-1, *([1] * x.ndim))
    return (w * x).reshape(-1, *x.shape[1:])


def sum_channels(y: np.ndarray, k: int) -> np.ndarray:
    """The channel sum ``(1|``: ``(K n, ...) -> (n, ...)``, adding the ``K``
    channel blocks in channel order."""
    y = np.asarray(y)
    return y.reshape(k, -1, *y.shape[1:]).sum(axis=0)


def _grid_array(grid) -> np.ndarray:
    t = np.asarray(grid, dtype=float)
    if t.ndim != 1 or t.shape[0] < 1:
        raise ValueError("grid must be a 1-d array of times")
    if t[0] != 0.0:
        raise ValueError("grid must start at t = 0")
    if t.shape[0] > 1 and np.any(np.diff(t) <= 0):
        raise ValueError("grid must be strictly increasing")
    return t


@np.errstate(over="ignore", invalid="ignore")  # entries near the float limit give inf or NaN, refused
def _check_density(rho: np.ndarray, dim: int) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"state must be {(dim, dim)}, got {rho.shape}")
    if not hermiticity_residual(rho) <= HERMITIAN_TOL:
        raise ValueError("initial state is not Hermitian")
    tr = np.trace(rho)
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise ValueError(f"initial state trace {tr} is not 1")
    min_eig = float(min_eigenvalue(rho))
    if not min_eig >= -PSD_TOL:
        raise ValueError(f"initial state has negative eigenvalue {min_eig:.3e}")
    return rho


def reduce_from_tripartite(entries, num_channels: int, basis: OperatorBasis, weights=None) -> LindbladRateModel:
    """Reduce tripartite dissipation coefficients to a rate model.

    ``entries`` lists the coefficient blocks ``(u, v, block)``: ``block`` is
    the ``m x m`` block ``b[u, v]`` between ordered channel pairs encoded as
    ``R*K + R'``, where the pair tags a transfer feeding ``R`` from ``R'``.
    Unlisted blocks are zero, and a later entry for the same ``(u, v)``
    replaces an earlier one.  A rate-equation structure requires every
    pair-off-diagonal block ``b[u, v != u]`` to vanish; the pair-diagonal
    blocks, each Hermitian, are copied verbatim into the model.  A refusal
    names the entry, ``b[i]``.
    """
    k, m = num_channels, basis.size
    listed = {}
    for i, (u, v, block) in enumerate(entries):
        if not (0 <= u < k * k and 0 <= v < k * k):
            raise ModelFieldError(f"b[{i}]", f"pair indices ({u}, {v}) must lie in [0, {k * k}) for {k} channels")
        listed[u, v] = i, _checked_shape(block, (m, m), f"basis size {m}", f"b[{i}]")
    scale = max([1.0, *(float(np.abs(block).max()) for _, block in listed.values())])
    blocks = np.zeros((k, k, m, m), dtype=complex)
    for (u, v), (i, block) in listed.items():
        pair_u, pair_v = divmod(u, k), divmod(v, k)
        if u != v:
            off = float(np.abs(block).max())
            if not off <= STRUCTURE_TOL * scale:
                raise ModelStructureError(
                    f"b[{i}]",
                    f"pair-off-diagonal coefficients at (u, v) = ({pair_u}, {pair_v}) "
                    f"have magnitude {off:.3e}; not of rate-equation form"
                )
            continue
        residual = hermiticity_residual(block)
        if not residual <= HERMITIAN_TOL:
            raise ModelStructureError(f"b[{i}]", f"block of pair {pair_u} is not Hermitian (residual {residual:.3e})")
        blocks[pair_u] = block
    if weights is None:
        weights = np.full(k, 1.0 / k)
    return LindbladRateModel(basis, weights, blocks)


@np.errstate(over="ignore", invalid="ignore")  # entries near the float limit give inf or NaN, refused
def build_from_correlations(
    chi: np.ndarray,
    tau: np.ndarray,
    system_hamiltonian: np.ndarray,
    basis: OperatorBasis,
    quadrature: str = "simpson",
) -> np.ndarray:
    """Half-line integrals of projected correlations into rate blocks.

    ``chi[R, R', k]`` is the ``m x m`` correlation matrix (indices
    ``alpha, beta``) sampled at ``-tau[k]`` on a uniform grid that must
    reach far enough for the correlations to have decayed.  Heisenberg
    coefficients ``C(-tau)`` come from expanding the evolved basis
    operators back in the basis; each block is assembled as
    ``Z.T + conj(Z)`` with ``Z = integral chi(-tau) C(-tau) dtau``, which
    is Hermitian by construction.  Returns a ``(K, K, m, m)`` block array.
    """
    m, d = basis.size, basis.dim
    hs = _checked_hamiltonian(system_hamiltonian, d, "system_hamiltonian")
    tau = np.asarray(tau, dtype=float)
    if tau.ndim != 1 or tau.shape[0] < 3 or tau[0] != 0.0:
        raise ModelFieldError("tau", "tau grid must start at 0 with at least 3 points")
    steps = np.diff(tau)
    if not (np.all(steps > 0) and np.ptp(steps) <= 1e-9 * steps[0]):
        raise ModelFieldError("tau", "tau grid must be uniform and strictly increasing")
    try:
        chi = np.asarray(chi)
    except ValueError:  # ragged nesting
        chi = None
    if chi is None or chi.dtype.kind not in "biufc" or not np.all(np.isfinite(chi)):
        raise ModelFieldError("chi", "expected nested lists of finite numbers")
    chi = chi.astype(complex)
    if chi.ndim != 5 or chi.shape[0] != chi.shape[1] or chi.shape[2:] != (len(tau), m, m):
        why = f"(K, K, {len(tau)}, {m}, {m}) (tau points, basis size)"
        raise ModelFieldError("chi", f"expected shape {why}, got {chi.shape}")
    k = chi.shape[0]
    if quadrature not in ("simpson", "trapezoid"):
        raise ModelFieldError("quadrature", f"unknown quadrature {quadrature!r}")

    for r in range(k):
        for rp in range(k):
            peak = float(np.abs(chi[r, rp]).max())
            if peak == 0.0:
                continue
            tail = float(np.abs(chi[r, rp, -1]).max())
            if tail > DECAY_TOL * peak:
                raise MarkovDecayError(
                    "chi",
                    f"correlations of pair ({r}, {rp}) retain {tail / peak:.3e} of their "
                    f"peak at the end of the window; the local-in-time reduction is invalid"
                )

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused here, unwarned
        hermitian = 0.5 * (hs + hs.conj().T)
        if not np.isfinite(tau[-1] * np.abs(hermitian).sum(axis=1).max()):  # bounds every phase tau * eigenvalue
            raise ModelFieldError("system_hamiltonian", f"tau * |H| overflows at tau = {tau[-1]:g}")
    w, u = np.linalg.eigh(hermitian)

    coeffs = np.empty((tau.shape[0], m, m), dtype=complex)  # C[k][beta, gamma]
    for idx, t in enumerate(tau):
        phase = np.exp(-1j * t * w)
        left = (u * phase) @ u.conj().T  # exp(-i tau H)
        right = (u * phase.conj()) @ u.conj().T
        for beta in range(m):
            evolved = left @ basis.ops[beta] @ right
            c, resid = basis.expand(evolved)
            if not resid <= PROJECTION_TOL * max(1.0, np.linalg.norm(basis.ops[beta])):
                raise ModelFieldError(
                    "basis",
                    f"evolved basis operator {beta} leaves the basis span at tau={t} "
                    f"(projection residual {resid:.3e})"
                )
            coeffs[idx, beta] = c

    blocks = np.zeros((k, k, m, m), dtype=complex)
    for r in range(k):
        for rp in range(k):
            integrand = chi[r, rp] @ coeffs  # (n_tau, m, m), indices (gamma, alpha)
            if quadrature == "simpson":
                import scipy.integrate  # only Simpson needs it; importing it costs ~0.1 s of start-up

                z = scipy.integrate.simpson(integrand, x=tau, axis=0)
            else:
                z = np.trapezoid(integrand, x=tau, axis=0)
            blocks[r, rp] = z.T + z.conj()
    if not np.all(np.isfinite(blocks)):
        raise ModelFieldError("chi", "the integrals of the correlations overflow")
    return blocks

