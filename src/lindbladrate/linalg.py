"""Dense complex matrix / superoperator substrate.

Everything in this package uses a single vectorization convention:
column stacking, ``vec(X)[i + d*j] = X[i, j]``, which gives the
Kronecker identity ``vec(A X B) = (B.T kron A) vec(X)``.  :func:`vectorize`
and :func:`devectorize` are its one encoder and decoder.  Superoperators
are ``d**2 x d**2`` complex matrices acting on vectorized densities
(``K*d**2`` when several channels are stacked channel-major).
"""

from __future__ import annotations

import math

import numpy as np

# The one Hermitian-PSD rule (:func:`psd_check`) and every Hermiticity check use these.
HERMITIAN_TOL = 1e-10  # bound on hermiticity_residual
PSD_TOL = 1e-8  # min eigenvalue >= -PSD_TOL * max(1, |M|)
EIG_TOL = 1e-11  # eigendecomposition residual |V diag(w) V^-1 - G|, relative to max(1, |G|)
TRACE_TOL = 1e-10  # |tr - 1| of an initial state, an evolved state and a trajectory before renormalization

__all__ = [
    "vectorize",
    "devectorize",
    "trace_vector",
    "coefficient_superop",
    "kraus_superop",
    "hamiltonian_superop",
    "anticommutator_superop",
    "hermiticity_residual",
    "min_eigenvalue",
    "psd_check",
    "choi_matrix",
    "eig_factor",
]


def _square(matrix: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    return m


def vectorize(matrix: np.ndarray) -> np.ndarray:
    """Column-stack square matrices, ``(..., d, d) -> (..., d**2)`` complex;
    leading axes are batch axes."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m.swapaxes(-1, -2).reshape(*m.shape[:-2], -1)


def devectorize(vector: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vectorize`, ``(..., d**2) -> (..., d, d)``; keeps
    the dtype, and the roundtrip is bit-exact."""
    v = np.atleast_1d(vector)
    d = math.isqrt(v.shape[-1])
    if d * d != v.shape[-1]:
        raise ValueError(f"vector length {v.shape[-1]} is not a perfect square")
    return v.reshape(*v.shape[:-1], d, d).swapaxes(-1, -2)


def trace_vector(dim: int) -> np.ndarray:
    """Row vector implementing the trace functional on vec'd states."""
    tau = np.zeros(dim * dim, dtype=complex)
    tau[:: dim + 1] = 1.0
    return tau


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices, ``(p, q) x (r, s) -> (p r, q s)``.

    Forms the same single products as numpy's ``kron``, so the bits are
    equal, signed zeros included, in about a fifth of its time on the
    small operands this package passes.
    """
    (p, q), (r, s) = a.shape, b.shape
    return np.multiply.outer(a, b).transpose(0, 2, 1, 3).reshape(p * r, q * s)


def coefficient_superop(ops, coeffs) -> np.ndarray:
    """Superoperator of ``X -> sum a[alpha, gamma] V_alpha X V_gamma^dag``.

    Built from its Choi matrix ``W A W^dag``, where ``W`` holds the
    ``vec(V_alpha)`` as columns; the map is CP exactly when ``A`` is PSD.
    ``ops`` is ``(m, d, d)`` and ``coeffs`` is ``(..., m, m)``; leading axes
    of ``coeffs`` give a stack of superoperators.
    """
    w = vectorize(ops).T
    return choi_matrix(w @ np.asarray(coeffs, dtype=complex) @ w.conj().T)


def kraus_superop(kraus_ops) -> np.ndarray:
    """Superoperator of the CP map ``X -> sum_k K_k X K_k^dag``."""
    ops = [_square(k, "Kraus operator") for k in kraus_ops]
    if not ops:
        raise ValueError("empty Kraus set")
    return coefficient_superop(ops, np.eye(len(ops)))


def hamiltonian_superop(h: np.ndarray) -> np.ndarray:
    """Superoperator of ``X -> -i [H, X]`` (hbar = 1)."""
    h = _square(h, "H")
    eye = np.eye(h.shape[0])
    return -1j * (_kron(eye, h) - _kron(h.T, eye))


def anticommutator_superop(d: np.ndarray) -> np.ndarray:
    """Superoperator of ``X -> {D, X} = D X + X D``."""
    d = _square(d, "D")
    eye = np.eye(d.shape[0])
    return _kron(eye, d) + _kron(d.T, eye)


def hermiticity_residual(matrix: np.ndarray) -> float:
    """Relative deviation from Hermiticity, ``|M - M^dag| / max(1, |M|)``."""
    m = np.asarray(matrix, dtype=complex)
    scale = max(1.0, np.linalg.norm(m))
    return float(np.linalg.norm(m - m.conj().T) / scale)


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def min_eigenvalue(matrix: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the Hermitian part ``(M + M^dag) / 2`` of each
    matrix in ``(..., d, d)``; shape ``(...)``.

    The bits are those of ``np.linalg.eigvalsh``.  Batches of 2 x 2 matrices
    get them from :func:`_min_eig_2x2`; a single matrix stays on ``eigvalsh``,
    which is faster for one call.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim > 2 and m.shape[-2:] == (2, 2):
        return _min_eig_2x2(m)
    return np.linalg.eigvalsh(_hermitian_part(m))[..., 0]


# LAPACK's thresholds on the n = 2 path of zheevd (dlamch: SAFMIN = 2**-1022, EPS = 2**-53).
_EPS = 2.0**-53  # dsterf's split tests
_RMIN, _RMAX = 2.0**-485, 2.0**485  # zheevd scales A when max |a_ij| is outside [RMIN, RMAX]
_SSFMIN, _SSFMAX = 2.0**-405, 2.0**511 / 3  # dsterf scales T when max |t_ij| is outside these
_BETA_MIN = 2.0**-969  # zlarfg rescales a reflector whose |beta| is below this
# Rows per pass of _zheevd_2x2: its ~30 temporaries then stay in cache and
# take less memory than eigvalsh does on the whole batch.
_ROWS_2X2 = 4096


def _min_eig_2x2(m: np.ndarray) -> np.ndarray:
    """:func:`min_eigenvalue` of ``(..., 2, 2)``, bit for bit as ``eigvalsh``.

    :func:`_zheevd_2x2` computes every row it can replay exactly; the rows
    it cannot go to ``eigvalsh`` in one call.
    """
    flat = np.ascontiguousarray(m).reshape(-1, 2, 2)
    f = flat.view(np.float64).reshape(-1, 8)
    lam, fast = np.empty(len(f)), np.empty(len(f), dtype=bool)
    for s in range(0, len(f), _ROWS_2X2):
        lam[s : s + _ROWS_2X2], fast[s : s + _ROWS_2X2] = _zheevd_2x2(f[s : s + _ROWS_2X2])
    slow = ~fast
    if slow.any():
        lam[slow] = np.linalg.eigvalsh(_hermitian_part(flat[slow]))[:, 0]
    return lam.reshape(m.shape[:-2])


def _zheevd_2x2(f: np.ndarray):
    """``(lam, fast)`` for rows ``re, im`` of ``m00, m01, m10, m11``: where
    ``fast``, ``lam`` is the smallest eigenvalue of the Hermitian part as
    ``eigvalsh`` computes it.

    Replays the path that ``zheevd`` (jobz N, uplo L) takes for n = 2:
    ``zhetd2`` with one ``zlarfg`` reflector on ``a21`` and the 1 x 1
    ``zhemv``/``zdotc``/``zaxpy``/``zher2`` update of ``a22``, then
    ``dsterf``'s ``dlae2`` and sort (Anderson et al., LAPACK Users' Guide,
    3rd ed., SIAM 1999).  It uses real float64 arithmetic only, because
    numpy's complex multiply may fuse its products.  ``fast`` is false on
    rows that LAPACK would rescale, rows that meet either ``dsterf`` split
    test, and zero or non-finite rows.
    """
    # The Hermitian part's lower triangle.  These equal the parts of
    # _hermitian_part(m) up to the sign of a zero a21 component, which the
    # path below does not read (e enters squared, tau_i through tau_i * y_i).
    a11, a22 = f[:, 0], f[:, 6]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # such rows are not `fast`
        ar, ai = 0.5 * (f[:, 4] + f[:, 2]), 0.5 * (f[:, 5] - f[:, 3])
        big = np.maximum(np.abs(ar), np.abs(ai))
        anrm = np.maximum(np.maximum(np.abs(a11), np.abs(a22)), big)
        # zlarfg: beta = -SIGN(DLAPY3(ar, ai, 0), ar), tau = ((beta - ar) / beta, -ai / beta)
        beta = -np.copysign(big * np.sqrt((ar / big) ** 2 + (ai / big) ** 2), ar)
        tau_r, tau_i = (beta - ar) / beta, -ai / beta
        # zhemv: y = tau a22 v with v = 1; zdotc(y, v) = conj(y); zaxpy: w = y + (-tau / 2) conj(y)
        y_r, y_i = tau_r * a22, tau_i * a22
        w_r = y_r + ((-0.5 * tau_r) * y_r - (-0.5 * tau_i) * -y_i)
        # zher2 with alpha = -1 adds -2 w_r to a22.  For a real a21 zlarfg sets
        # tau = 0: no update, and e = ar.  Here tau = (2, +-0) makes w_r = +0
        # exactly, so a22 is left as it is, and e = beta = -ar; dsterf reads
        # only |e| and e**2.
        d1, d2, e = a11, a22 + (-w_r + -w_r), beta
        # dsterf on [[d1, e], [e, d2]]
        ad1, ad2, ae = np.abs(d1), np.abs(d2), np.abs(e)
        tnorm = np.maximum(np.maximum(ad1, ad2), ae)
        e2 = e * e
        # zlanhe's max |a_ij| lies in [anrm, sqrt(2) anrm]
        fast = (anrm >= _RMIN) & (anrm <= _RMAX / 2) & (ae >= _BETA_MIN)
        fast &= (tnorm >= _SSFMIN) & (tnorm <= _SSFMAX)
        fast &= (ae > np.sqrt(ad1) * np.sqrt(ad2) * _EPS) & (e2 > _EPS * _EPS * np.abs(d1 * d2))
        fast &= np.isfinite(f[:, 1] + f[:, 7])  # the imaginary diagonal, which the rest never reads
        # QL when |d2| >= |d1|, else QR; either way dlae2 gets the smaller |d| first,
        # so its ACMN is a and its ACMX is c.
        qr = ad2 < ad1
        a, c = np.where(qr, d2, d1), np.where(qr, d1, d2)
        rte = np.sqrt(e2)
        sm = a + c
        adf, ab = np.abs(a - c), np.abs(rte + rte)
        hi, lo = np.maximum(adf, ab), np.minimum(adf, ab)
        rt = hi * np.sqrt(1.0 + (lo / hi) ** 2)  # AB*SQRT(TWO) when ADF = AB
        rt1 = 0.5 * np.where(sm < 0, sm - rt, sm + rt)
        rt2 = np.where(sm == 0, -0.5 * rt, (c / rt1) * a - (rte / rt1) * rte)
    # dlasrt: QL leaves (rt1, rt2), QR (rt2, rt1); the first stays unless the second is smaller
    first, second = np.where(qr, rt2, rt1), np.where(qr, rt1, rt2)
    return np.where(second < first, second, first), fast


def psd_check(matrix: np.ndarray, tol: float = PSD_TOL):
    """The Hermitian-PSD rule.

    Returns ``(is_psd, min_eig)``, with ``min_eig`` from
    :func:`min_eigenvalue`; ``is_psd`` means Hermitian,
    ``hermiticity_residual(M) <= HERMITIAN_TOL``, and
    ``min_eig >= -tol * max(1, |M|)``.
    """
    m = _square(matrix, "matrix")
    min_eig = float(min_eigenvalue(m))
    hermitian = hermiticity_residual(m) <= HERMITIAN_TOL
    return hermitian and min_eig >= -tol * max(1.0, np.linalg.norm(m)), min_eig


def choi_matrix(superop: np.ndarray) -> np.ndarray:
    """Choi matrix of a superoperator (column-stacking reshuffle).

    For a CP map ``X -> sum_k K_k X K_k^dag`` this equals
    ``sum_k vec(K_k) vec(K_k)^dag`` and is therefore PSD exactly when the
    map is completely positive.  The reshuffle is an involution, so the
    same function maps Choi matrices back to superoperators.  Leading axes
    are batch axes: ``(..., d**2, d**2)`` maps to the same shape.
    """
    s = np.asarray(superop, dtype=complex)
    d = int(round(np.sqrt(s.shape[-1]))) if s.ndim >= 2 else 0
    if s.ndim < 2 or s.shape[-2:] != (d * d, d * d):
        raise ValueError(f"superoperator must be (..., d**2, d**2), got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("superoperator has non-finite entries")
    lead = s.shape[:-2]
    b = len(lead)
    order = (*range(b), b + 3, b + 1, b + 2, b)
    return s.reshape(*lead, d, d, d, d).transpose(order).reshape(*lead, d * d, d * d)


def eig_factor(gen: np.ndarray):
    """The diagonalization rule: ``(vals, vecs, inv)`` with
    ``gen = vecs @ diag(vals) @ inv``, accepted only when that reconstruction
    is within ``EIG_TOL * max(1, |gen|)``.

    Raises ``np.linalg.LinAlgError`` naming the residual otherwise, and when
    ``vecs`` is singular (residual ``inf``): near a defective generator the
    eigenvectors are ill conditioned and their exponential is unreliable.
    """
    vals, vecs = np.linalg.eig(gen)
    scale = max(1.0, np.linalg.norm(gen))
    try:
        inv = np.linalg.inv(vecs)
        error = np.linalg.norm((vecs * vals) @ inv - gen)
    except np.linalg.LinAlgError:  # singular eigenvector matrix
        error = np.inf
    if not error <= EIG_TOL * scale:
        raise np.linalg.LinAlgError(
            f"not reliably diagonalizable: eigendecomposition residual {error / scale:.3e} "
            f"exceeds EIG_TOL = {EIG_TOL:g}"
        )
    return vals, vecs, inv
