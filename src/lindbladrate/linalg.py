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


def min_eigenvalue(matrix: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the Hermitian part ``(M + M^dag) / 2`` of each
    matrix in ``(..., d, d)``; shape ``(...)``."""
    m = np.asarray(matrix, dtype=complex)
    return np.linalg.eigvalsh(0.5 * (m + m.conj().swapaxes(-1, -2)))[..., 0]


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
