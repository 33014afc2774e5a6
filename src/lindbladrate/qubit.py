"""Closed-form two-channel qubit reservoirs: dephasing and depolarizing.

These constructions serve as analytic oracles for the deterministic and
Monte Carlo engines.  Rate convention: ``gamma_R`` is the *coherence decay
rate* of channel R's self-dynamics, so the self-Lindblad coefficient on
``sigma_z`` is ``gamma_R / 2`` (a bare coefficient ``a`` on ``sigma_z``
decays coherences at ``2 a``).  With this convention the decoupled
dephasing solution is exactly ``P_a exp(-gamma_a t) + P_b exp(-gamma_b t)``.

Hop rates follow the transfer-rate convention used everywhere in the
package: ``gamma_ab`` feeds channel a *from* channel b (it is the escape
rate of b toward a), and symmetrically for ``gamma_ba``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import LindbladRateModel, OperatorBasis
from .stochastic import StochasticModel

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "DephasingParams",
    "DepolarizingParams",
    "QubitElements",
    "PRESETS",
    "dephasing_model",
    "depolarizing_model",
    "h_of_u",
    "h_of_t",
    "cp_bound_check",
    "dephasing_kernel",
    "dephasing_stationary",
    "depolarizing_stationary",
    "stationary_channel_traces",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class DephasingParams:
    """Two-channel dephasing reservoir parameters (rates in 1/time)."""

    gamma_a: float
    gamma_b: float
    gamma_ab: float  # transfer rate b -> a
    gamma_ba: float  # transfer rate a -> b
    p_a: float
    p_b: float

    def __post_init__(self):
        rates = (self.gamma_a, self.gamma_b, self.gamma_ab, self.gamma_ba)
        if any(g < 0 for g in rates):
            raise ValueError("all rates must be nonnegative")
        if self.p_a < 0 or self.p_b < 0 or abs(self.p_a + self.p_b - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")


@dataclass(frozen=True)
class DepolarizingParams:
    """Two-channel depolarizing reservoir (no self-dynamics)."""

    gamma_ab: float
    gamma_ba: float
    p_a: float
    p_b: float

    def __post_init__(self):
        if self.gamma_ab < 0 or self.gamma_ba < 0:
            raise ValueError("all rates must be nonnegative")
        if self.p_a < 0 or self.p_b < 0 or abs(self.p_a + self.p_b - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")


@dataclass(frozen=True)
class QubitElements:
    """Qubit state in matrix-element form; the lower coherence is tied by Hermiticity."""

    pop_plus: float
    pop_minus: float
    coh_plus: complex

    @property
    def coh_minus(self) -> complex:
        return np.conj(self.coh_plus)

    def matrix(self) -> np.ndarray:
        return np.array([[self.pop_plus, self.coh_plus], [self.coh_minus, self.pop_minus]])


PRESETS: dict[str, DephasingParams] = {
    "fig1-upper": DephasingParams(0.1, 1.0, 0.0, 0.0, 0.1, 0.9),
    "fig1-lower": DephasingParams(0.1, 1.0, 1.0, 0.1, 0.1, 0.9),
    "fig2": DephasingParams(0.0, 0.0, 1.0, 0.1, 0.1, 0.9),
}


def dephasing_model(p: DephasingParams) -> tuple[LindbladRateModel, StochasticModel]:
    """Two-channel dephasing model and its trajectory unraveling.

    Basis {sigma_z}; self blocks ``gamma_R / 2``, hop blocks the bare hop
    rates; jump map ``sigma_z . sigma_z`` on every transfer.
    """
    basis = OperatorBasis(np.array([SIGMA_Z]))
    weights = np.array([p.p_a, p.p_b])
    diagonal = np.array([[[p.gamma_a / 2.0]], [[p.gamma_b / 2.0]]], dtype=complex)
    offdiag = {(0, 1): np.array([[p.gamma_ab]]), (1, 0): np.array([[p.gamma_ba]])}
    rate_model = LindbladRateModel.from_blocks(basis, weights, diagonal, offdiag)
    hop = np.array([[0.0, p.gamma_ab], [p.gamma_ba, 0.0]])
    walk = StochasticModel(
        basis=basis,
        hamiltonian=np.zeros((2, 2), dtype=complex),
        dissipator_blocks=diagonal,
        hop_rates=hop,
        kraus_maps=[[SIGMA_Z], [SIGMA_Z]],
        weights=weights,
    )
    return rate_model, walk


def depolarizing_model(p: DepolarizingParams) -> tuple[LindbladRateModel, StochasticModel]:
    """Two-channel depolarizing model: no self-dynamics, jump map
    ``(sigma_x . sigma_x + sigma_y . sigma_y) / 2`` (Kraus set
    ``{sigma_x / sqrt2, sigma_y / sqrt2}``)."""
    basis = OperatorBasis(np.array([SIGMA_X, SIGMA_Y]))
    weights = np.array([p.p_a, p.p_b])
    diagonal = np.zeros((2, 2, 2), dtype=complex)
    half_eye = 0.5 * np.eye(2, dtype=complex)
    offdiag = {(0, 1): p.gamma_ab * half_eye, (1, 0): p.gamma_ba * half_eye}
    rate_model = LindbladRateModel.from_blocks(basis, weights, diagonal, offdiag)
    hop = np.array([[0.0, p.gamma_ab], [p.gamma_ba, 0.0]])
    kraus = [SIGMA_X / np.sqrt(2.0), SIGMA_Y / np.sqrt(2.0)]
    walk = StochasticModel(
        basis=basis,
        hamiltonian=np.zeros((2, 2), dtype=complex),
        dissipator_blocks=diagonal,
        hop_rates=hop,
        kraus_maps=[list(kraus), list(kraus)],
        weights=weights,
    )
    return rate_model, walk


def _denominator_coeffs(p: DephasingParams) -> tuple[float, float]:
    """Quadratic denominator ``u**2 + s u + q`` of h(u).

    Derived by Laplace-transforming the coupled coherence equations
    ``dPhi_a = -(gamma_a + gamma_ba) Phi_a - gamma_ab Phi_b`` (and a<->b):
    each hop rate pairs with the opposite channel's ``(u + gamma)`` factor,
    i.e. ``q = gamma_a gamma_b + gamma_ab gamma_a + gamma_ba gamma_b``.
    """
    s = p.gamma_a + p.gamma_b + p.gamma_ab + p.gamma_ba
    q = p.gamma_a * p.gamma_b + p.gamma_ab * p.gamma_a + p.gamma_ba * p.gamma_b
    return s, q


def h_of_u(p: DephasingParams, u: complex) -> complex:
    """Laplace transform of the normalized coherence decay.

    ``h = h_ab + h_ba`` with ``h_ab = [(P_a - P_b) gamma_ab + P_a (u + gamma_b)] / Delta``
    and ``h_ba`` by a<->b exchange, over the shared quadratic ``Delta(u)``.
    """
    s, q = _denominator_coeffs(p)
    delta = u * u + s * u + q
    if delta == 0:
        raise ZeroDivisionError(f"u = {u} is a pole of h")
    num_ab = (p.p_a - p.p_b) * p.gamma_ab + p.p_a * (u + p.gamma_b)
    num_ba = (p.p_b - p.p_a) * p.gamma_ba + p.p_b * (u + p.gamma_a)
    return (num_ab + num_ba) / delta


def h_of_t(p: DephasingParams, t) -> np.ndarray | float:
    """Normalized coherence decay h(t), the inverse Laplace of :func:`h_of_u`.

    Partial fractions over the two roots of the quadratic denominator; the
    repeated-root case uses the ``t exp(lambda t)`` branch.
    """
    s, q = _denominator_coeffs(p)
    c = p.p_a * p.gamma_b + p.p_b * p.gamma_a + (p.p_a - p.p_b) * (p.gamma_ab - p.gamma_ba)
    t_arr = np.asarray(t, dtype=float)
    disc = complex(s * s - 4.0 * q)
    scale = max(1.0, s * s, abs(4.0 * q))
    if abs(disc) < 1e-12 * scale:
        lam = -s / 2.0
        vals = np.exp(lam * t_arr) * (1.0 + (c + lam) * t_arr)
    else:
        root = np.sqrt(disc)
        lam_p = (-s + root) / 2.0
        lam_m = (-s - root) / 2.0
        vals = ((lam_p + c) * np.exp(lam_p * t_arr) - (lam_m + c) * np.exp(lam_m * t_arr)) / (lam_p - lam_m)
    vals = np.real_if_close(vals, tol=1000)
    out = np.asarray(vals, dtype=float) if np.isrealobj(vals) else np.asarray(vals.real, dtype=float)
    return out if out.ndim else float(out)


def cp_bound_check(p: DephasingParams, grid) -> tuple[bool, float]:
    """Verify ``|h(t)| <= 1`` and ``g_pm = (1 pm h)/2 >= 0`` on a grid.

    These bounds are exactly the complete positivity of the solution map
    ``rho -> g_+ rho + g_- sigma_z rho sigma_z``.
    """
    h = np.atleast_1d(h_of_t(p, grid))
    max_abs = float(np.abs(h).max())
    ok = max_abs <= 1.0 + 1e-10 and float(((1.0 + h) / 2.0).min()) >= -1e-10 and float(((1.0 - h) / 2.0).min()) >= -1e-10
    return ok, max_abs


def dephasing_kernel(p: DephasingParams, u: complex) -> complex:
    """Scalar memory kernel ``K(u) = [1 - u h(u)] / h(u)`` of the dephasing map."""
    h = h_of_u(p, u)
    if h == 0:
        raise ZeroDivisionError(f"h({u}) = 0: kernel pole")
    return (1.0 - u * h) / h


def stationary_channel_traces(gamma_ab: float, gamma_ba: float) -> np.ndarray:
    """Stationary traces of the two auxiliary matrices (classical hop balance)."""
    total = gamma_ab + gamma_ba
    if total <= 0:
        raise ValueError("at least one hop rate must be positive")
    return np.array([gamma_ab / total, gamma_ba / total])


def dephasing_stationary(p: DephasingParams, rho0: np.ndarray) -> QubitElements:
    """Stationary state of the dephasing evolution from ``rho0``.

    Populations never move.  With both self-rates zero the coherence
    freezes at ``(P_a - P_b) (gamma_ab - gamma_ba) / (gamma_ab + gamma_ba)``
    times its initial value (it survives because transfers only flip its
    sign); any nonzero self-rate damps it to zero instead.
    """
    if p.gamma_ab + p.gamma_ba <= 0:
        raise ValueError("stationary hop balance requires gamma_ab + gamma_ba > 0")
    rho0 = np.asarray(rho0, dtype=complex)
    if p.gamma_a == 0.0 and p.gamma_b == 0.0:
        factor = (p.p_a - p.p_b) * (p.gamma_ab - p.gamma_ba) / (p.gamma_ab + p.gamma_ba)
    else:
        factor = 0.0
    return QubitElements(
        pop_plus=float(rho0[0, 0].real),
        pop_minus=float(rho0[1, 1].real),
        coh_plus=complex(factor * rho0[0, 1]),
    )


def depolarizing_stationary(p: DepolarizingParams, rho0: np.ndarray) -> QubitElements:
    """Stationary state of the depolarizing evolution from ``rho0``.

    Coherences die; the stationary populations mix the initial ones through
    the hop balance and the population swaps applied at each transfer:
    ``Pi_pm(inf) = Pi_pm(0) [P_a g_ab + P_b g_ba]/(g_ab + g_ba)
    + Pi_mp(0) [P_a g_ba + P_b g_ab]/(g_ab + g_ba)``.
    """
    total = p.gamma_ab + p.gamma_ba
    if total <= 0:
        raise ValueError("gamma_ab + gamma_ba must be positive")
    rho0 = np.asarray(rho0, dtype=complex)
    pi_plus0 = float(rho0[0, 0].real)
    pi_minus0 = float(rho0[1, 1].real)
    keep = (p.p_a * p.gamma_ab + p.p_b * p.gamma_ba) / total
    swap = (p.p_a * p.gamma_ba + p.p_b * p.gamma_ab) / total
    return QubitElements(
        pop_plus=pi_plus0 * keep + pi_minus0 * swap,
        pop_minus=pi_minus0 * keep + pi_plus0 * swap,
        coh_plus=0.0 + 0.0j,
    )
