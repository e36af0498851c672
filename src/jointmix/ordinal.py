"""Ordered stereotype model for the longitudinal ordinal responses.

Category ``l`` of item ``j`` for a subject with group effect ``t`` has
log-odds ``a[l] + phi[l] * (b[j] + t)`` against category 1, with the
identifiability constraints ``a[1] = b[1] = phi[1] = 0`` and the monotone
score normalization ``0 = phi[1] <= ... <= phi[L] = 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataError, PackedData, _readonly


@dataclass(frozen=True)
class OrdinalParams:
    """Stereotype-model parameters (intercepts, category scores, item effects)."""

    a: np.ndarray
    phi: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = _readonly(self.a, float)
        phi = _readonly(self.phi, float)
        b = _readonly(self.b, float)
        if a.ndim != 1 or phi.ndim != 1 or b.ndim != 1:
            raise ValueError("a, phi and b must be 1-d")
        if a.size != phi.size:
            raise ValueError("a and phi must have the same length (one per level)")
        if a.size < 2:
            raise ValueError("need at least two response levels")
        if b.size < 1:
            raise ValueError("need at least one item")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(phi)) and np.all(np.isfinite(b))):
            raise ValueError("parameters must be finite")
        if a[0] != 0.0 or b[0] != 0.0 or phi[0] != 0.0 or phi[-1] != 1.0:
            raise ValueError("constraints a[1]=0, b[1]=0, phi[1]=0, phi[L]=1 must hold exactly")
        if np.any(np.diff(phi) < 0):
            raise ValueError("phi must be nondecreasing")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "b", b)

    @property
    def n_levels(self) -> int:
        return self.a.size

    @property
    def n_items(self) -> int:
        return self.b.size


def category_probs(item: int, group_effect: float, params: OrdinalParams) -> np.ndarray:
    """Probability of each response level for one item at a given group effect.

    Computed in log space with max subtraction, so large linear predictors do
    not overflow.  The result is a strict probability vector of length L.
    """
    if not 1 <= item <= params.n_items:
        raise IndexError(f"item must be in 1..{params.n_items}, got {item}")
    if not np.isfinite(group_effect):
        raise ValueError(f"group effect must be finite, got {group_effect!r}")
    eta = params.a + params.phi * (params.b[item - 1] + group_effect)
    eta = eta - eta.max()
    p = np.exp(eta)
    return p / p.sum()


def _linear_predictor(a: np.ndarray, phi: np.ndarray, b: np.ndarray, theta: np.ndarray):
    """Tables eta[r, j, l] = a[l] + phi[l] (b[j] + theta[r]) and their row log-normalizers."""
    x = b[None, :] + theta[:, None]
    eta = a[None, None, :] + phi[None, None, :] * x[:, :, None]
    emax = eta.max(axis=2)
    logz = emax + np.log(np.exp(eta - emax[:, :, None]).sum(axis=2))
    return eta, logz


def loglik_matrix(packed: PackedData, params: OrdinalParams, theta: np.ndarray) -> np.ndarray:
    """Per-subject, per-group ordinal log-likelihoods as an (n, R) matrix."""
    if packed.n_levels != params.n_levels or packed.n_items > params.n_items:
        raise DataError("data dimensions do not match the ordinal parameters")
    eta, logz = _linear_predictor(params.a, params.phi, params.b, theta)
    eta = eta[:, :packed.n_items]
    logz = logz[:, :packed.n_items]
    n, r = packed.n, theta.size
    flat = packed.counts.reshape(n, -1) @ eta.reshape(r, -1).T
    return flat - packed.cells @ logz.T


def weighted_score_parts(packed: PackedData, params: OrdinalParams, theta: np.ndarray,
                         gamma: np.ndarray):
    """Posterior-weighted per-subject ordinal score blocks.

    Returns ``(d_theta, d_a, d_b, d_phi)`` with shapes ``(n, R-1)``,
    ``(n, L-1)``, ``(n, J-1)`` and ``(n, L-2)``; group weights are treated as
    constants.  Each block sums gamma_ir times the residual counts[i, j, l] -
    cells[i, j] probs[r, j, l] over groups first, so no (n, R, J, L) array
    is formed and gamma rows need not sum to one.
    """
    L = params.n_levels
    eta, logz = _linear_predictor(params.a, params.phi, params.b, theta)
    probs = np.exp(eta - logz[:, :, None])                       # (R, J, L)
    x = params.b[None, :] + theta[:, None]                       # (R, J)
    counts, cells, phi = packed.counts, packed.cells, params.phi
    weight = (gamma @ np.ones(gamma.shape[1]))[:, None]
    counts_phi = counts @ phi                                    # (n, J)
    # exact in any summation order: the counts are integers
    level_totals = np.einsum("ijl->il", counts)                  # (n, L)
    # sum_r gamma_ir sum_j cells_ij probs_rjl, plain and weighted by x_rj
    expected = np.einsum("ir,ril->il", gamma, cells @ probs)
    expected_x = np.einsum("ir,ril->il", gamma, cells @ (x[:, :, None] * probs))
    d_theta = gamma * ((level_totals @ phi)[:, None] - cells @ (probs @ phi).T)
    d_a = weight * level_totals - expected
    d_b = weight * counts_phi - cells * (gamma @ (probs @ phi))
    d_phi = np.einsum("ij,ijl->il", gamma @ x, counts) - expected_x
    return d_theta[:, 1:], d_a[:, 1:], d_b[:, 1:], d_phi[:, 1:L - 1]
