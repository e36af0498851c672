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
        if not (np.isfinite(a).all() and np.isfinite(phi).all() and np.isfinite(b).all()):
            raise ValueError("parameters must be finite")
        if a[0] != 0.0 or b[0] != 0.0 or phi[0] != 0.0 or phi[-1] != 1.0:
            raise ValueError("constraints a[1]=0, b[1]=0, phi[1]=0, phi[L]=1 must hold exactly")
        if (phi[1:] < phi[:-1]).any():
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


def _linear_predictor(a: np.ndarray, phi: np.ndarray, b: np.ndarray, theta: np.ndarray):
    """Tables eta[r, j, l] = a[l] + phi[l] (b[j] + theta[r]) and their row log-normalizers."""
    x = b[None, :] + theta[:, None]
    eta = a[None, None, :] + phi[None, None, :] * x[:, :, None]
    emax = eta.max(axis=2)
    logz = emax + np.log(np.exp(eta - emax[:, :, None]).sum(axis=2))
    return eta, logz


def loglik_matrix(packed: PackedData, params: OrdinalParams, theta: np.ndarray) -> np.ndarray:
    """Per-subject, per-group ordinal log-likelihoods as a column-major (n, R) matrix."""
    if packed.n_levels != params.n_levels or packed.n_items != params.n_items:
        raise DataError("data dimensions do not match the ordinal parameters")
    eta, logz = _linear_predictor(params.a, params.phi, params.b, theta)
    n, r = packed.n, theta.size
    return (eta.reshape(r, -1) @ packed.counts.reshape(n, -1).T - logz @ packed.cells.T).T


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
    # one product over the (n J, L) rows: a stacked (n, J, L) @ phi runs 6-24x slower
    counts_phi = (counts.reshape(-1, L) @ phi).reshape(packed.n, -1)     # (n, J)
    # exact in any summation order: the counts are integers
    level_totals = np.einsum("ijl->il", counts)                  # (n, L)
    # sum_r gamma_ir sum_j cells_ij probs_rjl, plain and weighted by x_rj
    expected = np.einsum("ir,ril->il", gamma, cells @ probs)
    expected_x = np.einsum("ir,ril->il", gamma, cells @ (x[:, :, None] * probs))
    # column-major like gamma: the broadcasts over the narrow (n, R) rows run 4x faster
    d_theta = gamma * ((level_totals @ phi)[:, None] - ((probs @ phi) @ cells.T).T)
    d_a = weight * level_totals - expected
    d_b = weight * counts_phi - cells * (gamma @ (probs @ phi))
    d_phi = np.einsum("ij,ijl->il", gamma @ x, counts) - expected_x
    return d_theta[:, 1:], d_a[:, 1:], d_b[:, 1:], d_phi[:, 1:L - 1]
