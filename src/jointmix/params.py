"""Full parameter bundle and the fixed free-coordinate layout.

Free coordinates are, in order::

    theta[2..R], a[2..L], b[2..J], phi[2..L-1], delta0, delta1

(1-based names matching the model; theta[1] = a[1] = b[1] = phi[1] = 0 and
phi[L] = 1 are fixed).  Scores, information matrices and standard errors all
use this layout.  For unconstrained optimization the phi block is swapped for
free reals u[2..L-1] mapped through a normalized cumulative softmax, which
keeps 0 = phi[1] < phi[2] < ... < phi[L] = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import _readonly
from .ordinal import OrdinalParams
from .survival import SurvivalParams

_SIMPLEX_TOL = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Structural parameters (theta, ordinal alpha, survival delta) plus mixture weights."""

    theta: np.ndarray
    ordinal: OrdinalParams
    survival: SurvivalParams
    pi: np.ndarray

    def __post_init__(self):
        theta = _readonly(self.theta, float)
        pi = _readonly(self.pi, float)
        if theta.ndim != 1 or theta.size < 1:
            raise ValueError("theta must be a 1-d vector with at least one group")
        if theta[0] != 0.0:
            raise ValueError("theta[1] = 0 must hold exactly")
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta must be finite")
        if pi.shape != theta.shape:
            raise ValueError("pi must have one weight per group")
        if np.any(pi <= 0) or abs(pi.sum() - 1.0) > _SIMPLEX_TOL:
            raise ValueError("pi must lie on the open simplex")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "pi", pi)

    @property
    def n_groups(self) -> int:
        return self.theta.size

    @property
    def n_levels(self) -> int:
        return self.ordinal.n_levels

    @property
    def n_items(self) -> int:
        return self.ordinal.n_items


class ParamLayout:
    """Index bookkeeping for the free parameter vector of a (R, L, J) model."""

    def __init__(self, n_groups: int, n_levels: int, n_items: int):
        if n_groups < 1 or n_levels < 2 or n_items < 1:
            raise ValueError("need n_groups >= 1, n_levels >= 2, n_items >= 1")
        self.R, self.L, self.J = n_groups, n_levels, n_items
        sizes = [self.R - 1, self.L - 1, self.J - 1, self.L - 2, 2]
        edges = np.cumsum([0] + sizes)
        self.sl_theta = slice(edges[0], edges[1])
        self.sl_a = slice(edges[1], edges[2])
        self.sl_b = slice(edges[2], edges[3])
        self.sl_phi = slice(edges[3], edges[4])
        self.idx_d0 = int(edges[4])
        self.idx_d1 = int(edges[4]) + 1
        self.n_free = int(edges[4]) + 2

    @property
    def names(self) -> list[str]:
        return ([f"theta[{r}]" for r in range(2, self.R + 1)]
                + [f"a[{k}]" for k in range(2, self.L + 1)]
                + [f"b[{j}]" for j in range(2, self.J + 1)]
                + [f"phi[{k}]" for k in range(2, self.L)]
                + ["delta0", "delta1"])

    def matches(self, params: ModelParams) -> bool:
        return (params.n_groups == self.R and params.n_levels == self.L
                and params.n_items == self.J)

    def pack(self, params: ModelParams) -> np.ndarray:
        """Free natural coordinates of ``params`` (pi is not part of the layout)."""
        if not self.matches(params):
            raise ValueError("params dimensions do not match this layout")
        return np.concatenate([
            params.theta[1:], params.ordinal.a[1:], params.ordinal.b[1:],
            params.ordinal.phi[1:self.L - 1],
            [params.survival.delta0, params.survival.delta1],
        ])

    def unpack(self, x: np.ndarray, pi: np.ndarray) -> ModelParams:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_free,):
            raise ValueError(f"expected a free vector of length {self.n_free}")
        theta = np.concatenate([[0.0], x[self.sl_theta]])
        a = np.concatenate([[0.0], x[self.sl_a]])
        b = np.concatenate([[0.0], x[self.sl_b]])
        phi = np.concatenate([[0.0], x[self.sl_phi], [1.0]])
        return ModelParams(theta, OrdinalParams(a, phi, b),
                           SurvivalParams(float(x[self.idx_d0]), float(x[self.idx_d1])), pi)

    # --- unconstrained optimizer coordinates: phi block replaced by u ---

    def pack_opt(self, params: ModelParams) -> np.ndarray:
        x = self.pack(params)
        x[self.sl_phi] = u_from_phi(params.ordinal.phi)
        return x

    def unpack_opt(self, y: np.ndarray, pi: np.ndarray) -> ModelParams:
        y = np.asarray(y, dtype=float)
        x = y.copy()
        x[self.sl_phi] = phi_from_u(y[self.sl_phi], self.L)[1:self.L - 1]
        return self.unpack(x, pi)

    def grad_to_opt(self, grad_natural: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Map natural-coordinate gradients (last axis) to optimizer coordinates (chain rule on phi)."""
        out = np.array(grad_natural, dtype=float)
        if self.L > 2:
            out[..., self.sl_phi] = _phi_chain(out[..., self.sl_phi], np.asarray(u, float), self.L)
        return out


# free scores are bounded so phi increments can never underflow to exact ties
# (total log-spread <= 30 keeps every cumulative-sum gap above float resolution)
_U_BOUND = 15.0


def phi_from_u(u: np.ndarray, n_levels: int) -> np.ndarray:
    """Monotone category scores from free reals: normalized cumulative softmax.

    u has length L-2 (u[L] = 0 is absorbed); phi[l] = sum_{k<=l} s_k / sum_k s_k
    with s_k = exp(u_k), so 0 = phi[1] < ... < phi[L] = 1 holds by construction.
    """
    u = np.clip(np.asarray(u, dtype=float), -_U_BOUND, _U_BOUND)
    if u.shape != (n_levels - 2,):
        raise ValueError(f"expected {n_levels - 2} free scores")
    shift = u.max(initial=0.0)
    s = np.exp(np.concatenate([u - shift, [-shift]]))
    csum = np.cumsum(s)
    phi = np.empty(n_levels)
    phi[0] = 0.0
    phi[1:] = csum / csum[-1]
    phi[-1] = 1.0
    return phi


def u_from_phi(phi: np.ndarray) -> np.ndarray:
    """Inverse of :func:`phi_from_u`; requires strictly increasing scores."""
    phi = np.asarray(phi, dtype=float)
    diffs = np.diff(phi)
    if np.any(diffs <= 0):
        raise ValueError("phi must be strictly increasing to map to free scores")
    return np.clip(np.log(diffs[:-1] / diffs[-1]), -_U_BOUND, _U_BOUND)


def _phi_chain(grad_phi: np.ndarray, u: np.ndarray, n_levels: int) -> np.ndarray:
    """Map phi-gradients (last axis, length L-2) to u-gradients through :func:`phi_from_u`.

    d phi_l / d u_k = s_k (1{k<=l} - phi_l) / S for l, k in 2..L-1, and zero
    where |u_k| >= ``_U_BOUND``: ``phi_from_u`` clips u there, so phi does not
    move with it.
    """
    u = np.asarray(u, dtype=float)
    inside = np.abs(u) < _U_BOUND
    u = np.clip(u, -_U_BOUND, _U_BOUND)
    phi = phi_from_u(u, n_levels)
    shift = u.max(initial=0.0)
    s = np.exp(np.concatenate([u - shift, [-shift]]))
    w = np.where(inside, s[:-1] / s.sum(), 0.0)
    grad_phi = np.asarray(grad_phi, dtype=float)
    suffix = np.cumsum(grad_phi[..., ::-1], axis=-1)[..., ::-1]
    return w * (suffix - (grad_phi @ phi[1:n_levels - 1])[..., None])
