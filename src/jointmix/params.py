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

import itertools
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
        if not np.isfinite(theta).all():
            raise ValueError("theta must be finite")
        if pi.shape != theta.shape:
            raise ValueError("pi must have one weight per group")
        if not ((pi > 0).all() and abs(pi.sum() - 1.0) <= _SIMPLEX_TOL):     # NaN fails both
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
        edges = list(itertools.accumulate([0, self.R - 1, self.L - 1, self.J - 1, self.L - 2]))
        self.sl_theta = slice(edges[0], edges[1])
        self.sl_a = slice(edges[1], edges[2])
        self.sl_b = slice(edges[2], edges[3])
        self.sl_phi = slice(edges[3], edges[4])
        self.idx_d0 = edges[4]
        self.idx_d1 = edges[4] + 1
        self.n_free = edges[4] + 2

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
        x = self._free_vector(x)
        return self._params(x, np.concatenate([[0.0], x[self.sl_phi], [1.0]]), pi)

    def _free_vector(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_free,):
            raise ValueError(f"expected a free vector of length {self.n_free}")
        return x

    def _params(self, x: np.ndarray, phi: np.ndarray, pi: np.ndarray) -> ModelParams:
        """``ModelParams`` of the free vector ``x`` with ``phi``, a new array of all L scores.

        theta, a, b and phi are new arrays made read-only here, which the
        parameter classes keep rather than copy.
        """
        phi.flags.writeable = False
        return ModelParams(_after_zero(x[self.sl_theta]),
                           OrdinalParams(_after_zero(x[self.sl_a]), phi, _after_zero(x[self.sl_b])),
                           SurvivalParams(float(x[self.idx_d0]), float(x[self.idx_d1])), pi)

    # --- unconstrained optimizer coordinates: phi block replaced by u ---

    def pack_opt(self, params: ModelParams) -> np.ndarray:
        x = self.pack(params)
        x[self.sl_phi] = u_from_phi(params.ordinal.phi)
        return x

    def unpack_opt(self, y: np.ndarray, pi: np.ndarray) -> ModelParams:
        y = self._free_vector(y)
        return self._params(y, phi_from_u(y[self.sl_phi], self.L), pi)

    def grad_to_opt(self, grad_natural: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Map natural-coordinate gradients (last axis) to optimizer coordinates (chain rule on phi)."""
        out = np.array(grad_natural, dtype=float)
        if self.L > 2:
            out[..., self.sl_phi] = _phi_chain(out[..., self.sl_phi], u)
        return out


def _after_zero(values: np.ndarray) -> np.ndarray:
    """A new read-only array holding 0 and then ``values``."""
    out = np.concatenate([[0.0], values])
    out.flags.writeable = False
    return out


# free scores are bounded so phi increments can never underflow to exact ties
# (total log-spread <= 30 keeps every cumulative-sum gap above float resolution)
_U_BOUND = 15.0


def phi_from_u(u: np.ndarray, n_levels: int) -> np.ndarray:
    """Monotone category scores from free reals: normalized cumulative softmax.

    u has length L-2 (u[L] = 0 is absorbed); phi[l] = sum_{k<=l} s_k / sum_k s_k
    with s_k = exp(u_k), so 0 = phi[1] < ... < phi[L] = 1 holds by construction.
    """
    u = np.asarray(u, dtype=float).clip(-_U_BOUND, _U_BOUND)
    if u.shape != (n_levels - 2,):
        raise ValueError(f"expected {n_levels - 2} free scores")
    csum = _score_steps(u).cumsum()
    phi = np.empty(n_levels)
    phi[0] = 0.0
    phi[1:] = csum / csum[-1]
    phi[-1] = 1.0
    return phi


def _score_steps(u: np.ndarray) -> np.ndarray:
    """s_k = exp(u_k - shift) for the clipped free scores u and u[L] = 0, shift = max(u, 0)."""
    s = np.empty(u.size + 1)
    s[:-1] = u
    s[-1] = 0.0
    s -= u.max(initial=0.0)
    return np.exp(s, out=s)


def u_from_phi(phi: np.ndarray) -> np.ndarray:
    """Inverse of :func:`phi_from_u`; requires strictly increasing scores."""
    phi = np.asarray(phi, dtype=float)
    diffs = np.diff(phi)
    if np.any(diffs <= 0):
        raise ValueError("phi must be strictly increasing to map to free scores")
    return np.clip(np.log(diffs[:-1] / diffs[-1]), -_U_BOUND, _U_BOUND)


def _phi_chain(grad_phi: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Map phi-gradients (last axis, length L-2) to u-gradients through :func:`phi_from_u`.

    d phi_l / d u_k = s_k (1{k<=l} - phi_l) / S for l, k in 2..L-1, and zero
    where |u_k| >= ``_U_BOUND``: ``phi_from_u`` clips u there, so phi does not
    move with it.
    """
    u = np.asarray(u, dtype=float)
    s = _score_steps(u.clip(-_U_BOUND, _U_BOUND))
    csum = s.cumsum()
    w = np.where(abs(u) < _U_BOUND, s[:-1] / s.sum(), 0.0)
    grad_phi = np.asarray(grad_phi, dtype=float)
    suffix = grad_phi[..., ::-1].cumsum(axis=-1)[..., ::-1]
    # phi[2..L-1] as phi_from_u forms it
    return w * (suffix - (grad_phi @ (csum[:-1] / csum[-1]))[..., None])
