"""Mixture likelihood core shared by the EM loop and the inference layer.

Builds the (n, R) matrix log pi_r + log P(Y_i | r) + log P(T_i, d_i | r) and
the responsibilities it implies.  The hazard may take any form that
:func:`survival.loglik_matrix` accepts.

:class:`_CollapsedQ` is the expected complete-data objective Q for fixed
responsibilities, with the hazard profiled out, and its gradient in natural
coordinates.  It is the M-step objective of :mod:`em` and, at the
fixed-point responsibilities, the mean profile score of :mod:`inference`.
"""

from __future__ import annotations

import functools

import numpy as np

from . import ordinal as _ordinal
from . import survival as _survival
from .data import PackedData
from .params import ModelParams, ParamLayout
from .survival import SurvivalParams


class DegenerateSubjectError(RuntimeError):
    """A subject's density underflowed to zero in every mixture component."""


def _gamma_of(posterior) -> np.ndarray:
    """Responsibility matrix of a ``Posterior`` or of a plain (n, R) array."""
    return np.asarray(getattr(posterior, "gamma", posterior), dtype=float)


def _loglik_components(packed: PackedData, params: ModelParams, hazard) -> np.ndarray:
    """log pi_r + log P(Y_i | r) + log P(T_i, d_i | r) as an (n, R) matrix."""
    ll = _ordinal.loglik_matrix(packed, params.ordinal, params.theta)
    ll += _survival.loglik_matrix(packed, hazard, params.theta, params.survival)
    return ll + np.log(params.pi)[None, :]


def _loglik_and_posterior(packed: PackedData, comp: np.ndarray) -> tuple[float, np.ndarray]:
    """Observed log-likelihood sum_i log sum_r exp(comp[i, r]) and the responsibilities.

    One pass over the (n, R) components: the row max is taken column by column
    and the row sums as a BLAS product, because numpy's axis reductions over a
    narrow array cost about ten times as much.
    """
    rowmax = functools.reduce(np.maximum, comp.T)
    if not np.all(np.isfinite(rowmax)):
        bad = int(np.flatnonzero(~np.isfinite(rowmax))[0])
        raise DegenerateSubjectError(
            f"subject {packed.subject_ids[bad]!r}: zero density in every component")
    gamma = np.exp(comp - rowmax[:, None])
    total = gamma @ np.ones(comp.shape[1])
    loglik = float(rowmax.sum() + np.log(total).sum())
    return loglik, gamma / total[:, None]


def _posterior_matrix(packed: PackedData, params: ModelParams, hazard) -> np.ndarray:
    return _loglik_and_posterior(packed, _loglik_components(packed, params, hazard))[1]


class _CollapsedQ:
    """Q = sum_ir gamma_ir [log P(Y_i | r) + log P(T_i, d_i | r)] for fixed responsibilities.

    The hazard inside log P(T_i, d_i | r) is the one profiled from ``gamma``
    at each evaluated point.  The ordinal part collapses over subjects into
    (R, J, L) tables, so each evaluation costs O(nR) for the survival part
    only.  Where ``gamma`` is the fixed-point posterior of the evaluated
    point, the gradient over n is the dataset-mean profile score: the
    derivatives through the hazard and the posterior cancel there (the
    envelope identity behind :func:`survival.profiled_loglik`).
    """

    def __init__(self, packed: PackedData, gamma: np.ndarray, layout: ParamLayout):
        self.packed = packed
        self.gamma = gamma
        self.layout = layout
        n = packed.n
        self.wc = (gamma.T @ packed.counts.reshape(n, -1)).reshape(
            layout.R, packed.n_items, packed.n_levels)
        self.wm = gamma.T @ packed.cells

    def value_and_grad(self, theta: np.ndarray, a: np.ndarray, b: np.ndarray, phi: np.ndarray,
                       delta: SurvivalParams):
        """``(q, grad)`` at natural coordinates with the constrained entries included.

        ``grad`` is over the free coordinates in the ``ParamLayout.pack`` order.
        """
        lay = self.layout
        L = lay.L
        xs = b[None, :] + theta[:, None]
        eta, logz = _ordinal._linear_predictor(a, phi, b, theta)
        q = float((self.wc * eta).sum() - (self.wm * logz).sum())
        resid = self.wc - self.wm[:, :, None] * np.exp(eta - logz[:, :, None])
        resid_phi = resid @ phi
        grad = np.empty(lay.n_free)
        grad[lay.sl_a] = resid.sum(axis=(0, 1))[1:]
        grad[lay.sl_b] = resid_phi.sum(axis=0)[1:]
        grad[lay.sl_phi] = (xs[:, :, None] * resid).sum(axis=(0, 1))[1:L - 1]
        grad[lay.sl_theta] = resid_phi.sum(axis=1)[1:]

        q_surv, g_surv = _survival.profiled_loglik(self.packed, self.gamma, theta, delta)
        q += q_surv
        grad[lay.sl_theta] += g_surv[:lay.R - 1]
        grad[lay.idx_d0] = g_surv[lay.R - 1]
        grad[lay.idx_d1] = g_surv[lay.R]
        return q, grad
