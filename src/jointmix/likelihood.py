"""Mixture likelihood core shared by the EM loop and the inference layer.

Builds the (n, R) matrix log pi_r + log P(Y_i | r) + log P(T_i, d_i | r) and
the responsibilities it implies.  The hazard may take any form that
:func:`survival.loglik_matrix` accepts.
"""

from __future__ import annotations

import functools

import numpy as np

from . import ordinal as _ordinal
from . import survival as _survival
from .data import PackedData
from .params import ModelParams


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
