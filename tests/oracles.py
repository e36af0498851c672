"""Per-record and brute-force reference implementations for the tests.

The package computes every quantity once, on the packed dataset: the
profiled hazard, the (n, R) log-likelihood matrices, the per-subject scores
and the observed log-likelihood.  The functions here compute the same
quantities the slow, direct way, one subject or one time at a time, so the
tests can check the packed kernels against an independent evaluation.  No
package code path calls them.

``response_counts`` tabulates one subject's cells, the reference for the
packed count tensor.  ``category_probs`` is the per-point reference for the
ordinal table kernel: one item's level probabilities at one group effect,
normalized by its own maximum rather than by ``ordinal._linear_predictor``'s
log-normalizer.
"""

from __future__ import annotations

import numpy as np

from jointmix.data import DataError, PackedData, ResponseSet, SubjectRecord, SurvivalRecord
from jointmix.likelihood import (DegenerateSubjectError, _gamma_of, _observed_loglik,
                                 _posterior_parts)
from jointmix.ordinal import OrdinalParams, _linear_predictor
from jointmix.ordinal import loglik_matrix as ordinal_matrix
from jointmix.params import ModelParams, ParamLayout
from jointmix.survival import (EmptyRiskSetError, HazardSteps, RiskSetTables, SurvivalParams,
                               linear_predictors)
from jointmix.survival import loglik_matrix as survival_matrix


# ------------------------------------------------------------ survival

class InvalidHazardError(ValueError):
    """An event time carries no positive jump of the step hazard given to an oracle."""


def cum_hazard(hazard: HazardSteps, t) -> float:
    """Evaluate the cumulative hazard step function at ``t``."""
    if np.any(np.asarray(t) < 0):
        raise ValueError("t must be nonnegative")
    return hazard.cum(t)


def risk_set_tables(data, gamma: np.ndarray, theta: np.ndarray, delta: SurvivalParams,
                    n_levels: int | None = None, n_items: int | None = None) -> RiskSetTables:
    """Build the per-parameter-point aggregate tables for a dataset."""
    return RiskSetTables(PackedData.coerce(data, n_levels, n_items), gamma, np.asarray(theta, float), delta)


def time_slot(tables: RiskSetTables, t: float) -> int:
    """Index of an observed time in the tables; errors for foreign times."""
    k = int(np.searchsorted(tables.times, t))
    if k >= tables.times.size or tables.times[k] != t:
        raise ValueError(f"time {t!r} is not an observed time of the dataset behind these tables")
    return k


def matches(tables: RiskSetTables, theta: np.ndarray, delta: SurvivalParams) -> bool:
    """True when the tables were built at ``(theta, delta)``."""
    return (tables.theta.size == np.asarray(theta).size
            and np.array_equal(tables.theta, theta)
            and tables.delta == delta)


def risk_aggregates(t: float, data, gamma: np.ndarray, theta: np.ndarray,
                    delta: SurvivalParams):
    """Empirical (M0, M1) at time ``t`` in the paper's condensed 3-vector form.

    M0(t) = n^-1 sum_i 1{T_i >= t} sum_r gamma_ir exp(theta_r d0 + X_i d1),
    and M1 weights the same sum by (delta0, theta_r, X_i).
    """
    packed = PackedData.coerce(data)
    gamma = np.asarray(gamma, dtype=float)
    theta = np.asarray(theta, dtype=float)
    at_risk = packed.times >= t
    if not np.any(at_risk):
        raise EmptyRiskSetError(f"no subject at risk at t={t!r}")
    lp = linear_predictors(theta, delta, packed.covariates)
    w = gamma * np.exp(lp)
    w[~at_risk] = 0.0
    m0 = w.sum() / packed.n
    m1 = np.array([
        delta.delta0 * w.sum() / packed.n,
        (w @ theta).sum() / packed.n,
        (w.sum(axis=1) * packed.covariates).sum() / packed.n,
    ])
    return m0, m1


def profile_hazard(data, gamma: np.ndarray, theta: np.ndarray, delta: SurvivalParams) -> HazardSteps:
    """Profiled baseline hazard: event counts over weighted risk-set totals.

    Ties share a single jump whose numerator is the number of events at that
    time; censored-only times carry explicit zero jumps.
    """
    return risk_set_tables(data, gamma, theta, delta).hazard_steps()


def survival_loglik(rec: SurvivalRecord, group_effect: float, hazard: HazardSteps,
                    delta: SurvivalParams) -> float:
    """Discrete-hazard survival log-likelihood of one subject in one group.

    d (log lambda(T) + theta_r d0 + X d1) - Lambda(T) exp(theta_r d0 + X d1).
    """
    lp = group_effect * delta.delta0 + rec.covariate * delta.delta1
    value = -hazard.cum(rec.time) * np.exp(lp)
    if rec.event:
        k = np.searchsorted(hazard.times, rec.time)
        if k >= hazard.times.size or hazard.times[k] != rec.time or hazard.jumps[k] <= 0:
            raise InvalidHazardError(f"event at t={rec.time!r} has no positive hazard jump")
        value += np.log(hazard.jumps[k]) + lp
    return float(value)


def _record_sums(rec: SurvivalRecord, gamma_row: np.ndarray, theta: np.ndarray,
                 delta: SurvivalParams):
    """One subject's ``(gv, gev, total)``, the group sums of :func:`survival._scores`.

    gv = sum_r gamma_r v_r and gev = sum_r gamma_r exp(lp_r) v_r in the layout
    [theta[2..R], delta0, delta1], with v_r = (delta0 e_r, theta_r, X), and
    total = sum_r gamma_r exp(lp_r).  The score oracles below take Lambda(T)
    and Int_0^T (M1/M0) dLambda from ``jumps[:k+1]`` and ``ratio[:k+1]``.
    """
    gamma_row = np.asarray(gamma_row, dtype=float)
    theta = np.asarray(theta, dtype=float)
    ge = gamma_row * np.exp(theta * delta.delta0 + rec.covariate * delta.delta1)
    total = ge.sum()
    gv = np.concatenate([delta.delta0 * gamma_row[1:], [gamma_row @ theta, rec.covariate]])
    gev = np.concatenate([delta.delta0 * ge[1:], [ge @ theta, rec.covariate * total]])
    return gv, gev, total


def survival_profile_score(rec: SurvivalRecord, gamma_row: np.ndarray, tables: RiskSetTables,
                           theta: np.ndarray, delta: SurvivalParams) -> np.ndarray:
    """Profile score of one subject; layout as in :func:`survival.profile_scores`."""
    if not matches(tables, theta, delta):
        raise ValueError("aggregate tables were built at a different parameter point")
    k = time_slot(tables, rec.time)
    gv, gev, total = _record_sums(rec, gamma_row, theta, delta)
    jumps, ratio = tables.jumps[:k + 1], tables.ratio[:k + 1]
    return float(rec.event) * (gv - ratio[k]) - gev * jumps.sum() + total * (jumps @ ratio)


def efficient_score_survival(rec: SurvivalRecord, gamma_row: np.ndarray, baseline,
                             theta: np.ndarray, delta: SurvivalParams,
                             tables: RiskSetTables) -> np.ndarray:
    """Efficient score of one subject; layout as in :func:`survival.profile_scores`."""
    if not matches(tables, theta, delta):
        raise ValueError("aggregate tables were built at a different parameter point")
    k = time_slot(tables, rec.time)
    gv, gev, total = _record_sums(rec, gamma_row, theta, delta)
    cum_at = np.asarray(baseline.cum(tables.times[:k + 1]), dtype=float)
    integral = np.diff(cum_at, prepend=0.0) @ tables.ratio[:k + 1]
    return float(rec.event) * (gv - tables.ratio[k]) - (gev * cum_at[k] - total * integral)


# ------------------------------------------------------------ ordinal

def response_counts(responses: ResponseSet, n_items: int, n_levels: int) -> np.ndarray:
    """One subject's observed cells tabulated into an ``(n_items, n_levels)`` count matrix.

    The per-record reference for ``PackedData.counts``, with its bound errors.
    """
    if responses.items.size and responses.items.max() > n_items:
        raise DataError(f"item index {int(responses.items.max())} exceeds n_items={n_items}")
    if responses.levels.size and responses.levels.max() > n_levels:
        raise DataError(f"level {int(responses.levels.max())} exceeds n_levels={n_levels}")
    out = np.zeros((n_items, n_levels))
    np.add.at(out, (responses.items - 1, responses.levels - 1), 1.0)
    return out


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


def ordinal_loglik(responses: ResponseSet, group_effect: float, params: OrdinalParams) -> float:
    """Log-likelihood of one subject's responses for a single group effect.

    Missing cells are simply absent from ``responses`` and contribute
    nothing; an empty response set gives 0.
    """
    if responses.n_cells == 0:
        return 0.0
    counts = response_counts(responses, params.n_items, params.n_levels)
    eta, logz = _linear_predictor(params.a, params.phi, params.b, np.asarray([group_effect]))
    return float(np.sum(counts * eta[0]) - counts.sum(axis=1) @ logz[0])


def ordinal_score(responses: ResponseSet, group_effect: float, params: OrdinalParams) -> np.ndarray:
    """Gradient of :func:`ordinal_loglik` over the free coordinates.

    Layout: ``[a[2..L], b[2..J], phi[2..L-1], group_effect]`` (constrained
    coordinates are excluded).
    """
    L, J = params.n_levels, params.n_items
    counts = response_counts(responses, J, L)
    eta, logz = _linear_predictor(params.a, params.phi, params.b, np.asarray([group_effect]))
    probs = np.exp(eta[0] - logz[0][:, None])
    resid = counts - counts.sum(axis=1, keepdims=True) * probs
    x = params.b + group_effect
    d_a = resid.sum(axis=0)[1:]
    d_b = (resid @ params.phi)[1:]
    d_phi = (x[:, None] * resid).sum(axis=0)[1:L - 1]
    d_theta = params.phi @ resid.sum(axis=0)
    return np.concatenate([d_a, d_b, d_phi, [d_theta]])


# ------------------------------------------------------------ joint model

def profile_score_obs(subject: SubjectRecord, params: ModelParams, posterior_row: np.ndarray,
                      tables: RiskSetTables) -> np.ndarray:
    """Profile score of a single subject: ordinal and survival blocks stacked."""
    layout = ParamLayout(params.n_groups, params.n_levels, params.n_items)
    gamma_row = np.asarray(posterior_row, dtype=float)
    out = np.zeros(layout.n_free)
    n_ab = (layout.L - 1) + (layout.J - 1)
    for r in range(layout.R):
        s = ordinal_score(subject.responses, float(params.theta[r]), params.ordinal)
        out[layout.sl_a] += gamma_row[r] * s[:layout.L - 1]
        out[layout.sl_b] += gamma_row[r] * s[layout.L - 1:n_ab]
        out[layout.sl_phi] += gamma_row[r] * s[n_ab:n_ab + layout.L - 2]
        if r >= 1:
            out[layout.sl_theta][r - 1] = gamma_row[r] * s[-1]
    surv = survival_profile_score(subject.survival, gamma_row, tables,
                                  params.theta, params.survival)
    out[layout.sl_theta] += surv[:layout.R - 1]
    out[layout.idx_d0] += surv[layout.R - 1]
    out[layout.idx_d1] += surv[layout.R]
    return out


def m_step_pi(posterior) -> np.ndarray:
    """Mixture-weight update: column means of the responsibilities."""
    return _gamma_of(posterior).mean(axis=0)


def mixture_loglik(packed: PackedData, params: ModelParams, hazard) -> np.ndarray:
    """(n, R) matrix log pi_r + log P(Y_i | r) + log P(T_i, d_i | r), the event
    log-jump included.

    The ordinal block is the packed kernel's.  The survival block is
    ``survival.loglik_matrix`` at a :class:`RiskSetTables`, the one hazard it
    takes, and :func:`survival_loglik` record by record at a
    :class:`HazardSteps`, which raises :class:`InvalidHazardError` for an
    event at a zero jump.
    """
    if isinstance(hazard, RiskSetTables):
        surv = survival_matrix(packed, hazard, params.theta, params.survival)
    else:
        surv = np.array([[survival_loglik(SurvivalRecord(t, d, x), r, hazard, params.survival)
                          for r in params.theta]
                         for t, d, x in zip(packed.times, packed.events, packed.covariates)])
    return (ordinal_matrix(packed, params.ordinal, params.theta) + surv
            + np.log(params.pi)[None, :])


def observed_loglik(data, params: ModelParams, hazard) -> float:
    """Observed-data mixture log-likelihood at a given baseline hazard."""
    packed = PackedData.coerce(data, params.n_levels, params.n_items)
    try:
        rowmax, total, _ = _posterior_parts(packed, mixture_loglik(packed, params, hazard))
    except DegenerateSubjectError as err:
        raise FloatingPointError("observed log-likelihood is not finite") from err
    return _observed_loglik(rowmax, total)
