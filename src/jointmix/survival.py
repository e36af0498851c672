"""Cox proportional-hazards component with a profiled discrete baseline.

The baseline hazard is a nonparametric step function with jumps at the
distinct observed times.  Profiling it out of the expected complete-data
log-likelihood gives Breslow-type jumps: the number of events at a time
divided by the posterior-weighted risk-set total.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .data import PackedData, _readonly

# exp() inputs are clipped here; |linear predictor| beyond this is far outside
# any usable parameter region and would otherwise overflow risk-set sums
_LP_BOUND = 300.0


class EmptyRiskSetError(ValueError):
    """No subject is at risk at a requested time."""


class InvalidHazardError(ValueError):
    """An event time carries no positive hazard jump."""


@dataclass(frozen=True)
class SurvivalParams:
    """Coefficients of the proportional-hazards linear predictor."""

    delta0: float
    delta1: float

    def __post_init__(self):
        if not (np.isfinite(self.delta0) and np.isfinite(self.delta1)):
            raise ValueError("delta coefficients must be finite")


@dataclass(frozen=True)
class HazardSteps:
    """Baseline hazard as jump sizes at strictly increasing event times.

    Censored-only time points are retained with explicit zero jumps.  The
    cumulative hazard is the right-continuous partial sum, zero at t=0.
    """

    times: np.ndarray
    jumps: np.ndarray

    def __post_init__(self):
        times = _readonly(self.times, float)
        jumps = _readonly(self.jumps, float)
        if times.ndim != 1 or times.shape != jumps.shape:
            raise ValueError("times and jumps must be 1-d arrays of equal length")
        if times.size and (times[0] <= 0 or np.any(np.diff(times) <= 0)):
            raise ValueError("times must be strictly increasing and positive")
        if np.any(jumps < 0) or not np.all(np.isfinite(jumps)):
            raise ValueError("jumps must be nonnegative and finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "jumps", jumps)

    @functools.cached_property
    def _prefix(self) -> np.ndarray:
        prefix = np.concatenate([[0.0], np.cumsum(self.jumps)])
        prefix.flags.writeable = False
        return prefix

    def cum(self, t):
        """Cumulative hazard at ``t`` (scalar or array), right-continuous."""
        idx = np.searchsorted(self.times, t, side="right")
        return self._prefix[idx]

    @property
    def total(self) -> float:
        return float(self._prefix[-1])


def linear_predictors(theta: np.ndarray, delta: SurvivalParams, covariates: np.ndarray) -> np.ndarray:
    """Matrix lp[i, r] = theta[r] * delta0 + X[i] * delta1."""
    return np.clip(theta[None, :] * delta.delta0 + covariates[:, None] * delta.delta1,
                   -_LP_BOUND, _LP_BOUND)


def breslow_steps(packed: PackedData, s0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Profiled hazard ``(jumps, cum)`` on the packed distinct-time grid.

    ``s0[k]`` is the weighted risk-set total at ``distinct_times[k]``; the
    jump there is the event count over it, zero at censored-only times.
    """
    events = packed.event_counts
    if np.any((events > 0) & (s0 <= 0)):
        raise EmptyRiskSetError("zero weighted risk set at an event time")
    jumps = np.where(events > 0, events / np.where(s0 > 0, s0, 1.0), 0.0)
    return jumps, np.cumsum(jumps)


class RiskSetTables:
    """Dataset-wide aggregates for one parameter point, shared read-only.

    Holds the profiled hazard and the empirical M0/M1 tables the score
    functions need, indexed by the packed dataset's distinct observed times.

    ``gamma`` is kept read-only: an owning read-only float array, such as
    the responsibilities :func:`inference.fixed_point_posterior` returns, is
    shared; anything else is copied, so later writes to the caller's array
    cannot reach the tables.  Only ``jumps`` is computed at construction, from
    the risk-set sums of the rows' weight totals.  ``m0_group`` (M0 per
    group), ``m0_x`` (M0 weighted by X), ``cum_jumps``, ``m0``, ``ratio`` and
    ``int_ratio`` are derived on first read and then kept, so tables that
    serve only the hazard hold gamma and the jumps alone.

    ``ratio[k]`` is M1/M0 at the k-th time in the score layout
    [theta[2..R], delta0, delta1]: delta0 M0_r / M0 for r = 2..R, then
    sum_r theta_r M0_r / M0, then M0_x / M0.  ``int_ratio[k]`` is the
    integral of ``ratio`` against the profiled hazard up to that time.
    """

    def __init__(self, packed: PackedData, gamma: np.ndarray, theta: np.ndarray,
                 delta: SurvivalParams):
        gamma = _readonly(gamma, float)
        theta = _readonly(theta, float)
        if gamma.shape != (packed.n, theta.size):
            raise ValueError(f"gamma must have shape ({packed.n}, {theta.size})")
        self.gamma = gamma
        self.theta = theta
        self.delta = delta
        self.times = packed.distinct_times
        self._packed = packed
        ones = np.ones(theta.size)                # row sums as BLAS products
        self.jumps, _ = breslow_steps(packed, packed.suffix_sums(self._weights() @ ones))
        self.jumps.flags.writeable = False

    def _weights(self) -> np.ndarray:
        """gamma_ir exp(lp_ir), formed again on each call so no (n, R) array is kept."""
        return self.gamma * np.exp(linear_predictors(self.theta, self.delta, self._packed.covariates))

    @functools.cached_property
    def m0_group(self) -> np.ndarray:
        return self._packed.suffix_sums(self._weights()) / self._packed.n

    @functools.cached_property
    def m0_x(self) -> np.ndarray:
        packed = self._packed
        total = self._weights() @ np.ones(self.theta.size)
        return packed.suffix_sums(total * packed.covariates) / packed.n

    @functools.cached_property
    def cum_jumps(self) -> np.ndarray:
        return np.cumsum(self.jumps)

    @functools.cached_property
    def m0(self) -> np.ndarray:
        return self.m0_group @ np.ones(self.theta.size)

    @functools.cached_property
    def ratio(self) -> np.ndarray:
        safe_m0 = np.where(self.m0 > 0, self.m0, 1.0)
        m1 = np.column_stack([self.delta.delta0 * self.m0_group[:, 1:],
                              self.m0_group @ self.theta, self.m0_x])
        return m1 / safe_m0[:, None]              # (K, R+1)

    @functools.cached_property
    def int_ratio(self) -> np.ndarray:
        return np.cumsum(self.jumps[:, None] * self.ratio, axis=0)

    def hazard_steps(self) -> HazardSteps:
        return HazardSteps(self.times, self.jumps)


def _grid_steps(packed: PackedData, hazard) -> tuple[np.ndarray, np.ndarray]:
    """``(jumps, cum)`` on the packed distinct-time grid for any hazard form.

    A :class:`HazardSteps` contributes a zero jump at every data time where
    it has none; its cumulative hazard is read at the data times.
    """
    if isinstance(hazard, RiskSetTables):
        return hazard.jumps, hazard.cum_jumps
    if not isinstance(hazard, HazardSteps):
        return hazard
    times = packed.distinct_times
    jumps = np.zeros(times.size)
    if hazard.times.size:
        idx = np.minimum(np.searchsorted(hazard.times, times), hazard.times.size - 1)
        hit = hazard.times[idx] == times
        jumps[hit] = hazard.jumps[idx[hit]]
    return jumps, hazard.cum(times)


def loglik_matrix(packed: PackedData, tables, theta: np.ndarray,
                  delta: SurvivalParams) -> np.ndarray:
    """Per-subject, per-group survival log-likelihoods as an (n, R) matrix.

    ``tables`` is a :class:`RiskSetTables`, a :class:`HazardSteps` or a
    ``(jumps, cum)`` pair on the packed distinct-time grid.
    """
    jumps, cum = _grid_steps(packed, tables)
    lp = linear_predictors(theta, delta, packed.covariates)
    log_jump = np.zeros(packed.n)
    ev = packed.events > 0
    jumps_at = jumps[packed.time_index[ev]]
    if np.any(jumps_at <= 0):
        bad = np.flatnonzero(ev)[jumps_at <= 0][0]
        raise InvalidHazardError(
            f"subject {packed.subject_ids[bad]!r} has an event at a zero-jump time")
    log_jump[ev] = np.log(jumps_at)
    return ((packed.events * log_jump)[:, None] + packed.events[:, None] * lp
            - cum[packed.time_index][:, None] * np.exp(lp))


def profiled_loglik(packed: PackedData, gamma: np.ndarray, theta: np.ndarray,
                    delta: SurvivalParams):
    """Summed profiled survival objective with its gradient over [theta free, d0, d1].

    Returns ``(value, grad)``: value is sum_ir gamma_ir log P(T_i, d_i | r) at
    the hazard profiled from ``gamma``.  At the profiling maximizer the
    partial derivatives through the hazard jumps cancel in the dataset sum,
    so only the direct terms sum_ir gamma_ir v_r (d_i - exp(lp_ir) Lambda(T_i))
    remain.
    """
    lp = linear_predictors(theta, delta, packed.covariates)
    w = gamma * np.exp(lp)
    # row sums and column reductions as BLAS products: numpy's axis sums over a
    # narrow (n, R) array run about 10x slower, and this is the M-step's hot path
    jumps, cum = breslow_steps(packed, packed.suffix_sums(w @ np.ones(theta.size)))
    cum_at = cum[packed.time_index]
    d, x = packed.events, packed.covariates
    ev = packed.event_counts > 0
    # sum_i gamma_ir d_i - exp(lp_ir) Lambda(T_i) per group, plain and X-weighted
    w_cum = w.T @ cum_at
    core = gamma.T @ d - w_cum
    core_x = gamma.T @ (d * x) - w.T @ (cum_at * x)
    value = float(packed.event_counts[ev] @ np.log(jumps[ev]) + (d @ (gamma * lp)).sum()
                  - w_cum.sum())
    grad = np.concatenate([delta.delta0 * core[1:], [theta @ core, core_x.sum()]])
    return value, grad


def _group_sums(packed: PackedData, gamma: np.ndarray, tables: RiskSetTables):
    """Per-subject ``(gv, gev, total)`` for the survival score kernels.

    gv = sum_r gamma_r v_r and gev = sum_r gamma_r exp(lp_r) v_r in the layout
    [theta[2..R], delta0, delta1], with v_r = (delta0 e_r, theta_r, X), and
    total = sum_r gamma_r exp(lp_r).  The delta1 column of gv is X itself.
    """
    theta, delta, x = tables.theta, tables.delta, packed.covariates
    ge = gamma * np.exp(linear_predictors(theta, delta, x))
    total = ge @ np.ones(theta.size)
    gv = np.column_stack([delta.delta0 * gamma[:, 1:], gamma @ theta, x])
    gev = np.column_stack([delta.delta0 * ge[:, 1:], ge @ theta, x * total])
    return gv, gev, total


def profile_scores(packed: PackedData, gamma: np.ndarray, tables: RiskSetTables) -> np.ndarray:
    """Per-subject survival profile scores over [theta[2..R], delta0, delta1].

    d [gv - M1/M0(T)] - gev Lambda-hat(T) + total Int_0^T (M1/M0) dLambda-hat
    (gv, gev and total as in :func:`_group_sums`): the derivative of the
    per-observation profiled log-likelihood with the posterior held constant.
    The event term differentiates log lambda-hat(T) through -M1/M0, and the
    exp term differentiates Lambda-hat through ``tables.int_ratio``.
    """
    gv, gev, total = _group_sums(packed, gamma, tables)
    k = packed.time_index
    return (packed.events[:, None] * (gv - tables.ratio[k])
            - gev * tables.cum_jumps[k][:, None] + total[:, None] * tables.int_ratio[k])


def _step_integrals(tables: RiskSetTables, baseline) -> tuple[np.ndarray, np.ndarray]:
    """Lambda mass of ``baseline`` on the intervals between observed times.

    Returns (mass, cum_at_times); mass[k] is Lambda((t_{k-1}, t_k]), exact for
    any cumulative hazard because M1/M0 is constant on those intervals.
    """
    cum_at = np.asarray(baseline.cum(tables.times), dtype=float)
    mass = np.diff(cum_at, prepend=0.0)
    return mass, cum_at


def efficient_scores(packed: PackedData, gamma: np.ndarray, baseline, tables: RiskSetTables) -> np.ndarray:
    """Closed-form efficient survival scores against a supplied cumulative hazard.

    sum_r gamma_r d [v_r - M1(T)/M0(T)]
        - sum_r gamma_r exp(lp_r) Int_0^T [v_r - M1(u)/M0(u)] dLambda(u),
    with v_r = (delta0 e_r-slot, theta_r, X) in the [theta[2..R], delta0,
    delta1] layout, written as d [gv - M1/M0(T)] - (gev Lambda(T) - total
    Int_0^T (M1/M0) dLambda) with gv, gev and total from :func:`_group_sums`.
    ``baseline`` may be a :class:`HazardSteps` or any object with a
    ``cum(t)`` method; the integral is an exact finite sum.
    """
    gv, gev, total = _group_sums(packed, gamma, tables)
    k = packed.time_index
    mass, cum_at = _step_integrals(tables, baseline)
    integral = np.cumsum(mass[:, None] * tables.ratio, axis=0)[k]
    return (packed.events[:, None] * (gv - tables.ratio[k])
            - (gev * cum_at[k][:, None] - total[:, None] * integral))
