"""Per-observation profile scores, empirical efficient information, and the
numeric checks behind the asymptotic claims (information identity, nuisance
orthogonality, profile/efficient score equivalence, contraction bound)."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import ordinal as _ordinal
from . import survival as _survival
from .data import PackedData
from .likelihood import _CollapsedQ, _gamma_of, _loglik_and_posterior, _posterior_matrix
from .params import ModelParams, ParamLayout
from .survival import HazardSteps, RiskSetTables

_SINGULAR_CONDITION = 1e10
# fixed-point stopping rule: no responsibility moves by this much, within this many steps
_FIXED_POINT_TOL = 1e-12
_FIXED_POINT_MAX_ITER = 500


class SingularInformationError(RuntimeError):
    """Information matrix is numerically singular; carries the null direction."""

    def __init__(self, message: str, null_direction: np.ndarray):
        super().__init__(message)
        self.null_direction = null_direction


@dataclass(frozen=True)
class InfoMatrix:
    """Empirical efficient information: average outer product of profile scores."""

    matrix: np.ndarray
    condition: float

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("information matrix must be square")
        if np.max(np.abs(m - m.T)) > 1e-10:
            raise ValueError("information matrix must be symmetric within 1e-10")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def _assemble_scores(packed: PackedData, params: ModelParams, gamma: np.ndarray,
                     surv_block: np.ndarray) -> np.ndarray:
    layout = ParamLayout(params.n_groups, params.n_levels, params.n_items)
    d_theta, d_a, d_b, d_phi = _ordinal.weighted_score_parts(
        packed, params.ordinal, params.theta, gamma)
    out = np.zeros((packed.n, layout.n_free))
    out[:, layout.sl_theta] = d_theta + surv_block[:, :layout.R - 1]
    out[:, layout.sl_a] = d_a
    out[:, layout.sl_b] = d_b
    out[:, layout.sl_phi] = d_phi
    out[:, layout.idx_d0] = surv_block[:, layout.R - 1]
    out[:, layout.idx_d1] = surv_block[:, layout.R]
    return out


def score_matrix(data, params: ModelParams, posterior, tables: RiskSetTables | None = None) -> np.ndarray:
    """Per-observation profile scores, one row per subject, in the documented layout.

    The survival block differentiates the profiled log-likelihood with the
    responsibilities held constant; the hazard is the one profiled at
    ``(posterior, params)``.
    """
    packed = PackedData.coerce(data, params.n_levels, params.n_items)
    gamma = _gamma_of(posterior)
    if tables is None:
        tables = RiskSetTables(packed, gamma, params.theta, params.survival)
    surv = _survival.profile_scores(packed, gamma, tables)
    return _assemble_scores(packed, params, gamma, surv)


def information_matrix(data, params: ModelParams, posterior,
                       tables: RiskSetTables | None = None) -> InfoMatrix:
    """Empirical efficient information: n^-1 sum of score outer products.

    Positive semidefinite by construction; singularity is reported through
    the condition number, never raised here.
    """
    return _info_from_scores(score_matrix(data, params, posterior, tables))


def _info_from_scores(scores: np.ndarray) -> InfoMatrix:
    """:class:`InfoMatrix` of per-subject scores, one row per subject."""
    m = scores.T @ scores / scores.shape[0]
    m = (m + m.T) / 2.0
    eigs = np.linalg.eigvalsh(m)                  # ascending
    condition = np.inf if eigs[0] <= 0 else float(eigs[-1] / eigs[0])
    return InfoMatrix(m, condition)


def standard_errors(info: InfoMatrix, n: int) -> np.ndarray:
    """Model-based standard errors sqrt(diag(I^-1) / n).

    Raises :class:`SingularInformationError` (listing the null-space
    direction) when the condition number is 1e10 or worse.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not np.isfinite(info.condition) or info.condition >= _SINGULAR_CONDITION:
        eigvals, eigvecs = np.linalg.eigh(info.matrix)
        direction = eigvecs[:, 0]
        raise SingularInformationError(
            f"information matrix is singular (condition {info.condition:.3g}); "
            f"null-space direction {np.array2string(direction, precision=4)}",
            direction)
    cov = np.linalg.inv(info.matrix)
    return np.sqrt(np.diag(cov) / n)


def pseudo_standard_errors(info: InfoMatrix, n: int) -> np.ndarray:
    """Pseudo-inverse fallback for rank-deficient information matrices."""
    cov = np.linalg.pinv(info.matrix, hermitian=True)
    return np.sqrt(np.maximum(np.diag(cov), 0.0) / n)


class _FixedPoint(NamedTuple):
    """One fixed-point solve: see :func:`_solve_fixed_point`."""

    gamma: np.ndarray
    hazard: tuple[np.ndarray, np.ndarray]
    loglik: float
    n_steps: int
    converged: bool


def _solve_fixed_point(packed: PackedData, params: ModelParams, gamma0: np.ndarray | None,
                       tol: float, max_iter: int) -> _FixedPoint:
    """Iterate responsibilities and the hazard profiled from them; builds no tables.

    Returns the last step's responsibilities, read-only, the hazard
    ``(jumps, cum)`` that step profiled, the observed log-likelihood at that
    hazard, the number of steps taken and whether the last one moved no
    responsibility by ``tol``.  The responsibilities are the posterior at the
    returned hazard, so the three describe one point exactly.

    The ordinal log-likelihoods, d_i lp_ir, log pi_r and exp(lp_ir) do not
    change while the parameters are fixed, so they are formed once; each
    step takes the risk-set sums and the cumulative hazard only.  The event
    term d_i log dLambda(T_i) is the same in every group and cancels from the
    responsibilities, so it is added to the log-likelihood once, at the end.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    theta, delta = params.theta, params.survival
    lp = _survival.linear_predictors(theta, delta, packed.covariates)
    e = np.exp(lp)
    fixed = (_ordinal.loglik_matrix(packed, params.ordinal, theta)
             + packed.events[:, None] * lp + np.log(params.pi)[None, :])
    ones = np.ones(theta.size)
    k = packed.time_index
    gamma = np.tile(params.pi, (packed.n, 1)) if gamma0 is None else np.array(gamma0, dtype=float)
    converged = False
    for n_steps in range(1, max_iter + 1):
        jumps, cum = _survival.breslow_steps(packed, packed.suffix_sums((gamma * e) @ ones))
        loglik, gamma_new = _loglik_and_posterior(packed, fixed - cum[k][:, None] * e)
        converged = float(np.max(np.abs(gamma_new - gamma))) < tol
        gamma = gamma_new
        if converged:
            break
    ev = packed.event_counts > 0
    loglik += float(packed.event_counts[ev] @ np.log(jumps[ev]))
    gamma.flags.writeable = False             # RiskSetTables can then share it
    return _FixedPoint(gamma, (jumps, cum), loglik, n_steps, converged)


def fixed_point_posterior(data, params: ModelParams, gamma0: np.ndarray | None = None,
                          tol: float = _FIXED_POINT_TOL, max_iter: int = _FIXED_POINT_MAX_ITER):
    """Solve the responsibility/profiled-hazard fixed point at fixed parameters.

    The profiled hazard depends on the responsibilities and vice versa;
    iterating the pair converges under the contraction condition checked by
    :func:`contraction_check`.  Iteration stops once no responsibility moves
    by ``tol`` or more, and warns after ``max_iter`` steps without that.
    Returns ``(gamma, tables)``: ``gamma`` is read-only, and the tables are
    built from it and share it rather than copy it.  The iteration itself is
    :func:`_solve_fixed_point`.
    """
    packed = PackedData.coerce(data, params.n_levels, params.n_items)
    solve = _solve_fixed_point(packed, params, gamma0, tol, max_iter)
    if not solve.converged:
        warnings.warn("responsibility fixed point did not converge", RuntimeWarning, stacklevel=2)
    return solve.gamma, RiskSetTables(packed, solve.gamma, params.theta, params.survival)


def _mean_score_at(packed: PackedData, params: ModelParams,
                   gamma0: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Mean profile score at ``params`` and the fixed-point responsibilities behind it.

    Solves the fixed point from ``gamma0`` (warning, for the public caller's
    caller, when it does not converge) and takes the gradient of Q/n there
    from :class:`likelihood._CollapsedQ`; no tables or score matrix are built.
    """
    solve = _solve_fixed_point(packed, params, gamma0, _FIXED_POINT_TOL, _FIXED_POINT_MAX_ITER)
    if not solve.converged:
        warnings.warn("responsibility fixed point did not converge", RuntimeWarning, stacklevel=3)
    layout = ParamLayout(params.n_groups, params.n_levels, params.n_items)
    _, grad = _CollapsedQ(packed, solve.gamma, layout).value_and_grad(
        params.theta, params.ordinal.a, params.ordinal.b, params.ordinal.phi, params.survival)
    return grad / packed.n, solve.gamma


def mean_profile_score(data, params: ModelParams, gamma0: np.ndarray | None = None) -> np.ndarray:
    """Dataset-mean profile score with hazard and responsibilities re-profiled.

    At the fixed-point responsibilities the mean of ``score_matrix`` equals the
    gradient of Q/n with the hazard profiled out (the envelope identity), so
    this solves the fixed point from ``gamma0`` and takes that gradient from
    the collapsed (R, J, L) ordinal tables and the survival risk-set sums,
    with no per-subject scores.  Warns when the fixed point does not converge.
    """
    packed = PackedData.coerce(data, params.n_levels, params.n_items)
    return _mean_score_at(packed, params, gamma0)[0]


@dataclass(frozen=True)
class IdentityCheck:
    """Finite-difference Jacobian of the mean score against the outer-product information."""

    fd_jacobian: np.ndarray
    outer_product: np.ndarray
    rel_frobenius_gap: float


def info_identity_check(data, params: ModelParams, step: float = 1e-3) -> IdentityCheck:
    """Compare -d(mean score)/d(theta^T) by central differences with the
    empirical outer-product information at the same point.

    The hazard and the responsibilities are re-profiled (to their fixed
    point) at every perturbed parameter point, and the mean score there is
    :func:`mean_profile_score`'s collapsed Q-gradient.  Each plus-side solve
    starts from the fixed point gamma* at ``params``; each minus-side solve
    starts from max(2 gamma* - gamma+, 0) with its rows renormalized, the
    plus side's solution reflected through gamma*, which is where the
    minus side's fixed point lies to first order in the step.  The
    outer-product information is ``information_matrix`` at gamma*.  The
    per-coordinate step is ``step * max(1, |coordinate|)``.  Warns when a
    fixed point does not converge.
    """
    if not 1e-5 <= step <= 1e-2:
        raise ValueError("step must lie in [1e-5, 1e-2]")
    packed = PackedData.coerce(data, params.n_levels, params.n_items)
    layout = ParamLayout(params.n_groups, params.n_levels, params.n_items)
    gamma_star, tables_star = fixed_point_posterior(packed, params)
    info = information_matrix(packed, params, gamma_star, tables_star)
    x0 = layout.pack(params)
    ones = np.ones(params.n_groups)

    def perturbed(c: int, shift: float) -> ModelParams:
        x = x0.copy()
        x[c] += shift
        try:
            return layout.unpack(x, params.pi)
        except ValueError as err:
            raise ValueError(f"cannot perturb coordinate {layout.names[c]}: {err}") from err

    jac = np.empty((layout.n_free, layout.n_free))
    for c in range(layout.n_free):
        h = step * max(1.0, abs(x0[c]))
        plus, gamma_plus = _mean_score_at(packed, perturbed(c, h), gamma_star)
        warm = np.maximum(2.0 * gamma_star - gamma_plus, 0.0)
        minus, _ = _mean_score_at(packed, perturbed(c, -h), warm / (warm @ ones)[:, None])
        col = -(plus - minus) / (2.0 * h)
        if not np.all(np.isfinite(col)):
            raise FloatingPointError(f"non-finite finite-difference column for {layout.names[c]}")
        jac[:, c] = col
    gap = float(np.linalg.norm(jac - info.matrix) / np.linalg.norm(info.matrix))
    return IdentityCheck(jac, info.matrix, gap)


@dataclass(frozen=True)
class StepDirection:
    """Piecewise-constant nuisance direction h on [0, inf).

    ``values[k]`` applies on the interval ``(breaks[k-1], breaks[k]]`` (with
    breaks[-1] = 0 and an unbounded last piece), so ``len(values) ==
    len(breaks) + 1``.
    """

    breaks: np.ndarray
    values: np.ndarray
    name: str = ""

    def __post_init__(self):
        breaks = np.atleast_1d(np.asarray(self.breaks, dtype=float))
        values = np.atleast_1d(np.asarray(self.values, dtype=float))
        if breaks.size and np.any(np.diff(breaks) <= 0):
            raise ValueError("breaks must be strictly increasing")
        if values.size != breaks.size + 1:
            raise ValueError("need exactly one value per interval (len(breaks) + 1)")
        if not np.all(np.isfinite(values)):
            raise ValueError("direction values must be finite and bounded")
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "values", values)

    def __call__(self, t):
        idx = np.searchsorted(self.breaks, t, side="left")
        return self.values[idx]

    def integral(self, upper, baseline) -> np.ndarray:
        """Exact integral of h dLambda over (0, upper], elementwise in ``upper``."""
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        edges = np.concatenate([[0.0], self.breaks])
        total = np.zeros_like(upper)
        for k, value in enumerate(self.values):
            lo = np.minimum(edges[k], upper)
            hi = upper if k + 1 == self.values.size else np.minimum(self.breaks[k], upper)
            total += value * (np.asarray(baseline.cum(hi)) - np.asarray(baseline.cum(lo)))
        return total


def constant_direction(value: float = 1.0) -> StepDirection:
    return StepDirection(np.empty(0), np.asarray([value]), name=f"constant {value:g}")


def indicator_direction(cutoff: float) -> StepDirection:
    return StepDirection(np.asarray([cutoff]), np.asarray([1.0, 0.0]), name=f"1[0, {cutoff:g}]")


def default_directions(data, quantiles=(0.1, 0.3, 0.5, 0.7, 0.9)) -> list[StepDirection]:
    """Constant direction plus indicators at event-time quantiles."""
    packed = PackedData.coerce(data)
    event_times = packed.times[packed.events > 0]
    if event_times.size == 0:
        raise ValueError("no events in the dataset")
    cuts = np.quantile(event_times, quantiles)
    return [constant_direction(1.0)] + [indicator_direction(float(c)) for c in cuts]


@dataclass(frozen=True)
class DirectionStat:
    """Mean of score * (Bh) with its Monte Carlo standard error, per coordinate."""

    name: str
    mean: np.ndarray
    std_error: np.ndarray
    max_abs_ratio: float


def true_posterior(data, params: ModelParams, baseline) -> np.ndarray:
    """Responsibilities under a known (continuous) baseline cumulative hazard.

    The baseline density lambda(T) is common to all groups and cancels from
    the ratio, so a unit jump at every data time stands in for it and only
    d * lp - Lambda(T) exp(lp) enters the survival part.
    """
    packed = PackedData.coerce(data, params.n_levels, params.n_items)
    steps = (np.ones(packed.n_times), np.asarray(baseline.cum(packed.distinct_times), dtype=float))
    return _posterior_matrix(packed, params, steps)


def orthogonality_check(data, params: ModelParams, directions, baseline) -> list[DirectionStat]:
    """Empirical covariance between the efficient score and nuisance directions.

    For each direction h, forms (Bh)_i = sum_r gamma_ir (d_i h(T_i) -
    exp(lp_ir) Int_0^{T_i} h dLambda) against the true baseline and reports
    the per-coordinate mean of score * Bh with its Monte Carlo standard
    error; the means should vanish at the true parameters.
    """
    packed = PackedData.coerce(data, params.n_levels, params.n_items)
    gamma = true_posterior(packed, params, baseline)
    tables = RiskSetTables(packed, gamma, params.theta, params.survival)
    surv = _survival.efficient_scores(packed, gamma, baseline, tables)
    scores = _assemble_scores(packed, params, gamma, surv)

    lp = _survival.linear_predictors(params.theta, params.survival, packed.covariates)
    total_e = (gamma * np.exp(lp)) @ np.ones(params.n_groups)
    stats = []
    for h in directions:
        bh = packed.events * h(packed.times) - total_e * h.integral(packed.times, baseline)
        prod = scores * bh[:, None]
        mean = prod.mean(axis=0)
        se = prod.std(axis=0, ddof=1) / np.sqrt(packed.n)
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(se > 0, np.abs(mean) / se, np.where(mean == 0, 0.0, np.inf))
        stats.append(DirectionStat(h.name, mean, se, float(ratio.max())))
    return stats


def efficient_score_equivalence(data, params: ModelParams, posterior) -> float:
    """Max per-subject relative gap between the profile and efficient survival scores.

    Both are evaluated at the same responsibilities with the efficient score
    integrating against the hazard profiled from those responsibilities;
    equality is an identity of the model, so the gap should be round-off.
    """
    packed = PackedData.coerce(data, params.n_levels, params.n_items)
    gamma = _gamma_of(posterior)
    tables = RiskSetTables(packed, gamma, params.theta, params.survival)
    profile = _survival.profile_scores(packed, gamma, tables)
    efficient = _survival.efficient_scores(packed, gamma, tables.hazard_steps(), tables)
    scale = np.maximum(1.0, np.maximum(np.abs(profile).max(axis=1), np.abs(efficient).max(axis=1)))
    return float((np.abs(profile - efficient).max(axis=1) / scale).max())


@dataclass(frozen=True)
class ContractionCheck:
    """Differentiability condition for the profiled hazard map."""

    max_lhs: float
    bound: float
    satisfied: bool


def contraction_check(data, params: ModelParams, hazard: HazardSteps) -> ContractionCheck:
    """Check the contraction condition that makes the profiled hazard differentiable.

    Compares max over subjects and groups of |posterior-mean exp(lp) -
    exp(lp_r)| against 1 / Lambda(t_max).
    """
    packed = PackedData.coerce(data, params.n_levels, params.n_items)
    t_max = float(packed.times.max())
    mass = float(hazard.cum(t_max))
    if mass <= 0:
        raise ValueError("total hazard mass on (0, t_max] is zero; bound undefined")
    gamma = _posterior_matrix(packed, params, hazard)
    e = np.exp(_survival.linear_predictors(params.theta, params.survival, packed.covariates))
    avg = (gamma * e) @ np.ones(params.n_groups)
    max_lhs = float(np.max(np.abs(avg[:, None] - e)))
    bound = 1.0 / mass
    return ContractionCheck(max_lhs, bound, max_lhs < bound)
