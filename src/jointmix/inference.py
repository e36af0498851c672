"""Per-observation profile scores, empirical efficient information, and the
numeric checks behind the asymptotic claims (information identity, nuisance
orthogonality, contraction bound, and the efficient survival score against a
central difference of the per-subject profiled log-likelihood).

What each verdict of ``jointmix check`` measures at the true parameters:

- :func:`contraction_check` tests a sufficient bound for the profiled hazard
  map.  It fails by a factor of 7 to 25 on every dataset measured (7.665
  against 0.3092 on the ``check_wide`` benchmark data), while the map does
  contract: its ratio of successive responsibility moves settles at
  0.08-0.09 within three steps.
- :func:`orthogonality_check` multiplies the analytic per-subject scores of
  :func:`_assemble_scores`, whose rows hold the posterior fixed and have no pi
  column.  So its max ratio grows with n, against a bound of 3: 5.5 at
  n = 2 000, 12.9 at n = 10 000 and 14.79 on ``check_wide``.  Per-subject
  numerical profile scores, with pi free, stay below 2 on the same data.
- :func:`info_identity_check` holds pi fixed.
- :func:`efficient_score_equivalence` tests the analytic survival score
  against a central difference, to 1e-8.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import ordinal as _ordinal
from . import survival as _survival
from .data import DataError, PackedData
from .likelihood import (_CollapsedQ, _fixed_terms, _gamma_of, _observed_loglik,
                         _posterior_matrix, _posterior_parts)
from .params import ModelParams, ParamLayout
from .survival import RiskSetTables, SurvivalParams

_SINGULAR_CONDITION = 1e10
# fixed-point stopping rule: no responsibility moves by this much, within this many steps
_FIXED_POINT_TOL = 1e-12
_FIXED_POINT_MAX_ITER = 500
# relative step of efficient_score_equivalence; 1e-4 and 1e-6 give 3e-8 and 9e-9 gaps
_EQUIVALENCE_STEP = 1e-5
# relative step of info_identity_check; the standard errors from its Jacobian
# agree to four digits for steps from 1e-5 to 1e-2
_IDENTITY_STEP = 1e-3
# event-time quantiles of default_directions' indicator cutoffs
_DIRECTION_QUANTILES = (0.1, 0.3, 0.5, 0.7, 0.9)


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
    loglik: float
    n_steps: int
    converged: bool


def _solve_fixed_point(packed: PackedData, params: ModelParams, gamma0: np.ndarray | None,
                       max_iter: int = _FIXED_POINT_MAX_ITER,
                       tol: float = _FIXED_POINT_TOL) -> _FixedPoint:
    """Iterate responsibilities and the hazard profiled from them; builds no tables.

    Returns the last step's responsibilities, read-only, the observed
    log-likelihood at the hazard that step profiled, the number of steps
    taken and whether the last one moved no responsibility by ``tol``.  The
    responsibilities are the posterior at that hazard, so the two describe
    one point exactly.

    ``tol`` is ``_FIXED_POINT_TOL`` (1e-12) for every solve whose point is
    reported: the checks, the standard errors and each restart's exit.  Only
    the evaluations of the profile-likelihood ascent solve to
    ``em._ASCENT_FIXED_POINT_TOL`` (1e-9): the fixed point is stationary in
    the hazard, so an error eps in the responsibilities moves the observed
    log-likelihood by O(eps^2) and the envelope gradient of
    :func:`_profile_point` by O(eps), far below what the ascent's stopping
    rule resolves.  A ``max_iter`` below 1 or a ``tol`` that is not positive
    and finite raises ``ValueError``.

    The ordinal log-likelihoods, d_i lp_ir, log pi_r and exp(lp_ir) do not
    change while the parameters are fixed, so they are formed once, by
    :func:`likelihood._fixed_terms`.  Each step is the E-step of
    :func:`likelihood._posterior_matrix` at the hazard profiled from the
    previous responsibilities, and takes the risk-set totals at the event
    times and the cumulative hazard at each subject only, from
    :func:`survival.breslow_steps` and the event-time constants
    :class:`~jointmix.data.PackedData` holds.  No step
    takes a logarithm: the observed log-likelihood is formed once, after the
    last step, from that step's row maxima and row totals.  The event term
    d_i log dLambda(T_i) is the same in every group and cancels from the
    responsibilities, so it is added then too, as sum_k d_k log dLambda(t_k)
    over the event times.

    Every (n, R) array here is column-major, as the linear predictors and
    the ordinal log-likelihoods are, so numpy's elementwise loops run down a
    group's column of n subjects rather than along rows of R = 2 or 3; at
    n = 10 000 a broadcast such as ``cum_at[:, None] * e`` takes 30% (R = 2)
    to 40% (R = 3) of its row-major time (median timeit, one BLAS thread,
    2-core Intel Xeon).  A step forms the components, the exponentials and
    the responsibility move in place, so it leaves fewer freed (n, R) arrays
    between the ones its callers keep: a loop that keeps 135 results of the
    benchmark's ``check_wide`` pipeline peaked at 97.1 MB RSS this way,
    against 102.4 MB with a new array for each operation.  ``gamma0`` (the
    prior weights when None) is copied into that order, so the caller's
    array is never aliased or written.  The returned responsibilities are a
    new array that owns its data, column-major and read-only: they and the
    log-likelihood describe one point, and a write to them would silently
    break that while a fit keeps them as its warm start.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    fixed, e = _fixed_terms(packed, params)
    ones = np.ones(params.n_groups)
    gamma = (np.tile(params.pi[:, None], packed.n).T if gamma0 is None
             else np.array(gamma0, dtype=float, order="F"))
    converged = False
    for n_steps in range(1, max_iter + 1):
        jumps, cum_at = _survival.breslow_steps(packed, (gamma * e) @ ones)
        comp = cum_at[:, None] * e
        np.subtract(fixed, comp, out=comp)
        rowmax, total, gamma_new = _posterior_parts(packed, comp)
        move = gamma_new - gamma
        converged = np.abs(move, out=move).max() < tol
        gamma = gamma_new
        if converged:
            break
    loglik = _observed_loglik(rowmax, total) + float(packed.slot_counts @ np.log(jumps))
    gamma.flags.writeable = False             # it stays the posterior at the returned point
    return _FixedPoint(gamma, loglik, n_steps, converged)


def fixed_point_posterior(data, params: ModelParams, gamma0: np.ndarray | None = None):
    """Solve the responsibility/profiled-hazard fixed point at fixed parameters.

    The profiled hazard depends on the responsibilities and vice versa;
    iterating the pair converges under the contraction condition checked by
    :func:`contraction_check`.  Iteration stops once no responsibility moves
    by 1e-12 or more, and warns after ``_FIXED_POINT_MAX_ITER`` (500) steps
    without that.  Returns ``(gamma, tables)``: the tables are the hazard
    profiled from ``gamma`` and keep no copy of it; ``gamma`` is read-only,
    so a write cannot make it disagree with them.  The iteration itself is
    :func:`_solve_fixed_point`.
    """
    packed = PackedData.coerce(data, params.n_levels, params.n_items)
    solve = _solve_fixed_point(packed, params, gamma0)
    if not solve.converged:
        warnings.warn("responsibility fixed point did not converge", RuntimeWarning, stacklevel=2)
    return solve.gamma, RiskSetTables(packed, solve.gamma, params.theta, params.survival)


def _profile_point(packed: PackedData, params: ModelParams, gamma0: np.ndarray | None,
                   tol: float = _FIXED_POINT_TOL) -> tuple[_FixedPoint, np.ndarray]:
    """The fixed point at ``params`` solved from ``gamma0`` to ``tol``, and the gradient of Q there.

    The gradient is :class:`likelihood._CollapsedQ`'s over the free natural
    coordinates at the fixed-point responsibilities, which is n times the
    dataset-mean profile score (the envelope identity); no tables or score
    matrix are built.  The caller decides what a solve that did not converge
    means.
    """
    solve = _solve_fixed_point(packed, params, gamma0, tol=tol)
    layout = ParamLayout(params.n_groups, params.n_levels, params.n_items)
    _, grad = _CollapsedQ(packed, solve.gamma, layout).value_and_grad(params)
    return solve, grad


def mean_profile_score(data, params: ModelParams, gamma0: np.ndarray | None = None) -> np.ndarray:
    """Dataset-mean profile score with hazard and responsibilities re-profiled.

    At the fixed-point responsibilities the mean of ``score_matrix`` equals the
    gradient of Q/n with the hazard profiled out (the envelope identity), so
    this solves the fixed point from ``gamma0`` and takes that gradient from
    :func:`_profile_point`, with no per-subject scores.  Warns when the fixed
    point does not converge.
    """
    packed = PackedData.coerce(data, params.n_levels, params.n_items)
    solve, grad = _profile_point(packed, params, gamma0)
    if not solve.converged:
        warnings.warn("responsibility fixed point did not converge", RuntimeWarning, stacklevel=2)
    return grad / packed.n


@dataclass(frozen=True)
class IdentityCheck:
    """Finite-difference Jacobian of the mean score against the outer-product information."""

    fd_jacobian: np.ndarray
    outer_product: np.ndarray
    rel_frobenius_gap: float


def info_identity_check(data, params: ModelParams) -> IdentityCheck:
    """Compare -d(mean score)/d(theta^T) by central differences with the
    empirical outer-product information at the same point.

    The hazard and the responsibilities are re-profiled (to their fixed
    point) at every perturbed parameter point, and the mean score there is
    :func:`_profile_point`'s collapsed Q-gradient over n.  Each plus-side solve
    starts from the fixed point gamma* at ``params``; each minus-side solve
    starts from max(2 gamma* - gamma+, 0) with its rows renormalized, the
    plus side's solution reflected through gamma*, which is where the
    minus side's fixed point lies to first order in the step.  The
    outer-product information is ``information_matrix`` at gamma*.  The
    per-coordinate step is ``_IDENTITY_STEP * max(1, |coordinate|)``.  Warns
    when a fixed point does not converge.  Raises :class:`DataError`, a
    ``ValueError``, when a step leaves the parameter space, as it does from a
    phi tied at a boundary.

    pi is held fixed: the Jacobian is over the structural coordinates of
    :class:`ParamLayout` only, and the outer-product information has no pi
    column, so the identity with pi free is not what this checks.
    """
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
            raise DataError(f"cannot perturb coordinate {layout.names[c]}: {err}") from err

    jac = np.empty((layout.n_free, layout.n_free))
    for c in range(layout.n_free):
        h = _IDENTITY_STEP * max(1.0, abs(x0[c]))
        plus, grad_plus = _profile_point(packed, perturbed(c, h), gamma_star)
        warm = np.maximum(2.0 * gamma_star - plus.gamma, 0.0)
        minus, grad_minus = _profile_point(packed, perturbed(c, -h), warm / (warm @ ones)[:, None])
        if not (plus.converged and minus.converged):
            warnings.warn("responsibility fixed point did not converge", RuntimeWarning,
                          stacklevel=2)
        col = -(grad_plus / packed.n - grad_minus / packed.n) / (2.0 * h)
        if not np.all(np.isfinite(col)):
            raise FloatingPointError(f"non-finite finite-difference column for {layout.names[c]}")
        jac[:, c] = col
    gap = float(np.linalg.norm(jac - info.matrix) / np.linalg.norm(info.matrix))
    return IdentityCheck(jac, info.matrix, gap)


def default_directions(data) -> list[float]:
    """Nuisance directions for :func:`orthogonality_check`, as cutoffs.

    ``inf`` (the constant direction h = 1) followed by the event-time
    quantiles ``_DIRECTION_QUANTILES``, each standing for the indicator
    1[0, c].
    """
    packed = PackedData.coerce(data)
    event_times = packed.times[packed.events > 0]
    if event_times.size == 0:
        raise DataError("no events in the dataset")
    cuts = np.quantile(event_times, _DIRECTION_QUANTILES)
    return [np.inf] + [float(c) for c in cuts]


@dataclass(frozen=True)
class DirectionStat:
    """Mean of score * (Bh) with its Monte Carlo standard error, per coordinate."""

    name: str
    mean: np.ndarray
    std_error: np.ndarray
    max_abs_ratio: float


def orthogonality_check(data, params: ModelParams, directions, baseline) -> list[DirectionStat]:
    """Empirical covariance between the efficient score and nuisance directions.

    Each direction is a cutoff c >= 0 standing for the indicator
    h = 1[0, c]; ``inf`` is the constant direction h = 1.  These span every
    step direction: one taking v_k on (c_k, c_k+1], k = 0..K, with c_0 = 0
    and c_K+1 = inf, is v_K + sum_{k<K} (v_k - v_k+1) 1[0, c_k+1], and Bh
    is linear in h.  For each c, forms (Bh)_i = d_i 1[T_i <= c] - sum_r gamma_ir exp(lp_ir)
    Lambda(min(T_i, c)) against the true baseline and reports the
    per-coordinate mean of score * Bh with its Monte Carlo standard error;
    the means should vanish at the true parameters.  The stats are named
    "constant 1" for ``inf`` and "1[0, c]" otherwise.

    ``baseline`` is any hazard, read only by its ``cum(t)`` method: a
    simulation baseline, a :class:`survival.HazardSteps` or a
    :class:`RiskSetTables`.  The responsibilities are the E-step at it
    (:func:`likelihood._posterior_matrix`), so a continuous baseline needs no
    jumps.

    The score is the analytic per-subject score of :func:`_assemble_scores`.
    Its rows hold the posterior fixed and have no pi column, so they are not
    the efficient influence contributions once pi is free, and their means do
    not vanish.  The max |mean / SE| therefore grows with n against the bound
    of 3 that ``jointmix check`` applies: 5.5 at n = 2 000, 12.9 at
    n = 10 000 and 14.79 on the ``check_wide`` benchmark data.  Per-subject
    numerical profile scores, with pi free, stay below 2 on the same data.
    """
    cutoffs = np.asarray(directions, dtype=float)
    if not np.all(cutoffs >= 0):
        raise ValueError("direction cutoffs must be nonnegative, not NaN")
    packed = PackedData.coerce(data, params.n_levels, params.n_items)
    gamma = _posterior_matrix(packed, params, baseline)
    tables = RiskSetTables(packed, gamma, params.theta, params.survival)
    surv = _survival.efficient_scores(packed, gamma, baseline, tables)
    scores = _assemble_scores(packed, params, gamma, surv)

    lp = _survival.linear_predictors(params.theta, params.survival, packed.covariates)
    total_e = (gamma * np.exp(lp)) @ np.ones(params.n_groups)
    stats = []
    for c in cutoffs:
        cum = np.asarray(baseline.cum(np.minimum(packed.times, c)), dtype=float)
        bh = packed.events * (packed.times <= c) - total_e * cum
        prod = scores * bh[:, None]
        mean = prod.mean(axis=0)
        se = prod.std(axis=0, ddof=1) / np.sqrt(packed.n)
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(se > 0, np.abs(mean) / se, np.where(mean == 0, 0.0, np.inf))
        name = "constant 1" if c == np.inf else f"1[0, {c:g}]"
        stats.append(DirectionStat(name, mean, se, float(ratio.max())))
    return stats


def efficient_score_equivalence(data, params: ModelParams, posterior) -> float:
    """Max per-subject relative gap between :func:`survival.profile_scores` and a
    central difference of l_i = sum_r gamma_ir log P(T_i, d_i | r).

    The responsibilities stay at ``posterior``; each coordinate theta[2..R],
    delta0, delta1 moves by +-1e-5 max(1, |coordinate|) with the hazard
    profiled again.  The gap is the difference's own error, 7e-11 to 9e-10
    on simulated designs from n = 40 to 10 000.
    """
    packed = PackedData.coerce(data, params.n_levels, params.n_items)
    gamma = _gamma_of(posterior)
    theta, delta = params.theta, params.survival
    profile = _survival.profile_scores(packed, gamma, RiskSetTables(packed, gamma, theta, delta))
    x0 = np.concatenate([theta[1:], [delta.delta0, delta.delta1]])
    ones = np.ones(theta.size)

    def loglik(x: np.ndarray) -> np.ndarray:
        theta_x, delta_x = np.concatenate([theta[:1], x[:-2]]), SurvivalParams(x[-2], x[-1])
        tables = RiskSetTables(packed, gamma, theta_x, delta_x)
        return (gamma * _survival.loglik_matrix(packed, tables, theta_x, delta_x)) @ ones

    central = np.empty_like(profile)
    for c in range(x0.size):
        step = np.where(np.arange(x0.size) == c, _EQUIVALENCE_STEP * max(1.0, abs(x0[c])), 0.0)
        central[:, c] = (loglik(x0 + step) - loglik(x0 - step)) / (2.0 * step[c])
    scale = np.maximum(1.0, np.maximum(np.abs(profile).max(axis=1), np.abs(central).max(axis=1)))
    return float((np.abs(profile - central).max(axis=1) / scale).max())


@dataclass(frozen=True)
class ContractionCheck:
    """Differentiability condition for the profiled hazard map."""

    max_lhs: float
    bound: float
    satisfied: bool


def contraction_check(data, params: ModelParams, hazard) -> ContractionCheck:
    """Check the contraction condition that makes the profiled hazard differentiable.

    Compares max over subjects and groups of |posterior-mean exp(lp) -
    exp(lp_r)| against 1 / Lambda(t_max).  ``hazard`` is any hazard, read
    only by its ``cum(t)`` method: the :class:`RiskSetTables` that
    :func:`fixed_point_posterior` returns, a :class:`survival.HazardSteps` or
    a simulation baseline.

    The bound is sufficient, not necessary.  It fails by a factor of 7 to 25
    on every dataset measured, 7.665 against 0.3092 on the ``check_wide``
    benchmark data, while the map contracts there: the ratio of successive
    max responsibility moves of the fixed-point solve settles at 0.08-0.09
    within three steps.  A failed verdict does not show that the map fails
    to contract.
    """
    packed = PackedData.coerce(data, params.n_levels, params.n_items)
    t_max = float(packed.times.max())
    mass = float(hazard.cum(t_max))
    if mass <= 0:
        raise DataError("total hazard mass on (0, t_max] is zero; bound undefined")
    gamma = _posterior_matrix(packed, params, hazard)
    e = np.exp(_survival.linear_predictors(params.theta, params.survival, packed.covariates))
    avg = (gamma * e) @ np.ones(params.n_groups)
    max_lhs = float(np.max(np.abs(avg[:, None] - e)))
    bound = 1.0 / mass
    return ContractionCheck(max_lhs, bound, max_lhs < bound)
