"""Fitting the joint mixture: EM building blocks and profile-likelihood ascent.

:func:`em_fit` maximizes the profile log-likelihood pl(z) over
z = (structural parameters in optimizer coordinates, ``ParamLayout.pack_opt``;
logit pi[2..R] against group 1).  At fixed z the Breslow hazard and the
responsibilities are profiled out together: the fixed point of
:func:`inference._solve_fixed_point` alternates the posterior and the hazard
profiled from it until no responsibility moves by 1e-9 during the ascent
(``_ASCENT_FIXED_POINT_TOL``); each restart's exit is solved again from there
until none moves by 1e-12, so its last trace entry, its responsibilities and
everything :func:`em_fit` takes from them see a strict fixed point.  pl(z)
is the observed log-likelihood at that hazard.  Its gradient is the gradient
of the M-step objective Q (:class:`likelihood._CollapsedQ`) at the fixed-point
responsibilities, because at the fixed point the derivatives through the
hazard and the posterior cancel (the envelope identity behind
:func:`survival.profiled_loglik`), plus the pi score sum_i (gamma_ir - pi_r).
:func:`inference._profile_point` solves the fixed point and takes that
gradient, for the fit as for :func:`inference.mean_profile_score` and
:func:`inference.info_identity_check`.

Each restart takes one plain EM step first (one fixed-point step from the
prior weights, then :func:`m_step_theta` with pi set to the responsibility
column means), which moves a random start into a better basin, and then runs
BFGS with Armijo backtracking (:func:`_bfgs`) on -pl(z) / n, warm-starting
every fixed-point solve from the previous evaluation's responsibilities.  The
BFGS inverse Hessian starts from inv(S'S / n), the inverse outer product of
the per-subject profile scores S in z at the first evaluation
(:meth:`_ProfileObjective.inverse_opg`; Berndt, Hall, Hall & Hausman 1974),
which estimates the curvature of -pl / n without a further fixed-point
solve; where S'S is singular it starts from the identity.  An evaluation
whose fixed point does not converge, that meets an empty risk set, or whose
weights, hazard jumps or subject densities over- or underflow returns +inf,
so the line search backs off.  The accepted iterates raise pl strictly, so
the recorded log-likelihood trace is nondecreasing.  :func:`_fit_restart`
is one loop over the iterates :func:`_bfgs` yields, with the tolerance
rule, the collapse check and the trace in its body.  A typed numeric failure
(``_NUMERIC_ERRORS``) ends the restart as "aborted: <type>: <message>" at
its last accepted point; the other restarts still run.

The EM building blocks :func:`e_step` and :func:`m_step_theta` stay public;
the likelihood core and the collapsed M-step objective live in
:mod:`likelihood`, the risk-set sums in :mod:`data`, the survival kernels in
:mod:`survival`.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import inference as _inference
from . import survival as _survival
from .data import DataError, PackedData
from .likelihood import DegenerateSubjectError, _CollapsedQ, _gamma_of, _posterior_matrix
from .ordinal import OrdinalParams
from .params import ModelParams, ParamLayout, phi_from_u
from .survival import HazardSteps, RiskSetTables, SurvivalParams

_COLLAPSE_PI = 1e-6
_COLLAPSE_MASS = 1.0
_FIRST_ORDER_TOL = 1e-6
# fixed-point tolerance of the ascent's evaluations; each exit is re-solved to 1e-12
_ASCENT_FIXED_POINT_TOL = 1e-9
_INNER_GTOL = 1e-7
_M_STEP_MAX_ITER = 400


class MStepError(RuntimeError):
    """The M-step objective is not finite at the entry point, carried as ``best_params``."""

    def __init__(self, message: str, best_params: ModelParams):
        super().__init__(message)
        self.best_params = best_params


# the typed numeric failures of a fit; callers that record a failed fit catch these only
_NUMERIC_ERRORS = (FloatingPointError, _survival.EmptyRiskSetError, DegenerateSubjectError,
                   MStepError, np.linalg.LinAlgError)


@dataclass(frozen=True)
class Posterior:
    """Responsibility matrix: posterior group-membership probabilities, one row per subject."""

    gamma: np.ndarray

    def __post_init__(self):
        gamma = np.array(self.gamma, dtype=float)
        if gamma.ndim != 2:
            raise ValueError("gamma must be an n x R matrix")
        # both tests are written in the positive form, which NaN fails
        if not ((gamma >= 0) & (gamma <= 1)).all():
            raise ValueError("responsibilities must lie in [0, 1]")
        if not (np.abs(gamma.sum(axis=1) - 1.0) <= 1e-12).all():
            raise ValueError("every responsibility row must sum to 1")
        gamma.flags.writeable = False
        object.__setattr__(self, "gamma", gamma)

    @property
    def n_groups(self) -> int:
        return self.gamma.shape[1]


@dataclass(frozen=True)
class EMConfig:
    """Convergence tolerances, iteration budget and restart policy.

    A restart converges when, between two successive accepted iterates of
    the profile-likelihood ascent, the relative change of the profile
    log-likelihood is below ``tol_loglik`` and the largest change of a free
    parameter (natural coordinates, as in ``ParamLayout.pack``) or mixture
    weight is below ``tol_param``.  ``FitResult.n_iter`` counts evaluations
    of the profile log-likelihood, line-search trials and the restart's
    opening EM step included, and ``max_iter`` bounds that count per
    restart; with ``max_iter=1`` the opening EM step is skipped.  A
    tolerance that is not positive and finite (NaN included), or a
    ``max_iter`` or ``n_restarts`` below 1, raises :class:`DataError`, a
    ``ValueError``.
    """

    tol_loglik: float = 1e-8
    tol_param: float = 1e-6
    max_iter: int = 500
    n_restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.tol_loglik < np.inf and 0 < self.tol_param < np.inf):
            raise DataError("tolerances must be positive and finite")
        if self.max_iter < 1 or self.n_restarts < 1:
            raise DataError("max_iter and n_restarts must be >= 1")


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters with the hazard, responsibilities and inference byproducts.

    ``packed`` is the dataset the fit was made on, shared, not copied.  The
    responsibilities are not stored: :attr:`posterior` is the E-step at
    ``(params, hazard)`` on ``packed``, computed on first read and then kept,
    so a fit that is only kept for its parameters holds no (n, R) array.
    ``hazard`` is profiled from the fit's responsibilities, so the posterior
    is exactly one fixed-point step from them.
    ``diagnostics`` says why a fit is not converged, e.g. "no converged restart;
    best status: aborted: <type>: <message>", and notes singular information.
    """

    params: ModelParams
    hazard: HazardSteps
    loglik_trace: np.ndarray
    std_errors: np.ndarray
    info_matrix: np.ndarray
    converged: bool
    n_iter: int
    param_names: tuple[str, ...]
    info_condition: float
    packed: PackedData = field(repr=False, compare=False)
    diagnostics: tuple[str, ...] = ()

    @property
    def loglik(self) -> float:
        return float(self.loglik_trace[-1])

    @functools.cached_property
    def posterior(self) -> Posterior:
        return Posterior(_posterior_matrix(self.packed, self.params, self.hazard))


# ------------------------------------------------------------ EM building blocks

def e_step(data, params: ModelParams, hazard) -> Posterior:
    """Responsibilities at ``params`` and ``hazard``: one step of the fixed-point map.

    ``hazard`` is any object with a ``cum(t)`` method: a
    :class:`RiskSetTables`, a :class:`HazardSteps` or a simulation baseline.
    Only its cumulative hazard at each subject's time is read: the event
    log-jump is the same in every group and cancels, so a zero jump at an
    event time is no error here.  At the tables profiled from
    responsibilities gamma, this is :func:`inference._solve_fixed_point`'s
    first step from gamma, to the bit.
    """
    packed = PackedData.coerce(data, params.n_levels, params.n_items)
    return Posterior(_posterior_matrix(packed, params, hazard))


# ------------------------------------------------------------ M-step and BFGS

def _bfgs(fun, x0: np.ndarray, max_eval: float = np.inf, h0=None):
    """Minimize ``fun`` (value and gradient) by BFGS with Armijo backtracking.

    Yields ``(x, f, g)`` at the start and after every accepted step, and
    stops after a non-finite start (yielding nothing), a failed line search,
    or once ``fun`` has been called ``max_eval`` times; the caller's loop
    holds the stopping rule.  The inverse Hessian starts from ``h0()``, called
    once after the start is yielded, or from the identity when ``h0`` is
    omitted or returns None; only the identity is rescaled after the first step.
    """
    x = np.asarray(x0, dtype=float)
    f, g = fun(x)
    n_eval = 1
    if not np.isfinite(f):
        return
    yield x, f, g
    h = None if h0 is None else h0()
    fresh = h is None
    if fresh:
        h = np.eye(x.size)
    while True:
        d = -h @ g
        slope = float(d @ g)
        if slope >= 0:
            h = np.eye(x.size)
            fresh = True
            d = -g
            slope = -float(g @ g)
        step = 1.0
        for _ in range(40):
            if n_eval >= max_eval:
                return
            x_new = x + step * d
            f_new, g_new = fun(x_new)
            n_eval += 1
            if np.isfinite(f_new) and f_new <= f + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            return
        s = x_new - x
        yv = g_new - g
        sy = float(s @ yv)
        if sy > 1e-12 * float(np.linalg.norm(s) * np.linalg.norm(yv)):
            if fresh:
                h = (sy / float(yv @ yv)) * np.eye(x.size)
                fresh = False
            hy = h @ yv
            h = (h + ((sy + float(yv @ hy)) / sy ** 2) * np.outer(s, s)
                 - (np.outer(hy, s) + np.outer(s, hy)) / sy)
        x, f, g = x_new, f_new, g_new
        yield x, f, g


def m_step_theta(data, posterior, params: ModelParams) -> ModelParams:
    """Maximize the profiled expected complete-data objective over (theta, alpha, delta).

    Responsibilities are held fixed; the baseline hazard is re-profiled at
    every trial point.  The line search accepts only points that raise the
    objective, so the returned point never has a lower one than the entry
    point.  Mixture weights are untouched.  Raises :class:`MStepError` when
    the objective is not finite at the entry point, non-finite
    responsibilities included, before any evaluation in that case.
    """
    packed = PackedData.coerce(data, params.n_levels, params.n_items)
    layout = ParamLayout(params.n_groups, params.n_levels, params.n_items)
    gamma = _gamma_of(posterior)
    if not np.all(np.isfinite(gamma)):
        raise MStepError("objective is not finite at the entry point", params)
    q = _CollapsedQ(packed, gamma, layout)
    scale = 1.0 / packed.n

    def neg_q(y: np.ndarray):
        """Value and gradient of -Q/n at optimizer coordinates ``y``."""
        if not np.isfinite(y).all():     # unpack_opt below rejects such points
            return np.inf, np.zeros(layout.n_free)
        value, grad = q.value_and_grad(layout.unpack_opt(y, params.pi))
        if not np.isfinite(value):
            return np.inf, np.zeros(layout.n_free)
        return -value * scale, -layout.grad_to_opt(grad, y[layout.sl_phi]) * scale

    y = None
    for k, (y, _, g) in enumerate(_bfgs(neg_q, layout.pack_opt(params))):
        if k == _M_STEP_MAX_ITER or abs(g).max() <= _INNER_GTOL:
            break
    if y is None:
        raise MStepError("objective is not finite at the entry point", params)
    return layout.unpack_opt(y, params.pi)


def relabel_ascending(params: ModelParams, hazard: HazardSteps | None = None,
                      posterior=None):
    """Reorder groups so theta is ascending from theta[1] = 0.

    Relabeling permutes (theta, pi, responsibility columns); restoring the
    theta[1] = 0 normalization shifts the intercepts by phi * shift and
    scales the hazard jumps by exp(shift * delta0), which leaves the
    likelihood unchanged.  Idempotent.
    """
    order = np.argsort(params.theta, kind="stable")
    shift = float(params.theta[order[0]])
    if shift == 0.0 and np.array_equal(order, np.arange(params.n_groups)):
        return params, hazard, posterior
    theta = params.theta[order] - shift
    theta[0] = 0.0
    a = params.ordinal.a + params.ordinal.phi * shift
    a[0] = 0.0
    new_params = ModelParams(theta, OrdinalParams(a, params.ordinal.phi, params.ordinal.b),
                             params.survival, params.pi[order])
    new_hazard = hazard
    if hazard is not None:
        new_hazard = HazardSteps(hazard.times, hazard.jumps * np.exp(shift * params.survival.delta0))
    new_post = posterior
    if posterior is not None:
        gamma = _gamma_of(posterior)[:, order]
        new_post = Posterior(gamma) if isinstance(posterior, Posterior) else gamma
    return new_params, new_hazard, new_post


def draw_initial_params(rng: np.random.Generator, n_groups: int, n_levels: int,
                        n_items: int) -> ModelParams:
    """Random restart point: ordered normal thetas, Dirichlet weights, small normals elsewhere."""
    theta = np.concatenate([[0.0], np.sort(rng.normal(0.0, 1.0, n_groups - 1))])
    pi = rng.dirichlet(np.ones(n_groups))
    a = np.concatenate([[0.0], rng.normal(0.0, 0.5, n_levels - 1)])
    b = np.concatenate([[0.0], rng.normal(0.0, 0.5, n_items - 1)])
    phi = phi_from_u(rng.normal(0.0, 0.5, n_levels - 2), n_levels)
    delta0 = 0.0 if n_groups == 1 else float(rng.normal(0.0, 0.5))
    delta = SurvivalParams(delta0, float(rng.normal(0.0, 0.5)))
    return ModelParams(theta, OrdinalParams(a, phi, b), delta, pi)


# ------------------------------------------------------------ profile-likelihood ascent

class _ProfileObjective:
    """-pl(z) / n and its gradient at z = (``pack_opt``, logit pi[2..R] against group 1).

    Counts its calls and the fixed-point steps of every solve that returns,
    and keeps the point, parameters, responsibilities and log-likelihood of
    its last finite call; those responsibilities warm-start the next
    fixed-point solve.

    Every call solves the fixed point to ``_ASCENT_FIXED_POINT_TOL`` (1e-9),
    and :func:`_fit_restart` re-solves only the exit to 1e-12.  The fixed
    point is stationary in the hazard, so an error eps in the
    responsibilities moves pl by O(eps^2) and the gradient by O(eps).  At
    1e-9 the ascent ends within 1e-6 of the strict ascent's exit on the
    benchmark and golden fits, with about a quarter fewer map steps; at 1e-8
    and 1e-7 the estimates moved by more than 1e-6.
    """

    def __init__(self, packed: PackedData, layout: ParamLayout, gamma: np.ndarray):
        self.packed = packed
        self.layout = layout
        self.gamma = gamma
        self.last: tuple[np.ndarray, ModelParams, float] | None = None
        self.n_eval = 0
        self.n_steps = 0

    def __call__(self, z: np.ndarray):
        self.n_eval += 1
        if not np.isfinite(z).all():
            return np.inf, np.zeros(z.size)
        lay, packed = self.layout, self.packed
        y = z[:lay.n_free]
        logit = np.concatenate([[0.0], z[lay.n_free:]])
        try:
            with np.errstate(over="raise", under="raise"):
                pi = np.exp(logit - logit.max())
            with np.errstate(over="raise"):
                params = lay.unpack_opt(y, pi / pi.sum())
                solve, grad = _inference._profile_point(packed, params, self.gamma,
                                                        tol=_ASCENT_FIXED_POINT_TOL)
        except (DegenerateSubjectError, _survival.EmptyRiskSetError, FloatingPointError):
            return np.inf, np.zeros(z.size)
        self.n_steps += solve.n_steps
        if not (solve.converged and np.isfinite(solve.loglik) and np.isfinite(grad).all()):
            return np.inf, np.zeros(z.size)
        self.gamma = solve.gamma
        self.last = z, params, solve.loglik
        pi_score = (np.ones(packed.n) @ solve.gamma)[1:] / packed.n - params.pi[1:]
        g_opt = -lay.grad_to_opt(grad, y[lay.sl_phi]) * (1.0 / packed.n)
        return -solve.loglik / packed.n, np.concatenate([g_opt, -pi_score])

    def inverse_opg(self) -> np.ndarray | None:
        """inv(S'S / n) at the last finite call, or None where S'S is singular.

        S holds the per-subject profile scores in z: ``score_matrix`` at the
        call's fixed-point responsibilities, its phi block mapped to u, and
        the logit-pi scores gamma_ir - pi_r.  S'S / n estimates the Hessian of
        -pl(z) / n (the BHHH approximation), with no further fixed-point solve.
        """
        z, params, _ = self.last
        lay, gamma = self.layout, self.gamma
        scores = lay.grad_to_opt(_inference.score_matrix(self.packed, params, gamma), z[lay.sl_phi])
        info = _inference._info_from_scores(
            np.hstack([scores, gamma[:, 1:] - params.pi[1:]]))
        if not info.condition < _inference._SINGULAR_CONDITION:
            return None
        return np.linalg.inv(info.matrix)


def _collapsed(gamma: np.ndarray, pi: np.ndarray) -> bool:
    """True when a group's responsibility mass or weight is below its collapse threshold."""
    return bool((np.ones(gamma.shape[0]) @ gamma).min() < _COLLAPSE_MASS or pi.min() < _COLLAPSE_PI)


@dataclass(frozen=True)
class RestartRecord:
    """A restart's last accepted point with its fixed-point responsibilities.

    ``trace`` is the log-likelihood after the opening EM step and at every
    accepted iterate, ``n_iter`` the evaluations spent and
    ``fixed_point_steps`` the fixed-point map steps of every solve that
    returned, the exit's re-solve included; a typed numeric failure
    (``_NUMERIC_ERRORS``) has ``status`` "aborted: <type>: <message>".  Once
    the ascent has accepted a point, aborted or not, ``gamma`` and
    ``trace[-1]`` are the fixed point at ``params`` solved to 1e-12.
    """

    params: ModelParams
    gamma: np.ndarray
    trace: np.ndarray
    n_iter: int
    fixed_point_steps: int
    status: str

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _fit_restart(packed: PackedData, params: ModelParams, config: EMConfig) -> RestartRecord:
    """One restart from ``params``: an EM step, then BFGS ascent of pl (see the module docstring).

    Stops at the first accepted iterate that meets the tolerance rule or
    collapses, when the ascent stops, or at a typed numeric failure.  The
    last accepted point's fixed point is then solved again, to 1e-12, from
    its responsibilities; a converged restart whose re-solve does not
    converge is reported as "fixed point not converged at exit".
    """
    layout = ParamLayout(params.n_groups, params.n_levels, params.n_items)
    gamma, trace, n_iter, steps = np.tile(params.pi[:, None], packed.n).T, [-np.inf], 0, 0
    objective = None
    try:   # the opening E-step is one fixed-point step from the prior weights
        first = _inference._solve_fixed_point(packed, params, None, max_iter=1)
        gamma, trace, start, steps = first.gamma, [first.loglik], params, first.n_steps
        if config.max_iter > 1:
            n_iter = 1
            pi = (np.ones(packed.n) @ gamma) / packed.n
            if _collapsed(gamma, pi):
                return RestartRecord(params, gamma, np.asarray(trace), n_iter, steps,
                                     "component collapse")
            start = m_step_theta(packed, gamma, ModelParams(
                params.theta, params.ordinal, params.survival, pi))
        objective = _ProfileObjective(packed, layout, gamma)
        log_pi = np.log(start.pi)
        z0 = np.concatenate([layout.pack_opt(start), log_pi[1:] - log_pi[0]])
        budget = config.max_iter - n_iter
        previous = None
        for _ in _bfgs(objective, z0, budget, objective.inverse_opg):
            _, params, ll = objective.last
            gamma = objective.gamma
            trace.append(ll)
            natural = np.concatenate([layout.pack(params), params.pi])
            if _collapsed(gamma, params.pi):
                status = "component collapse"
                break
            if (previous is not None
                    and abs(ll - previous[0]) / max(1.0, abs(previous[0])) < config.tol_loglik
                    and np.max(np.abs(natural - previous[1])) < config.tol_param):
                status = "converged"
                break
            previous = ll, natural
        else:
            status = ("non-finite profile likelihood at start" if previous is None
                      else "max_iter" if objective.n_eval >= budget else "line search failure")
    except _NUMERIC_ERRORS as err:
        status = f"aborted: {type(err).__name__}: {err}"
    if objective is not None:
        n_iter += objective.n_eval
        steps += objective.n_steps
        if objective.last is not None:   # the ascent accepted (params, gamma)
            strict = _inference._solve_fixed_point(packed, params, gamma)
            gamma, trace[-1], steps = strict.gamma, strict.loglik, steps + strict.n_steps
            if status == "converged" and not strict.converged:
                status = "fixed point not converged at exit"
    return RestartRecord(params, gamma, np.asarray(trace), n_iter, steps, status)


def _best_restart(restarts: list[RestartRecord], tol_loglik: float) -> RestartRecord:
    """The first restart whose final log-likelihood is within ``tol_loglik`` of the highest.

    Only the converged restarts compete, or all of them when none converged.
    "Within" is relative, as the stopping rule measures it: tol_loglik *
    max(1, |highest|).  Restarts that stop at one optimum differ by less, so
    the last bits of their log-likelihoods do not decide which one, and so
    which ``n_iter``, is reported.
    """
    pool = [r for r in restarts if r.converged] or restarts
    top = max(r.trace[-1] for r in pool)
    floor = top - tol_loglik * max(1.0, abs(top))
    return next((r for r in pool if r.trace[-1] >= floor), pool[0])


def em_fit(data, n_groups: int, config: EMConfig = EMConfig(), init: ModelParams | None = None,
           n_levels: int | None = None, n_items: int | None = None) -> FitResult:
    """Fit the joint mixture by maximizing the profile likelihood, with restarts.

    Each restart takes one EM step from its start and then ascends the
    profile log-likelihood by BFGS, started from the inverse outer-product
    information at the first evaluation (see the module docstring), until the
    ``config`` tolerance rule holds between two accepted iterates, the
    line search can make no progress, or ``config.max_iter`` evaluations
    are spent.  A restart stops, and does not count as converged, as soon as
    the smallest weight or responsibility mass of an accepted iterate falls
    below the collapse thresholds, or at a typed numeric failure, which it
    records as "aborted: <type>: <message>" at its last accepted point.

    Parameters
    ----------
    data : sequence of SubjectRecord or PackedData
        Nonempty dataset.
    n_groups : int
        Number of latent groups R >= 1.
    config : EMConfig
        Tolerances, iteration cap, restart count and seed.
    init : ModelParams, optional
        Starting point for the first restart; remaining restarts draw random
        starts seeded by ``config.seed``.
    n_levels, n_items : int, optional
        Ordinal dimensions; inferred from the data (or ``init``) if omitted.

    Returns
    -------
    FitResult
        Best restart (converged first, then the first in restart order within
        ``config.tol_loglik`` of the highest final log-likelihood; see
        :func:`_best_restart`), relabeled so theta is ascending, with the
        hazard profiled from its fixed-point responsibilities, the empirical
        efficient information matrix and model-based standard errors, all
        taken at those responsibilities.
        The fit keeps no responsibilities: ``posterior`` is the E-step at
        ``(params, hazard)``, computed on first read.  At a converged exit
        that is one more fixed-point step, so it differs from the
        responsibilities above by about the fixed point's 1e-12 stopping
        tolerance.  ``n_iter`` is that restart's
        evaluation count and ``loglik_trace`` its log-likelihood at the start
        and at every accepted iterate.  ``converged`` additionally requires the
        dataset-mean profile score at the fixed-point responsibilities, and
        the mixture-weight score mean_i gamma_ir - pi_r there, to have
        sup-norm <= 1e-6.
    """
    if n_groups < 1:
        raise DataError("n_groups must be >= 1")
    if init is not None:
        if init.n_groups != n_groups:
            raise ValueError("init has a different number of groups")
        n_levels, n_items = init.n_levels, init.n_items
    packed = PackedData.coerce(data, n_levels, n_items)
    restarts = []
    for s in range(config.n_restarts):
        if s == 0 and init is not None:
            params0 = init
        else:
            rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(s,)))
            params0 = draw_initial_params(rng, n_groups, packed.n_levels, packed.n_items)
        restarts.append(_fit_restart(packed, params0, config))
    best = _best_restart(restarts, config.tol_loglik)
    diagnostics = [] if best.converged else [f"no converged restart; best status: {best.status}"]

    params, _, gamma = relabel_ascending(best.params, None, best.gamma)
    tables = RiskSetTables(packed, gamma, params.theta, params.survival)

    scores = _inference.score_matrix(packed, params, gamma, tables)
    pi_score = (np.ones(packed.n) @ gamma) / packed.n - params.pi
    converged = best.converged
    if converged and max(np.max(np.abs(scores.mean(axis=0))),
                         np.max(np.abs(pi_score))) > _FIRST_ORDER_TOL:
        converged = False
        diagnostics.append("first-order condition not met at exit")

    layout = ParamLayout(params.n_groups, params.n_levels, params.n_items)
    info = _inference._info_from_scores(scores)
    try:
        std_errors = _inference.standard_errors(info, packed.n)
    except _inference.SingularInformationError as err:
        std_errors = _inference.pseudo_standard_errors(info, packed.n)
        diagnostics.append(f"singular information: {err}; pseudo-inverse standard errors reported")
        warnings.warn(str(err), RuntimeWarning, stacklevel=2)

    return FitResult(
        params=params,
        hazard=tables.hazard_steps(),
        loglik_trace=best.trace,
        std_errors=std_errors,
        info_matrix=info.matrix,
        converged=converged,
        n_iter=best.n_iter,
        param_names=tuple(layout.names),
        info_condition=info.condition,
        packed=packed,
        diagnostics=tuple(diagnostics),
    )
