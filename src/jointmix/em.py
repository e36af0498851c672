"""Fitting the joint mixture: EM building blocks and profile-likelihood ascent.

:func:`em_fit` maximizes the profile log-likelihood pl(z) over
z = (structural parameters in optimizer coordinates, ``ParamLayout.pack_opt``;
logit pi[2..R] against group 1).  At fixed z the Breslow hazard and the
responsibilities are profiled out together: the fixed point of
:func:`inference._solve_fixed_point` alternates the posterior and the hazard
profiled from it until no responsibility moves by 1e-12.  pl(z) is the
observed log-likelihood at that hazard.  Its gradient is the M-step
objective's gradient (:meth:`_MStepContext.neg_q_grad`) at the fixed-point
responsibilities, because at the fixed point the derivatives through the
hazard and the posterior cancel (the envelope identity behind
:func:`survival.profiled_loglik`), plus the pi score sum_i (gamma_ir - pi_r).
That objective and its natural-coordinate gradient are
:class:`likelihood._CollapsedQ`, the kernel that
:func:`inference.mean_profile_score` and :func:`inference.info_identity_check`
also evaluate at the fixed point.

Each restart takes one plain EM step first (one fixed-point step from the
prior weights, then :func:`m_step_theta` with pi set to the responsibility
column means), which moves a random start into a better basin, and then runs
BFGS with Armijo backtracking (:func:`_bfgs`) on -pl(z) / n, warm-starting
every fixed-point solve from the previous evaluation's responsibilities.  The BFGS inverse
Hessian starts from inv(S'S / n), the inverse outer product of the
per-subject profile scores S in z at the first evaluation
(:meth:`_ProfileObjective.inverse_opg`; Berndt, Hall, Hall & Hausman 1974),
which estimates the curvature of -pl / n without a further fixed-point
solve; where S'S is singular it starts from the identity.  An evaluation whose
fixed point does not converge, that meets an empty risk set, or whose
weights, hazard jumps or subject densities over- or underflow returns +inf,
so the line search backs off.
The accepted iterates raise pl strictly, so the recorded log-likelihood trace
is nondecreasing.

The EM building blocks :func:`e_step` and :func:`m_step_theta` stay
public.  The likelihood core and the collapsed M-step objective live in
:mod:`likelihood`, the risk-set sums, Breslow jumps, survival
log-likelihood and its profiled gradient in :mod:`data` and
:mod:`survival`.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import inference as _inference
from . import survival as _survival
from .data import PackedData
from .likelihood import DegenerateSubjectError, _CollapsedQ, _gamma_of, _posterior_matrix
from .ordinal import OrdinalParams
from .params import ModelParams, ParamLayout, _phi_chain, phi_from_u
from .survival import HazardSteps, RiskSetTables, SurvivalParams

_COLLAPSE_PI = 1e-6
_COLLAPSE_MASS = 1.0
_FIRST_ORDER_TOL = 1e-6
_INNER_GTOL = 1e-7
_M_STEP_MAX_ITER = 400


class MStepError(RuntimeError):
    """The M-step objective is not finite at the entry point, carried as ``best_params``."""

    def __init__(self, message: str, best_params: ModelParams):
        super().__init__(message)
        self.best_params = best_params


# the typed numeric failures of a fit; callers that record a failed fit catch these only
_NUMERIC_ERRORS = (FloatingPointError, _survival.EmptyRiskSetError, _survival.InvalidHazardError,
                   DegenerateSubjectError, MStepError, np.linalg.LinAlgError)


@dataclass(frozen=True)
class Posterior:
    """Responsibility matrix: posterior group-membership probabilities, one row per subject."""

    gamma: np.ndarray

    def __post_init__(self):
        gamma = np.array(self.gamma, dtype=float)
        if gamma.ndim != 2:
            raise ValueError("gamma must be an n x R matrix")
        if np.any(gamma < 0) or np.any(gamma > 1):
            raise ValueError("responsibilities must lie in [0, 1]")
        if np.any(np.abs(gamma.sum(axis=1) - 1.0) > 1e-12):
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
    restart; with ``max_iter=1`` the opening EM step is skipped.
    """

    tol_loglik: float = 1e-8
    tol_param: float = 1e-6
    max_iter: int = 500
    n_restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.tol_loglik <= 0 or self.tol_param <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iter < 1 or self.n_restarts < 1:
            raise ValueError("max_iter and n_restarts must be >= 1")


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters with the hazard, responsibilities and inference byproducts.

    ``packed`` is the dataset the fit was made on, shared, not copied.  The
    responsibilities are not stored: :attr:`posterior` is the E-step at
    ``(params, hazard)`` on ``packed``, computed on first read and then kept,
    so a fit that is only kept for its parameters holds no (n, R) array.
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
    """Responsibilities at the current parameters and profiled hazard."""
    packed = PackedData.coerce(data, params.n_levels, params.n_items)
    return Posterior(_posterior_matrix(packed, params, hazard))


# ------------------------------------------------------------ M-step and BFGS

class _MStepContext:
    """The M-step objective -Q/n in optimizer coordinates for fixed responsibilities.

    Q and its natural-coordinate gradient are :class:`likelihood._CollapsedQ`;
    this maps optimizer coordinates to natural ones and the gradient back.
    """

    def __init__(self, packed: PackedData, gamma: np.ndarray, layout: ParamLayout):
        self.layout = layout
        self.q = _CollapsedQ(packed, gamma, layout)
        self.scale = 1.0 / packed.n

    def neg_q_grad(self, y: np.ndarray):
        """Value and gradient of -Q/n at optimizer coordinates ``y``."""
        lay = self.layout
        if not np.all(np.isfinite(y)):     # SurvivalParams below rejects such points
            return np.inf, np.zeros(lay.n_free)
        q, grad = self.q.value_and_grad(
            np.concatenate([[0.0], y[lay.sl_theta]]), np.concatenate([[0.0], y[lay.sl_a]]),
            np.concatenate([[0.0], y[lay.sl_b]]), phi_from_u(y[lay.sl_phi], lay.L),
            SurvivalParams(y[lay.idx_d0], y[lay.idx_d1]))
        if not np.isfinite(q):
            return np.inf, np.zeros(lay.n_free)
        g_opt = lay.grad_to_opt(grad, y[lay.sl_phi])
        return -q * self.scale, -g_opt * self.scale


def _bfgs(fun, x0: np.ndarray, gtol: float, max_iter: int, max_eval: float = np.inf,
          accept=None, h0=None):
    """Minimize ``fun`` (value and gradient) by BFGS with Armijo backtracking.

    Calls ``fun`` at most ``max_eval`` times, the start included, and passes
    the start and every accepted iterate to ``accept(x, f)``, which ends the
    search by returning True.  The inverse Hessian starts from ``h0()``,
    called once after a finite first evaluation, or from the identity when
    ``h0`` is omitted or returns None; only the identity is rescaled after
    the first step.  Returns the start or the last accepted ``(x, f, g)``.
    """
    x = np.asarray(x0, dtype=float)
    f, g = fun(x)
    n_eval = 1
    if not np.isfinite(f) or (accept is not None and accept(x, f)):
        return x, f, g
    h = None if h0 is None else h0()
    fresh = h is None
    if fresh:
        h = np.eye(x.size)
    for _ in range(max_iter):
        if np.max(np.abs(g)) <= gtol:
            break
        d = -h @ g
        slope = float(d @ g)
        if slope >= 0:
            h = np.eye(x.size)
            fresh = True
            d = -g
            slope = -float(g @ g)
        step = 1.0
        accepted = False
        for _ in range(40):
            if n_eval >= max_eval:
                break
            x_new = x + step * d
            f_new, g_new = fun(x_new)
            n_eval += 1
            if np.isfinite(f_new) and f_new <= f + 1e-4 * step * slope:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
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
        if accept is not None and accept(x, f):
            break
    return x, f, g


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
    ctx = _MStepContext(packed, gamma, layout)
    y, f, _ = _bfgs(ctx.neg_q_grad, layout.pack_opt(params), _INNER_GTOL, _M_STEP_MAX_ITER)
    if not np.isfinite(f):
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

    Counts its calls and keeps the point, parameters, responsibilities and
    log-likelihood of its last finite call; those responsibilities
    warm-start the next fixed-point solve.
    """

    def __init__(self, packed: PackedData, layout: ParamLayout, gamma: np.ndarray):
        self.packed = packed
        self.layout = layout
        self.gamma = gamma
        self.last: tuple[np.ndarray, ModelParams, float] | None = None
        self.n_eval = 0

    def __call__(self, z: np.ndarray):
        self.n_eval += 1
        failed = np.inf, np.zeros(z.size)
        if not np.all(np.isfinite(z)):
            return failed
        lay, packed = self.layout, self.packed
        y = z[:lay.n_free]
        try:
            with np.errstate(over="raise"):
                logit = np.concatenate([[0.0], z[lay.n_free:]])
                with np.errstate(under="raise"):
                    pi = np.exp(logit - logit.max())
                params = lay.unpack_opt(y, pi / pi.sum())
                solve = _inference._solve_fixed_point(packed, params, self.gamma,
                                                      _inference._FIXED_POINT_TOL,
                                                      _inference._FIXED_POINT_MAX_ITER)
                if not solve.converged:
                    return failed
                f_q, g_q = _MStepContext(packed, solve.gamma, lay).neg_q_grad(y)
        except (DegenerateSubjectError, _survival.EmptyRiskSetError, FloatingPointError):
            return failed
        if not (np.isfinite(f_q) and np.isfinite(solve.loglik)):
            return failed
        self.gamma = solve.gamma
        self.last = z, params, solve.loglik
        pi_score = (np.ones(packed.n) @ solve.gamma)[1:] / packed.n - params.pi[1:]
        return -solve.loglik / packed.n, np.concatenate([g_q, -pi_score])

    def inverse_opg(self) -> np.ndarray | None:
        """inv(S'S / n) at the last finite call, or None where S'S is singular.

        S holds the per-subject profile scores in z: ``score_matrix`` at the
        call's fixed-point responsibilities, its phi block mapped to u, and
        the logit-pi scores gamma_ir - pi_r.  S'S / n estimates the Hessian of
        -pl(z) / n (the BHHH approximation), with no further fixed-point solve.
        """
        z, params, _ = self.last
        lay, gamma = self.layout, self.gamma
        scores = _inference.score_matrix(self.packed, params, gamma)
        scores[:, lay.sl_phi] = _phi_chain(scores[:, lay.sl_phi], z[lay.sl_phi], lay.L)
        info = _inference._info_from_scores(
            np.hstack([scores, gamma[:, 1:] - params.pi[1:]]))
        if not info.condition < _inference._SINGULAR_CONDITION:
            return None
        return np.linalg.inv(info.matrix)


def _collapsed(gamma: np.ndarray, pi: np.ndarray) -> bool:
    """True when a group's responsibility mass or weight is below its collapse threshold."""
    return bool((np.ones(gamma.shape[0]) @ gamma).min() < _COLLAPSE_MASS or pi.min() < _COLLAPSE_PI)


def _fit_restart(packed: PackedData, params: ModelParams, config: EMConfig):
    """One restart from ``params``: an EM step, then BFGS ascent of pl (see the module docstring).

    Returns the last accepted point with its fixed-point responsibilities.
    """
    layout = ParamLayout(params.n_groups, params.n_levels, params.n_items)
    try:   # the opening E-step is one fixed-point step from the prior weights
        first = _inference._solve_fixed_point(packed, params, None, _inference._FIXED_POINT_TOL, 1)
    except DegenerateSubjectError:
        return {"params": params, "gamma": np.tile(params.pi, (packed.n, 1)), "trace": [-np.inf],
                "converged": False, "n_iter": 0, "status": "non-finite start"}
    gamma = first.gamma
    result = {"params": params, "gamma": gamma, "trace": [first.loglik], "converged": False,
              "n_iter": 0, "status": "non-finite profile likelihood at start"}
    start = params
    if config.max_iter > 1:
        result["n_iter"] = 1
        pi = (np.ones(packed.n) @ gamma) / packed.n
        if _collapsed(gamma, pi):
            result["status"] = "component collapse"
            return result
        try:
            start = m_step_theta(packed, gamma, ModelParams(
                params.theta, params.ordinal, params.survival, pi))
        except MStepError:
            result["status"] = "m-step failure"
            return result

    objective = _ProfileObjective(packed, layout, gamma)
    previous = None

    def accept(z, f):
        """Record an accepted iterate; True once the tolerance rule holds or a group collapses."""
        nonlocal previous
        _, params, ll = objective.last
        natural = np.concatenate([layout.pack(params), params.pi])
        done = (previous is not None
                and abs(ll - previous[0]) / max(1.0, abs(previous[0])) < config.tol_loglik
                and np.max(np.abs(natural - previous[1])) < config.tol_param)
        previous = ll, natural
        result.update(params=params, gamma=objective.gamma)
        result["trace"].append(ll)
        if _collapsed(objective.gamma, params.pi):
            result["status"] = "component collapse"
            return True
        if done:
            result["status"] = "converged"
        return done

    log_pi = np.log(start.pi)
    z0 = np.concatenate([layout.pack_opt(start), log_pi[1:] - log_pi[0]])
    budget = config.max_iter - result["n_iter"]
    _bfgs(objective, z0, 0.0, budget, max_eval=budget, accept=accept, h0=objective.inverse_opg)
    result["n_iter"] += objective.n_eval
    if previous is not None and result["status"] not in ("converged", "component collapse"):
        result["status"] = "max_iter" if objective.n_eval >= budget else "line search failure"
    result["converged"] = result["status"] == "converged"
    return result


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
    below the collapse thresholds.

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
        Best restart (converged first, then by final log-likelihood), relabeled
        so theta is ascending, with the hazard profiled from its fixed-point
        responsibilities, the empirical efficient information matrix and
        model-based standard errors, all taken at those responsibilities.
        The fit keeps no responsibilities: ``posterior`` is the E-step at
        ``(params, hazard)``, computed on first read.  At a converged exit
        that is one more fixed-point step, so it differs from the
        responsibilities above by about the fixed point's 1e-12 stopping
        tolerance.  ``n_iter`` is that restart's
        evaluation count and ``loglik_trace`` its log-likelihood at the start
        and at every accepted iterate.  ``converged`` additionally requires the
        dataset-mean profile score at the fixed-point responsibilities to have
        sup-norm <= 1e-6.
    """
    if n_groups < 1:
        raise ValueError("n_groups must be >= 1")
    if init is not None:
        if init.n_groups != n_groups:
            raise ValueError("init has a different number of groups")
        n_levels = init.n_levels
        n_items = init.n_items
    packed = PackedData.coerce(data, n_levels, n_items)
    candidates = []
    for s in range(config.n_restarts):
        if s == 0 and init is not None:
            params0 = init
        else:
            rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(s,)))
            params0 = draw_initial_params(rng, n_groups, packed.n_levels, packed.n_items)
        try:
            candidates.append(_fit_restart(packed, params0, config))
        except (FloatingPointError, _survival.EmptyRiskSetError) as err:
            candidates.append({"params": params0, "gamma": np.tile(params0.pi, (packed.n, 1)),
                               "trace": [-np.inf], "converged": False,
                               "n_iter": 0, "status": f"aborted: {err}"})
    best = max(candidates, key=lambda c: (c["converged"], c["trace"][-1]))
    diagnostics = []
    if not best["converged"]:
        diagnostics.append(f"no converged restart; best status: {best['status']}")

    params, gamma = best["params"], best["gamma"]
    params, _, gamma = relabel_ascending(params, None, gamma)
    tables = RiskSetTables(packed, gamma, params.theta, params.survival)

    scores = _inference.score_matrix(packed, params, gamma, tables)
    converged = best["converged"]
    if converged and np.max(np.abs(scores.mean(axis=0))) > _FIRST_ORDER_TOL:
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
        loglik_trace=np.asarray(best["trace"]),
        std_errors=std_errors,
        info_matrix=info.matrix,
        converged=converged,
        n_iter=best["n_iter"],
        param_names=tuple(layout.names),
        info_condition=info.condition,
        packed=packed,
        diagnostics=tuple(diagnostics),
    )
