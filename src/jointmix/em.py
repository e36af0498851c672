"""EM loop for the joint mixture: responsibilities, M-steps, SQUAREM acceleration.

The EM map F acts on the state x = (structural parameters in optimizer
coordinates, ``ParamLayout.pack_opt``; logit pi with group 1 as reference;
log Breslow jumps at the event times).  F(x) takes an E-step at x's own
hazard, which gives the observed log-likelihood at x and the
responsibilities; the M-step then sets pi to the responsibility column means
and maximizes the expected complete-data log-likelihood over the structural
parameters with the hazard re-profiled (at fixed responsibilities) inside the
inner optimizer; the new jumps are the ones profiled at its optimum.  The
observed log-likelihood never drops along F, by the usual EM argument,
because profiling maximizes over the hazard jumps exactly.

F converges linearly and slowly, so :func:`em_fit` runs SQUAREM (Varadhan &
Roland 2008, Scand. J. Stat. 35:335-353, step length S3) over it.  Each cycle
computes x1 = F(x0) and x2 = F(x1), then extrapolates
x' = x0 - 2 alpha r + alpha^2 v with r = x1 - x0, v = x2 - 2 x1 + x0 and
alpha = -|r| / |v| clamped to [-bound, -1]; the bound starts at 4 and is
multiplied by 4 whenever alpha reaches it.  The cycle moves on to F(x') when
the log-likelihood at x' is at least the one at x1, and to x2 otherwise,
also when evaluating F at x' fails.  This safeguard keeps the recorded
log-likelihood trace nondecreasing.  The tolerance test runs between
successive cycle outputs; the returned responsibilities are the E-step
posterior at the returned point.

This module only drives the kernels: the likelihood core lives in
:mod:`likelihood`, the risk-set sums, Breslow jumps, survival log-likelihood
and profiled M-step objective in :mod:`data` and :mod:`survival`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import inference as _inference
from . import ordinal as _ordinal
from . import survival as _survival
from .data import PackedData
from .likelihood import (DegenerateSubjectError, _gamma_of, _loglik_and_posterior,
                         _loglik_components, _posterior_matrix)
from .ordinal import OrdinalParams
from .params import ModelParams, ParamLayout, phi_from_u
from .survival import HazardSteps, RiskSetTables, SurvivalParams

_COLLAPSE_PI = 1e-6
_COLLAPSE_MASS = 1.0
_FIRST_ORDER_TOL = 1e-6
_INNER_GTOL = 1e-7
# SQUAREM: initial bound on |alpha| and its growth factor when alpha reaches it;
# a bound of 1 would pin alpha at -1, i.e. plain EM
_STEP_BOUND = 4.0


class MStepError(RuntimeError):
    """Inner optimizer failed; carries the best parameter point reached."""

    def __init__(self, message: str, best_params: ModelParams):
        super().__init__(message)
        self.best_params = best_params


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

    A restart converges when, between two successive SQUAREM cycle outputs,
    the relative change of the observed log-likelihood is below
    ``tol_loglik`` and the largest change of a free parameter or mixture
    weight is below ``tol_param``.  ``max_iter`` bounds the evaluations of
    the EM map, each one E-step plus one M-step, which is also what
    ``FitResult.n_iter`` counts.
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
    """Fitted parameters with the hazard, responsibilities and inference byproducts."""

    params: ModelParams
    hazard: HazardSteps
    posterior: Posterior
    loglik_trace: np.ndarray
    std_errors: np.ndarray
    info_matrix: np.ndarray
    converged: bool
    n_iter: int
    param_names: tuple[str, ...]
    info_condition: float
    diagnostics: tuple[str, ...] = ()

    @property
    def loglik(self) -> float:
        return float(self.loglik_trace[-1])


# ------------------------------------------------------------ likelihood core

def _e_step(packed: PackedData, params: ModelParams, jumps: np.ndarray):
    """Observed log-likelihood and responsibilities at a hazard given by its jumps."""
    comp = _loglik_components(packed, params, (jumps, np.cumsum(jumps)))
    return _loglik_and_posterior(packed, comp)


def e_step(data, params: ModelParams, hazard) -> Posterior:
    """Responsibilities at the current parameters and profiled hazard."""
    packed = PackedData.coerce(data, params.n_levels, params.n_items)
    return Posterior(_posterior_matrix(packed, params, hazard))


def m_step_pi(posterior) -> np.ndarray:
    """Mixture-weight update: column means of the responsibilities."""
    gamma = _gamma_of(posterior)
    return gamma.mean(axis=0)


def observed_loglik(data, params: ModelParams, hazard) -> float:
    """Observed-data mixture log-likelihood at a given baseline hazard."""
    packed = PackedData.coerce(data, params.n_levels, params.n_items)
    try:
        return _loglik_and_posterior(packed, _loglik_components(packed, params, hazard))[0]
    except DegenerateSubjectError as err:
        raise FloatingPointError("observed log-likelihood is not finite") from err


# ------------------------------------------------------------ inner optimizer

class _MStepContext:
    """Sufficient statistics of the M-step objective for fixed responsibilities.

    The ordinal part collapses over subjects into (R, J, L) tables, so each
    objective evaluation costs O(nR) for the survival part only.
    """

    def __init__(self, packed: PackedData, gamma: np.ndarray, layout: ParamLayout):
        self.packed = packed
        self.gamma = gamma
        self.layout = layout
        n = packed.n
        self.wc = (gamma.T @ packed.counts.reshape(n, -1)).reshape(
            layout.R, packed.n_items, packed.n_levels)
        self.wm = gamma.T @ packed.cells
        self.scale = 1.0 / n
        # hazard jumps profiled by the last evaluation, and where it was made
        self.last_y: np.ndarray | None = None
        self.last_jumps: np.ndarray | None = None

    def neg_q_grad(self, y: np.ndarray):
        """Value and gradient of -Q/n at optimizer coordinates ``y``."""
        lay = self.layout
        L = lay.L
        if not np.all(np.isfinite(y)):     # SurvivalParams below rejects such points
            return np.inf, np.zeros(lay.n_free)
        theta = np.concatenate([[0.0], y[lay.sl_theta]])
        a = np.concatenate([[0.0], y[lay.sl_a]])
        b = np.concatenate([[0.0], y[lay.sl_b]])
        phi = phi_from_u(y[lay.sl_phi], L)
        d0, d1 = y[lay.idx_d0], y[lay.idx_d1]

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

        q_surv, g_surv, jumps = _survival.profiled_loglik(self.packed, self.gamma, theta,
                                                          SurvivalParams(d0, d1))
        self.last_y, self.last_jumps = y.copy(), jumps
        q += q_surv
        grad[lay.sl_theta] += g_surv[:lay.R - 1]
        grad[lay.idx_d0] = g_surv[lay.R - 1]
        grad[lay.idx_d1] = g_surv[lay.R]

        if not np.isfinite(q):
            return np.inf, np.zeros(lay.n_free)
        g_opt = lay.grad_to_opt(grad, y[lay.sl_phi])
        return -q * self.scale, -g_opt * self.scale


class _InnerOptimizer:
    """BFGS with Armijo backtracking; the inverse-Hessian approximation is
    kept across calls so consecutive M-steps warm-start each other."""

    def __init__(self, n_dim: int):
        self.n_dim = n_dim
        self.h: np.ndarray | None = None

    def reset(self):
        self.h = None

    def minimize(self, fun, x0: np.ndarray, gtol: float = _INNER_GTOL, max_iter: int = 50):
        x = np.asarray(x0, dtype=float)
        f, g = fun(x)
        if not np.isfinite(f):
            return x, f, g, False
        fresh = self.h is None
        h = np.eye(x.size) if fresh else self.h
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
                x_new = x + step * d
                f_new, g_new = fun(x_new)
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
        self.h = h
        return x, f, g, bool(np.max(np.abs(g)) <= gtol)


def _m_step_theta_full(packed: PackedData, gamma: np.ndarray, params: ModelParams,
                       gtol: float = _INNER_GTOL, max_inner: int = 400,
                       optimizer: _InnerOptimizer | None = None):
    """One M-step: returns the new parameters and the hazard jumps profiled there."""
    layout = ParamLayout(params.n_groups, params.n_levels, params.n_items)
    ctx = _MStepContext(packed, gamma, layout)
    opt = optimizer if optimizer is not None else _InnerOptimizer(layout.n_free)
    y0 = layout.pack_opt(params)
    f0, g0 = ctx.neg_q_grad(y0)
    if not np.isfinite(f0):
        raise MStepError("objective is not finite at the entry point", params)
    y, f, _, reached = opt.minimize(ctx.neg_q_grad, y0, gtol=gtol, max_iter=max_inner)
    if not reached:
        # fall back to scipy's line-search quasi-Newton before giving up; imported
        # here because scipy.optimize adds about 50 MB and 0.4 s to the package
        # import, and this branch rarely runs
        from scipy.optimize import minimize
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = minimize(ctx.neg_q_grad, y, jac=True, method="L-BFGS-B",
                           options={"maxiter": max_inner, "maxfun": 4 * max_inner,
                                    "ftol": 1e-15, "gtol": gtol})
        if np.isfinite(res.fun) and res.fun <= f:
            y, f = res.x, float(res.fun)
            opt.reset()
    if f > f0:
        y, f = y0, f0
        opt.reset()
        if np.max(np.abs(g0)) > 1e-4:
            raise MStepError("inner optimizer made no progress from a non-stationary point",
                             layout.unpack_opt(y0, params.pi))
    if not np.array_equal(ctx.last_y, y):
        ctx.neg_q_grad(y)   # the fallback or the reversion left the last evaluated point
    return layout.unpack_opt(y, params.pi), ctx.last_jumps


def m_step_theta(data, posterior, params: ModelParams, config: EMConfig | None = None) -> ModelParams:
    """Maximize the profiled expected complete-data objective over (theta, alpha, delta).

    Responsibilities are held fixed; the baseline hazard is re-profiled at
    every trial point.  The returned point never has a lower objective than
    the entry point.  Mixture weights are untouched.
    """
    packed = PackedData.coerce(data, params.n_levels, params.n_items)
    return _m_step_theta_full(packed, _gamma_of(posterior), params)[0]


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


# ------------------------------------------------------------ SQUAREM driver

class _StopEM(RuntimeError):
    """The EM map cannot go on from this point; the message is the restart status."""


# evaluating F at an extrapolated state may fail in these ways; that rejects
# the extrapolation and ends nothing
_REJECTED = (DegenerateSubjectError, _survival.EmptyRiskSetError, MStepError,
             FloatingPointError, _StopEM)


def _pack_state(layout: ParamLayout, params: ModelParams, jumps: np.ndarray,
                events: np.ndarray) -> np.ndarray:
    """SQUAREM state: optimizer coordinates, logit pi against group 1, log jumps at event times."""
    log_pi = np.log(params.pi)
    return np.concatenate([layout.pack_opt(params), log_pi[1:] - log_pi[0],
                           np.log(jumps[events])])


def _unpack_state(layout: ParamLayout, x: np.ndarray, events: np.ndarray):
    """Parameters and jumps of a state; FloatingPointError when a weight or jump
    over- or underflows."""
    n_opt, n_logit = layout.n_free, layout.R - 1
    logit = np.concatenate([[0.0], x[n_opt:n_opt + n_logit]])
    jumps = np.zeros(events.size)
    with np.errstate(over="raise", under="raise"):
        pi = np.exp(logit - logit.max())
        jumps[events] = np.exp(x[n_opt + n_logit:])
    return layout.unpack_opt(x[:n_opt], pi / pi.sum()), jumps


def _em_single(packed: PackedData, params: ModelParams, config: EMConfig):
    """One restart of SQUAREM-accelerated EM from ``params`` (see the module docstring).

    Returns the last point whose E-step was taken, with its responsibilities.
    """
    layout = ParamLayout(params.n_groups, params.n_levels, params.n_items)
    events = packed.event_counts > 0
    optimizer = _InnerOptimizer(layout.n_free)
    gamma = np.tile(params.pi, (packed.n, 1))
    jumps = RiskSetTables(packed, gamma, params.theta, params.survival).jumps
    try:
        ll, gamma = _e_step(packed, params, jumps)
    except DegenerateSubjectError:
        return {"params": params, "gamma": gamma, "trace": [-np.inf],
                "converged": False, "n_iter": 0, "status": "non-finite start"}
    trace = [ll]
    n_iter = 0
    bound = _STEP_BOUND
    status = "max_iter"
    last = None

    def advance(params, gamma):
        """M-step half of the EM map at responsibilities ``gamma``: the next (params, jumps)."""
        nonlocal n_iter
        if n_iter >= config.max_iter:
            raise _StopEM("max_iter")
        n_iter += 1
        colsum = np.ones(packed.n) @ gamma
        pi = colsum / packed.n
        if colsum.min() < _COLLAPSE_MASS or pi.min() < _COLLAPSE_PI:
            raise _StopEM("component collapse")
        params = ModelParams(params.theta, params.ordinal, params.survival, pi)
        return _m_step_theta_full(packed, gamma, params, max_inner=50, optimizer=optimizer)

    # (params, jumps, gamma) is always a point whose E-step gave trace[-1]
    try:
        while True:
            natural = np.concatenate([layout.pack(params), params.pi])
            if last is not None:
                d_ll = abs(trace[-1] - last[0]) / max(1.0, abs(last[0]))
                if d_ll < config.tol_loglik and np.max(np.abs(natural - last[1])) < config.tol_param:
                    status = "converged"
                    break
            last = trace[-1], natural
            x0 = _pack_state(layout, params, jumps, events)
            step = advance(params, gamma)
            ll1, gamma = _e_step(packed, *step)
            params, jumps = step
            trace.append(ll1)
            x1 = _pack_state(layout, params, jumps, events)
            step = advance(params, gamma)
            r = x1 - x0
            v = _pack_state(layout, *step, events) - 2.0 * x1 + x0
            alpha = -np.sqrt((r @ r) / (v @ v)) if v @ v > 0 else -bound
            alpha = min(-1.0, max(alpha, -bound))
            if alpha == -bound:
                bound *= _STEP_BOUND
            try:
                extrapolated = _unpack_state(layout, x0 - 2.0 * alpha * r + alpha ** 2 * v, events)
                ll_x, gamma_x = _e_step(packed, *extrapolated)
                if ll_x >= ll1:
                    step = advance(extrapolated[0], gamma_x)
                    (params, jumps), gamma = extrapolated, gamma_x
                    trace.append(ll_x)
            except _REJECTED:
                pass    # keep x2, the plain EM step
            ll, gamma = _e_step(packed, *step)
            params, jumps = step
            trace.append(ll)
    except (DegenerateSubjectError, MStepError, _StopEM) as err:
        status = "m-step failure" if isinstance(err, MStepError) else str(err)
    return {"params": params, "gamma": gamma, "trace": trace,
            "converged": status == "converged", "n_iter": n_iter, "status": status}


def em_fit(data, n_groups: int, config: EMConfig = EMConfig(), init: ModelParams | None = None,
           n_levels: int | None = None, n_items: int | None = None) -> FitResult:
    """Fit the joint mixture by EM with restarts.

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
        Best restart by final observed log-likelihood, relabeled so theta is
        ascending, with the empirical efficient information matrix and
        model-based standard errors.  ``converged`` additionally requires the
        dataset-mean profile score to have sup-norm <= 1e-6.
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
            candidates.append(_em_single(packed, params0, config))
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
    trace = list(best["trace"])

    converged = best["converged"]
    if converged:
        gtol = _INNER_GTOL
        for _ in range(3):
            scores = _inference.score_matrix(packed, params, gamma, tables)
            if np.max(np.abs(scores.mean(axis=0))) <= _FIRST_ORDER_TOL:
                break
            gtol /= 10.0
            params, _ = _m_step_theta_full(packed, gamma, params, gtol=gtol)
            params, _, gamma = relabel_ascending(params, None, gamma)
            tables = RiskSetTables(packed, gamma, params.theta, params.survival)
            ll, _ = _loglik_and_posterior(packed, _loglik_components(packed, params, tables))
            if ll >= trace[-1]:
                trace.append(ll)
        scores = _inference.score_matrix(packed, params, gamma, tables)
        if np.max(np.abs(scores.mean(axis=0))) > _FIRST_ORDER_TOL:
            converged = False
            diagnostics.append("first-order condition not met at exit")

    layout = ParamLayout(params.n_groups, params.n_levels, params.n_items)
    info = _inference.information_matrix(packed, params, gamma, tables)
    try:
        std_errors = _inference.standard_errors(info, packed.n)
    except _inference.SingularInformationError as err:
        std_errors = _inference.pseudo_standard_errors(info, packed.n)
        diagnostics.append(f"singular information: {err}; pseudo-inverse standard errors reported")
        warnings.warn(str(err), RuntimeWarning, stacklevel=2)

    return FitResult(
        params=params,
        hazard=tables.hazard_steps(),
        posterior=Posterior(gamma),
        loglik_trace=np.asarray(trace),
        std_errors=std_errors,
        info_matrix=info.matrix,
        converged=converged,
        n_iter=best["n_iter"],
        param_names=tuple(layout.names),
        info_condition=info.condition,
        diagnostics=tuple(diagnostics),
    )
