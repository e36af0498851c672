"""EM loop for the joint mixture: responsibilities, M-steps, convergence control.

Each iteration profiles the baseline hazard at the previous responsibilities,
takes an E-step at that hazard, then maximizes the expected complete-data
log-likelihood over the mixture weights and the structural parameters with
the hazard re-profiled (at fixed responsibilities) inside the inner
optimizer.  The observed-data log-likelihood recorded per iteration is
nondecreasing by the usual EM argument because profiling maximizes over the
hazard jumps exactly.

This module only drives the kernels: the likelihood core lives in
:mod:`likelihood`, the risk-set sums, Breslow jumps, survival log-likelihood
and profiled M-step objective in :mod:`data` and :mod:`survival`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import logsumexp

from . import inference as _inference
from . import survival as _survival
from .data import PackedData
from .likelihood import (DegenerateSubjectError, _gamma_of, _loglik_components,
                         _posterior_from_components, _posterior_matrix)
from .ordinal import OrdinalParams
from .params import ModelParams, ParamLayout, phi_from_u
from .survival import HazardSteps, RiskSetTables, SurvivalParams

_COLLAPSE_PI = 1e-6
_COLLAPSE_MASS = 1.0
_FIRST_ORDER_TOL = 1e-6
_INNER_GTOL = 1e-7


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
    """Convergence tolerances, iteration budget and restart policy."""

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

def _profiled_components(packed: PackedData, params: ModelParams, gamma: np.ndarray) -> np.ndarray:
    """(n, R) log-likelihood components with the hazard profiled at ``gamma``."""
    w = gamma * np.exp(_survival.linear_predictors(params.theta, params.survival,
                                                   packed.covariates))
    steps = _survival.breslow_steps(packed, packed.suffix_sums(w @ np.ones(params.n_groups)))
    return _loglik_components(packed, params, steps)


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
    value = float(logsumexp(_loglik_components(packed, params, hazard), axis=1).sum())
    if not np.isfinite(value):
        raise FloatingPointError("observed log-likelihood is not finite")
    return value


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
        eta = a[None, None, :] + phi[None, None, :] * xs[:, :, None]
        emax = eta.max(axis=2)
        ee = np.exp(eta - emax[:, :, None])
        sz = ee.sum(axis=2)
        logz = emax + np.log(sz)
        q = float((self.wc * eta).sum() - (self.wm * logz).sum())
        resid = self.wc - self.wm[:, :, None] * (ee / sz[:, :, None])
        resid_phi = resid @ phi
        grad = np.empty(lay.n_free)
        grad[lay.sl_a] = resid.sum(axis=(0, 1))[1:]
        grad[lay.sl_b] = resid_phi.sum(axis=0)[1:]
        grad[lay.sl_phi] = (xs[:, :, None] * resid).sum(axis=(0, 1))[1:L - 1]
        grad[lay.sl_theta] = resid_phi.sum(axis=1)[1:]

        q_surv, g_surv = _survival.profiled_loglik(self.packed, self.gamma, theta,
                                                   SurvivalParams(d0, d1))
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
    """One M-step: returns (params, exit gradient sup-norm, reached-gtol flag)."""
    layout = ParamLayout(params.n_groups, params.n_levels, params.n_items)
    ctx = _MStepContext(packed, gamma, layout)
    opt = optimizer if optimizer is not None else _InnerOptimizer(layout.n_free)
    y0 = layout.pack_opt(params)
    f0, g0 = ctx.neg_q_grad(y0)
    if not np.isfinite(f0):
        raise MStepError("objective is not finite at the entry point", params)
    y, f, g, reached = opt.minimize(ctx.neg_q_grad, y0, gtol=gtol, max_iter=max_inner)
    if not reached:
        # fall back to scipy's line-search quasi-Newton before giving up
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = minimize(ctx.neg_q_grad, y, jac=True, method="L-BFGS-B",
                           options={"maxiter": max_inner, "maxfun": 4 * max_inner,
                                    "ftol": 1e-15, "gtol": gtol})
        if np.isfinite(res.fun) and res.fun <= f:
            y, f, g = res.x, float(res.fun), res.jac
            reached = bool(np.max(np.abs(g)) <= gtol)
            opt.reset()
    if f > f0:
        y, f, g = y0, f0, g0
        reached = bool(np.max(np.abs(g0)) <= gtol)
        opt.reset()
        if np.max(np.abs(g0)) > 1e-4:
            raise MStepError("inner optimizer made no progress from a non-stationary point",
                             layout.unpack_opt(y0, params.pi))
    return layout.unpack_opt(y, params.pi), float(np.max(np.abs(g))), reached


def m_step_theta(data, posterior, params: ModelParams, config: EMConfig | None = None) -> ModelParams:
    """Maximize the profiled expected complete-data objective over (theta, alpha, delta).

    Responsibilities are held fixed; the baseline hazard is re-profiled at
    every trial point.  The returned point never has a lower objective than
    the entry point.  Mixture weights are untouched.
    """
    packed = PackedData.coerce(data, params.n_levels, params.n_items)
    out, _, _ = _m_step_theta_full(packed, _gamma_of(posterior), params)
    return out


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


def _em_single(packed: PackedData, params: ModelParams, config: EMConfig):
    layout = ParamLayout(params.n_groups, params.n_levels, params.n_items)
    gamma = np.tile(params.pi, (packed.n, 1))
    comp = _profiled_components(packed, params, gamma)
    trace = [float(logsumexp(comp, axis=1).sum())]
    if not np.isfinite(trace[0]):
        return {"params": params, "gamma": gamma, "trace": trace,
                "converged": False, "n_iter": 0, "status": "non-finite start"}
    x_prev = np.concatenate([layout.pack(params), params.pi])
    optimizer = _InnerOptimizer(layout.n_free)
    converged = False
    status = "max_iter"
    n_iter = 0
    for n_iter in range(1, config.max_iter + 1):
        try:
            gamma_new = _posterior_from_components(packed, comp)
        except DegenerateSubjectError as err:
            status = str(err)
            break
        colsum = gamma_new.sum(axis=0)
        pi_new = colsum / packed.n
        if colsum.min() < _COLLAPSE_MASS or pi_new.min() < _COLLAPSE_PI:
            status = "component collapse"
            break
        params = ModelParams(params.theta, params.ordinal, params.survival, pi_new)
        try:
            params, _, _ = _m_step_theta_full(packed, gamma_new, params, max_inner=50,
                                              optimizer=optimizer)
        except MStepError as err:
            params = err.best_params
            status = "m-step failure"
            break
        gamma = gamma_new
        comp = _profiled_components(packed, params, gamma)
        ll_new = float(logsumexp(comp, axis=1).sum())
        if not np.isfinite(ll_new):
            status = "non-finite loglik"
            break
        trace.append(ll_new)
        x_new = np.concatenate([layout.pack(params), params.pi])
        d_ll = abs(trace[-1] - trace[-2]) / max(1.0, abs(trace[-2]))
        d_par = float(np.max(np.abs(x_new - x_prev)))
        x_prev = x_new
        if d_ll < config.tol_loglik and d_par < config.tol_param:
            converged = True
            status = "converged"
            break
    return {"params": params, "gamma": gamma, "trace": trace,
            "converged": converged, "n_iter": n_iter, "status": status}


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
            params, _, _ = _m_step_theta_full(packed, gamma, params, gtol=gtol)
            params, _, gamma = relabel_ascending(params, None, gamma)
            tables = RiskSetTables(packed, gamma, params.theta, params.survival)
            ll = float(logsumexp(_loglik_components(packed, params, tables), axis=1).sum())
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
