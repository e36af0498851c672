"""Data generation from the joint model and the Monte Carlo coverage harness."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .data import DataError, ResponseSet, SubjectRecord, SurvivalRecord, _readonly
from .em import _NUMERIC_ERRORS, EMConfig, em_fit
from .ordinal import _linear_predictor
from .params import ModelParams, ParamLayout
from .survival import linear_predictors


@dataclass(frozen=True)
class ConstantBaseline:
    """Constant baseline hazard rate; cumulative hazard rate * t."""

    rate: float

    def __post_init__(self):
        if not np.isfinite(self.rate) or self.rate <= 0:
            raise ValueError("rate must be positive")

    def cum(self, t):
        return self.rate * np.asarray(t, dtype=float)

    def inverse_cum(self, y):
        return np.asarray(y, dtype=float) / self.rate


@dataclass(frozen=True)
class PiecewiseConstantBaseline:
    """Piecewise-constant rates: rates[k] applies on [breaks[k-1], breaks[k])."""

    breaks: np.ndarray
    rates: np.ndarray

    def __post_init__(self):
        breaks = np.asarray(self.breaks, dtype=float)
        rates = np.asarray(self.rates, dtype=float)
        # 0 < breaks[0] < ... < breaks[-1] < inf and 0 < rates < inf, which NaN fails
        if breaks.ndim != 1 or not ((np.diff(breaks, prepend=0) > 0).all()
                                    and np.isfinite(breaks).all()):
            raise ValueError("breaks must be positive, finite and strictly increasing")
        if rates.shape != (breaks.size + 1,) or not ((0 < rates) & (rates < np.inf)).all():
            raise ValueError("need one positive finite rate per segment (len(breaks) + 1)")
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "rates", rates)
        edges = np.concatenate([[0.0], breaks])
        cum_edges = np.concatenate([[0.0], np.cumsum(rates[:-1] * np.diff(edges))])
        object.__setattr__(self, "_edges", edges)
        object.__setattr__(self, "_cum_edges", cum_edges)

    def cum(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self._edges, t, side="right") - 1
        return self._cum_edges[idx] + self.rates[idx] * (t - self._edges[idx])

    def inverse_cum(self, y):
        y = np.asarray(y, dtype=float)
        idx = np.searchsorted(self._cum_edges, y, side="right") - 1
        idx = np.minimum(idx, self.rates.size - 1)
        return self._edges[idx] + (y - self._cum_edges[idx]) / self.rates[idx]


@dataclass(frozen=True)
class UniformCensoring:
    """Independent censoring uniform on (0, upper]."""

    upper: float

    def __post_init__(self):
        if not np.isfinite(self.upper) or self.upper <= 0:
            raise ValueError("upper must be positive")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(0.0, self.upper, n)


@dataclass(frozen=True)
class ExponentialCensoring:
    """Independent exponential censoring with a given rate."""

    rate: float

    def __post_init__(self):
        if not np.isfinite(self.rate) or self.rate <= 0:
            raise ValueError("rate must be positive")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, n)


@dataclass(frozen=True)
class NoCensoring:
    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, np.inf)


@dataclass(frozen=True)
class NormalCovariate:
    """Standard normal covariate."""

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.standard_normal(n)


@dataclass(frozen=True)
class TwoPointCovariate:
    """Covariate taking value low with probability prob, else high."""

    low: float
    high: float
    prob: float

    def __post_init__(self):
        if not (np.isfinite(self.low) and np.isfinite(self.high) and 0 < self.prob < 1):
            raise ValueError("low and high must be finite and prob in (0, 1)")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.where(rng.random(n) < self.prob, self.low, self.high)


@dataclass(frozen=True)
class SimDesign:
    """Generating law for one simulated dataset.

    Dimensions (R, L, J) come from ``params``; ``n_time_points`` is the
    number of protocol visits M (every (item, visit) cell is observed).
    Each distribution slot is an object with the method ``generate_dataset``
    calls: ``baseline.inverse_cum(y)``, ``censoring.draw(rng, n)`` and
    ``covariate.draw(rng, n)``.  A slot without its method raises
    ``ValueError`` naming the slot.
    """

    n: int
    params: ModelParams
    n_time_points: int
    baseline: ConstantBaseline | PiecewiseConstantBaseline
    censoring: UniformCensoring | ExponentialCensoring | NoCensoring
    covariate: NormalCovariate | TwoPointCovariate = NormalCovariate()
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.n_time_points < 1:
            raise ValueError("n_time_points must be >= 1")
        for slot, method in (("baseline", "inverse_cum"), ("censoring", "draw"),
                             ("covariate", "draw")):
            if not callable(getattr(getattr(self, slot), method, None)):
                raise ValueError(f"the {slot} has no {method} method: {getattr(self, slot)!r}")


def default_design(n: int = 500, seed: int = 0) -> SimDesign:
    """Desk-scale default: R=2, L=3, J=2, M=3, ~25% uniform censoring."""
    from .ordinal import OrdinalParams
    from .survival import SurvivalParams

    params = ModelParams(
        theta=np.array([0.0, 1.0]),
        ordinal=OrdinalParams(a=np.array([0.0, 0.2, -0.3]),
                              phi=np.array([0.0, 0.5, 1.0]),
                              b=np.array([0.0, 0.5])),
        survival=SurvivalParams(0.5, -0.5),
        pi=np.array([0.4, 0.6]),
    )
    return SimDesign(n=n, params=params, n_time_points=3,
                     baseline=ConstantBaseline(0.1),
                     censoring=UniformCensoring(32.0),
                     covariate=NormalCovariate(), seed=seed)


def generate_dataset(design: SimDesign, rng: np.random.Generator | None = None):
    """Draw one dataset from the joint model.

    Returns ``(records, labels)`` where ``labels`` are the latent group
    indices (0-based), kept separate for diagnostics only.  Draw order is
    fixed (groups, covariates, ordinal responses, failure times, censoring
    times), so a fixed seed reproduces the dataset exactly.

    The category probabilities come from the ordinal table kernel
    ``ordinal._linear_predictor``, the one the likelihood, the scores and Q
    use.  A response is 1 plus the number of the first L - 1 cumulative
    probabilities its uniform draw exceeds, so it is at most L even when the
    last cumulative probability rounds below 1.

    Every draw is taken for all subjects at once.  The records are then built
    in one pass over the columns as Python lists; each subject's
    ``ResponseSet`` shares one read-only item column and one time column and
    validates its own levels.
    """
    if rng is None:
        rng = np.random.default_rng(design.seed)
    params = design.params
    n, m_pts = design.n, design.n_time_points
    R, L, J = params.n_groups, params.n_levels, params.n_items

    labels = rng.choice(R, size=n, p=params.pi)
    x = design.covariate.draw(rng, n)

    ordinal = params.ordinal
    eta, logz = _linear_predictor(ordinal.a, ordinal.phi, ordinal.b, params.theta)
    # only the first L - 1 thresholds: the last can round below 1
    cum_probs = np.cumsum(np.exp(eta - logz[..., None]), axis=2)[:, :, :L - 1]
    u = rng.random((n, J, m_pts))
    levels = (u[:, :, :, None] > cum_probs[labels][:, :, None, :]).sum(axis=3) + 1

    lp = linear_predictors(params.theta, params.survival, x)[np.arange(n), labels]
    exp_draws = np.maximum(rng.exponential(1.0, n), np.finfo(float).tiny)
    failure = design.baseline.inverse_cum(exp_draws * np.exp(-lp))
    censor = design.censoring.draw(rng, n)
    observed = np.minimum(failure, censor)
    events = (failure <= censor).astype(int)

    frac_censored = 1.0 - events.mean()
    if frac_censored > 0.8:
        warnings.warn(f"realized censoring fraction {frac_censored:.2f} exceeds 0.8",
                      RuntimeWarning, stacklevel=2)

    # read-only and owning, so every subject's ResponseSet shares them uncopied
    item_col = _readonly(np.repeat(np.arange(1, J + 1), m_pts), np.int64)
    time_col = _readonly(np.tile(np.arange(1, m_pts + 1), J), np.int64)
    records = [SubjectRecord(ResponseSet(item_col, time_col, row), SurvivalRecord(t, e, c), i)
               for i, row, t, e, c in zip(range(1, n + 1), levels.reshape(n, J * m_pts),
                                          observed.tolist(), events.tolist(), x.tolist())]
    return records, labels


@dataclass(frozen=True)
class MCReport:
    """Per-parameter Monte Carlo summary of repeated simulate-and-fit runs.

    ``rep_errors`` holds one string per replication: why it failed ("not
    converged: " and the fit's diagnostics, or a numeric error raised by the
    fit as "TypeName: message"), or "" when it converged.
    """

    param_names: tuple[str, ...]
    truth: np.ndarray
    mean_estimate: np.ndarray
    empirical_sd: np.ndarray
    mean_std_error: np.ndarray
    sd_se_ratio: np.ndarray
    coverage: np.ndarray
    n_replications: int
    n_failures: int
    failure_flag: bool
    seed: int
    estimates: np.ndarray
    std_errors: np.ndarray
    rep_converged: np.ndarray
    rep_errors: tuple[str, ...]

    def to_dict(self) -> dict:
        def clean(vec):
            return [float(v) if np.isfinite(v) else None for v in np.atleast_1d(vec)]

        return {
            "param_names": list(self.param_names),
            "truth": clean(self.truth),
            "mean_estimate": clean(self.mean_estimate),
            "empirical_sd": clean(self.empirical_sd),
            "mean_std_error": clean(self.mean_std_error),
            "sd_se_ratio": clean(self.sd_se_ratio),
            "coverage": clean(self.coverage),
            "n_replications": self.n_replications,
            "n_failures": self.n_failures,
            "failure_flag": self.failure_flag,
            "seed": self.seed,
            "rep_errors": list(self.rep_errors),
        }


def _replication_seed(base_seed: int, rep: int) -> int:
    return int(np.random.SeedSequence(entropy=(base_seed, rep)).generate_state(1)[0])


def _run_replication(design: SimDesign, rep: int, config: EMConfig):
    """One simulate-and-fit run: ``(converged, error, estimates, std_errors)``.

    ``error`` is "" for a converged fit.  A numeric fit failure has NaN
    estimates and standard errors.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=design.seed, spawn_key=(rep,)))
    records, _ = generate_dataset(design, rng)
    cfg = replace(config, seed=_replication_seed(config.seed, rep))
    layout = ParamLayout(design.params.n_groups, design.params.n_levels, design.params.n_items)
    try:
        fit = em_fit(records, design.params.n_groups, cfg,
                     n_levels=design.params.n_levels, n_items=design.params.n_items)
    except _NUMERIC_ERRORS as err:  # a numeric fit failure is recorded, not fatal
        nan = np.full(layout.n_free, np.nan)
        return False, f"{type(err).__name__}: {err}", nan, nan
    error = "" if fit.converged else "not converged: " + "; ".join(fit.diagnostics)
    return bool(fit.converged), error, layout.pack(fit.params), fit.std_errors


def mc_normality(design: SimDesign, replications: int, fit_config: EMConfig | None = None,
                 threads: int = 1) -> MCReport:
    """Monte Carlo check of estimator normality: coverage and SD/SE calibration.

    Each replication simulates a dataset, fits it, and records the canonical
    (theta-ascending) estimates with their model-based standard errors.
    Coverage counts |estimate - truth| <= 1.96 SE per free parameter over
    converged replications.  Numeric fit failures (``em._NUMERIC_ERRORS``) are
    recorded with their reason in ``rep_errors``, not fatal, and any other
    exception propagates; the report is flagged when failures exceed 10%.
    Replications run in a pool of ``min(threads, replications)`` processes,
    or serially when that is 1.  Deterministic for fixed (design, seed,
    replications), whatever ``threads``.  A negative ``replications``,
    ``threads`` below 1 or a true theta that is not ascending raises
    :class:`DataError`, a ``ValueError``, before any replication runs.
    """
    if replications < 0:
        raise DataError("replications must be >= 0")
    if threads < 1:
        raise DataError("threads must be >= 1")
    if fit_config is None:
        fit_config = EMConfig(n_restarts=2)
    layout = ParamLayout(design.params.n_groups, design.params.n_levels, design.params.n_items)
    if np.any(np.diff(design.params.theta) < 0):
        raise DataError("true theta must be ascending so fits can be label-aligned to it")
    truth = layout.pack(design.params)
    p = layout.n_free
    names = tuple(layout.names)

    workers = min(threads, replications)   # a fork pool starts all its workers at once
    if workers > 1:
        # imported here, so that importing the package loads no multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_replication, [design] * replications,
                                    range(replications), [fit_config] * replications))
    else:
        results = [_run_replication(design, rep, fit_config) for rep in range(replications)]

    ok = np.array([rec[0] for rec in results], dtype=bool)
    estimates, ses = (np.reshape([rec[k] for rec in results], (replications, p)) for k in (2, 3))
    good_est = estimates[ok]
    good_se = ses[ok]
    n_good = int(ok.sum())
    if n_good:
        mean_est = good_est.mean(axis=0)
        emp_sd = good_est.std(axis=0, ddof=1) if n_good > 1 else np.full(p, np.nan)
        mean_se = good_se.mean(axis=0)
        covered = np.abs(good_est - truth) <= 1.96 * good_se
        coverage = covered.mean(axis=0)
        ratio = emp_sd / mean_se
    else:
        mean_est = emp_sd = mean_se = ratio = coverage = np.full(p, np.nan)
    n_failures = replications - n_good
    return MCReport(names, truth, mean_est, emp_sd, mean_se, ratio, coverage,
                    replications, n_failures, n_failures > 0.1 * replications,
                    design.seed, estimates, ses, ok, tuple(rec[1] for rec in results))
