from dataclasses import replace

import numpy as np
import pytest

from jointmix import (EMConfig, ModelParams, OrdinalParams, ResponseSet, SubjectRecord,
                      SurvivalParams, SurvivalRecord, default_design, em_fit,
                      generate_dataset)


def make_responses(cells):
    """cells: list of (item, time_point, level) triples (1-based)."""
    if not cells:
        return ResponseSet.empty()
    items, times, levels = zip(*cells)
    return ResponseSet(np.asarray(items), np.asarray(times), np.asarray(levels))


def make_subject(time, event, covariate, cells=(), subject_id=None):
    return SubjectRecord(make_responses(list(cells)),
                         SurvivalRecord(time, event, covariate), subject_id)


def survival_only(times, events, covariates):
    return [make_subject(t, d, x) for t, d, x in zip(times, events, covariates)]


def rescaled(records, time_scale=1.0, shift=0.0):
    """The records with every time multiplied by ``time_scale`` and ``shift`` added to X."""
    return [replace(r, survival=SurvivalRecord(time_scale * r.survival.time, r.survival.event,
                                               r.survival.covariate + shift))
            for r in records]


def random_params(rng, n_groups, n_levels, n_items, spread=0.6):
    theta = np.concatenate([[0.0], np.sort(rng.normal(0.0, 1.0, n_groups - 1))])
    a = np.concatenate([[0.0], rng.normal(0.0, spread, n_levels - 1)])
    b = np.concatenate([[0.0], rng.normal(0.0, spread, n_items - 1)])
    cuts = np.sort(rng.uniform(0.05, 0.95, n_levels - 2))
    phi = np.concatenate([[0.0], cuts, [1.0]])
    pi = rng.dirichlet(np.full(n_groups, 5.0))
    return ModelParams(theta, OrdinalParams(a, phi, b),
                       SurvivalParams(float(rng.normal(0, spread)), float(rng.normal(0, spread))),
                       pi)


def random_gamma(rng, n, n_groups):
    return rng.dirichlet(np.ones(n_groups), size=n)


def random_dataset(rng, n, params, n_time_points=2, censor_upper=8.0):
    """Small generic dataset drawn from an arbitrary parameter point."""
    from jointmix.simulation import SimDesign, UniformCensoring, ConstantBaseline, generate_dataset
    design = SimDesign(n=n, params=params, n_time_points=n_time_points,
                       baseline=ConstantBaseline(0.15),
                       censoring=UniformCensoring(censor_upper),
                       seed=int(rng.integers(2 ** 31)))
    return generate_dataset(design)[0]


@pytest.fixture(scope="session")
def converged_fit():
    """One converged default-design fit shared by inference tests."""
    design = default_design(n=300, seed=21)
    records, _ = generate_dataset(design)
    fit = em_fit(records, 2, EMConfig(n_restarts=2, max_iter=4000, seed=5))
    assert fit.converged
    return design, records, fit
