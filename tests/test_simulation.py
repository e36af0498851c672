import concurrent.futures

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import jointmix.simulation
from jointmix import (ConstantBaseline, EMConfig, ModelParams, NoCensoring, OrdinalParams,
                      PackedData, PiecewiseConstantBaseline, SimDesign, SurvivalParams,
                      TwoPointCovariate, UniformCensoring, default_design, generate_dataset,
                      mc_normality)

from oracles import category_probs


def wide_design(n: int, seed: int = 0) -> SimDesign:
    """R=3, L=5, J=4 and M=4 visits; baseline and censoring as in default_design."""
    params = ModelParams(
        theta=np.array([0.0, 0.8, 1.6]),
        ordinal=OrdinalParams(a=np.array([0.0, 0.3, 0.1, -0.2, -0.5]),
                              phi=np.array([0.0, 0.3, 0.55, 0.8, 1.0]),
                              b=np.array([0.0, 0.4, -0.3, 0.2])),
        survival=SurvivalParams(0.5, -0.5),
        pi=np.array([0.3, 0.4, 0.3]),
    )
    return SimDesign(n=n, params=params, n_time_points=4, baseline=ConstantBaseline(0.1),
                     censoring=UniformCensoring(32.0), seed=seed)


class UniformsAt:
    """A generator that draws every uniform at ``value`` and the rest as ``rng`` does."""

    def __init__(self, rng: np.random.Generator, value: float):
        self.rng, self.value = rng, value

    def random(self, size):
        return np.full(size, self.value)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def serialize(records, labels):
    return repr([(r.subject_id, r.survival.time, r.survival.event, r.survival.covariate,
                  r.responses.items.tolist(), r.responses.time_points.tolist(),
                  r.responses.levels.tolist()) for r in records]) + repr(labels.tolist())


class TestBaselines:
    def test_constant_cum_and_inverse(self):
        base = ConstantBaseline(0.25)
        np.testing.assert_allclose(base.cum(4.0), 1.0)
        np.testing.assert_allclose(base.inverse_cum(base.cum(3.7)), 3.7)

    @given(st.floats(0.01, 20.0))
    @settings(max_examples=50, deadline=None)
    def test_piecewise_roundtrip(self, t):
        base = PiecewiseConstantBaseline(np.array([1.0, 3.0]), np.array([0.5, 0.1, 0.9]))
        np.testing.assert_allclose(base.inverse_cum(base.cum(t)), t, rtol=1e-10)

    def test_piecewise_cum_values(self):
        base = PiecewiseConstantBaseline(np.array([1.0, 3.0]), np.array([0.5, 0.1, 0.9]))
        assert base.cum(0.0) == 0.0
        assert base.cum(1.0) == pytest.approx(0.5)
        assert base.cum(2.0) == pytest.approx(0.6)
        assert base.cum(5.0) == pytest.approx(0.5 + 0.2 + 1.8)

    def test_validation(self):
        with pytest.raises(ValueError):
            ConstantBaseline(0.0)
        with pytest.raises(ValueError):
            PiecewiseConstantBaseline(np.array([2.0, 1.0]), np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            PiecewiseConstantBaseline(np.array([1.0]), np.array([1.0]))


class TestGenerateDataset:
    def test_fixed_seed_reproduces_exactly(self):
        design = default_design(n=60, seed=5)
        one = serialize(*generate_dataset(design))
        two = serialize(*generate_dataset(design))
        assert one == two

    def test_single_group_labels(self):
        params = ModelParams(np.array([0.0]),
                             OrdinalParams(np.array([0.0, 0.2]), np.array([0.0, 1.0]),
                                           np.array([0.0])),
                             SurvivalParams(0.0, 0.3), np.array([1.0]))
        design = SimDesign(n=40, params=params, n_time_points=2,
                           baseline=ConstantBaseline(0.2), censoring=NoCensoring(), seed=1)
        _, labels = generate_dataset(design)
        assert np.all(labels == 0)

    def test_exponential_failure_times_when_delta_zero(self):
        # delta = (0, 0) and constant baseline: T ~ Exponential(rate) in every group
        params = ModelParams(np.array([0.0, 1.0]),
                             OrdinalParams(np.array([0.0, 0.2]), np.array([0.0, 1.0]),
                                           np.array([0.0])),
                             SurvivalParams(0.0, 0.0), np.array([0.5, 0.5]))
        design = SimDesign(n=5000, params=params, n_time_points=1,
                           baseline=ConstantBaseline(0.3), censoring=NoCensoring(), seed=2)
        records, _ = generate_dataset(design)
        times = np.array([r.survival.time for r in records])
        assert all(r.survival.event == 1 for r in records)
        result = stats.kstest(times, stats.expon(scale=1 / 0.3).cdf)
        assert result.statistic < 1.36 / np.sqrt(5000)  # 5% critical value

    def test_group_rates_differ_with_delta(self):
        design = default_design(n=4000, seed=3)
        records, labels = generate_dataset(design)
        events = np.array([r.survival.event for r in records])
        times = np.array([r.survival.time for r in records])
        # group 2 has theta=1, delta0=0.5: higher hazard, shorter lives
        assert times[labels == 1].mean() < times[labels == 0].mean()
        assert 0.15 < 1 - events.mean() < 0.40

    def test_levels_follow_category_probs(self):
        design = default_design(n=6000, seed=4)
        records, labels = generate_dataset(design)
        params = design.params
        item = 2
        level_counts = np.zeros(3)
        group_mask = labels == 1
        for rec, keep in zip(records, group_mask):
            if not keep:
                continue
            sel = rec.responses.items == item
            for lev in rec.responses.levels[sel]:
                level_counts[lev - 1] += 1
        freq = level_counts / level_counts.sum()
        expected = category_probs(item, float(params.theta[1]), params.ordinal)
        np.testing.assert_allclose(freq, expected, atol=0.02)

    @pytest.mark.parametrize("design", [default_design(n=300, seed=16), wide_design(300, seed=17)],
                             ids=["default", "wide"])
    def test_levels_match_a_per_point_draw(self, design):
        # the same uniforms, thresholded one (subject, item, visit) at a time
        records, labels = generate_dataset(design)
        params = design.params
        rng = np.random.default_rng(design.seed)
        rng.choice(params.n_groups, size=design.n, p=params.pi)
        rng.standard_normal(design.n)
        u = rng.random((design.n, params.n_items, design.n_time_points))
        for i, rec in enumerate(records):
            expected = []
            for j in range(params.n_items):
                cum = np.cumsum(category_probs(j + 1, float(params.theta[labels[i]]),
                                               params.ordinal))
                expected += [1 + int(np.sum(u[i, j, m] > cum[:-1]))
                             for m in range(design.n_time_points)]
            assert rec.responses.levels.tolist() == expected, i

    def test_uniform_just_below_one_draws_the_top_level(self):
        # some cumulative rows of this design end at 1 - 2^-52; u = 1 - 2^-53 exceeds them
        design = wide_design(50, seed=18)
        rng = UniformsAt(np.random.default_rng(design.seed), np.nextafter(1.0, 0.0))
        records, _ = generate_dataset(design, rng)
        L = design.params.n_levels
        assert all(rec.responses.levels.tolist() == [L] * rec.responses.n_cells
                   for rec in records)
        PackedData(records, L, design.params.n_items)

    def test_two_point_covariate(self):
        design = default_design(n=500, seed=6)
        design = SimDesign(n=500, params=design.params, n_time_points=3,
                           baseline=design.baseline, censoring=design.censoring,
                           covariate=TwoPointCovariate(-1.0, 2.0, 0.3), seed=6)
        records, _ = generate_dataset(design)
        values = {r.survival.covariate for r in records}
        assert values <= {-1.0, 2.0}

    def test_heavy_censoring_warns(self):
        design = default_design(n=300, seed=7)
        design = SimDesign(n=300, params=design.params, n_time_points=3,
                           baseline=design.baseline, censoring=UniformCensoring(0.05), seed=7)
        with pytest.warns(RuntimeWarning, match="censoring"):
            generate_dataset(design)

    def test_default_design_censoring_near_quarter(self):
        design = default_design(n=4000, seed=8)
        records, _ = generate_dataset(design)
        frac = 1 - np.mean([r.survival.event for r in records])
        assert 0.18 < frac < 0.32


class TestMcNormality:
    def test_zero_replications_empty_report(self):
        report = mc_normality(default_design(n=50, seed=0), 0)
        assert report.n_replications == 0
        assert report.n_failures == 0
        assert report.estimates.shape[0] == 0
        assert report.rep_converged.shape == (0,) and report.rep_errors == ()
        assert not report.failure_flag and np.isnan(report.coverage).all()

    def test_determinism(self):
        design = default_design(n=60, seed=9)
        config = EMConfig(n_restarts=1, max_iter=60, seed=11)
        one = mc_normality(design, 3, config)
        two = mc_normality(design, 3, config)
        np.testing.assert_array_equal(one.estimates, two.estimates)
        np.testing.assert_array_equal(one.std_errors, two.std_errors)
        assert one.to_dict() == two.to_dict()

    def test_threads_match_serial(self):
        design = default_design(n=50, seed=10)
        config = EMConfig(n_restarts=1, max_iter=40, seed=12)
        serial = mc_normality(design, 4, config, threads=1)
        parallel = mc_normality(design, 4, config, threads=2)
        np.testing.assert_array_equal(serial.estimates, parallel.estimates)

    def test_failures_recorded_not_fatal(self):
        design = default_design(n=40, seed=13)
        config = EMConfig(n_restarts=1, max_iter=2, seed=13)
        report = mc_normality(design, 3, config)
        assert report.n_failures + int(report.rep_converged.sum()) == 3
        assert report.failure_flag == (report.n_failures > 0.3)
        assert [e == "" for e in report.rep_errors] == report.rep_converged.tolist()

    def test_numeric_failures_are_recorded_and_others_propagate(self, monkeypatch):
        design = default_design(n=40, seed=15)

        def fail_with(error):
            def em_fit(*args, **kwargs):
                raise error
            return em_fit

        monkeypatch.setattr(jointmix.simulation, "em_fit",
                            fail_with(FloatingPointError("weights overflowed")))
        report = mc_normality(design, 2, threads=1)
        assert report.n_failures == 2 and not report.rep_converged.any()
        assert np.isnan(report.estimates).all()
        assert report.rep_errors == ("FloatingPointError: weights overflowed",) * 2
        assert report.to_dict()["rep_errors"] == ["FloatingPointError: weights overflowed"] * 2
        monkeypatch.setattr(jointmix.simulation, "em_fit", fail_with(TypeError("a bug")))
        with pytest.raises(TypeError, match="a bug"):
            mc_normality(design, 2, threads=1)

    @pytest.mark.parametrize("threads, replications, pools", [
        (64, 2, [2]), (3, 5, [3]), (2, 1, []), (4, 0, []), (1, 3, [])])
    def test_the_pool_has_no_more_workers_than_replications(self, monkeypatch, threads,
                                                            replications, pools):
        # a fork pool starts all max_workers processes at its first submit
        built = []

        class RecordingPool:
            def __init__(self, max_workers):
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        def replication(design, rep, config):
            return {"rep": rep, "ok": False, "error": "stub"}

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(jointmix.simulation, "_run_replication", replication)
        report = mc_normality(default_design(n=40, seed=16), replications, threads=threads)
        assert built == pools
        assert report.rep_errors == ("stub",) * replications
        with pytest.raises(ValueError, match="threads"):
            mc_normality(default_design(n=40, seed=16), replications, threads=0)

    def test_a_non_converged_replication_keeps_the_fit_diagnostics(self):
        # replication 6 of default_design(n=500) has its MLE at phi[2] = 1, reached but
        # not certified
        design = default_design(n=500, seed=0)
        rec = jointmix.simulation._run_replication(design, 6, EMConfig(n_restarts=2, max_iter=20_000))
        assert not rec["ok"]
        assert rec["error"] == "not converged: first-order condition not met at exit"

    def test_truth_must_be_canonical(self):
        base = default_design(n=40, seed=14)
        params = ModelParams(np.array([0.0, -1.0]), base.params.ordinal,
                             base.params.survival, base.params.pi)
        design = SimDesign(n=40, params=params, n_time_points=3,
                           baseline=base.baseline, censoring=base.censoring, seed=14)
        with pytest.raises(ValueError):
            mc_normality(design, 1)
