import gc
import math
import tracemalloc

import numpy as np
import pytest

import jointmix.inference
from jointmix import (EMConfig, ModelParams, MStepError, OrdinalParams, ParamLayout, Posterior,
                      SurvivalParams, e_step, em_fit, fixed_point_posterior, m_step_theta,
                      relabel_ascending)
from jointmix.data import PackedData
from jointmix.em import _bfgs, _MStepContext, _ProfileObjective
from jointmix.simulation import (ConstantBaseline, SimDesign, UniformCensoring, _replication_seed,
                                 default_design, generate_dataset)

from conftest import make_subject, random_dataset, random_gamma, random_params, rescaled
from oracles import m_step_pi, observed_loglik, ordinal_loglik, profile_hazard, survival_loglik


def two_group_params(theta2=1.0, pi=(0.5, 0.5), delta=(0.4, -0.3)):
    return ModelParams(
        theta=np.array([0.0, theta2]),
        ordinal=OrdinalParams(np.array([0.0, 0.2, -0.1]), np.array([0.0, 0.5, 1.0]),
                              np.array([0.0, 0.3])),
        survival=SurvivalParams(*delta),
        pi=np.asarray(pi, dtype=float),
    )


def small_dataset(rng, n=12, params=None):
    params = params or two_group_params()
    design = SimDesign(n=n, params=params, n_time_points=2,
                       baseline=ConstantBaseline(0.2), censoring=UniformCensoring(9.0),
                       seed=int(rng.integers(2 ** 31)))
    return generate_dataset(design)[0]


class TestEStep:
    def test_identical_components_give_half(self):
        params = two_group_params(theta2=0.0, delta=(0.0, -0.3))
        records = small_dataset(np.random.default_rng(0), 8, params)
        hazard = profile_hazard(records, np.tile(params.pi, (8, 1)), params.theta, params.survival)
        post = e_step(records, params, hazard)
        np.testing.assert_allclose(post.gamma, 0.5, atol=1e-12)

    def test_single_group_gives_one(self):
        rng = np.random.default_rng(1)
        params = random_params(rng, 1, 3, 2)
        records = small_dataset(rng, 6, params)
        hazard = profile_hazard(records, np.ones((6, 1)), params.theta, params.survival)
        post = e_step(records, params, hazard)
        np.testing.assert_array_equal(post.gamma, 1.0)

    def test_direct_ratio_oracle(self):
        params = two_group_params(theta2=1.2, pi=(0.3, 0.7))
        records = [make_subject(1.0, 1, 0.5, [(1, 1, 2), (2, 1, 3)]),
                   make_subject(2.0, 0, -0.8, [(1, 1, 1)])]
        gamma0 = np.tile(params.pi, (2, 1))
        hazard = profile_hazard(records, gamma0, params.theta, params.survival)
        post = e_step(records, params, hazard)
        for i, rec in enumerate(records):
            weights = []
            for r in range(2):
                w = params.pi[r]
                w *= math.exp(ordinal_loglik(rec.responses, params.theta[r], params.ordinal))
                w *= math.exp(survival_loglik(rec.survival, params.theta[r], hazard,
                                              params.survival))
                weights.append(w)
            expected = np.asarray(weights) / sum(weights)
            np.testing.assert_allclose(post.gamma[i], expected, rtol=1e-12)

    def test_rows_on_simplex(self):
        rng = np.random.default_rng(2)
        params = two_group_params()
        records = small_dataset(rng, 40, params)
        gamma0 = random_gamma(rng, 40, 2)
        hazard = profile_hazard(records, gamma0, params.theta, params.survival)
        post = e_step(records, params, hazard)
        assert np.all(post.gamma >= 0) and np.all(post.gamma <= 1)
        np.testing.assert_allclose(post.gamma.sum(axis=1), 1.0, atol=1e-12)


class TestMStepPi:
    def test_single_column(self):
        assert m_step_pi(Posterior(np.ones((5, 1)))) == pytest.approx([1.0])

    def test_counting(self):
        gamma = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(m_step_pi(Posterior(gamma)), [0.5, 0.5])

    def test_column_means_oracle(self):
        rng = np.random.default_rng(3)
        gamma = random_gamma(rng, 7, 3)
        expected = np.array([sum(gamma[i, r] for i in range(7)) / 7 for r in range(3)])
        np.testing.assert_allclose(m_step_pi(Posterior(gamma)), expected, rtol=1e-14)


class TestMStepTheta:
    def test_fixed_point_returned_unchanged(self):
        rng = np.random.default_rng(4)
        params = two_group_params()
        records = small_dataset(rng, 30, params)
        gamma = random_gamma(rng, 30, 2)
        once = m_step_theta(records, gamma, params)
        twice = m_step_theta(records, gamma, once)
        layout = ParamLayout(2, 3, 2)
        np.testing.assert_allclose(layout.pack(twice), layout.pack(once), atol=1e-6)

    def test_delta_only_problem_matches_grid_search(self):
        # survival-only records, one group: only delta1 is identified
        # (theta[1]=0 makes delta0 flat, checked below)
        rng = np.random.default_rng(5)
        n = 5
        times = rng.exponential(1.5, n) + 0.1
        events = np.array([1, 1, 0, 1, 1])
        x = rng.normal(0, 1, n)
        records = [make_subject(t, int(d), xi) for t, d, xi in zip(times, events, x)]
        packed = PackedData.coerce(records)
        gamma = np.ones((n, 1))
        params = ModelParams(np.array([0.0]),
                             OrdinalParams(np.array([0.0, 0.0]), np.array([0.0, 1.0]),
                                           np.array([0.0])),
                             SurvivalParams(0.0, 0.0), np.array([1.0]))
        layout = ParamLayout(1, 2, 1)
        ctx = _MStepContext(packed, gamma, layout)

        def objective(d0, d1):
            y = layout.pack_opt(params)
            y[layout.idx_d0] = d0
            y[layout.idx_d1] = d1
            return -ctx.neg_q_grad(y)[0]

        fitted = m_step_theta(records, gamma, params)
        grid = np.linspace(-2, 2, 81)
        values = np.array([[objective(d0, d1) for d1 in grid] for d0 in grid])
        k0, k1 = np.unravel_index(np.argmax(values), values.shape)
        # refine the identified coordinate on a fine local grid
        fine = np.linspace(grid[k1] - 0.1, grid[k1] + 0.1, 401)
        best_d1 = fine[np.argmax([objective(0.0, d1) for d1 in fine])]
        assert fitted.survival.delta1 == pytest.approx(best_d1, abs=1e-3)
        # the objective is flat along delta0 at theta = (0,)
        flat = [objective(d0, fitted.survival.delta1) for d0 in (-2.0, -0.5, 1.0, 2.0)]
        np.testing.assert_allclose(flat, flat[0], rtol=1e-12)

    def test_objective_never_decreases(self):
        rng = np.random.default_rng(6)
        layout = ParamLayout(2, 3, 2)
        for trial in range(20):
            params = random_params(rng, 2, 3, 2)
            records = small_dataset(rng, 15, two_group_params())
            packed = PackedData.coerce(records, 3, 2)
            gamma = random_gamma(rng, 15, 2)
            ctx = _MStepContext(packed, gamma, layout)
            entry = ctx.neg_q_grad(layout.pack_opt(params))[0]
            fitted = m_step_theta(records, gamma, params)
            exit_val = ctx.neg_q_grad(layout.pack_opt(fitted))[0]
            assert exit_val <= entry + 1e-12

    def test_non_finite_entry_raises_with_the_entry_point(self):
        rng = np.random.default_rng(9)
        params = two_group_params()
        records = small_dataset(rng, 20, params)
        gamma = random_gamma(rng, 20, 2)
        gamma[3, 1] = np.inf
        with pytest.raises(MStepError, match="not finite at the entry point") as err:
            m_step_theta(records, gamma, params)
        assert err.value.best_params is params

    def test_pi_untouched(self):
        rng = np.random.default_rng(7)
        params = two_group_params(pi=(0.25, 0.75))
        records = small_dataset(rng, 20, params)
        fitted = m_step_theta(records, random_gamma(rng, 20, 2), params)
        np.testing.assert_array_equal(fitted.pi, params.pi)


class TestObservedLoglik:
    def test_single_group_decomposition(self):
        rng = np.random.default_rng(8)
        params = random_params(rng, 1, 3, 2)
        records = small_dataset(rng, 10, params)
        hazard = profile_hazard(records, np.ones((10, 1)), params.theta, params.survival)
        total = observed_loglik(records, params, hazard)
        expected = sum(
            ordinal_loglik(rec.responses, params.theta[0], params.ordinal)
            + survival_loglik(rec.survival, params.theta[0], hazard, params.survival)
            for rec in records)
        assert total == pytest.approx(expected, rel=1e-12)

    def test_identical_components_collapse(self):
        params2 = two_group_params(theta2=0.0, delta=(0.0, -0.3), pi=(0.5, 0.5))
        params1 = ModelParams(np.array([0.0]), params2.ordinal, params2.survival,
                              np.array([1.0]))
        records = small_dataset(np.random.default_rng(9), 10, params2)
        hazard = profile_hazard(records, np.tile(params2.pi, (10, 1)), params2.theta,
                                params2.survival)
        ll2 = observed_loglik(records, params2, hazard)
        ll1 = observed_loglik(records, params1, hazard)
        assert ll2 == pytest.approx(ll1, rel=1e-12)

    def test_direct_summation_oracle(self):
        params = two_group_params(pi=(0.4, 0.6))
        records = [make_subject(1.0, 1, 0.2, [(1, 1, 2)]),
                   make_subject(0.5, 0, -0.4, [(2, 1, 3), (1, 2, 1)])]
        gamma0 = np.tile(params.pi, (2, 1))
        hazard = profile_hazard(records, gamma0, params.theta, params.survival)
        total = observed_loglik(records, params, hazard)
        expected = 0.0
        for rec in records:
            mix = 0.0
            for r in range(2):
                mix += params.pi[r] * math.exp(
                    ordinal_loglik(rec.responses, params.theta[r], params.ordinal)
                    + survival_loglik(rec.survival, params.theta[r], hazard, params.survival))
            expected += math.log(mix)
        assert total == pytest.approx(expected, rel=1e-12)


class TestRelabel:
    def test_canonical_form_and_idempotence(self):
        params = ModelParams(
            theta=np.array([0.0, -0.9, 0.4]),
            ordinal=OrdinalParams(np.array([0.0, 0.2, -0.1]), np.array([0.0, 0.5, 1.0]),
                                  np.array([0.0, 0.3])),
            survival=SurvivalParams(0.5, -0.2),
            pi=np.array([0.5, 0.3, 0.2]),
        )
        rng = np.random.default_rng(10)
        records = small_dataset(rng, 25, two_group_params())
        gamma = random_gamma(rng, 25, 3)
        hazard = profile_hazard(records, gamma, params.theta, params.survival)

        new_params, new_hazard, new_gamma = relabel_ascending(params, hazard, gamma)
        assert new_params.theta[0] == 0.0
        assert np.all(np.diff(new_params.theta) >= 0)
        np.testing.assert_allclose(sorted(new_params.pi), sorted(params.pi))
        # likelihood is invariant under the relabeling transform
        ll_old = observed_loglik(records, params, hazard)
        ll_new = observed_loglik(records, new_params, new_hazard)
        assert ll_new == pytest.approx(ll_old, rel=1e-10)
        # responsibilities permute consistently and the profiled hazard transforms exactly
        again = relabel_ascending(new_params, new_hazard, new_gamma)
        np.testing.assert_array_equal(again[0].theta, new_params.theta)
        np.testing.assert_array_equal(again[2], new_gamma)
        rebuilt = profile_hazard(records, new_gamma, new_params.theta, new_params.survival)
        np.testing.assert_allclose(rebuilt.jumps, new_hazard.jumps, rtol=1e-12)

    def test_noop_when_already_canonical(self):
        params = two_group_params()
        out, _, _ = relabel_ascending(params)
        assert out is params


class TestEmFit:
    def test_trace_monotone_and_posterior_valid(self):
        design = default_design(n=80, seed=3)
        records, _ = generate_dataset(design)
        fit = em_fit(records, 2, EMConfig(n_restarts=1, max_iter=120, seed=1))
        assert np.all(np.diff(fit.loglik_trace) >= -1e-10)
        Posterior(fit.posterior.gamma)  # revalidates the invariants
        assert np.all(np.diff(fit.params.theta) >= 0)

    @staticmethod
    def three_group_records():
        params = ModelParams(np.array([0.0, 1.5, 3.0]),
                             OrdinalParams(np.array([0.0, 0.3, -0.2]), np.array([0.0, 0.5, 1.0]),
                                           np.array([0.0, 0.4])),
                             SurvivalParams(0.6, -0.4), np.array([0.3, 0.4, 0.3]))
        design = SimDesign(n=150, params=params, n_time_points=3, baseline=ConstantBaseline(0.15),
                           censoring=UniformCensoring(10.0), seed=9)
        return generate_dataset(design)[0]

    def test_three_group_trace_monotone_and_posterior_valid(self):
        # the ascent moves three weights and two theta gaps at once
        records = self.three_group_records()
        fit = em_fit(records, 3, EMConfig(n_restarts=1, max_iter=80, seed=4))
        assert fit.n_iter <= 80
        assert np.all(np.diff(fit.loglik_trace) >= -1e-10)
        Posterior(fit.posterior.gamma)
        assert np.all(np.diff(fit.params.theta) >= 0)

    def test_collapse_ends_the_restart_at_the_first_collapsed_iterate(self):
        # one group of this restart empties within 14 evaluations; checked only at the
        # exit, the ascent would spend over 100 more on the collapsed point
        with pytest.warns(RuntimeWarning, match="singular"):
            fit = em_fit(self.three_group_records(), 3,
                         EMConfig(n_restarts=1, max_iter=2000, seed=4))
        assert fit.n_iter <= 20
        assert "no converged restart; best status: component collapse" in fit.diagnostics
        assert not fit.converged

    def test_exit_is_the_fixed_point_posterior(self, converged_fit):
        _, records, fit = converged_fit
        gamma, _ = fixed_point_posterior(records, fit.params, fit.posterior.gamma)
        assert np.max(np.abs(gamma - fit.posterior.gamma)) <= 1e-10

    @pytest.mark.parametrize("seed", [201, 204])
    def test_subject_order_leaves_the_fit_unchanged(self, converged_fit, seed):
        _, records, fit = converged_fit
        order = np.random.default_rng(seed).permutation(len(records))
        permuted = em_fit([records[i] for i in order], 2,
                          EMConfig(n_restarts=2, max_iter=4000, seed=5))
        assert permuted.converged
        assert permuted.loglik == pytest.approx(fit.loglik, rel=1e-10)
        layout = ParamLayout(2, 3, 2)
        np.testing.assert_allclose(np.concatenate([layout.pack(permuted.params), permuted.params.pi]),
                                   np.concatenate([layout.pack(fit.params), fit.params.pi]),
                                   rtol=0, atol=1e-6)

    def test_group_labels_leave_the_fit_unchanged(self, converged_fit):
        # the same start with its groups relabeled: theta re-normalized to theta[1] = 0,
        # the intercepts absorbing phi * shift, the weights permuted
        design, records, _ = converged_fit
        start, order = design.params, np.array([1, 0])
        shift = float(start.theta[order[0]])
        relabeled = ModelParams(start.theta[order] - shift,
                                OrdinalParams(start.ordinal.a + start.ordinal.phi * shift,
                                              start.ordinal.phi, start.ordinal.b),
                                start.survival, start.pi[order])
        restored = relabel_ascending(relabeled)[0]
        np.testing.assert_allclose(restored.theta, start.theta, rtol=0, atol=1e-15)
        np.testing.assert_allclose(restored.ordinal.a, start.ordinal.a, rtol=0, atol=1e-15)
        config = EMConfig(n_restarts=1, max_iter=4000)
        fits = [em_fit(records, 2, config, init=init) for init in (start, relabeled)]
        assert all(fit.converged for fit in fits)
        assert fits[1].loglik == pytest.approx(fits[0].loglik, rel=1e-10)
        layout = ParamLayout(2, 3, 2)
        one, two = (np.concatenate([layout.pack(fit.params), fit.params.pi]) for fit in fits)
        np.testing.assert_allclose(two, one, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("time_scale, shift", [(3.7, 0.0), (1.0, 1.3)])
    def test_time_scale_and_covariate_shift_leave_the_fit_unchanged(self, converged_fit,
                                                                     time_scale, shift):
        # the Breslow jumps sit at the ordered times and absorb exp(shift * delta1)
        _, records, fit = converged_fit
        moved = em_fit(rescaled(records, time_scale, shift), 2,
                       EMConfig(n_restarts=2, max_iter=4000, seed=5))
        assert moved.converged
        assert moved.loglik == pytest.approx(fit.loglik, rel=1e-10)
        layout = ParamLayout(2, 3, 2)
        np.testing.assert_allclose(np.concatenate([layout.pack(moved.params), moved.params.pi]),
                                   np.concatenate([layout.pack(fit.params), fit.params.pi]),
                                   rtol=0, atol=1e-6)
        np.testing.assert_allclose(moved.hazard.times, time_scale * fit.hazard.times, rtol=1e-15)
        np.testing.assert_allclose(moved.hazard.jumps,
                                   fit.hazard.jumps * np.exp(-shift * fit.params.survival.delta1),
                                   rtol=1e-5, atol=0)

    def test_boundary_optimum_is_reached_and_not_certified(self):
        # replication 6 of default_design(n=500): the MLE has phi[2] = 1 with its free
        # score clipped, so the natural-coordinate score cannot vanish there
        design = default_design(n=500, seed=0)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=design.seed, spawn_key=(6,)))
        records, _ = generate_dataset(design, rng)
        config = EMConfig(n_restarts=2, max_iter=20_000, seed=_replication_seed(0, 6))
        fit = em_fit(records, 2, config, n_levels=3, n_items=2)
        assert fit.n_iter <= config.max_iter
        assert not fit.converged
        assert "first-order condition not met at exit" in fit.diagnostics
        # the accelerated-EM fit of the same data reached -5710.4728652936
        assert fit.loglik >= -5710.4728652936
        assert fit.params.ordinal.phi[1] > 0.9999

    def test_max_iter_bounds_evaluations(self):
        design = default_design(n=120, seed=4)
        records, _ = generate_dataset(design)
        for max_iter in (1, 2, 7):
            fit = em_fit(records, 2, EMConfig(n_restarts=1, max_iter=max_iter, seed=3))
            assert fit.n_iter == max_iter
            assert not fit.converged
            assert np.all(np.diff(fit.loglik_trace) >= -1e-10)

    def test_hazard_shares_the_packed_times(self):
        design = default_design(n=60, seed=5)
        packed = PackedData(generate_dataset(design)[0], 3, 2)
        fit = em_fit(packed, 2, EMConfig(n_restarts=1, max_iter=5, seed=0))
        assert np.shares_memory(fit.hazard.times, packed.distinct_times)

    def test_posterior_is_the_e_step_at_the_fit(self, converged_fit):
        _, records, fit = converged_fit
        expected = e_step(PackedData(records, 3, 2), fit.params, fit.hazard).gamma
        assert np.array_equal(fit.posterior.gamma, expected)
        assert fit.posterior is fit.posterior

    def test_kept_fit_holds_no_posterior(self):
        # n = 2 000: an (n, R) array is 32 000 bytes, twice the allowance over the jumps
        packed = PackedData(generate_dataset(default_design(n=2000, seed=8))[0], 3, 2)
        config = EMConfig(n_restarts=1, seed=0)
        tracemalloc.start()
        try:
            fit = em_fit(packed, 2, config)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0]
            jumps = fit.hazard.jumps.nbytes
            assert fit.packed is packed
            del fit
            gc.collect()
            retained = kept - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert jumps >= 8 * packed.n_times
        assert retained <= jumps + 16 * 1024

    def test_bfgs_starts_from_a_positive_definite_inverse_opg(self, converged_fit, monkeypatch):
        _, records, fit = converged_fit
        starts = []
        inverse_opg = _ProfileObjective.inverse_opg

        def spy(objective):
            h0 = inverse_opg(objective)
            starts.append(h0)
            return h0

        monkeypatch.setattr(_ProfileObjective, "inverse_opg", spy)
        refit = em_fit(records, 2, EMConfig(n_restarts=2, max_iter=4000, seed=5))
        assert refit.n_iter == fit.n_iter
        assert len(starts) == 2
        for h0 in starts:
            assert h0 is not None and h0.shape == (8, 8)
            np.testing.assert_allclose(h0, h0.T, rtol=0, atol=1e-12 * np.max(np.abs(h0)))
            assert np.linalg.eigvalsh((h0 + h0.T) / 2)[0] > 0

    def test_single_group_consistency(self):
        # R=1 data fit with R=1 recovers the generating ordinal/survival
        # parameters within Monte Carlo error at n=500
        params = ModelParams(np.array([0.0]),
                             OrdinalParams(np.array([0.0, 0.3, -0.2]),
                                           np.array([0.0, 0.45, 1.0]),
                                           np.array([0.0, 0.4])),
                             SurvivalParams(0.0, -0.5), np.array([1.0]))
        design = SimDesign(n=500, params=params, n_time_points=3,
                           baseline=ConstantBaseline(0.1), censoring=UniformCensoring(30.0),
                           seed=14)
        records, _ = generate_dataset(design)
        fit = em_fit(records, 1, EMConfig(n_restarts=1, max_iter=300, seed=2))
        layout = ParamLayout(1, 3, 2)
        est = layout.pack(fit.params)
        truth = layout.pack(params)
        se = fit.std_errors
        # delta0 is structurally non-identified at R=1: zero score, flagged SEs
        keep = [i for i, name in enumerate(layout.names) if name != "delta0"]
        assert np.all(np.abs(est[keep] - truth[keep]) <= 3.5 * np.maximum(se[keep], 1e-3))
        assert any("singular" in msg for msg in fit.diagnostics)

    def test_degenerate_dataset_flags_not_nan(self):
        # one subject dominating the time scale; tiny data, R=2
        records = [make_subject(1e-3, 1, 0.0, [(1, 1, 1)]),
                   make_subject(2000.0, 1, 25.0, [(1, 1, 3)]),
                   make_subject(1e-3, 0, -25.0, [(1, 1, 2)])]
        fit = em_fit(records, 2, EMConfig(n_restarts=2, max_iter=40, seed=0),
                     n_levels=3, n_items=1)
        assert np.all(np.isfinite(fit.loglik_trace[np.isfinite(fit.loglik_trace)]))
        assert isinstance(fit.converged, bool)

    def test_init_used_and_dimension_checked(self):
        rng = np.random.default_rng(11)
        params = two_group_params()
        records = small_dataset(rng, 30, params)
        with pytest.raises(ValueError):
            em_fit(records, 3, EMConfig(n_restarts=1, max_iter=5), init=params)
        fit = em_fit(records, 2, EMConfig(n_restarts=1, max_iter=5, seed=0), init=params)
        assert fit.loglik_trace.size >= 1


class TestProfileObjective:
    """The fit's objective against the public fixed point and observed log-likelihood."""

    @staticmethod
    def profile_loglik(packed, params):
        gamma, tables = fixed_point_posterior(packed, params)
        return observed_loglik(packed, params, tables)

    @staticmethod
    def point(layout, z):
        logit = np.concatenate([[0.0], z[layout.n_free:]])
        pi = np.exp(logit) / np.exp(logit).sum()
        return layout.unpack_opt(z[:layout.n_free], pi)

    @pytest.mark.parametrize("n_groups, n_levels, seed", [(2, 3, 31), (3, 4, 32)])
    def test_value_and_gradient_match_the_profile_loglik(self, n_groups, n_levels, seed):
        rng = np.random.default_rng(seed)
        truth = random_params(rng, n_groups, n_levels, 2)
        packed = PackedData.coerce(random_dataset(rng, 40, truth), n_levels, 2)
        layout = ParamLayout(n_groups, n_levels, 2)
        params = random_params(rng, n_groups, n_levels, 2)   # away from the optimum
        log_pi = np.log(params.pi)
        z = np.concatenate([layout.pack_opt(params), log_pi[1:] - log_pi[0]])
        objective = _ProfileObjective(packed, layout, np.tile(params.pi, (packed.n, 1)))
        f, g = objective(z)
        expected = self.profile_loglik(packed, self.point(layout, z))
        assert -f * packed.n == pytest.approx(expected, rel=1e-12)

        fd = np.empty(z.size)
        for c in range(z.size):
            h = 1e-5 * max(1.0, abs(z[c]))
            up, down = z.copy(), z.copy()
            up[c] += h
            down[c] -= h
            fd[c] = (self.profile_loglik(packed, self.point(layout, up))
                     - self.profile_loglik(packed, self.point(layout, down))) / (2 * h)
        assert np.max(np.abs(fd)) > 1e-2         # the check is not at a stationary point
        np.testing.assert_allclose(-g * packed.n, fd, rtol=1e-6, atol=1e-6)

    def test_failed_evaluations_give_inf(self, monkeypatch):
        rng = np.random.default_rng(33)
        params = two_group_params()
        packed = PackedData.coerce(small_dataset(rng, 20, params), 3, 2)
        layout = ParamLayout(2, 3, 2)
        objective = _ProfileObjective(packed, layout, np.tile(params.pi, (20, 1)))
        z = np.concatenate([layout.pack_opt(params), [0.0]])
        z[layout.idx_d1] = np.inf
        f, g = objective(z)
        assert f == np.inf and objective.last is None
        z[layout.idx_d1] = 0.0
        z[-1] = -800.0                            # pi[2] underflows
        assert objective(z)[0] == np.inf
        z[-1] = 0.0
        monkeypatch.setattr(jointmix.inference, "_FIXED_POINT_MAX_ITER", 1)
        assert objective(z)[0] == np.inf          # the fixed point is not reached
        monkeypatch.undo()
        assert np.isfinite(objective(z)[0])
        assert objective.n_eval == 4


class TestInnerOptimizer:
    def test_h0_gives_the_newton_step_on_a_quadratic(self):
        a = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]])
        b = np.array([1.0, -2.0, 0.5])

        def fun(x):
            return 0.5 * x @ a @ x - b @ x, a @ x - b

        x, _, g = _bfgs(fun, np.zeros(3), 1e-12, 50, max_eval=2, h0=lambda: np.linalg.inv(a))
        assert np.max(np.abs(g)) <= 1e-12
        np.testing.assert_allclose(x, np.linalg.solve(a, b), rtol=1e-12)
        _, _, g = _bfgs(fun, np.zeros(3), 1e-12, 50, max_eval=2)
        assert np.max(np.abs(g)) > 1e-12

    def test_singular_opg_falls_back_to_the_identity(self):
        # at R = 1 the delta0 score is identically zero, so S'S / n is singular
        rng = np.random.default_rng(41)
        params = random_params(rng, 1, 3, 2)
        packed = PackedData.coerce(random_dataset(rng, 40, params), 3, 2)
        layout = ParamLayout(1, 3, 2)
        objective = _ProfileObjective(packed, layout, np.ones((packed.n, 1)))
        assert np.isfinite(objective(layout.pack_opt(params))[0])
        assert objective.inverse_opg() is None


class TestConfigValidation:
    def test_bad_config(self):
        with pytest.raises(ValueError):
            EMConfig(tol_loglik=0.0)
        with pytest.raises(ValueError):
            EMConfig(max_iter=0)
        with pytest.raises(ValueError):
            EMConfig(n_restarts=0)

    def test_posterior_validation(self):
        with pytest.raises(ValueError):
            Posterior(np.array([[0.5, 0.6]]))
        with pytest.raises(ValueError):
            Posterior(np.array([[1.2, -0.2]]))
