import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointmix import (ConstantBaseline, HazardSteps, InfoMatrix, ModelParams, OrdinalParams,
                      ParamLayout, SingularInformationError, StepDirection, SurvivalParams,
                      contraction_check, default_design, default_directions,
                      efficient_score_equivalence, fixed_point_posterior, generate_dataset,
                      info_identity_check, information_matrix, mean_profile_score,
                      orthogonality_check, score_matrix, standard_errors)
from jointmix.data import PackedData
from jointmix.inference import pseudo_standard_errors, true_posterior
from jointmix.simulation import SimDesign, UniformCensoring
from jointmix.survival import RiskSetTables

from conftest import make_subject, random_gamma, random_params, random_dataset, rescaled
from oracles import profile_score_obs


def dataset_and_gamma(seed, n=30, n_groups=2, n_levels=3, n_items=2):
    rng = np.random.default_rng(seed)
    params = random_params(rng, n_groups, n_levels, n_items)
    records = random_dataset(rng, n, params)
    gamma = random_gamma(rng, n, n_groups)
    return params, records, gamma


class TestProfileScoreObs:
    def test_single_subject_matches_matrix_row(self):
        params, records, gamma = dataset_and_gamma(0)
        packed = PackedData.coerce(records, 3, 2)
        tables = RiskSetTables(packed, gamma, params.theta, params.survival)
        matrix = score_matrix(packed, params, gamma, tables)
        for i in (0, 7, 29):
            row = profile_score_obs(records[i], params, gamma[i], tables)
            np.testing.assert_allclose(row, matrix[i], rtol=1e-10, atol=1e-12)

    def test_wider_design_rows_with_unnormalized_gamma(self):
        params, records, gamma = dataset_and_gamma(1, n_groups=3, n_levels=5, n_items=4)
        gamma = gamma * np.linspace(0.5, 2.0, len(records))[:, None]
        packed = PackedData.coerce(records, 5, 4)
        tables = RiskSetTables(packed, gamma, params.theta, params.survival)
        matrix = score_matrix(packed, params, gamma, tables)
        for i in (0, 11, 29):
            row = profile_score_obs(records[i], params, gamma[i], tables)
            np.testing.assert_allclose(row, matrix[i], rtol=1e-10, atol=1e-12)

    def test_mean_score_vanishes_at_fit(self, converged_fit):
        design, records, fit = converged_fit
        packed = PackedData.coerce(records, 3, 2)
        tables = RiskSetTables(packed, fit.posterior.gamma, fit.params.theta,
                               fit.params.survival)
        scores = score_matrix(packed, fit.params, fit.posterior.gamma, tables)
        assert np.max(np.abs(scores.mean(axis=0))) <= 1e-6

    def test_matches_fd_of_profile_loglik(self):
        # re-profiles the hazard at each perturbed point, responsibilities fixed
        params, records, gamma = dataset_and_gamma(1, n=12)
        packed = PackedData.coerce(records, 3, 2)
        layout = ParamLayout(2, 3, 2)
        tables = RiskSetTables(packed, gamma, params.theta, params.survival)
        total = score_matrix(packed, params, gamma, tables).sum(axis=0)

        from jointmix.likelihood import _loglik_components

        def weighted_loglik(x):
            p = layout.unpack(x, params.pi)
            t = RiskSetTables(packed, gamma, p.theta, p.survival)
            comp = _loglik_components(packed, p, t) - np.log(p.pi)[None, :]
            return float((gamma * comp).sum())

        x0 = layout.pack(params)
        step = 1e-6
        numeric = np.zeros_like(x0)
        for c in range(x0.size):
            xp, xm = x0.copy(), x0.copy()
            xp[c] += step
            xm[c] -= step
            numeric[c] = (weighted_loglik(xp) - weighted_loglik(xm)) / (2 * step)
        scale = max(1.0, np.max(np.abs(total)))
        assert np.max(np.abs(total - numeric)) / scale < 1e-4


class TestInformationMatrix:
    def test_single_subject_rank_one(self):
        params, records, gamma = dataset_and_gamma(2, n=1)
        info = information_matrix(records, params, gamma)
        eigs = np.linalg.eigvalsh(info.matrix)
        assert (eigs > 1e-12 * max(eigs.max(), 1.0)).sum() <= 1

    def test_duplication_invariance(self):
        params, records, gamma = dataset_and_gamma(3, n=10)
        info_once = information_matrix(records, params, gamma)
        doubled = list(records) + list(records)
        info_twice = information_matrix(doubled, params, np.vstack([gamma, gamma]))
        np.testing.assert_allclose(info_twice.matrix, info_once.matrix, rtol=1e-12)

    def test_psd_and_symmetric(self):
        params, records, gamma = dataset_and_gamma(4, n=25)
        info = information_matrix(records, params, gamma)
        assert np.max(np.abs(info.matrix - info.matrix.T)) <= 1e-10
        assert np.linalg.eigvalsh(info.matrix).min() >= -1e-10

    def test_full_rank_at_truth(self):
        # (R3): empirical efficient information is invertible on simulated data
        design = default_design(n=2000, seed=17)
        records, _ = generate_dataset(design)
        gamma, tables = fixed_point_posterior(records, design.params)
        info = information_matrix(records, design.params, gamma, tables)
        assert np.linalg.eigvalsh(info.matrix).min() > 0
        assert np.isfinite(info.condition)

    def test_symmetry_validation(self):
        with pytest.raises(ValueError):
            InfoMatrix(np.array([[1.0, 0.5], [0.2, 1.0]]), 1.0)


class TestStandardErrors:
    def test_identity_info(self):
        info = InfoMatrix(np.eye(4), 1.0)
        np.testing.assert_allclose(standard_errors(info, 100), 0.1)

    def test_diagonal_closed_form(self):
        info = InfoMatrix(np.diag([4.0, 1.0]), 4.0)
        np.testing.assert_allclose(standard_errors(info, 1), [0.5, 1.0])

    def test_singular_raises_with_direction(self):
        matrix = np.diag([1.0, 0.0])
        info = InfoMatrix(matrix, np.inf)
        with pytest.raises(SingularInformationError) as err:
            standard_errors(info, 10)
        direction = err.value.null_direction
        np.testing.assert_allclose(np.abs(direction), [0.0, 1.0], atol=1e-12)
        ses = pseudo_standard_errors(info, 10)
        np.testing.assert_allclose(ses, [np.sqrt(0.1), 0.0])

    def test_fit_ses_positive_finite(self, converged_fit):
        _, _, fit = converged_fit
        assert np.all(np.isfinite(fit.std_errors))
        assert np.all(fit.std_errors > 0)


class TestInfoIdentity:
    def test_step_bounds_enforced(self):
        params, records, _ = dataset_and_gamma(5, n=5)
        with pytest.raises(ValueError):
            info_identity_check(records, params, step=0.5)

    def test_exact_parametric_toy(self):
        # no ordinal data, one group, delta=(0,0), no censoring: the efficient
        # information for delta1 is Var(X) * P(event) = 1 analytically
        rng = np.random.default_rng(31)
        n = 10000
        x = rng.standard_normal(n)
        times = rng.exponential(1.0, n)
        records = [make_subject(max(t, 1e-9), 1, xi) for t, xi in zip(times, x)]
        params = ModelParams(np.array([0.0]),
                             OrdinalParams(np.array([0.0, 0.0]), np.array([0.0, 1.0]),
                                           np.array([0.0])),
                             SurvivalParams(0.0, 0.0), np.array([1.0]))
        report = info_identity_check(records, params, step=1e-3)
        layout = ParamLayout(1, 2, 1)
        k = layout.idx_d1

        scores = score_matrix(records, params, np.ones((n, 1)))
        mc_se = scores[:, k].__pow__(2).std(ddof=1) / np.sqrt(n)
        assert abs(report.outer_product[k, k] - 1.0) <= 3 * mc_se
        gap = abs(report.fd_jacobian[k, k] - report.outer_product[k, k])
        assert gap / report.outer_product[k, k] < 0.01

    @pytest.mark.parametrize("n_groups", [2, 3])
    def test_jacobian_matches_the_score_matrix_oracle(self, n_groups):
        # the per-point path the check took before the collapsed Q-gradient: a
        # fixed-point solve warm-started at gamma*, then the mean of the score matrix
        params, records, _ = dataset_and_gamma(60 + n_groups, n=300, n_groups=n_groups,
                                               n_levels=4, n_items=3)
        packed = PackedData.coerce(records, 4, 3)
        layout = ParamLayout(n_groups, 4, 3)
        step = 1e-3
        report = info_identity_check(packed, params, step=step)

        gamma_star, _ = fixed_point_posterior(packed, params)
        x0 = layout.pack(params)
        oracle = np.empty_like(report.fd_jacobian)
        for c in range(x0.size):
            h = step * max(1.0, abs(x0[c]))
            means = []
            for sign in (1.0, -1.0):
                x = x0.copy()
                x[c] += sign * h
                perturbed = layout.unpack(x, params.pi)
                gamma, tables = fixed_point_posterior(packed, perturbed, gamma0=gamma_star)
                means.append(score_matrix(packed, perturbed, gamma, tables).mean(axis=0))
            oracle[:, c] = -(means[0] - means[1]) / (2.0 * h)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(report.fd_jacobian - oracle)) <= 1e-8 * scale

    def test_gap_small_on_moderate_sample(self):
        design = default_design(n=1500, seed=23)
        design = SimDesign(n=1500, params=design.params, n_time_points=3,
                           baseline=design.baseline, censoring=design.censoring, seed=23)
        records, _ = generate_dataset(design)
        report = info_identity_check(records, design.params, step=1e-3)
        assert report.rel_frobenius_gap < 0.25
        assert np.all(np.isfinite(report.fd_jacobian))


class TestOrthogonality:
    def test_zero_direction_exactly_zero(self):
        design = default_design(n=200, seed=29)
        records, _ = generate_dataset(design)
        zero = StepDirection(np.empty(0), np.array([0.0]), name="zero")
        stats = orthogonality_check(records, design.params, [zero], design.baseline)
        np.testing.assert_array_equal(stats[0].mean, 0.0)
        assert stats[0].max_abs_ratio == 0.0

    def test_martingale_direction_single_group(self):
        # R=1, delta=(0,0), h == 1: Bh = d - Lambda(T)
        rng = np.random.default_rng(37)
        n = 5000
        params = ModelParams(np.array([0.0]),
                             OrdinalParams(np.array([0.0, 0.25, -0.2]),
                                           np.array([0.0, 0.5, 1.0]),
                                           np.array([0.0, 0.3])),
                             SurvivalParams(0.0, 0.0), np.array([1.0]))
        design = SimDesign(n=n, params=params, n_time_points=2,
                           baseline=ConstantBaseline(0.2), censoring=UniformCensoring(15.0),
                           seed=37)
        records, _ = generate_dataset(design)
        stats = orthogonality_check(records, params, default_directions(records),
                                    design.baseline)
        for st in stats:
            assert st.max_abs_ratio <= 3.0, st.name

    def test_direction_validation(self):
        with pytest.raises(ValueError):
            StepDirection(np.array([2.0, 1.0]), np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            StepDirection(np.array([1.0]), np.array([1.0]))

    def test_indicator_integral_exact(self):
        base = ConstantBaseline(0.5)
        ind = StepDirection(np.array([2.0]), np.array([1.0, 0.0]))
        np.testing.assert_allclose(ind.integral(np.array([1.0, 2.0, 5.0]), base),
                                   [0.5, 1.0, 1.0])


class TestEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_gap_at_roundoff(self, seed):
        params, records, gamma = dataset_and_gamma(seed + 50, n=60)
        gap = efficient_score_equivalence(records, params, gamma)
        assert gap <= 1e-8

    def test_perturbed_hazard_detected(self):
        from jointmix.survival import efficient_scores, profile_scores
        params, records, gamma = dataset_and_gamma(60, n=20)
        packed = PackedData.coerce(records, 3, 2)
        tables = RiskSetTables(packed, gamma, params.theta, params.survival)
        hazard = tables.hazard_steps()
        bumped = HazardSteps(hazard.times, hazard.jumps * 1.1)
        gap = np.max(np.abs(profile_scores(packed, gamma, tables)
                            - efficient_scores(packed, gamma, bumped, tables)))
        assert gap > 1e-4


class TestContraction:
    def test_single_group_always_satisfied(self):
        params, records, gamma = dataset_and_gamma(70, n=20, n_groups=1)
        packed = PackedData.coerce(records, 3, 2)
        tables = RiskSetTables(packed, np.ones((20, 1)), params.theta, params.survival)
        report = contraction_check(records, params, tables.hazard_steps())
        assert report.max_lhs == 0.0
        assert report.satisfied

    def test_zero_delta_always_satisfied(self):
        rng = np.random.default_rng(71)
        base = random_params(rng, 2, 3, 2)
        params = ModelParams(base.theta, base.ordinal, SurvivalParams(0.0, 0.0), base.pi)
        records = random_dataset(rng, 25, params)
        gamma = random_gamma(rng, 25, 2)
        hazard = RiskSetTables(PackedData.coerce(records, 3, 2), gamma, params.theta,
                               params.survival).hazard_steps()
        report = contraction_check(records, params, hazard)
        assert report.max_lhs == pytest.approx(0.0, abs=1e-15)

    def test_direct_evaluation_oracle_and_violation(self):
        import math
        from oracles import ordinal_loglik, survival_loglik

        params = ModelParams(
            np.array([0.0, 3.0]),
            OrdinalParams(np.array([0.0, 0.1]), np.array([0.0, 1.0]), np.array([0.0])),
            SurvivalParams(2.0, 0.0), np.array([0.5, 0.5]))
        records = [make_subject(t, 1, 0.0, [(1, 1, 1 + (i % 2))])
                   for i, t in enumerate([1.0, 2.0, 3.0, 4.0, 5.0])]
        gamma = np.tile(params.pi, (5, 1))
        tables = RiskSetTables(PackedData.coerce(records, 2, 1), gamma, params.theta,
                               params.survival)
        hazard = tables.hazard_steps()
        report = contraction_check(records, params, hazard)

        # independent evaluation with explicit loops
        max_lhs = 0.0
        for rec in records:
            weights = []
            for r in range(2):
                weights.append(params.pi[r] * math.exp(
                    ordinal_loglik(rec.responses, params.theta[r], params.ordinal)
                    + survival_loglik(rec.survival, params.theta[r], hazard, params.survival)))
            total = sum(weights)
            avg = sum(w / total * math.exp(params.theta[r] * params.survival.delta0)
                      for r, w in enumerate(weights))
            for r in range(2):
                lhs = abs(avg - math.exp(params.theta[r] * params.survival.delta0))
                max_lhs = max(max_lhs, lhs)
        assert report.max_lhs == pytest.approx(max_lhs, rel=1e-10)
        # with theta2*delta0 = 6 and a heavy hazard, the bound fails
        assert not report.satisfied

    def test_zero_mass_bound_undefined(self):
        params, records, _ = dataset_and_gamma(72, n=5)
        empty = HazardSteps(np.array([0.5]), np.array([0.0]))
        with pytest.raises(ValueError):
            contraction_check(records, params, empty)


def fixed_point_oracle(packed, params, gamma0=None, tol=1e-12, max_iter=500):
    """Reference solve: full tables and the complete posterior at every step."""
    from jointmix.likelihood import _posterior_matrix
    gamma = np.tile(params.pi, (packed.n, 1)) if gamma0 is None else np.array(gamma0)
    for _ in range(max_iter):
        tables = RiskSetTables(packed, gamma, params.theta, params.survival)
        gamma_new = _posterior_matrix(packed, params, tables)
        step = np.max(np.abs(gamma_new - gamma))
        gamma = gamma_new
        if step < tol:
            break
    return gamma, RiskSetTables(packed, gamma, params.theta, params.survival)


class TestFixedPoint:
    @pytest.mark.parametrize("n_groups", [2, 3])
    @pytest.mark.parametrize("warm", [False, True])
    def test_matches_full_recomputation_oracle(self, n_groups, warm):
        params, records, gamma_warm = dataset_and_gamma(90 + n_groups, n=60, n_groups=n_groups,
                                                        n_levels=4, n_items=3)
        packed = PackedData.coerce(records, 4, 3)
        gamma0 = gamma_warm if warm else None
        gamma, tables = fixed_point_posterior(packed, params, gamma0)
        gamma_ref, tables_ref = fixed_point_oracle(packed, params, gamma0)
        np.testing.assert_allclose(gamma, gamma_ref, rtol=0, atol=1e-12)
        for name in ("jumps", "cum_jumps", "int_ratio"):
            np.testing.assert_allclose(getattr(tables, name), getattr(tables_ref, name),
                                       rtol=1e-12, atol=1e-15, err_msg=name)

    def test_iteration_budget_exhausted_warns(self):
        params, records, _ = dataset_and_gamma(94, n=30)
        with pytest.warns(RuntimeWarning, match="did not converge"):
            gamma, _ = fixed_point_posterior(records, params, max_iter=1)
        packed = PackedData.coerce(records, 3, 2)
        gamma_ref, _ = fixed_point_oracle(packed, params, max_iter=1)
        np.testing.assert_allclose(gamma, gamma_ref, rtol=0, atol=1e-12)

    def test_consistency_of_fixed_point(self):
        params, records, _ = dataset_and_gamma(80, n=40)
        gamma, tables = fixed_point_posterior(records, params)
        from jointmix.likelihood import _posterior_matrix
        packed = PackedData.coerce(records, 3, 2)
        refreshed = _posterior_matrix(packed, params, tables)
        assert np.max(np.abs(refreshed - gamma)) < 1e-10

    def test_mean_profile_score_runs(self):
        params, records, _ = dataset_and_gamma(81, n=20)
        value = mean_profile_score(records, params)
        assert value.shape == (ParamLayout(2, 3, 2).n_free,)
        assert np.all(np.isfinite(value))

    @pytest.mark.parametrize("n_groups", [2, 3])
    def test_mean_profile_score_is_the_score_matrix_mean(self, n_groups):
        params, records, _ = dataset_and_gamma(85 + n_groups, n=200, n_groups=n_groups,
                                               n_levels=4, n_items=3)
        packed = PackedData.coerce(records, 4, 3)
        gamma, tables = fixed_point_posterior(packed, params)
        oracle = score_matrix(packed, params, gamma, tables).mean(axis=0)
        value = mean_profile_score(packed, params)
        assert np.max(np.abs(value - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_kept_pair_holds_gamma_and_jumps_only(self):
        # n = 2 000, R = 3: gamma is 48 000 bytes and the per-group M0 table as much
        params, records, _ = dataset_and_gamma(88, n=2000, n_groups=3)
        packed = PackedData.coerce(records, 3, 2)
        fixed_point_posterior(packed, params)
        gc.collect()
        tracemalloc.start()
        try:
            gamma, tables = fixed_point_posterior(packed, params)
            assert not gamma.flags.writeable
            assert tables.gamma is gamma
            assert RiskSetTables(packed, gamma, params.theta, params.survival).gamma is gamma
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0]
            allowance = gamma.nbytes + tables.jumps.nbytes + 16 * 1024
            del gamma, tables
            gc.collect()
            retained = kept - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained <= allowance

    @given(seed=st.integers(0, 2 ** 16), time_scale=st.floats(0.01, 100.0),
           shift=st.floats(-3.0, 3.0))
    @settings(max_examples=40, deadline=None)
    @pytest.mark.filterwarnings("ignore:realized censoring fraction:RuntimeWarning")
    def test_time_scale_and_covariate_shift(self, seed, time_scale, shift):
        # only the order of the times enters, and exp(shift * delta1) factors out
        # of every exp(lp) into the jumps
        params, records, _ = dataset_and_gamma(seed, n=40)
        packed = PackedData.coerce(records, 3, 2)
        moved = PackedData.coerce(rescaled(records, time_scale, shift), 3, 2)
        gamma, tables = fixed_point_posterior(packed, params)
        gamma_c, tables_c = fixed_point_posterior(moved, params)
        np.testing.assert_allclose(gamma_c, gamma, rtol=0, atol=1e-10)
        np.testing.assert_allclose(tables_c.times, time_scale * tables.times, rtol=1e-15)
        np.testing.assert_allclose(tables_c.jumps,
                                   tables.jumps * np.exp(-shift * params.survival.delta1),
                                   rtol=1e-10, atol=0)
        score = mean_profile_score(packed, params)
        np.testing.assert_allclose(mean_profile_score(moved, params), score,
                                   rtol=0, atol=1e-10 * max(1.0, np.max(np.abs(score))))

    def test_true_posterior_rows_simplex(self):
        design = default_design(n=50, seed=82)
        records, _ = generate_dataset(design)
        gamma = true_posterior(records, design.params, design.baseline)
        np.testing.assert_allclose(gamma.sum(axis=1), 1.0, atol=1e-12)
