import functools
import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jointmix.inference
import jointmix.survival
from jointmix import (ConstantBaseline, HazardSteps, InfoMatrix, ModelParams, OrdinalParams,
                      ParamLayout, SingularInformationError, SurvivalParams,
                      contraction_check, default_design, default_directions, e_step,
                      efficient_score_equivalence, em_fit, fixed_point_posterior, generate_dataset,
                      info_identity_check, information_matrix, mean_profile_score,
                      orthogonality_check, score_matrix, standard_errors)
from jointmix.data import DataError, PackedData
from jointmix.inference import pseudo_standard_errors
from jointmix.ordinal import loglik_matrix
from jointmix.simulation import SimDesign, UniformCensoring
from jointmix.survival import RiskSetTables, efficient_scores, linear_predictors

from conftest import (make_subject, random_gamma, random_params, random_dataset, ratio_table,
                      rescaled)
from oracles import mixture_loglik, profile_score_obs


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
            row = profile_score_obs(records[i], params, gamma[i], tables, packed, gamma)
            np.testing.assert_allclose(row, matrix[i], rtol=1e-10, atol=1e-12)

    def test_wider_design_rows_with_unnormalized_gamma(self):
        params, records, gamma = dataset_and_gamma(1, n_groups=3, n_levels=5, n_items=4)
        gamma = gamma * np.linspace(0.5, 2.0, len(records))[:, None]
        packed = PackedData.coerce(records, 5, 4)
        tables = RiskSetTables(packed, gamma, params.theta, params.survival)
        matrix = score_matrix(packed, params, gamma, tables)
        for i in (0, 11, 29):
            row = profile_score_obs(records[i], params, gamma[i], tables, packed, gamma)
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

        def weighted_loglik(x):
            p = layout.unpack(x, params.pi)
            t = RiskSetTables(packed, gamma, p.theta, p.survival)
            comp = mixture_loglik(packed, p, t) - np.log(p.pi)[None, :]
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
        report = info_identity_check(records, params)
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
        step = jointmix.inference._IDENTITY_STEP
        report = info_identity_check(packed, params)

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
        report = info_identity_check(records, design.params)
        assert report.rel_frobenius_gap < 0.25
        assert np.all(np.isfinite(report.fd_jacobian))

    def test_phi_tied_at_a_boundary_is_a_data_error(self):
        # the step from phi[2] = phi[3] = 1 leaves the parameter space, which is an
        # input error of the caller's parameters, not a failure of the check
        params, records, _ = dataset_and_gamma(73, n=40)
        tied = replace(params, ordinal=OrdinalParams(params.ordinal.a, np.array([0.0, 1.0, 1.0]),
                                                     params.ordinal.b))
        with pytest.raises(DataError, match=r"cannot perturb coordinate phi\[2\]: ") as info:
            info_identity_check(records, tied)
        assert isinstance(info.value, ValueError)


class TestOrthogonality:
    def test_zero_direction_exactly_zero(self):
        # a cutoff below every time: 1[T <= 0] = 0 and Lambda(min(T, 0)) = 0
        design = default_design(n=200, seed=29)
        records, _ = generate_dataset(design)
        assert min(r.survival.time for r in records) > 0.0
        stats = orthogonality_check(records, design.params, [0.0], design.baseline)
        assert stats[0].name == "1[0, 0]"
        np.testing.assert_array_equal(stats[0].mean, 0.0)
        assert stats[0].max_abs_ratio == 0.0

    def test_cutoff_past_the_last_time_is_the_constant_direction(self):
        design = default_design(n=200, seed=30)
        packed = PackedData(generate_dataset(design)[0], 3, 2)
        t_max = float(packed.times.max())
        stats = orthogonality_check(packed, design.params, [np.inf, t_max, 2.0 * t_max],
                                    design.baseline)
        assert [st.name for st in stats] == ["constant 1", f"1[0, {t_max:g}]",
                                             f"1[0, {2.0 * t_max:g}]"]
        for st in stats[1:]:
            np.testing.assert_array_equal(st.mean, stats[0].mean)
            np.testing.assert_array_equal(st.std_error, stats[0].std_error)
            assert st.max_abs_ratio == stats[0].max_abs_ratio

    @pytest.mark.parametrize("cutoff", [np.nan, -1.0])
    def test_invalid_cutoff_rejected(self, cutoff):
        design = default_design(n=60, seed=31)
        records, _ = generate_dataset(design)
        with pytest.raises(ValueError, match="cutoff"):
            orthogonality_check(records, design.params, [1.0, cutoff], design.baseline)

    def test_default_directions_are_constant_then_event_quantiles(self):
        design = default_design(n=200, seed=32)
        packed = PackedData(generate_dataset(design)[0], 3, 2)
        cuts = default_directions(packed)
        event_times = packed.times[packed.events > 0]
        assert cuts[0] == np.inf
        np.testing.assert_array_equal(
            cuts[1:], np.quantile(event_times, jointmix.inference._DIRECTION_QUANTILES))
        stats = orthogonality_check(packed, design.params, cuts, design.baseline)
        assert [st.name for st in stats] == ["constant 1"] + [f"1[0, {c:g}]" for c in cuts[1:]]

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


class TestEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_gap_within_central_difference_error(self, seed):
        params, records, gamma = dataset_and_gamma(seed + 50, n=60)
        gap = efficient_score_equivalence(records, params, gamma)
        assert gap <= 1e-8

    def test_wrong_ratio_table_detected(self, monkeypatch):
        design = default_design(200, 4)
        records, _ = generate_dataset(design)
        gamma, _ = fixed_point_posterior(records, design.params)
        ratio = jointmix.survival._ratio
        monkeypatch.setattr(jointmix.survival, "_ratio", lambda *args: 1.01 * ratio(*args))
        assert efficient_score_equivalence(records, design.params, gamma) > 1e-4

    def test_perturbed_hazard_detected(self):
        from jointmix.survival import profile_scores
        params, records, gamma = dataset_and_gamma(60, n=20)
        packed = PackedData.coerce(records, 3, 2)
        tables = RiskSetTables(packed, gamma, params.theta, params.survival)
        hazard = tables.hazard_steps()
        bumped = HazardSteps(hazard.times, hazard.jumps * 1.1)
        gap = np.max(np.abs(profile_scores(packed, gamma, tables)
                            - efficient_scores(packed, gamma, bumped, tables)))
        assert gap > 1e-4


class TestPackedDimensions:
    def test_packed_data_of_other_dimensions_rejected(self):
        _, records, _ = dataset_and_gamma(95, n=30)
        packed = PackedData(records)
        assert (packed.n_levels, packed.n_items) == (3, 2)
        wider = random_params(np.random.default_rng(96), 2, 3, 3)
        calls = {
            "loglik_matrix": lambda: loglik_matrix(packed, wider.ordinal, wider.theta),
            "fixed_point_posterior": lambda: fixed_point_posterior(packed, wider),
            "mean_profile_score": lambda: mean_profile_score(packed, wider),
            "score_matrix": lambda: score_matrix(packed, wider, np.full((30, 2), 0.5)),
            "info_identity_check": lambda: info_identity_check(packed, wider),
            "em_fit": lambda: em_fit(packed, 2, init=wider),
        }
        for name, call in calls.items():
            with pytest.raises(DataError):
                call()
                pytest.fail(f"{name} accepted packed data of other dimensions")


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

    def test_a_dataset_without_events_is_a_data_error(self):
        # so that the check command reports it as an input error
        params, records, _ = dataset_and_gamma(72, n=5)
        censored = PackedData([replace(r, survival=replace(r.survival, event=0)) for r in records],
                              params.n_levels, params.n_items)
        _, tables = fixed_point_posterior(censored, params)
        with pytest.raises(DataError, match="total hazard mass"):
            contraction_check(censored, params, tables.hazard_steps())
        with pytest.raises(DataError, match="no events in the dataset"):
            default_directions(censored)


def fixed_point_oracle(packed, params, gamma0=None, tol=1e-12, max_iter=500):
    """Reference solve: full tables and the complete posterior at every step, the
    event log-jumps included."""
    from jointmix.likelihood import _posterior_parts
    gamma = np.tile(params.pi, (packed.n, 1)) if gamma0 is None else np.array(gamma0)
    for _ in range(max_iter):
        tables = RiskSetTables(packed, gamma, params.theta, params.survival)
        gamma_new = _posterior_parts(packed, mixture_loglik(packed, params, tables))[2]
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
        np.testing.assert_allclose(tables.jumps, tables_ref.jumps, rtol=1e-12, atol=1e-15,
                                   err_msg="jumps")
        np.testing.assert_allclose(ratio_table(packed, gamma, params.theta, params.survival),
                                   ratio_table(packed, gamma_ref, params.theta, params.survival),
                                   rtol=1e-12, atol=1e-15, err_msg="ratio")

    def test_iteration_budget_exhausted_warns(self, monkeypatch):
        params, records, _ = dataset_and_gamma(94, n=30)
        monkeypatch.setattr(jointmix.inference, "_solve_fixed_point",
                            functools.partial(jointmix.inference._solve_fixed_point, max_iter=1))
        with pytest.warns(RuntimeWarning, match="did not converge"):
            gamma, _ = fixed_point_posterior(records, params)
        packed = PackedData.coerce(records, 3, 2)
        gamma_ref, _ = fixed_point_oracle(packed, params, max_iter=1)
        np.testing.assert_allclose(gamma, gamma_ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_groups", [2, 3])
    def test_e_step_at_profiled_tables_is_one_fixed_point_step(self, n_groups):
        # one E-step: the posterior at the hazard profiled from gamma is the solve's
        # step from gamma to the bit, whether the hazard is read from the tables or
        # from their HazardSteps; every hazard is read by cum(t), so the checks and
        # the efficient scores read both forms alike too
        params, records, gamma = dataset_and_gamma(110 + n_groups, n=80, n_groups=n_groups,
                                                   n_levels=4, n_items=3)
        packed = PackedData.coerce(records, 4, 3)
        step = jointmix.inference._solve_fixed_point(packed, params, gamma, max_iter=1).gamma
        tables = RiskSetTables(packed, gamma, params.theta, params.survival)
        directions = default_directions(packed)
        read = []
        for hazard in (tables, tables.hazard_steps()):
            assert np.array_equal(e_step(packed, params, hazard).gamma, step)
            report = contraction_check(packed, params, hazard)
            ortho = orthogonality_check(packed, params, directions, hazard)
            read.append([report.max_lhs, report.bound,
                         efficient_scores(packed, gamma, hazard, tables),
                         *(st.mean for st in ortho), *(st.std_error for st in ortho),
                         [st.max_abs_ratio for st in ortho]])
        for at_tables, at_steps in zip(*read):
            assert np.array_equal(at_tables, at_steps)

    def test_a_looser_tolerance_stops_sooner_near_the_strict_solution(self):
        design = default_design(n=300, seed=0)
        packed, params = PackedData(generate_dataset(design)[0], 3, 2), design.params
        solve = jointmix.inference._solve_fixed_point
        strict, loose = solve(packed, params, None), solve(packed, params, None, tol=1e-9)
        assert strict.converged and loose.converged
        assert loose.n_steps < strict.n_steps
        assert np.max(np.abs(loose.gamma - strict.gamma)) <= 1e-8

    @pytest.mark.parametrize("budget", [{"max_iter": 0}, {"tol": 0.0}, {"tol": -1e-9},
                                        {"tol": np.inf}, {"tol": np.nan}])
    def test_a_bad_budget_or_tolerance_raises(self, budget):
        params, records, _ = dataset_and_gamma(95, n=20)
        packed = PackedData.coerce(records, 3, 2)
        with pytest.raises(ValueError, match="max_iter|tol"):
            jointmix.inference._solve_fixed_point(packed, params, None, **budget)

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

    @pytest.mark.parametrize("n_groups", [2, 3])
    def test_per_subject_group_arrays_are_column_major(self, n_groups):
        params, records, gamma_c = dataset_and_gamma(96 + n_groups, n=60, n_groups=n_groups)
        packed = PackedData.coerce(records, 3, 2)
        lp = linear_predictors(params.theta, params.survival, packed.covariates)
        assert lp.flags.f_contiguous
        assert loglik_matrix(packed, params.ordinal, params.theta).flags.f_contiguous
        solve = jointmix.inference._solve_fixed_point
        assert solve(packed, params, None).gamma.flags.f_contiguous
        assert gamma_c.flags.c_contiguous and gamma_c.flags.writeable
        before = gamma_c.copy()
        for gamma0 in (gamma_c, solve(packed, params, gamma_c, max_iter=1).gamma):
            warm = solve(packed, params, gamma0, max_iter=1).gamma
            assert warm.flags.f_contiguous and not np.shares_memory(warm, gamma0)
        np.testing.assert_array_equal(gamma_c, before)
        gamma, tables = fixed_point_posterior(packed, params, gamma_c)
        assert gamma.flags.f_contiguous
        assert all(np.shape(kept) != gamma.shape for kept in vars(tables).values())

    def test_kept_pair_holds_gamma_and_jumps_only(self):
        # n = 2 000, R = 3: gamma is 48 000 bytes, and the tables keep no copy of it
        params, records, _ = dataset_and_gamma(88, n=2000, n_groups=3)
        packed = PackedData.coerce(records, 3, 2)
        fixed_point_posterior(packed, params)
        gc.collect()
        tracemalloc.start()
        try:
            gamma, tables = fixed_point_posterior(packed, params)
            assert not gamma.flags.writeable
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0]
            allowance = gamma.nbytes + tables.jumps.nbytes + 16 * 1024
            tables_allowance = tables.jumps.nbytes + 16 * 1024
            del gamma
            gc.collect()
            tables_kept = tracemalloc.get_traced_memory()[0]
            del tables
            gc.collect()
            retained = kept - tracemalloc.get_traced_memory()[0]
            tables_retained = tables_kept - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained <= allowance
        assert tables_retained <= tables_allowance

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
        rows = score_matrix(packed, params, gamma, tables)
        scale = 1e-10 * max(1.0, np.max(np.abs(rows)))
        np.testing.assert_allclose(score_matrix(moved, params, gamma_c, tables_c), rows,
                                   rtol=0, atol=scale)
        # the rows follow the subjects through a reordering
        perm = np.random.default_rng(seed).permutation(packed.n)
        shuffled = PackedData.coerce([records[i] for i in perm], 3, 2)
        gamma_p, tables_p = fixed_point_posterior(shuffled, params)
        np.testing.assert_allclose(score_matrix(shuffled, params, gamma_p, tables_p), rows[perm],
                                   rtol=0, atol=scale)

    def test_true_posterior_rows_simplex(self):
        design = default_design(n=50, seed=82)
        records, _ = generate_dataset(design)
        gamma = e_step(records, design.params, design.baseline).gamma
        np.testing.assert_allclose(gamma.sum(axis=1), 1.0, atol=1e-12)
