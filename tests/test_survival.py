import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jointmix import (EmptyRiskSetError, HazardSteps, InvalidHazardError, SurvivalParams,
                      SurvivalRecord)
from jointmix.data import PackedData
from jointmix.simulation import ConstantBaseline
from jointmix.survival import (RiskSetTables, efficient_scores, loglik_matrix, profile_scores,
                               profiled_loglik)

from conftest import random_gamma, survival_only
from oracles import (cum_hazard, efficient_score_survival, profile_hazard, risk_aggregates,
                     risk_set_tables, survival_loglik, survival_profile_score)


def nelson_aalen_oracle(times, events):
    """Independent loop-based Nelson-Aalen jumps at every distinct time."""
    jumps = {}
    for t in sorted(set(times)):
        d = sum(1.0 for ti, di in zip(times, events) if ti == t and di)
        at_risk = sum(1.0 for ti in times if ti >= t)
        jumps[t] = d / at_risk
    return jumps


def brute_force_aggregates(t, records, gamma, theta, delta):
    n = len(records)
    m0 = 0.0
    m1 = np.zeros(3)
    for i, rec in enumerate(records):
        if rec.survival.time < t:
            continue
        for r in range(len(theta)):
            w = gamma[i, r] * math.exp(theta[r] * delta.delta0 + rec.survival.covariate * delta.delta1)
            m0 += w
            m1 += w * np.array([delta.delta0, theta[r], rec.survival.covariate])
    return m0 / n, m1 / n


class TestRiskAggregates:
    def test_unit_weights_counts_risk_set(self):
        records = survival_only([1.0, 2.0, 3.0], [1, 1, 0], [0.3, -0.2, 1.1])
        gamma = np.ones((3, 1))
        m0, m1 = risk_aggregates(2.0, records, gamma, np.array([0.0]), SurvivalParams(0.0, 0.0))
        assert m0 == pytest.approx(2 / 3, rel=0, abs=0)

    def test_two_group_brute_force(self):
        records = survival_only([1.5, 0.7], [1, 1], [0.4, -1.2])
        gamma = np.array([[0.3, 0.7], [0.6, 0.4]])
        theta = np.array([0.0, 1.0])
        delta = SurvivalParams(1.0, 0.0)
        m0, m1 = risk_aggregates(1.0, records, gamma, theta, delta)
        m0_ref, m1_ref = brute_force_aggregates(1.0, records, gamma, theta, delta)
        assert m0 == pytest.approx(m0_ref, rel=1e-14)
        np.testing.assert_allclose(m1, m1_ref, rtol=1e-14)
        assert m0 > 0

    def test_empty_risk_set_signalled(self):
        records = survival_only([1.0, 2.0], [1, 0], [0.0, 0.0])
        with pytest.raises(EmptyRiskSetError):
            risk_aggregates(5.0, records, np.ones((2, 1)), np.array([0.0]), SurvivalParams(0.0, 0.0))


class TestRiskSetTables:
    DERIVED = ("cum_jumps", "m0", "ratio", "int_ratio")

    @staticmethod
    def draw(seed, n=25, n_groups=3):
        rng = np.random.default_rng(seed)
        times = rng.choice([0.4, 1.0, 1.7, 2.5, 3.0, 4.2], size=n)
        records = survival_only(times, rng.integers(0, 2, n), rng.normal(0, 1, n))
        gamma = random_gamma(rng, n, n_groups)
        theta = np.concatenate([[0.0], np.sort(rng.normal(0, 1, n_groups - 1))])
        return records, gamma, theta, SurvivalParams(0.7, -0.4)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_risk_aggregates_at_each_distinct_time(self, seed):
        records, gamma, theta, delta = self.draw(seed)
        tables = risk_set_tables(records, gamma, theta, delta)
        R = theta.size
        for k, t in enumerate(tables.times):
            m0, m1 = risk_aggregates(t, records, gamma, theta, delta)
            assert tables.m0[k] == pytest.approx(m0, rel=1e-13)
            assert tables.m0_group[k].sum() == pytest.approx(m0, rel=1e-13)
            assert tables.m0_group[k] @ theta == pytest.approx(m1[1], rel=1e-13, abs=1e-15)
            assert tables.m0_x[k] == pytest.approx(m1[2], rel=1e-13, abs=1e-15)
            np.testing.assert_allclose(tables.ratio[k, :R - 1],
                                       delta.delta0 * tables.m0_group[k, 1:] / m0, rtol=1e-13)
            assert tables.ratio[k, R - 1] == pytest.approx(m1[1] / m0, rel=1e-13, abs=1e-15)
            assert tables.ratio[k, R] == pytest.approx(m1[2] / m0, rel=1e-13, abs=1e-15)

    def test_tables_ignore_later_changes_to_gamma(self):
        records, gamma, theta, delta = self.draw(3)
        packed = PackedData.coerce(records)
        reference = risk_set_tables(packed, gamma.copy(), theta, delta)
        expected = {name: np.array(getattr(reference, name))
                    for name in ("jumps", "m0_group", "m0_x") + self.DERIVED}
        tables = risk_set_tables(packed, gamma, theta, delta)
        first_read = tables.ratio.copy()          # one derived table read before the change
        gamma[:] = gamma[::-1] * 3.0
        theta[1:] += 1.0
        np.testing.assert_array_equal(tables.ratio, first_read)
        for name, want in expected.items():
            np.testing.assert_array_equal(getattr(tables, name), want, err_msg=name)


@st.composite
def tied_survival_data(draw, max_n=15):
    """Small dataset whose times come from a few values, so ties are common."""
    n = draw(st.integers(1, max_n))
    times = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.5]), min_size=n, max_size=n))
    events = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    covariates = draw(st.lists(st.floats(-2, 2), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return survival_only(times, events, covariates), rng


class TestSuffixSums:
    @given(tied_survival_data())
    @settings(max_examples=60, deadline=None)
    def test_equal_masked_sums(self, drawn):
        records, rng = drawn
        packed = PackedData.coerce(records)
        for values in (rng.normal(size=packed.n), rng.normal(size=(packed.n, 3))):
            brute = np.array([values[packed.times >= t].sum(axis=0) for t in packed.distinct_times])
            np.testing.assert_allclose(packed.suffix_sums(values), brute, rtol=1e-12, atol=1e-12)

    @given(tied_survival_data(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_jumps_and_loglik_rows_invariant_to_subject_order(self, drawn, data):
        records, rng = drawn
        perm = np.asarray(data.draw(st.permutations(range(len(records)))), dtype=int)
        gamma = random_gamma(rng, len(records), 2)
        theta = np.array([0.0, 0.7])
        delta = SurvivalParams(0.4, -0.3)
        packed = PackedData.coerce(records)
        shuffled = PackedData.coerce([records[i] for i in perm])
        tables = risk_set_tables(packed, gamma, theta, delta)
        tables_p = risk_set_tables(shuffled, gamma[perm], theta, delta)
        np.testing.assert_allclose(tables_p.jumps, tables.jumps, rtol=1e-12, atol=0)
        rows = loglik_matrix(packed, tables, theta, delta)
        rows_p = loglik_matrix(shuffled, tables_p, theta, delta)
        np.testing.assert_allclose(rows_p[np.argsort(perm)], rows, rtol=1e-12, atol=1e-12)


class TestProfileHazard:
    def test_nelson_aalen_reduction_exact(self):
        records = survival_only([1.0, 2.0, 3.0], [1, 1, 0], [0.5, -0.5, 2.0])
        hazard = profile_hazard(records, np.ones((3, 1)), np.array([0.0]), SurvivalParams(0.0, 0.0))
        np.testing.assert_array_equal(hazard.times, [1.0, 2.0, 3.0])
        assert hazard.jumps[0] == 1.0 / 3.0
        assert hazard.jumps[1] == 1.0 / 2.0
        assert hazard.jumps[2] == 0.0
        assert hazard.cum(3.0) == pytest.approx(5 / 6, rel=1e-15)

    @pytest.mark.parametrize("seed", range(6))
    def test_nelson_aalen_random_exact(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 40))
        times = np.round(rng.exponential(2.0, n), 2) + 0.01
        events = rng.integers(0, 2, n)
        records = survival_only(times, events, rng.normal(0, 1, n))
        hazard = profile_hazard(records, np.ones((n, 1)), np.array([0.0]), SurvivalParams(0.0, 0.0))
        oracle = nelson_aalen_oracle(times, events)
        for t, jump in zip(hazard.times, hazard.jumps):
            assert jump == oracle[t]  # exact float equality

    def test_all_censored_gives_zero_hazard(self):
        records = survival_only([1.0, 2.0], [0, 0], [0.1, 0.2])
        hazard = profile_hazard(records, np.ones((2, 1)), np.array([0.0]), SurvivalParams(0.0, 0.0))
        np.testing.assert_array_equal(hazard.jumps, 0.0)
        assert hazard.cum(10.0) == 0.0

    def test_denominator_scaling_halves_jumps(self):
        # shifting every covariate by c multiplies all risk weights by e^(c d1)
        rng = np.random.default_rng(1)
        times = rng.exponential(1.0, 12) + 0.05
        events = rng.integers(0, 2, 12)
        x = rng.normal(0, 1, 12)
        delta = SurvivalParams(0.0, 1.0)
        shift = math.log(2.0)
        base = profile_hazard(survival_only(times, events, x), np.ones((12, 1)),
                              np.array([0.0]), delta)
        doubled = profile_hazard(survival_only(times, events, x + shift), np.ones((12, 1)),
                                 np.array([0.0]), delta)
        np.testing.assert_allclose(doubled.jumps, base.jumps / 2.0, rtol=1e-12)

    def test_ties_share_a_single_jump(self):
        records = survival_only([1.0, 1.0, 2.0, 2.0], [1, 1, 1, 0], [0.0] * 4)
        hazard = profile_hazard(records, np.ones((4, 1)), np.array([0.0]), SurvivalParams(0.0, 0.0))
        np.testing.assert_array_equal(hazard.times, [1.0, 2.0])
        assert hazard.jumps[0] == 2.0 / 4.0
        assert hazard.jumps[1] == 1.0 / 2.0


class TestCumHazard:
    def test_before_first_event(self):
        hazard = HazardSteps(np.array([1.0, 2.0]), np.array([1 / 3, 1 / 2]))
        assert cum_hazard(hazard, 0.5) == 0.0

    def test_partial_sum_at_second_event(self):
        hazard = HazardSteps(np.array([1.0, 2.0]), np.array([1 / 3, 1 / 2]))
        assert cum_hazard(hazard, 2.0) == pytest.approx(5 / 6, rel=1e-15)
        assert cum_hazard(hazard, 2.0) == pytest.approx(0.8333, abs=5e-5)

    def test_beyond_last_event(self):
        hazard = HazardSteps(np.array([1.0, 2.0]), np.array([1 / 3, 1 / 2]))
        assert cum_hazard(hazard, 99.0) == hazard.jumps.sum()

    @given(st.lists(st.floats(0.01, 50), min_size=1, max_size=12, unique=True).flatmap(
        lambda ts: st.tuples(st.just(ts), st.lists(st.floats(0, 2), min_size=len(ts),
                                                    max_size=len(ts)))))
    @example(([1.0, float(np.nextafter(1.0, np.inf))], [0.5, 0.5]))
    @settings(max_examples=50, deadline=None)
    def test_nondecreasing_right_continuous(self, steps):
        order = np.argsort(steps[0])
        times = np.asarray(steps[0])[order]
        hazard = HazardSteps(times, np.asarray(steps[1])[order])
        grid = np.sort(np.concatenate([times, times - 1e-9, times + 1e-9, [0.0, 100.0]]))
        values = hazard.cum(np.maximum(grid, 0.0))
        assert np.all(np.diff(values) >= 0)
        # right continuity: value at a jump equals the limit from the right; the
        # next float up is a right-limit point only when it is not the next jump time
        just_right = np.nextafter(times, np.inf)
        clear = np.append(just_right[:-1] < times[1:], True)
        np.testing.assert_allclose(hazard.cum(times)[clear], hazard.cum(just_right)[clear],
                                   rtol=0, atol=0)

    def test_cum_is_prefix_sum_read_right_continuously(self):
        times = np.array([0.5, 1.0, 2.0, 3.5])
        jumps = np.array([0.2, 0.0, 0.7, 0.1])
        hazard = HazardSteps(times, jumps)
        grid = np.array([0.0, 0.4, 0.5, 0.9, 1.0, 2.0, 3.0, 3.5, 10.0])
        prefix = np.concatenate([[0.0], np.cumsum(jumps)])
        expected = prefix[np.searchsorted(times, grid, side="right")]
        np.testing.assert_array_equal(hazard.cum(grid), expected)
        assert hazard.total == prefix[-1]

    def test_writable_inputs_are_copied(self):
        times = np.array([1.0, 2.0, 3.0])
        jumps = np.array([0.1, 0.2, 0.3])
        hazard = HazardSteps(times, jumps)
        times[:] = [4.0, 5.0, 6.0]
        jumps[:] = 9.0
        np.testing.assert_array_equal(hazard.times, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(hazard.jumps, [0.1, 0.2, 0.3])
        assert hazard.cum(2.5) == pytest.approx(0.3, rel=1e-15)

    def test_readonly_owning_inputs_are_shared(self):
        records = survival_only([0.5, 1.0, 1.0, 2.0], [1, 0, 1, 1], [0.1, -0.3, 0.2, 0.0])
        packed = PackedData.coerce(records)
        tables = RiskSetTables(packed, np.ones((4, 1)), np.array([0.0]), SurvivalParams(0.0, 0.2))
        assert not tables.jumps.flags.writeable
        hazard = tables.hazard_steps()
        assert np.shares_memory(hazard.times, packed.distinct_times)
        assert np.shares_memory(hazard.jumps, tables.jumps)
        # a read-only view of a writable array is still copied
        base = np.array([1.0, 2.0])
        view = base[:]
        view.flags.writeable = False
        assert not np.shares_memory(HazardSteps(view, np.ones(2)).times, base)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            HazardSteps(np.array([2.0, 1.0]), np.array([0.1, 0.1]))
        with pytest.raises(ValueError):
            HazardSteps(np.array([1.0]), np.array([-0.1]))
        hazard = HazardSteps(np.array([1.0]), np.array([0.1]))
        with pytest.raises(ValueError):
            cum_hazard(hazard, -1.0)


class TestSurvivalLoglik:
    def test_censored_zero_predictor(self):
        hazard = HazardSteps(np.array([1.0, 2.0]), np.array([1 / 3, 1 / 2]))
        rec = SurvivalRecord(2.5, 0, 0.7)
        assert survival_loglik(rec, 0.0, hazard, SurvivalParams(0.0, 0.0)) == -hazard.cum(2.5)

    def test_nelson_aalen_composition(self):
        hazard = HazardSteps(np.array([1.0, 2.0, 3.0]), np.array([1 / 3, 1 / 2, 0.0]))
        rec = SurvivalRecord(2.0, 1, 0.0)
        value = survival_loglik(rec, 0.0, hazard, SurvivalParams(0.0, 0.0))
        assert value == pytest.approx(math.log(0.5) - 5 / 6, rel=1e-14)
        assert value == pytest.approx(-1.52648, abs=5e-6)

    def test_exp_scale_identity(self):
        hazard = HazardSteps(np.array([1.0, 2.0]), np.array([0.2, 0.4]))
        rec = SurvivalRecord(2.0, 1, 1.3)
        delta = SurvivalParams(1.0, 0.25)
        c = 0.1
        base = survival_loglik(rec, 0.5, hazard, delta)
        shifted = survival_loglik(rec, 0.5 + c, hazard, delta)
        lam = hazard.cum(rec.time) * math.exp(0.5 * delta.delta0 + rec.covariate * delta.delta1)
        assert shifted - base == pytest.approx(rec.event * c * delta.delta0 - lam * (math.exp(c * delta.delta0) - 1.0),
                                               rel=1e-10)

    def test_event_at_zero_jump_rejected(self):
        hazard = HazardSteps(np.array([1.0, 2.0]), np.array([0.3, 0.0]))
        with pytest.raises(InvalidHazardError):
            survival_loglik(SurvivalRecord(2.0, 1, 0.0), 0.0, hazard, SurvivalParams(0.0, 0.0))
        with pytest.raises(InvalidHazardError):
            survival_loglik(SurvivalRecord(1.5, 1, 0.0), 0.0, hazard, SurvivalParams(0.0, 0.0))


def profile_loglik_sum(packed, gamma, theta_free, delta_vec):
    """Sum over subjects of the gamma-weighted survival log profile likelihood."""
    theta = np.concatenate([[0.0], theta_free])
    delta = SurvivalParams(float(delta_vec[0]), float(delta_vec[1]))
    tables = risk_set_tables(packed, gamma, theta, delta)
    lp = theta[None, :] * delta.delta0 + packed.covariates[:, None] * delta.delta1
    cum = tables.cum_jumps[packed.time_index]
    log_jump = np.zeros(packed.n)
    ev = packed.events > 0
    log_jump[ev] = np.log(tables.jumps[packed.time_index[ev]])
    ll = (packed.events * log_jump)[:, None] + packed.events[:, None] * lp - cum[:, None] * np.exp(lp)
    return float((gamma * ll).sum())


def per_subject_profile_loglik(packed, gamma, theta, delta, i):
    tables = risk_set_tables(packed, gamma, theta, delta)
    lp = theta * delta.delta0 + packed.covariates[i] * delta.delta1
    cum = tables.cum_jumps[packed.time_index[i]]
    val = -cum * np.exp(lp)
    if packed.events[i] > 0:
        val = val + np.log(tables.jumps[packed.time_index[i]]) + lp
    return float(gamma[i] @ val)


class TestSurvivalProfileScore:
    def test_single_subject_score_is_zero(self):
        records = survival_only([1.7], [1], [0.9])
        gamma = np.ones((1, 1))
        theta = np.array([0.0])
        delta = SurvivalParams(0.0, 0.0)
        tables = risk_set_tables(records, gamma, theta, delta)
        score = survival_profile_score(records[0].survival, gamma[0], tables, theta, delta)
        np.testing.assert_allclose(score, 0.0, atol=1e-15)

    @pytest.mark.parametrize("seed", range(6))
    def test_sum_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        n = 3 + seed
        records = survival_only(rng.exponential(2.0, n) + 0.05, rng.integers(0, 2, n),
                                rng.normal(0, 1, n))
        packed = PackedData.coerce(records)
        gamma = random_gamma(rng, n, 2)
        theta_free = rng.normal(0, 0.7, 1)
        delta_vec = rng.normal(0, 0.5, 2)
        theta = np.concatenate([[0.0], theta_free])
        delta = SurvivalParams(*delta_vec)
        tables = risk_set_tables(packed, gamma, theta, delta)
        total = profile_scores(packed, gamma, tables).sum(axis=0)

        step = 1e-6
        numeric = np.zeros(3)
        for c in range(3):
            for sign in (1, -1):
                tf = theta_free.copy()
                dv = delta_vec.copy()
                if c == 0:
                    tf[0] += sign * step
                else:
                    dv[c - 1] += sign * step
                numeric[c] += sign * profile_loglik_sum(packed, gamma, tf, dv)
        numeric /= 2 * step
        scale = max(1.0, np.max(np.abs(total)))
        assert np.max(np.abs(total - numeric)) / scale < 1e-5

    def test_per_subject_chain_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        n = 5
        records = survival_only(rng.exponential(2.0, n) + 0.05, [1, 0, 1, 1, 0],
                                rng.normal(0, 1, n))
        packed = PackedData.coerce(records)
        gamma = random_gamma(rng, n, 2)
        theta = np.array([0.0, 0.8])
        delta = SurvivalParams(0.4, -0.3)
        tables = risk_set_tables(packed, gamma, theta, delta)
        step = 1e-6
        for i in range(n):
            analytic = survival_profile_score(records[i].survival, gamma[i], tables, theta, delta)
            numeric = np.zeros(3)
            for c in range(3):
                for sign in (1, -1):
                    th = theta.copy()
                    d0, d1 = delta.delta0, delta.delta1
                    if c == 0:
                        th = np.array([0.0, theta[1] + sign * step])
                    elif c == 1:
                        d0 += sign * step
                    else:
                        d1 += sign * step
                    numeric[c] += sign * per_subject_profile_loglik(
                        packed, gamma, th, SurvivalParams(d0, d1), i)
            numeric /= 2 * step
            scale = max(1.0, np.max(np.abs(analytic)))
            assert np.max(np.abs(analytic - numeric)) / scale < 1e-5

    def test_point_mass_reduces_to_cox_partial_score(self):
        rng = np.random.default_rng(9)
        n = 25
        times = rng.exponential(2.0, n) + 0.01
        events = rng.integers(0, 2, n)
        x = rng.normal(0, 1, n)
        records = survival_only(times, events, x)
        packed = PackedData.coerce(records)
        gamma = np.column_stack([np.ones(n), np.zeros(n)])
        theta = np.array([0.0, 1.3])
        delta = SurvivalParams(0.7, 0.45)
        tables = risk_set_tables(packed, gamma, theta, delta)
        total = profile_scores(packed, gamma, tables).sum(axis=0)

        # textbook Cox partial-likelihood score for the delta1 coordinate
        score_d1 = 0.0
        for i in range(n):
            if not events[i]:
                continue
            at_risk = times >= times[i]
            w = np.exp(x[at_risk] * delta.delta1)
            score_d1 += x[i] - (x[at_risk] * w).sum() / w.sum()
        assert total[2] == pytest.approx(score_d1, rel=1e-9, abs=1e-9)

    def test_foreign_time_rejected(self):
        records = survival_only([1.0, 2.0], [1, 1], [0.0, 0.0])
        tables = risk_set_tables(records, np.ones((2, 1)), np.array([0.0]), SurvivalParams(0.0, 0.0))
        with pytest.raises(ValueError):
            survival_profile_score(SurvivalRecord(1.5, 0, 0.0), np.array([1.0]), tables,
                                   np.array([0.0]), SurvivalParams(0.0, 0.0))


class TestEfficientScore:
    def test_zero_before_first_event_censored(self):
        records = survival_only([0.5, 1.0, 2.0], [0, 1, 1], [0.3, -0.1, 0.8])
        gamma = random_gamma(np.random.default_rng(0), 3, 2)
        theta = np.array([0.0, 0.6])
        delta = SurvivalParams(0.3, -0.2)
        tables = risk_set_tables(records, gamma, theta, delta)
        hazard = tables.hazard_steps()
        score = efficient_score_survival(records[0].survival, gamma[0], hazard, theta, delta, tables)
        np.testing.assert_allclose(score, 0.0, atol=1e-15)

    def test_matches_profile_score_at_profiled_hazard(self):
        rng = np.random.default_rng(5)
        n = 40
        records = survival_only(rng.exponential(1.5, n) + 0.02, rng.integers(0, 2, n),
                                rng.normal(0, 1, n))
        packed = PackedData.coerce(records)
        gamma = random_gamma(rng, n, 3)
        theta = np.array([0.0, -0.4, 0.9])
        delta = SurvivalParams(0.5, -0.3)
        tables = risk_set_tables(packed, gamma, theta, delta)
        prof = profile_scores(packed, gamma, tables)
        eff = efficient_scores(packed, gamma, tables.hazard_steps(), tables)
        assert np.max(np.abs(prof - eff)) < 1e-10 * max(1.0, np.max(np.abs(prof)))

    def test_perturbed_hazard_breaks_equality(self):
        rng = np.random.default_rng(6)
        n = 15
        records = survival_only(rng.exponential(1.5, n) + 0.02, np.ones(n, dtype=int),
                                rng.normal(0, 1, n))
        packed = PackedData.coerce(records)
        gamma = np.ones((n, 1))
        theta = np.array([0.0])
        delta = SurvivalParams(0.0, 0.4)
        tables = risk_set_tables(packed, gamma, theta, delta)
        hazard = tables.hazard_steps()
        bumped = HazardSteps(hazard.times, hazard.jumps * 1.1)
        prof = profile_scores(packed, gamma, tables)
        eff = efficient_scores(packed, gamma, bumped, tables)
        assert np.max(np.abs(prof - eff)) > 1e-3

    @pytest.mark.parametrize("baseline", ["constant", "scaled_profile"])
    def test_rows_match_per_record_oracle(self, baseline):
        rng = np.random.default_rng(8)
        n = 30
        records = survival_only(rng.choice([0.3, 0.8, 1.4, 2.2, 3.1], size=n),
                                rng.integers(0, 2, n), rng.normal(0, 1, n))
        packed = PackedData.coerce(records)
        gamma = random_gamma(rng, n, 3) * rng.uniform(0.5, 2.0, (n, 1))
        theta = np.array([0.0, -0.5, 0.8])
        delta = SurvivalParams(0.6, -0.35)
        tables = risk_set_tables(packed, gamma, theta, delta)
        if baseline == "constant":
            hazard = ConstantBaseline(0.2)
        else:
            profiled = tables.hazard_steps()
            hazard = HazardSteps(profiled.times, profiled.jumps * 1.3)
        rows = efficient_scores(packed, gamma, hazard, tables)
        for i, rec in enumerate(records):
            oracle = efficient_score_survival(rec.survival, gamma[i], hazard, theta, delta, tables)
            np.testing.assert_allclose(rows[i], oracle, rtol=1e-12, atol=0, err_msg=f"row {i}")

    def test_one_group_martingale_oracle(self):
        # R=1, delta=(0,0): the delta1 coordinate is sum over event times of
        # [X - mean(X at risk)] minus the integral of the same against Lambda-hat
        rng = np.random.default_rng(7)
        n = 12
        times = rng.exponential(2.0, n) + 0.1
        events = rng.integers(0, 2, n)
        x = rng.normal(0, 1, n)
        records = survival_only(times, events, x)
        packed = PackedData.coerce(records)
        gamma = np.ones((n, 1))
        theta = np.array([0.0])
        delta = SurvivalParams(0.0, 0.0)
        tables = risk_set_tables(packed, gamma, theta, delta)
        eff = efficient_scores(packed, gamma, tables.hazard_steps(), tables)
        na = nelson_aalen_oracle(times, events)
        for i in range(n):
            expected = 0.0
            if events[i]:
                at = times >= times[i]
                expected += x[i] - x[at].mean()
            for t in sorted(set(times)):
                if t <= times[i] and na[t] > 0:
                    at = times >= t
                    expected -= (x[i] - x[at].mean()) * na[t]
            assert eff[i, 1] == pytest.approx(expected, rel=1e-10, abs=1e-10)


class TestBreslowStationarity:
    def test_single_jump_perturbation_does_not_increase_objective(self):
        rng = np.random.default_rng(11)
        n = 30
        records = survival_only(rng.exponential(2.0, n) + 0.05, rng.integers(0, 2, n),
                                rng.normal(0, 1, n))
        packed = PackedData.coerce(records)
        gamma = random_gamma(rng, n, 2)
        theta = np.array([0.0, 0.7])
        delta = SurvivalParams(0.4, -0.2)
        tables = risk_set_tables(packed, gamma, theta, delta)

        lp = theta[None, :] * delta.delta0 + packed.covariates[:, None] * delta.delta1
        e = np.exp(lp)

        def objective(jumps):
            cum = np.cumsum(jumps)[packed.time_index]
            ev = packed.events > 0
            log_jump = np.zeros(packed.n)
            log_jump[ev] = np.log(jumps[packed.time_index[ev]])
            ll = (packed.events * log_jump)[:, None] + packed.events[:, None] * lp - cum[:, None] * e
            return float((gamma * ll).sum())

        base = objective(tables.jumps)
        for k in np.flatnonzero(tables.jumps > 0):
            for eps in (1e-4, -1e-4):
                jumps = tables.jumps.copy()
                jumps[k] += eps
                assert objective(jumps) <= base + 1e-12


def envelope_case(seed):
    rng = np.random.default_rng(seed)
    n = 20
    records = survival_only(rng.exponential(1.0, n) + 0.05, rng.integers(0, 2, n),
                            rng.normal(0, 1, n))
    packed = PackedData.coerce(records)
    gamma = random_gamma(rng, n, 2)
    theta = np.array([0.0, 0.5])
    delta = SurvivalParams(0.3, 0.1)
    return packed, gamma, theta, delta, risk_set_tables(packed, gamma, theta, delta)


class TestEnvelopeGradient:
    def test_matches_full_score_sum(self):
        packed, gamma, theta, delta, tables = envelope_case(13)
        full = profile_scores(packed, gamma, tables).sum(axis=0)
        _, envelope = profiled_loglik(packed, gamma, theta, delta)
        np.testing.assert_allclose(full, envelope, rtol=1e-9, atol=1e-9)

    def test_value_is_weighted_loglik_matrix_sum(self):
        packed, gamma, theta, delta, tables = envelope_case(14)
        value, _ = profiled_loglik(packed, gamma, theta, delta)
        expected = (gamma * loglik_matrix(packed, tables, theta, delta)).sum()
        assert value == pytest.approx(expected, rel=1e-12)
