import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from jointmix import OrdinalParams, category_probs
from jointmix.data import DataError
from jointmix.ordinal import _linear_predictor

from conftest import make_responses, random_params
from oracles import ordinal_loglik, ordinal_score


def params_l3():
    return OrdinalParams(a=np.array([0.0, 0.0, 0.0]), phi=np.array([0.0, 0.4, 1.0]),
                         b=np.array([0.0]))


class TestCategoryProbs:
    def test_all_exponents_zero_is_uniform(self):
        p = category_probs(1, 0.0, params_l3())
        np.testing.assert_allclose(p, np.full(3, 1 / 3), rtol=0, atol=1e-15)

    def test_two_level_scalar_oracle(self):
        # independent scalar evaluation: p2 = e^0.5 / (1 + e^0.5)
        params = OrdinalParams(a=np.array([0.0, 0.5]), phi=np.array([0.0, 1.0]),
                               b=np.array([0.0]))
        p = category_probs(1, 0.0, params)
        e = math.exp(0.5)
        np.testing.assert_allclose(p, [1 / (1 + e), e / (1 + e)], rtol=1e-14)
        np.testing.assert_allclose(p, [0.37754, 0.62246], atol=5e-6)

    def test_extreme_predictor_no_overflow(self):
        params = OrdinalParams(a=np.array([0.0, 400.0, 0.0]), phi=np.array([0.0, 0.5, 1.0]),
                               b=np.array([0.0, 300.0]))
        p = category_probs(2, 500.0, params)
        assert np.all(np.isfinite(p)) and np.all(p >= 0)
        assert abs(p.sum() - 1.0) < 1e-12

    @given(st.floats(-30, 30), st.floats(-5, 5), st.floats(0.05, 0.95), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_strict_probability_vector(self, theta, a2, phi2, item):
        params = OrdinalParams(a=np.array([0.0, a2, -0.3]), phi=np.array([0.0, phi2, 1.0]),
                               b=np.array([0.0, 0.7, -0.2]))
        p = category_probs(item, theta, params)
        assert np.all(p > 0)
        assert abs(p.sum() - 1.0) <= 1e-12

    def test_item_out_of_range(self):
        with pytest.raises(IndexError):
            category_probs(2, 0.0, params_l3())

    def test_nonfinite_effect(self):
        with pytest.raises(ValueError):
            category_probs(1, np.inf, params_l3())


class TestLinearPredictor:
    def test_normalizer_matches_scipy_logsumexp(self):
        rng = np.random.default_rng(3)
        a = np.concatenate([[0.0], rng.normal(0, 200, 4)])
        phi = np.array([0.0, 0.2, 0.5, 0.9, 1.0])
        b = np.concatenate([[0.0], rng.normal(0, 300, 2)])
        theta = np.array([0.0, -400.0, 700.0])
        eta, logz = _linear_predictor(a, phi, b, theta)
        assert eta.shape == (3, 3, 5)
        np.testing.assert_allclose(logz, logsumexp(eta, axis=2), rtol=1e-14)


class TestOrdinalParamsInvariants:
    def test_constraint_violations(self):
        with pytest.raises(ValueError):
            OrdinalParams(a=np.array([0.1, 0.0]), phi=np.array([0.0, 1.0]), b=np.array([0.0]))
        with pytest.raises(ValueError):
            OrdinalParams(a=np.array([0.0, 0.0]), phi=np.array([0.0, 0.9]), b=np.array([0.0]))
        with pytest.raises(ValueError):
            OrdinalParams(a=np.array([0.0, 0.0, 0.0]), phi=np.array([0.0, 0.8, 0.5, 1.0]),
                          b=np.array([0.0]))
        with pytest.raises(ValueError):
            OrdinalParams(a=np.array([0.0, 0.0]), phi=np.array([0.0, 1.0]), b=np.array([0.1]))

    def test_nondecreasing_ties_allowed(self):
        OrdinalParams(a=np.array([0.0, 0.1, 0.2, 0.3]), phi=np.array([0.0, 0.5, 0.5, 1.0]),
                      b=np.array([0.0]))


class TestOrdinalLoglik:
    def test_uniform_case(self):
        cells = [(1, 1, 1), (1, 2, 3), (1, 3, 2), (1, 4, 1)]
        value = ordinal_loglik(make_responses(cells), 0.0, params_l3())
        assert value == pytest.approx(4 * math.log(1 / 3), rel=1e-12)

    def test_empty_responses(self):
        assert ordinal_loglik(make_responses([]), 0.3, params_l3()) == 0.0

    def test_single_cell_composition(self):
        params = OrdinalParams(a=np.array([0.0, 0.5]), phi=np.array([0.0, 1.0]),
                               b=np.array([0.0]))
        value = ordinal_loglik(make_responses([(1, 1, 2)]), 0.0, params)
        expected = math.log(category_probs(1, 0.0, params)[1])
        assert value == pytest.approx(expected, rel=1e-14)
        assert value == pytest.approx(math.log(0.62246), abs=1e-5)

    def test_cell_order_invariance(self):
        rng = np.random.default_rng(3)
        params = random_params(rng, 1, 4, 3)
        cells = [(j, m, int(rng.integers(1, 5))) for j in (1, 2, 3) for m in (1, 2)]
        base = ordinal_loglik(make_responses(cells), 0.4, params.ordinal)
        for _ in range(5):
            rng.shuffle(cells)
            assert ordinal_loglik(make_responses(cells), 0.4, params.ordinal) == pytest.approx(base, rel=1e-14)

    def test_missing_cells_contribute_nothing(self):
        full = [(1, 1, 2), (1, 2, 1)]
        assert ordinal_loglik(make_responses(full), 0.2, params_l3()) == pytest.approx(
            ordinal_loglik(make_responses(full[:1]), 0.2, params_l3())
            + ordinal_loglik(make_responses(full[1:]), 0.2, params_l3()), rel=1e-14)

    def test_duplicate_cell_rejected(self):
        with pytest.raises(DataError):
            make_responses([(1, 1, 2), (1, 1, 3)])


def fd_gradient(fun, x, step=1e-6):
    grad = np.zeros_like(x)
    for c in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[c] += step
        xm[c] -= step
        grad[c] = (fun(xp) - fun(xm)) / (2 * step)
    return grad


def score_coords(params, theta):
    L, J = params.n_levels, params.n_items
    return np.concatenate([params.a[1:], params.b[1:], params.phi[1:L - 1], [theta]])


def loglik_at_coords(responses, x, L, J):
    a = np.concatenate([[0.0], x[:L - 1]])
    b = np.concatenate([[0.0], x[L - 1:L - 1 + J - 1]])
    phi = np.concatenate([[0.0], x[L - 1 + J - 1:-1], [1.0]])
    return ordinal_loglik(responses, float(x[-1]), OrdinalParams(a, phi, b))


class TestOrdinalScore:
    def test_balanced_uniform_point_has_zero_a_components(self):
        params = OrdinalParams(a=np.array([0.0, 0.0, 0.0]), phi=np.array([0.0, 0.4, 1.0]),
                               b=np.array([0.0]))
        cells = [(1, m, lev) for m, lev in enumerate([1, 2, 3, 1, 2, 3], start=1)]
        score = ordinal_score(make_responses(cells), 0.0, params)
        np.testing.assert_allclose(score[:2], 0.0, atol=1e-14)

    def test_empty_responses_zero_vector(self):
        score = ordinal_score(make_responses([]), 1.2, params_l3())
        np.testing.assert_array_equal(score, np.zeros_like(score))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        L = int(rng.integers(2, 6))
        J = int(rng.integers(1, 6))
        params = random_params(rng, 1, L, J)
        cells = [(j, m, int(rng.integers(1, L + 1)))
                 for j in range(1, J + 1) for m in range(1, 4) if rng.random() < 0.8]
        responses = make_responses(cells)
        theta = float(rng.normal(0, 0.8))
        x0 = score_coords(params.ordinal, theta)
        analytic = ordinal_score(responses, theta, params.ordinal)
        numeric = fd_gradient(lambda x: loglik_at_coords(responses, x, L, J), x0)
        scale = max(1.0, np.max(np.abs(analytic)))
        assert np.max(np.abs(analytic - numeric)) / scale < 1e-6
