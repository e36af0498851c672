import numpy as np
import pytest
from scipy.special import logsumexp

from jointmix.data import PackedData
from jointmix.likelihood import DegenerateSubjectError, _observed_loglik, _posterior_parts

from conftest import make_subject


def packed_of(n):
    return PackedData.coerce([make_subject(1.0 + i, 1, 0.0, subject_id=f"s{i}") for i in range(n)])


def loglik_and_posterior(packed, comp):
    rowmax, total, gamma = _posterior_parts(packed, comp)
    return _observed_loglik(rowmax, total), gamma


def oracle(comp):
    """The two-pass form: scipy's logsumexp for the log-likelihood, max-shifted ratios for gamma."""
    rowmax = comp.max(axis=1)
    gamma = np.exp(comp - rowmax[:, None])
    return logsumexp(comp, axis=1).sum(), gamma / gamma.sum(axis=1, keepdims=True)


class TestLoglikAndPosterior:
    @pytest.mark.parametrize("n_groups", [1, 2, 3])
    def test_matches_scipy_logsumexp(self, n_groups):
        rng = np.random.default_rng(n_groups)
        comp = rng.normal(-40.0, 30.0, size=(50, n_groups))
        if n_groups > 1:
            comp[::7, 0] = -np.inf          # zero density in one component
        loglik, gamma = loglik_and_posterior(packed_of(50), comp)
        want_loglik, want_gamma = oracle(comp)
        assert loglik == pytest.approx(want_loglik, rel=1e-13)
        np.testing.assert_allclose(gamma, want_gamma, rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(gamma.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        if n_groups > 1:
            assert np.all(gamma[::7, 0] == 0.0)

    def test_extreme_magnitudes_do_not_overflow(self):
        comp = np.array([[-1e4, -1e4 + 1.0, -1e4 - 2.0], [800.0, 799.0, -np.inf]])
        loglik, gamma = loglik_and_posterior(packed_of(2), comp)
        want_loglik, want_gamma = oracle(comp)
        assert loglik == pytest.approx(want_loglik, rel=1e-14)
        np.testing.assert_allclose(gamma, want_gamma, rtol=1e-14)

    @pytest.mark.parametrize("bad", [-np.inf, np.inf, np.nan])
    def test_degenerate_row_names_the_subject(self, bad):
        comp = np.zeros((4, 3))
        comp[2] = [-np.inf, -np.inf, -np.inf] if bad == -np.inf else [0.0, bad, 0.0]
        with pytest.raises(DegenerateSubjectError, match=r"subject 's2': zero density in every component"):
            loglik_and_posterior(packed_of(4), comp)
