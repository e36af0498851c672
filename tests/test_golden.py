"""Golden-fit regression: pins the numbers of the shared converged fit.

A refactor of the likelihood kernels must reproduce this fit.  The
tolerances sit well above the round-off seen when only the summation order
changes (permuting the subjects moved the log-likelihood by 3e-16 relative
and the parameters by 5.8e-8).  The pinned point is the SQUAREM exit; it lies
1.3e-14 relative in log-likelihood and 8.1e-6 in theta[2] from a plain-EM
fit of the same data run to tol_param=1e-10 (452 iterations, log-likelihood
-3114.3239874267965).
"""

import numpy as np

from jointmix import ParamLayout

GOLDEN_LOGLIK = -3114.3239874268374
GOLDEN_N_ITER = 92
# ParamLayout.pack order: theta[2], a[2], a[3], b[2], phi[2], delta0, delta1
GOLDEN_PARAMS = np.array([4.2956886529369225, 0.38073399443200584, 0.24471217956673907,
                          0.5121861349072141, 0.6857431473722015, -0.00622253325458647,
                          -0.5172471477690411])


def test_converged_fit_matches_golden(converged_fit):
    _, _, fit = converged_fit
    layout = ParamLayout(fit.params.n_groups, fit.params.n_levels, fit.params.n_items)
    assert fit.n_iter == GOLDEN_N_ITER
    np.testing.assert_allclose(fit.loglik, GOLDEN_LOGLIK, rtol=1e-10, atol=0)
    np.testing.assert_allclose(layout.pack(fit.params), GOLDEN_PARAMS, rtol=0, atol=1e-6)
