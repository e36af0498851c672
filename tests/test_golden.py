"""Golden-fit regression: pins the numbers of the shared converged fit.

A refactor of the likelihood kernels must reproduce this fit.  The
tolerances sit well above the round-off seen when only the summation order
changes (permuting the subjects moved the log-likelihood by 3e-16 relative
and the parameters by 5.8e-8).
"""

import numpy as np

from jointmix import ParamLayout

GOLDEN_LOGLIK = -3114.3239874272595
GOLDEN_N_ITER = 391
# ParamLayout.pack order: theta[2], a[2], a[3], b[2], phi[2], delta0, delta1
GOLDEN_PARAMS = np.array([4.295633821163841, 0.3807334621427163, 0.24471114458266907,
                          0.5121862346490494, 0.6857431750075652, -0.006223462968668562,
                          -0.517247118663103])


def test_converged_fit_matches_golden(converged_fit):
    _, _, fit = converged_fit
    layout = ParamLayout(fit.params.n_groups, fit.params.n_levels, fit.params.n_items)
    assert fit.n_iter == GOLDEN_N_ITER
    np.testing.assert_allclose(fit.loglik, GOLDEN_LOGLIK, rtol=1e-10, atol=0)
    np.testing.assert_allclose(layout.pack(fit.params), GOLDEN_PARAMS, rtol=0, atol=1e-6)
