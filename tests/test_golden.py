"""Golden-fit regression: pins the numbers of the shared converged fit.

A refactor of the likelihood kernels must reproduce this fit.  The
tolerances sit well above the round-off seen when only the summation order
changes (permuting the subjects moved the log-likelihood by 3e-16 relative
and the parameters by 5.8e-8).  GOLDEN_PARAMS is the exit of the
profile-likelihood ascent from an identity inverse Hessian after 69
evaluations of its best restart (log-likelihood -3114.3239874266224); it
lies 2.5e-8 from the same ascent run to tol_param=1e-10 and tol_loglik=1e-14
(74 evaluations, -3114.323987426622).  GOLDEN_N_ITER is the evaluation count
of the ascent started from the inverse outer-product information, whose exit
(-3114.323987426622) lies 2.3e-8 from GOLDEN_PARAMS.  GOLDEN_LOGLIK is an
earlier pin, an accelerated-EM exit 6.9e-14 relative lower and 8.3e-5 away
along the flat theta[2] direction; it is kept, so the fit must reach it
within the tolerance.
"""

import numpy as np

from jointmix import ParamLayout

GOLDEN_LOGLIK = -3114.3239874268374
GOLDEN_N_ITER = 78
# ParamLayout.pack order: theta[2], a[2], a[3], b[2], phi[2], delta0, delta1
GOLDEN_PARAMS = np.array([4.295771280028883, 0.38073461084004157, 0.24471343079599706,
                          0.5121860107691181, 0.6857434230774626, -0.006221073597208094,
                          -0.5172471941775744])


def test_converged_fit_matches_golden(converged_fit):
    _, _, fit = converged_fit
    layout = ParamLayout(fit.params.n_groups, fit.params.n_levels, fit.params.n_items)
    assert fit.n_iter == GOLDEN_N_ITER
    np.testing.assert_allclose(fit.loglik, GOLDEN_LOGLIK, rtol=1e-10, atol=0)
    np.testing.assert_allclose(layout.pack(fit.params), GOLDEN_PARAMS, rtol=0, atol=1e-6)
