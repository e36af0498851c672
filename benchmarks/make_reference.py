"""Regenerate ``benchmarks/reference.json``, the stored values the gates compare against.

From the root of a checkout:

    python3 benchmarks/make_reference.py

Writes three entries, each from the workload's fixed data seed:

- ``fit_large``: a tight-tolerance fit (``tol_param=1e-10``) of the
  fit_large dataset: log-likelihood, parameter vector and iteration count.
- ``check_wide``: the check_wide diagnostics at the true parameters.
- ``defects``: measured defects of the package, recorded, not gated: fits
  with the shipped ``max_iter=500`` budget; the orthogonality and
  contraction checks at the true parameters of ``default_design``; and the
  mc_small study run one replication past the workload's count, whose last
  replication does not converge.

Takes about two minutes on one core.  Regenerate only when the program's
intended output changes, and say why in the change that does so.
"""

from __future__ import annotations

import json
import sys
import time

import run


def main() -> int:
    run.bootstrap()
    import numpy as np

    import jointmix as jm
    import workloads as wl

    size = wl.SIZES["full"]
    doc = {}

    design = jm.default_design(n=size.fit_n, seed=wl.DATA_SEED)
    records, _ = jm.generate_dataset(design)
    config = jm.EMConfig(n_restarts=1, max_iter=20_000, tol_param=1e-10)
    start = time.perf_counter()
    fit = jm.em_fit(records, 2, config)
    doc["fit_large"] = {
        "n": design.n, "data_seed": wl.DATA_SEED, "config": config.__dict__,
        "converged": fit.converged, "n_iter": fit.n_iter,
        "fit_s": time.perf_counter() - start, "loglik": fit.loglik,
        "param_names": list(fit.param_names) + [f"pi[{r + 1}]" for r in range(2)],
        "params": wl.param_vector(fit.params).tolist(),
    }

    design = wl.wide_design(size.check_n)
    packed = jm.PackedData(jm.generate_dataset(design)[0], 5, 4)
    runner = wl.Run("check_wide", 0, 1.0, False, size)
    diag = wl.check_pipeline(runner, design, packed)
    doc["check_wide"] = {key: value for key, value in diag.items() if key not in ("gamma", "tables")}
    doc["check_wide"].update(n=design.n, data_seed=wl.DATA_SEED)

    budget = []
    for n in (500, 5_000):
        records, _ = jm.generate_dataset(jm.default_design(n=n, seed=wl.DATA_SEED))
        fit = jm.em_fit(records, 2, jm.EMConfig(n_restarts=1))
        budget.append({"n": n, "max_iter": 500, "converged": fit.converged, "n_iter": fit.n_iter})
    checks = []
    for n in (2_000, 10_000):
        design = jm.default_design(n=n, seed=wl.DATA_SEED)
        packed = jm.PackedData(jm.generate_dataset(design)[0], 3, 2)
        ortho = jm.orthogonality_check(packed, design.params, jm.default_directions(packed),
                                       design.baseline)
        _, tables = jm.fixed_point_posterior(packed, design.params)
        contraction = jm.contraction_check(packed, design.params, tables.hazard_steps())
        checks.append({"n": n, "orthogonality_max_ratio": max(st.max_abs_ratio for st in ortho),
                       "orthogonality_bound": 3.0,
                       "contraction_satisfied": contraction.satisfied,
                       "contraction_max_lhs": contraction.max_lhs,
                       "contraction_bound": contraction.bound})
    design = jm.default_design(n=size.mc_n, seed=wl.DATA_SEED)
    report = jm.mc_normality(design, size.mc_reps + 1, wl.MC_CONFIG, threads=1)
    mc = {"n": design.n, "replications": report.n_replications,
          "rep_converged": report.rep_converged.tolist()}
    doc["defects"] = {"default_max_iter": budget, "checks_at_truth": checks,
                      "mc_replication_not_converged": mc}

    def plain(value):
        if isinstance(value, (np.floating, np.integer, np.bool_)):
            return value.item()
        raise TypeError(type(value))

    wl.REFERENCE.write_text(json.dumps(doc, indent=1, default=plain) + "\n")
    print(json.dumps(doc["defects"], indent=1, default=plain))
    return 0


if __name__ == "__main__":
    sys.exit(main())
