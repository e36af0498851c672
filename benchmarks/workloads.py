"""The three benchmark workloads, their correctness gates and the layer replays.

Every workload draws its dataset from a fixed data seed, so the stored
references in ``reference.json`` apply to every run and every run does the
same statistical work; ``--seed`` permutes the subject order, which the
model is invariant to.  A seed-driven dataset would measure the data, not
the code: at n = 10 000 the EM iteration count ranges from 131 to 1 745 over
data seeds 0-3, and at n = 500 two MC replications take from 2.7 s to 16.9 s
over design seeds 0-7.

The benchmark only calls public functions and passes the package only the
generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

import jointmix as jm
from jointmix import ordinal, survival
from tracing import NullTracer, Tracer, span_cost

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"

DATA_SEED = 0
# The shipped max_iter=500 stops short of convergence on default_design
# (see README.md), so every EM call states its budget.
FIT_CONFIG = jm.EMConfig(n_restarts=1, max_iter=20_000)
MC_CONFIG = jm.EMConfig(n_restarts=2, max_iter=20_000)
# check_wide runs no EM; its em.* figures come from an EM replay capped at this
# budget, because a converged fit of that design takes about 15 000 iterations
CHECK_EM_BUDGET = 30
SETUP_REPEATS = 3

LOGLIK_RTOL = 1e-8
PARAM_ATOL = 1e-3
CHECK_RTOL = 1e-6
EQUIVALENCE_TOL = 1e-8
SCORE_FLOOR = 1e-10

END_TO_END_UNITS = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# per-layer metric -> span whose median duration it reports
LAYER_SPANS = {
    "simulation.generate_s": "simulation.generate_dataset",
    "data.pack_s": "data.PackedData",
    "ordinal.loglik_matrix_s": "ordinal.loglik_matrix",
    "survival.loglik_matrix_s": "survival.loglik_matrix",
    "em.e_step_s": "em.e_step",
    "em.m_step_s": "em.m_step_theta",
    "survival.profile_hazard_s": "survival.RiskSetTables",
    "survival.profile_scores_s": "survival.profile_scores",
    "ordinal.score_parts_s": "ordinal.weighted_score_parts",
    "inference.score_matrix_s": "inference.score_matrix",
    "inference.information_matrix_s": "inference.information_matrix",
    "inference.fixed_point_s": "inference.fixed_point_posterior",
    "inference.identity_check_s": "inference.info_identity_check",
    "inference.orthogonality_check_s": "inference.orthogonality_check",
}
PER_LAYER_UNITS = dict({name: "s" for name in LAYER_SPANS},
                       **{"ordinal.score_parts_mb": "MB", "em.iterations": "count",
                          "em.s_per_iter": "s", "em.restarts_converged_frac": "fraction",
                          "trace.overhead_frac": "fraction"})


@dataclass(frozen=True)
class Size:
    name: str
    fit_n: int
    mc_n: int
    mc_reps: int
    check_n: int
    replays: int


SIZES = {"full": Size("full", fit_n=10_000, mc_n=500, mc_reps=6, check_n=10_000, replays=5),
         "smoke": Size("smoke", fit_n=200, mc_n=200, mc_reps=1, check_n=400, replays=1)}


def wide_design(n: int, seed: int = DATA_SEED) -> jm.SimDesign:
    """R=3, L=5, J=4 and M=4 visits; baseline and censoring as in default_design."""
    params = jm.ModelParams(
        theta=np.array([0.0, 0.8, 1.6]),
        ordinal=jm.OrdinalParams(a=np.array([0.0, 0.3, 0.1, -0.2, -0.5]),
                                 phi=np.array([0.0, 0.3, 0.55, 0.8, 1.0]),
                                 b=np.array([0.0, 0.4, -0.3, 0.2])),
        survival=jm.SurvivalParams(0.5, -0.5),
        pi=np.array([0.3, 0.4, 0.3]),
    )
    return replace(jm.default_design(n=n, seed=seed), params=params, n_time_points=4)


def param_vector(params: jm.ModelParams) -> np.ndarray:
    """Free coordinates in the documented layout followed by the mixture weights."""
    layout = jm.ParamLayout(params.n_groups, params.n_levels, params.n_items)
    return np.concatenate([layout.pack(params), params.pi])


def load_reference(workload: str, size: "Size") -> dict | None:
    """Stored reference of a workload; only the full sizes have one."""
    if size.name != "full":
        return None
    return json.loads(REFERENCE.read_text())[workload]


def fresh_import_s() -> float:
    """Seconds to import jointmix in a new interpreter, as a user's first call pays it."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
            "import jointmix; print(time.perf_counter() - start)")
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")], capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout)


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "jointmix").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class Run:
    """State of one benchmark run: tracer, counters, gates and reported figures."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, size: Size):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.size = size
        self.started = time.perf_counter()
        self.tracer = Tracer(f"{workload}-seed{seed}-pid{os.getpid()}") if trace else NullTracer()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.gates: dict[str, tuple[bool, str]] = {}
        self.figures: list[tuple[str, float, str, str]] = []
        self.verdicts: dict[str, str] = {}
        self.end_to_end: dict[str, float] = {}
        self.per_layer: dict[str, float] = {}
        self.setup_s = float("nan")
        self.workload_sizes: dict = {}

    def call(self, name: str, fn, *args, **kwargs):
        with self.tracer.span(name):
            return fn(*args, **kwargs)

    def figure(self, name: str, value: float, unit: str, note: str = ""):
        self.figures.append((name, float(value), unit, note))

    def gate(self, name: str, ok: bool, detail: str) -> bool:
        """Record a correctness gate; a miss anywhere keeps the first failing detail."""
        ok = bool(ok)
        if name not in self.gates or (self.gates[name][0] and not ok):
            self.gates[name] = (ok, detail)
        return ok

    def setup(self, design: jm.SimDesign):
        """Generate, permute by the run seed and pack, SETUP_REPEATS times.

        ``setup_s`` is the median time to import the package in a fresh
        interpreter plus the median time of these repeats.
        """
        imports = [fresh_import_s() for _ in range(SETUP_REPEATS)]
        times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            records, _ = self.call("simulation.generate_dataset", jm.generate_dataset, design)
            order = np.random.default_rng(self.seed).permutation(len(records))
            records = [records[i] for i in order]
            packed = self.call("data.PackedData", jm.PackedData, records,
                               design.params.n_levels, design.params.n_items)
            times.append(time.perf_counter() - start)
        self.setup_s = statistics.median(imports) + statistics.median(times)
        self.figure("import_s", statistics.median(imports), "s",
                    f"median of {SETUP_REPEATS} imports in a fresh interpreter")
        return packed

    def repeat(self, name: str, op):
        """Call ``op`` until the next call would overrun the run length; at least once.

        Returns the wall time of every call and its result, ``None`` for a call
        that raised (counted as a failed operation by the caller).
        """
        samples, results = [], []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            try:
                with self.tracer.span(name):
                    results.append(op())
            except Exception:  # a failing call is reported and counted, not fatal
                self.errors.append(traceback.format_exc())
                results.append(None)
            samples.append(time.perf_counter() - t0)
            if time.perf_counter() - start + statistics.median(samples) > self.seconds:
                return samples, results

    def count(self, ok: bool):
        self.attempted += 1
        self.failed += not ok

    def environment(self) -> dict:
        return {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "blas_threads": {var: os.environ.get(var) for var in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "git_commit": _git_commit(),
            "src_sha256": _source_digest(),
            "seed": self.seed,
            "data_seed": DATA_SEED,
            "size": self.size.name,
            "workload_sizes": self.workload_sizes,
            "run_seconds": self.seconds,
        }

    def finish(self):
        """Print every figure, the gates and the result line; write the run's files."""
        self.end_to_end["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.end_to_end["setup_s"] = self.setup_s
        wall = time.perf_counter() - self.started
        if self.trace:
            cost = span_cost()
            self.per_layer["trace.overhead_frac"] = cost * len(self.tracer.spans) / wall
        correct = self.failed == 0 and all(ok for ok, _ in self.gates.values())
        env = self.environment()
        stem = f"{self.workload}-{self.size.name}-seed{self.seed}"
        tag = f"{stem}-trace{int(self.trace)}"
        print(f"# jointmix benchmark {tag}")
        print("env " + json.dumps(env, sort_keys=True))
        for name, value, unit, note in self.figures:
            print(f"{name:<34} {value:.6g} {unit}" + (f"  ({note})" if note else ""))
        print(f"{'fail_frac':<34} {self.failed / max(self.attempted, 1):.6g} fraction"
              f"  ({self.failed} failed of {self.attempted} attempted)")
        for name, value in self.end_to_end.items():
            print(f"{name:<34} {value:.6g} {END_TO_END_UNITS[name]}")
        if self.trace:
            for name, value in self.per_layer.items():
                print(f"{name:<34} {value:.6g} {PER_LAYER_UNITS[name]}")
            untraced = OUT_DIR / f"result-{stem}-trace0.json"
            if untraced.is_file():
                base = json.loads(untraced.read_text())["end_to_end"]["op_s"]
                print(f"{'trace.op_s_vs_untraced':<34} {self.end_to_end['op_s'] / base - 1:+.4f} fraction"
                      f"  (traced op_s over the last untraced run of this seed)")
        for name, (ok, detail) in self.gates.items():
            print(f"gate {name}: {'pass' if ok else 'FAIL'}  {detail}")
        for name, verdict in self.verdicts.items():
            print(f"verdict {name}: {verdict}  (reported, not gated)")
        for err in self.errors[:1]:
            print(err, file=sys.stderr)

        OUT_DIR.mkdir(exist_ok=True)
        doc = {"workload": self.workload, "env": env, "correct": correct,
               "attempted": self.attempted, "failed": self.failed,
               "end_to_end": self.end_to_end, "per_layer": self.per_layer,
               "figures": [{"name": n, "value": v, "unit": u, "note": note}
                           for n, v, u, note in self.figures],
               "gates": {n: {"pass": ok, "detail": d} for n, (ok, d) in self.gates.items()},
               "verdicts": self.verdicts, "errors": self.errors}
        (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(doc, indent=1) + "\n")
        if self.trace:
            self.tracer.write(OUT_DIR / f"trace-{stem}.json")

        units = PER_LAYER_UNITS if self.trace else END_TO_END_UNITS
        values = self.per_layer if self.trace else self.end_to_end
        print(json.dumps({"correct": correct, "attempted": self.attempted, "failed": self.failed,
                          "metrics": {name: {"value": values[name], "unit": unit}
                                      for name, unit in units.items()}}))


# ------------------------------------------------------------ per-layer replays

def replay_checks(run: Run, design: jm.SimDesign, packed: jm.PackedData, params: jm.ModelParams):
    """Fixed point, orthogonality and identity checks at a point; returns (gamma, tables)."""
    for _ in range(run.size.replays):
        gamma, tables = run.call("inference.fixed_point_posterior", jm.fixed_point_posterior,
                                 packed, params)
        directions = run.call("inference.default_directions", jm.default_directions, packed)
        run.call("inference.orthogonality_check", jm.orthogonality_check, packed, params,
                 directions, design.baseline)
    run.call("inference.info_identity_check", jm.info_identity_check, packed, params)
    return gamma, tables


def replay_layers(run: Run, packed: jm.PackedData, params: jm.ModelParams, gamma, tables):
    """Time each kernel layer at one point; one E-step then M-step stands for an EM iteration."""
    theta, delta = params.theta, params.survival
    for _ in range(run.size.replays):
        run.call("survival.RiskSetTables", jm.RiskSetTables, packed, gamma, theta, delta)
        run.call("ordinal.loglik_matrix", ordinal.loglik_matrix, packed, params.ordinal, theta)
        run.call("survival.loglik_matrix", survival.loglik_matrix, packed, tables, theta, delta)
        posterior = run.call("em.e_step", jm.e_step, packed, params, tables)
        run.call("em.m_step_theta", jm.m_step_theta, packed, posterior, params)
        run.call("survival.profile_scores", survival.profile_scores, packed, gamma, tables)
        run.call("ordinal.weighted_score_parts", ordinal.weighted_score_parts, packed,
                 params.ordinal, theta, gamma)
        run.call("inference.score_matrix", jm.score_matrix, packed, params, gamma, tables)
        run.call("inference.information_matrix", jm.information_matrix, packed, params, gamma, tables)
    tracemalloc.start()
    ordinal.weighted_score_parts(packed, params.ordinal, theta, gamma)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    run.per_layer["ordinal.score_parts_mb"] = peak / 2 ** 20
    for metric, span in LAYER_SPANS.items():
        run.per_layer[metric] = statistics.median(run.tracer.durations(span))


def record_em(run: Run, fits, walls):
    """em.* per-layer figures from single-restart fits and their wall times."""
    iterations = sum(fit.n_iter for fit in fits)
    run.per_layer["em.iterations"] = float(iterations)
    run.per_layer["em.s_per_iter"] = sum(walls) / iterations
    run.per_layer["em.restarts_converged_frac"] = float(np.mean([fit.converged for fit in fits]))


def timed_fit(run: Run, *args, **kwargs):
    start = time.perf_counter()
    fit = run.call("em.em_fit", jm.em_fit, *args, **kwargs)
    return fit, time.perf_counter() - start


# ------------------------------------------------------------ workloads

def fit_large(run: Run):
    """One em_fit on default_design(n=10 000): the O(n) kernels dominate."""
    design = jm.default_design(n=run.size.fit_n, seed=DATA_SEED)
    run.workload_sizes = {"n": design.n, "groups": 2, "config": FIT_CONFIG.__dict__}
    packed = run.setup(design)
    samples, fits = run.repeat("em.em_fit", lambda: jm.em_fit(packed, 2, FIT_CONFIG))
    ref = load_reference("fit_large", run.size)
    for fit in fits:
        ok = fit is not None and run.gate("converged", fit.converged,
                                          f"converged={fit.converged} after {fit.n_iter} iterations")
        if ok and ref is not None:
            ll_gap = abs(fit.loglik - ref["loglik"]) / abs(ref["loglik"])
            dist = float(np.max(np.abs(param_vector(fit.params) - np.asarray(ref["params"]))))
            ok &= run.gate("loglik_vs_reference", ll_gap <= LOGLIK_RTOL,
                           f"relative gap {ll_gap:.3g} <= {LOGLIK_RTOL:g}")
            ok &= run.gate("params_vs_reference", dist <= PARAM_ATOL,
                           f"max abs distance {dist:.3g} <= {PARAM_ATOL:g}")
        run.count(ok)
    run.end_to_end["op_s"] = statistics.median(samples)
    run.figure("fit_s", statistics.median(samples), "s", f"median of {len(samples)} em_fit calls")
    done = [fit for fit in fits if fit is not None]
    if not done:
        return
    fit = done[-1]
    score = run.call("inference.mean_profile_score", jm.mean_profile_score, packed, fit.params,
                     fit.posterior.gamma)
    run.figure("score_sup", max(float(np.max(np.abs(score))), SCORE_FLOOR), "1",
               f"sup-norm of the mean profile score at the fit, floored at {SCORE_FLOOR:g}")
    run.figure("em_iterations", fit.n_iter, "count")
    run.figure("loglik", fit.loglik, "nats")
    if ref is not None:
        run.figure("params_distance_to_reference",
                   float(np.max(np.abs(param_vector(fit.params) - np.asarray(ref["params"])))),
                   "1", f"tight-tolerance reference, {ref['n_iter']} iterations")
    if run.trace:
        record_em(run, done, [t for t, f in zip(samples, fits) if f is not None])
        gamma, tables = replay_checks(run, design, packed, fit.params)
        replay_layers(run, packed, fit.params, gamma, tables)


def mc_small(run: Run):
    """mc_normality on default_design(n=500): bound by per-iteration overhead."""
    design = jm.default_design(n=run.size.mc_n, seed=DATA_SEED)
    reps = run.size.mc_reps
    run.workload_sizes = {"n": design.n, "replications": reps, "threads": 1,
                          "config": MC_CONFIG.__dict__}
    packed = run.setup(design)
    samples, reports = run.repeat("simulation.mc_normality",
                                  lambda: jm.mc_normality(design, reps, MC_CONFIG, threads=1))
    completed = []
    for report in reports:
        if report is None:
            for _ in range(reps):
                run.count(False)
            continue
        good = report.rep_converged & np.all(np.isfinite(report.std_errors), axis=1)
        completed.append(int(good.sum()))
        run.gate("replications_converged_with_finite_se", good.all(),
                 f"{int(good.sum())} of {reps} replications converged with finite standard errors")
        for ok in good:
            run.count(bool(ok))
    per_call = statistics.median(samples)
    run.end_to_end["op_s"] = per_call / reps
    run.figure("mc_reps_per_min", 60.0 * statistics.median(completed or [0]) / per_call, "1/min",
               f"median of {len(samples)} mc_normality calls of {reps} replications")
    if run.trace:
        fits, walls = zip(*(timed_fit(run, packed, design.params.n_groups,
                                      replace(MC_CONFIG, n_restarts=1, seed=s))
                            for s in range(MC_CONFIG.n_restarts)))
        record_em(run, fits, walls)
        gamma, tables = replay_checks(run, design, packed, design.params)
        replay_layers(run, packed, design.params, gamma, tables)


def check_pipeline(run: Run, design: jm.SimDesign, packed: jm.PackedData) -> dict:
    """The ``check`` diagnostics at the true parameters, as the CLI runs them."""
    params = design.params
    gamma, tables = run.call("inference.fixed_point_posterior", jm.fixed_point_posterior,
                             packed, params)
    gap = run.call("inference.efficient_score_equivalence", jm.efficient_score_equivalence,
                   packed, params, gamma)
    contraction = run.call("inference.contraction_check", jm.contraction_check, packed, params,
                           tables.hazard_steps())
    directions = run.call("inference.default_directions", jm.default_directions, packed)
    ortho = run.call("inference.orthogonality_check", jm.orthogonality_check, packed, params,
                     directions, design.baseline)
    identity = run.call("inference.info_identity_check", jm.info_identity_check, packed, params)
    return {"gamma": gamma, "tables": tables,
            "equivalence_gap": gap,
            "contraction_max_lhs": contraction.max_lhs,
            "contraction_bound": contraction.bound,
            "contraction_satisfied": contraction.satisfied,
            "orthogonality_max_ratio": [st.max_abs_ratio for st in ortho],
            "orthogonality_mean": [st.mean.tolist() for st in ortho],
            "identity_rel_gap": identity.rel_frobenius_gap}


def check_diagnostics(run: Run, diag: dict, ref: dict | None) -> bool:
    ok = run.gate("equivalence_gap", diag["equivalence_gap"] <= EQUIVALENCE_TOL,
                  f"{diag['equivalence_gap']:.3g} <= {EQUIVALENCE_TOL:g}")
    if ref is None:
        return ok
    for key in ("contraction_max_lhs", "contraction_bound", "identity_rel_gap",
                "orthogonality_max_ratio", "orthogonality_mean"):
        got, want = np.asarray(diag[key], dtype=float), np.asarray(ref[key], dtype=float)
        match = got.shape == want.shape and np.allclose(got, want, rtol=CHECK_RTOL, atol=1e-12)
        worst = float(np.max(np.abs(got - want) / np.abs(want))) if got.shape == want.shape else np.inf
        ok &= run.gate(f"{key}_vs_stored", match,
                       f"max relative gap {worst:.3g} (rtol {CHECK_RTOL:g})")
    return ok


def check_wide(run: Run):
    """The check pipeline on a wider R=3 design at the true parameters; no EM."""
    design = wide_design(run.size.check_n)
    run.workload_sizes = {"n": design.n, "groups": 3, "levels": 5, "items": 4, "visits": 4}
    packed = run.setup(design)
    samples, results = run.repeat("check.pipeline", lambda: check_pipeline(run, design, packed))
    ref = load_reference("check_wide", run.size)
    for diag in results:
        run.count(diag is not None and check_diagnostics(run, diag, ref))
    run.end_to_end["op_s"] = statistics.median(samples)
    run.figure("check_s", statistics.median(samples), "s",
               f"median of {len(samples)} check pipelines")
    done = [diag for diag in results if diag is not None]
    if not done:
        return
    diag = done[-1]
    ratios = diag["orthogonality_max_ratio"]
    run.verdicts = {
        "efficient_score_equivalence": f"{'pass' if diag['equivalence_gap'] <= 1e-8 else 'FAIL'}"
                                       f" (gap {diag['equivalence_gap']:.3g}, tolerance 1e-8)",
        "contraction": f"{'pass' if diag['contraction_satisfied'] else 'FAIL'}"
                       f" (max_lhs {diag['contraction_max_lhs']:.4g}, bound {diag['contraction_bound']:.4g})",
        "orthogonality": f"{'pass' if max(ratios) <= 3.0 else 'FAIL'}"
                         f" (max ratio {max(ratios):.4g}, bound 3)",
        "info_identity": f"{'pass' if diag['identity_rel_gap'] < 0.05 else 'FAIL'}"
                         f" (gap {diag['identity_rel_gap']:.4g}, tolerance 0.05)",
    }
    if run.trace:
        fit, wall = timed_fit(run, packed, design.params.n_groups,
                              jm.EMConfig(n_restarts=1, max_iter=CHECK_EM_BUDGET),
                              init=design.params)
        record_em(run, [fit], [wall])
        replay_layers(run, packed, design.params, diag["gamma"], diag["tables"])


WORKLOADS = {"fit_large": fit_large, "mc_small": mc_small, "check_wide": check_wide}
