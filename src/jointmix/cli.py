"""Command-line surface: ``fit``, ``simulate``, ``mc`` and ``check`` subcommands.

Data files are flat CSV (long-format ordinal responses, one-row-per-subject
survival).  Results, designs and parameter files are JSON documents; every
flag has a config-file equivalent and flags override the file.  Exit codes:
0 success, 1 input error, 2 non-convergence, 3 internal numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import inference as _inference
from .data import DataError, PackedData, ResponseSet, SubjectRecord, SurvivalRecord
from .em import _NUMERIC_ERRORS, EMConfig, em_fit
from .ordinal import OrdinalParams
from .params import ModelParams, ParamLayout
from .simulation import (ConstantBaseline, ExponentialCensoring, NoCensoring,
                         PiecewiseConstantBaseline, SimDesign, TwoPointCovariate,
                         UniformCensoring, generate_dataset, mc_normality)
from .survival import SurvivalParams

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CONVERGENCE = 2
EXIT_NUMERIC = 3


# ---------------------------------------------------------------- data files

def read_survival_csv(path: str):
    """Rows: subject_id, time, event, covariate.  Order of rows is kept."""
    rows = []
    seen = set()
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"subject_id", "time", "event", "covariate"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise DataError(f"{path}: survival CSV must have columns {sorted(required)}")
        for lineno, row in enumerate(reader, start=2):
            sid = row["subject_id"]
            if sid in seen:
                raise DataError(f"{path}:{lineno}: duplicate subject_id {sid!r}")
            seen.add(sid)
            try:
                rows.append((sid, float(row["time"]), int(row["event"]), float(row["covariate"])))
            except ValueError as err:
                raise DataError(f"{path}:{lineno}: {err}") from None
    if not rows:
        raise DataError(f"{path}: no subjects")
    return rows


def read_ordinal_csv(path: str):
    """Rows: subject_id, time_index, item, level; one row per observed cell."""
    cells: dict[str, list[tuple[int, int, int]]] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"subject_id", "time_index", "item", "level"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise DataError(f"{path}: ordinal CSV must have columns {sorted(required)}")
        for lineno, row in enumerate(reader, start=2):
            try:
                cells.setdefault(row["subject_id"], []).append(
                    (int(row["time_index"]), int(row["item"]), int(row["level"])))
            except ValueError as err:
                raise DataError(f"{path}:{lineno}: {err}") from None
    return cells


def build_records(survival_rows, ordinal_cells) -> list[SubjectRecord]:
    known = {sid for sid, *_ in survival_rows}
    orphans = sorted(set(ordinal_cells) - known)
    if orphans:
        raise DataError("ordinal responses reference subjects missing from the survival CSV: "
                        + ", ".join(repr(s) for s in orphans))
    records = []
    for sid, time, event, covariate in survival_rows:
        triples = ordinal_cells.get(sid, [])
        if triples:
            times, items, levels = zip(*triples)
            responses = ResponseSet(np.asarray(items), np.asarray(times), np.asarray(levels))
        else:
            responses = ResponseSet.empty()
        records.append(SubjectRecord(responses, SurvivalRecord(time, event, covariate), sid))
    return records


def write_dataset_csvs(records, labels, out_dir: Path):
    with open(out_dir / "survival.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject_id", "time", "event", "covariate"])
        for rec in records:
            writer.writerow([rec.subject_id, repr(rec.survival.time), rec.survival.event,
                             repr(rec.survival.covariate)])
    with open(out_dir / "ordinal.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject_id", "time_index", "item", "level"])
        for rec in records:
            resp = rec.responses
            for item, tp, level in zip(resp.items, resp.time_points, resp.levels):
                writer.writerow([rec.subject_id, int(tp), int(item), int(level)])
    if labels is not None:
        with open(out_dir / "labels.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["subject_id", "group"])
            for rec, lab in zip(records, labels):
                writer.writerow([rec.subject_id, int(lab) + 1])


# ---------------------------------------------------------------- json docs

def write_json(path: Path, doc: dict):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def params_to_dict(params: ModelParams) -> dict:
    return {
        "theta": params.theta.tolist(),
        "a": params.ordinal.a.tolist(),
        "phi": params.ordinal.phi.tolist(),
        "b": params.ordinal.b.tolist(),
        "delta": [params.survival.delta0, params.survival.delta1],
        "pi": params.pi.tolist(),
    }


def params_from_dict(doc: dict) -> ModelParams:
    try:
        return ModelParams(
            theta=np.asarray(doc["theta"], dtype=float),
            ordinal=OrdinalParams(np.asarray(doc["a"], dtype=float),
                                  np.asarray(doc["phi"], dtype=float),
                                  np.asarray(doc["b"], dtype=float)),
            survival=SurvivalParams(float(doc["delta"][0]), float(doc["delta"][1])),
            pi=np.asarray(doc["pi"], dtype=float),
        )
    except (KeyError, IndexError, TypeError, ValueError) as err:
        raise DataError(f"bad parameter document: {err}") from None


def baseline_from_dict(doc: dict):
    kind = doc.get("type")
    if kind == "constant":
        return ConstantBaseline(float(doc["rate"]))
    if kind == "piecewise":
        return PiecewiseConstantBaseline(np.asarray(doc["breaks"], dtype=float),
                                         np.asarray(doc["rates"], dtype=float))
    raise DataError(f"unknown baseline type {kind!r}")


def baseline_to_dict(baseline) -> dict:
    if isinstance(baseline, ConstantBaseline):
        return {"type": "constant", "rate": baseline.rate}
    return {"type": "piecewise", "breaks": baseline.breaks.tolist(),
            "rates": baseline.rates.tolist()}


def censoring_from_dict(doc: dict):
    kind = doc.get("type")
    if kind == "uniform":
        return UniformCensoring(float(doc["max"]))
    if kind == "exponential":
        return ExponentialCensoring(float(doc["rate"]))
    if kind == "none":
        return NoCensoring()
    raise DataError(f"unknown censoring type {kind!r}")


def censoring_to_dict(censoring) -> dict:
    if isinstance(censoring, UniformCensoring):
        return {"type": "uniform", "max": censoring.upper}
    if isinstance(censoring, ExponentialCensoring):
        return {"type": "exponential", "rate": censoring.rate}
    return {"type": "none"}


def covariate_from_dict(doc) -> str | TwoPointCovariate:
    if doc == "normal" or doc is None or doc == {"type": "normal"}:
        return "normal"
    if isinstance(doc, dict) and doc.get("type") == "two_point":
        return TwoPointCovariate(float(doc["low"]), float(doc["high"]), float(doc["prob"]))
    raise DataError(f"unknown covariate distribution {doc!r}")


def covariate_to_dict(covariate):
    if isinstance(covariate, str):
        return {"type": "normal"}
    return {"type": "two_point", "low": covariate.low, "high": covariate.high,
            "prob": covariate.prob}


def design_from_dict(doc: dict) -> SimDesign:
    try:
        return SimDesign(
            n=int(doc["n"]),
            params=params_from_dict(doc["params"]),
            n_time_points=int(doc["time_points"]),
            baseline=baseline_from_dict(doc["baseline"]),
            censoring=censoring_from_dict(doc["censoring"]),
            covariate=covariate_from_dict(doc.get("covariate")),
            seed=int(doc.get("seed", 0)),
        )
    except (KeyError, TypeError, ValueError) as err:
        if isinstance(err, DataError):
            raise
        raise DataError(f"bad design document: {err}") from None


def design_to_dict(design: SimDesign) -> dict:
    return {
        "n": design.n,
        "params": params_to_dict(design.params),
        "time_points": design.n_time_points,
        "baseline": baseline_to_dict(design.baseline),
        "censoring": censoring_to_dict(design.censoring),
        "covariate": covariate_to_dict(design.covariate),
        "seed": design.seed,
    }


def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise DataError(f"{path}: {err}") from None


# ---------------------------------------------------------------- fit output

def _write_matrix_csv(path: Path, header: list[str], matrix: np.ndarray):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in np.atleast_2d(matrix):
            writer.writerow([repr(float(v)) for v in row])


def write_fit_artifacts(fit, records, out_dir: Path):
    names = list(fit.param_names)
    layout_est = ParamLayout(fit.params.n_groups, fit.params.n_levels, fit.params.n_items)
    estimates = layout_est.pack(fit.params)
    with open(out_dir / "estimates.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["parameter", "estimate", "std_error"])
        for name, est, se in zip(names, estimates, fit.std_errors):
            writer.writerow([name, repr(float(est)), repr(float(se))])
    _write_matrix_csv(out_dir / "info_matrix.csv", names, fit.info_matrix)
    _write_matrix_csv(out_dir / "hazard.csv", ["time", "jump"],
                      np.column_stack([fit.hazard.times, fit.hazard.jumps]))
    with open(out_dir / "gamma.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject_id"] + [f"group{r + 1}" for r in range(fit.params.n_groups)])
        for rec, row in zip(records, fit.posterior.gamma):
            writer.writerow([rec.subject_id] + [repr(float(v)) for v in row])
    _write_matrix_csv(out_dir / "loglik_trace.csv", ["loglik"],
                      fit.loglik_trace.reshape(-1, 1))
    write_json(out_dir / "result.json", {
        "converged": fit.converged,
        "n_iter": fit.n_iter,
        "loglik": fit.loglik,
        "params": params_to_dict(fit.params),
        "param_names": names,
        "estimates": estimates.tolist(),
        "std_errors": fit.std_errors.tolist(),
        "info_condition": fit.info_condition,
        "diagnostics": list(fit.diagnostics),
        "hazard": {"times": fit.hazard.times.tolist(), "jumps": fit.hazard.jumps.tolist()},
        "loglik_trace": fit.loglik_trace.tolist(),
    })


# ---------------------------------------------------------------- commands

def _cmd_fit(args) -> int:
    records = build_records(read_survival_csv(args.survival_csv),
                            read_ordinal_csv(args.ordinal_csv))
    config = EMConfig(tol_loglik=args.tol_loglik, tol_param=args.tol_param,
                      max_iter=args.max_iter, n_restarts=args.restarts, seed=args.seed)
    fit = em_fit(records, args.groups, config,
                 n_levels=args.levels, n_items=args.items)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_fit_artifacts(fit, records, out_dir)
    if not fit.converged:
        print("fit did not converge; artifacts written", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    print(f"converged in {fit.n_iter} evaluations; loglik {fit.loglik:.6f}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    doc = load_json(args.design)
    if args.seed is not None:
        doc["seed"] = args.seed
    design = design_from_dict(doc)
    records, labels = generate_dataset(design)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_dataset_csvs(records, labels, out_dir)
    truth = design_to_dict(design)
    truth["params"]["baseline"] = truth["baseline"]
    write_json(out_dir / "truth.json", truth)
    print(f"wrote {len(records)} subjects to {out_dir}")
    return EXIT_OK


def _cmd_mc(args) -> int:
    doc = load_json(args.design)
    if args.seed is not None:
        doc["seed"] = args.seed
    design = design_from_dict(doc)
    config = EMConfig(tol_loglik=args.tol_loglik, tol_param=args.tol_param,
                      max_iter=args.max_iter, n_restarts=args.restarts, seed=args.seed or 0)
    report = mc_normality(design, args.replications, config, threads=args.threads)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "mc_report.json", report.to_dict())
    with open(out_dir / "replications.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replication", "converged", "error"] + list(report.param_names)
                        + [f"se_{n}" for n in report.param_names])
        for rep in range(report.n_replications):
            writer.writerow([rep, int(report.rep_converged[rep]), report.rep_errors[rep]]
                            + [repr(float(v)) for v in report.estimates[rep]]
                            + [repr(float(v)) for v in report.std_errors[rep]])
    if report.failure_flag:
        print(f"warning: {report.n_failures}/{report.n_replications} replications failed",
              file=sys.stderr)
    print(f"wrote MC report for {report.n_replications} replications to {out_dir}")
    return EXIT_OK


def _cmd_check(args) -> int:
    records = build_records(read_survival_csv(args.survival_csv),
                            read_ordinal_csv(args.ordinal_csv))
    doc = load_json(args.params)
    params = params_from_dict(doc.get("params", doc))
    baseline_doc = doc.get("baseline") or doc.get("params", {}).get("baseline")
    if baseline_doc is None:
        raise DataError("params file must include the true baseline for the checks")
    baseline = baseline_from_dict(baseline_doc)

    packed = PackedData(records, params.n_levels, params.n_items)
    gamma, tables = _inference.fixed_point_posterior(packed, params)
    equivalence = _inference.efficient_score_equivalence(packed, params, gamma)
    contraction = _inference.contraction_check(packed, params, tables.hazard_steps())
    directions = _inference.default_directions(packed)
    ortho = _inference.orthogonality_check(packed, params, directions, baseline)
    identity = _inference.info_identity_check(packed, params)

    checks = {
        "efficient_score_equivalence": {
            "max_relative_gap": equivalence,
            "tolerance": 1e-8,
            "pass": bool(equivalence <= 1e-8),
        },
        "contraction": {
            "max_lhs": contraction.max_lhs,
            "bound": contraction.bound,
            "pass": bool(contraction.satisfied),
        },
        "orthogonality": {
            "directions": [
                {"name": st.name, "max_abs_ratio": st.max_abs_ratio,
                 "mean": st.mean.tolist(), "std_error": st.std_error.tolist(),
                 "pass": bool(st.max_abs_ratio <= 3.0)}
                for st in ortho
            ],
            "pass": bool(all(st.max_abs_ratio <= 3.0 for st in ortho)),
        },
        "info_identity": {
            "rel_frobenius_gap": identity.rel_frobenius_gap,
            "tolerance": 0.05,
            "pass": bool(identity.rel_frobenius_gap < 0.05),
        },
    }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "checks.json", checks)
    for name, rec in checks.items():
        print(f"{name}: {'pass' if rec['pass'] else 'FAIL'}")
    return EXIT_OK


# ---------------------------------------------------------------- arg parsing

def _add_fit_flags(parser):
    parser.add_argument("--groups", type=int, default=2, help="number of latent groups R")
    parser.add_argument("--tol-loglik", dest="tol_loglik", type=float, default=1e-8)
    parser.add_argument("--tol-param", dest="tol_param", type=float, default=1e-6)
    parser.add_argument("--max-iter", dest="max_iter", type=int, default=500)
    parser.add_argument("--restarts", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--levels", type=int, default=None, help="number of response levels L")
    parser.add_argument("--items", type=int, default=None, help="number of items J")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="jointmix",
                                     description="Joint mixture of ordinal responses and survival times")
    parser.add_argument("--config", default=None,
                        help="JSON file of flag defaults; explicit flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit the model to ordinal + survival CSVs")
    p_fit.add_argument("ordinal_csv")
    p_fit.add_argument("survival_csv")
    _add_fit_flags(p_fit)
    p_fit.add_argument("--out", default="fit_out")
    p_fit.set_defaults(func=_cmd_fit)

    p_sim = sub.add_parser("simulate", help="draw a dataset from a design file")
    p_sim.add_argument("design")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--out", default="sim_out")
    p_sim.set_defaults(func=_cmd_simulate)

    p_mc = sub.add_parser("mc", help="Monte Carlo coverage study for a design")
    p_mc.add_argument("design")
    p_mc.add_argument("--replications", type=int, default=100)
    p_mc.add_argument("--tol-loglik", dest="tol_loglik", type=float, default=1e-8)
    p_mc.add_argument("--tol-param", dest="tol_param", type=float, default=1e-6)
    p_mc.add_argument("--max-iter", dest="max_iter", type=int, default=500)
    p_mc.add_argument("--restarts", type=int, default=2)
    p_mc.add_argument("--seed", type=int, default=None)
    p_mc.add_argument("--out", default="mc_out")
    p_mc.add_argument("--threads", type=int, default=1)
    p_mc.set_defaults(func=_cmd_mc)

    p_check = sub.add_parser("check", help="run the inference diagnostics at given parameters")
    p_check.add_argument("--ordinal", dest="ordinal_csv", required=True)
    p_check.add_argument("--survival", dest="survival_csv", required=True)
    p_check.add_argument("--params", required=True, help="JSON file with true parameters and baseline")
    p_check.add_argument("--out", default="check_out")
    p_check.set_defaults(func=_cmd_check)
    parser._jointmix_subparsers = {"fit": p_fit, "simulate": p_sim, "mc": p_mc, "check": p_check}
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # two-phase parse so --config supplies defaults that flags override
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", default=None)
    known, _ = probe.parse_known_args(argv)
    if known.config:
        try:
            defaults = load_json(known.config)
        except DataError as err:
            print(f"input error: {err}", file=sys.stderr)
            return EXIT_INPUT
        for subparser in parser._jointmix_subparsers.values():
            dests = {a.dest for a in subparser._actions}
            subparser.set_defaults(**{k: v for k, v in defaults.items() if k in dests})
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except DataError as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except _NUMERIC_ERRORS as err:
        print(f"numeric failure: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
