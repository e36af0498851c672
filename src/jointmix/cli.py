"""Command-line surface: ``fit``, ``simulate``, ``mc`` and ``check`` subcommands.

Data files are flat CSV (long-format ordinal responses, one-row-per-subject
survival).  Results, designs and parameter files are JSON documents; every
flag has a config-file equivalent, flags override the file, and a config key
that no subcommand accepts, or that names a required argument (the input
files, the design, the check's parameters), is an input error.  So is a malformed file (a
short CSV row, a JSON document of the wrong shape) and a dataset the checks
cannot use, such as one without events.  Exit codes:
0 success, 1 input error, 2 non-convergence, 3 internal numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
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


# ---------------------------------------------------------------- csv files

def _read_csv(path: str, kind: str, columns: tuple[str, ...], convert):
    """Yield ``convert(*values)`` for each row, the values in ``columns`` order.

    A missing column, a short row or a value ``convert`` rejects with a
    ``ValueError`` raises :class:`DataError` naming the file and the line.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not set(columns).issubset(reader.fieldnames):
            raise DataError(f"{path}: {kind} CSV must have columns {sorted(columns)}")
        for row in reader:
            values = [row[c] for c in columns]
            try:
                if None in values:
                    raise ValueError(f"no value for {columns[values.index(None)]!r}")
                converted = convert(*values)
            except ValueError as err:
                raise DataError(f"{path}:{reader.line_num}: {err}") from None
            yield converted


def _write_csv(path: Path, header: list[str], rows):
    """Write ``rows`` under ``header``, each float as its shortest round-trip repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                          for v in row] for row in rows)


def read_survival_csv(path: str):
    """Rows: subject_id, time, event, covariate.  Order of rows is kept."""
    seen = set()

    def convert(sid, time, event, covariate):
        if sid in seen:
            raise ValueError(f"duplicate subject_id {sid!r}")
        seen.add(sid)
        return sid, float(time), int(event), float(covariate)

    rows = list(_read_csv(path, "survival", ("subject_id", "time", "event", "covariate"),
                          convert))
    if not rows:
        raise DataError(f"{path}: no subjects")
    return rows


def read_ordinal_csv(path: str):
    """Rows: subject_id, time_index, item, level; one row per observed cell."""
    cells: dict[str, list[tuple[int, int, int]]] = {}
    for sid, cell in _read_csv(path, "ordinal", ("subject_id", "time_index", "item", "level"),
                               lambda sid, *cell: (sid, tuple(map(int, cell)))):
        cells.setdefault(sid, []).append(cell)
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
    _write_csv(out_dir / "survival.csv", ["subject_id", "time", "event", "covariate"],
               ([rec.subject_id, rec.survival.time, rec.survival.event, rec.survival.covariate]
                for rec in records))
    _write_csv(out_dir / "ordinal.csv", ["subject_id", "time_index", "item", "level"],
               ([rec.subject_id, int(tp), int(item), int(level)]
                for rec in records
                for item, tp, level in zip(rec.responses.items, rec.responses.time_points,
                                           rec.responses.levels)))
    if labels is not None:
        _write_csv(out_dir / "labels.csv", ["subject_id", "group"],
                   ([rec.subject_id, int(lab) + 1] for rec, lab in zip(records, labels)))


# ---------------------------------------------------------------- json docs

def write_json(path: Path, doc: dict):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise DataError(f"{path}: {err}") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path}: the file must hold one JSON object")
    return doc


def _document(what: str):
    """Make a converter raise ``DataError("bad <what> document: ...")`` for a malformed document.

    A ``DataError`` the converter raises itself passes unchanged, so a nested
    document, or an unknown distribution type, keeps its own message.
    """
    def decorate(convert):
        @functools.wraps(convert)
        def checked(doc):
            try:
                return convert(doc)
            except DataError:
                raise
            except (KeyError, IndexError, TypeError, ValueError) as err:
                raise DataError(f"bad {what} document: {err}") from None
        return checked
    return decorate


def params_to_dict(params: ModelParams) -> dict:
    return {
        "theta": params.theta.tolist(),
        "a": params.ordinal.a.tolist(),
        "phi": params.ordinal.phi.tolist(),
        "b": params.ordinal.b.tolist(),
        "delta": [params.survival.delta0, params.survival.delta1],
        "pi": params.pi.tolist(),
    }


def _array(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


@_document("parameter")
def params_from_dict(doc: dict) -> ModelParams:
    return ModelParams(
        theta=_array(doc["theta"]),
        ordinal=OrdinalParams(_array(doc["a"]), _array(doc["phi"]), _array(doc["b"])),
        survival=SurvivalParams(float(doc["delta"][0]), float(doc["delta"][1])),
        pi=_array(doc["pi"]),
    )


# For each slot of a design: JSON ``type`` -> the distribution class and a
# conversion for each JSON key, the keys in the order of the class's fields.
# The "normal" covariate is the string "normal" in a SimDesign, so has no entry.
_DISTRIBUTIONS = {
    "baseline": {"constant": (ConstantBaseline, {"rate": float}),
                 "piecewise": (PiecewiseConstantBaseline, {"breaks": _array, "rates": _array})},
    "censoring": {"uniform": (UniformCensoring, {"max": float}),
                  "exponential": (ExponentialCensoring, {"rate": float}),
                  "none": (NoCensoring, {})},
    "covariate": {"two_point": (TwoPointCovariate, {"low": float, "high": float, "prob": float})},
}


def _decode(slot: str, doc, unknown: str | None = None):
    kind = doc.get("type") if isinstance(doc, dict) else doc
    if not (isinstance(kind, str) and kind in _DISTRIBUTIONS[slot]):
        raise DataError(unknown or f"unknown {slot} type {kind!r}")
    cls, fields = _DISTRIBUTIONS[slot][kind]
    return cls(*(convert(doc[key]) for key, convert in fields.items()))


def _encode(slot: str, value) -> dict:
    for kind, (cls, fields) in _DISTRIBUTIONS[slot].items():
        if isinstance(value, cls):
            return {"type": kind, **{key: np.asarray(getattr(value, field.name)).tolist()
                                     for key, field in zip(fields, dataclasses.fields(cls))}}
    raise TypeError(f"no JSON form for the {slot} {value!r}")


def _decode_covariate(doc) -> str | TwoPointCovariate:
    """A design's covariate: "normal" (also when the key is absent) or a typed distribution."""
    if doc in ("normal", None, {"type": "normal"}):
        return "normal"
    return _decode("covariate", doc, f"unknown covariate distribution {doc!r}")


@_document("design")
def design_from_dict(doc: dict) -> SimDesign:
    return SimDesign(
        n=int(doc["n"]),
        params=params_from_dict(doc["params"]),
        n_time_points=int(doc["time_points"]),
        baseline=_decode("baseline", doc["baseline"]),
        censoring=_decode("censoring", doc["censoring"]),
        covariate=_decode_covariate(doc.get("covariate")),
        seed=int(doc.get("seed", 0)),
    )


def design_to_dict(design: SimDesign) -> dict:
    return {
        "n": design.n,
        "params": params_to_dict(design.params),
        "time_points": design.n_time_points,
        "baseline": _encode("baseline", design.baseline),
        "censoring": _encode("censoring", design.censoring),
        "covariate": ({"type": "normal"} if isinstance(design.covariate, str)
                      else _encode("covariate", design.covariate)),
        "seed": design.seed,
    }


@_document("parameter")
def _params_and_baseline(doc: dict):
    """The parameters and true baseline of a ``check --params`` document."""
    params = params_from_dict(doc.get("params", doc))
    baseline_doc = doc.get("baseline") or doc.get("params", {}).get("baseline")
    if baseline_doc is None:
        raise DataError("params file must include the true baseline for the checks")
    return params, _decode("baseline", baseline_doc)


# ---------------------------------------------------------------- fit output

def write_fit_artifacts(fit, records, out_dir: Path):
    names = list(fit.param_names)
    layout_est = ParamLayout(fit.params.n_groups, fit.params.n_levels, fit.params.n_items)
    estimates = layout_est.pack(fit.params)
    _write_csv(out_dir / "estimates.csv", ["parameter", "estimate", "std_error"],
               zip(names, estimates, fit.std_errors))
    _write_csv(out_dir / "info_matrix.csv", names, fit.info_matrix)
    _write_csv(out_dir / "hazard.csv", ["time", "jump"], zip(fit.hazard.times, fit.hazard.jumps))
    _write_csv(out_dir / "gamma.csv",
               ["subject_id"] + [f"group{r + 1}" for r in range(fit.params.n_groups)],
               ([rec.subject_id, *row] for rec, row in zip(records, fit.posterior.gamma)))
    _write_csv(out_dir / "loglik_trace.csv", ["loglik"], fit.loglik_trace.reshape(-1, 1))
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

def _read_records(args) -> list[SubjectRecord]:
    return build_records(read_survival_csv(args.survival_csv), read_ordinal_csv(args.ordinal_csv))


def _load_design(args) -> SimDesign:
    doc = load_json(args.design)
    if args.seed is not None:
        doc["seed"] = args.seed
    return design_from_dict(doc)


def _em_config(args) -> EMConfig:
    # mc's --seed defaults to None, which keeps the design's seed and EM seed 0
    return EMConfig(tol_loglik=args.tol_loglik, tol_param=args.tol_param,
                    max_iter=args.max_iter, n_restarts=args.restarts, seed=args.seed or 0)


def _out_dir(args) -> Path:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _cmd_fit(args) -> int:
    records = _read_records(args)
    fit = em_fit(records, args.groups, _em_config(args),
                 n_levels=args.levels, n_items=args.items)
    write_fit_artifacts(fit, records, _out_dir(args))
    if not fit.converged:
        print("fit did not converge; artifacts written", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    print(f"converged in {fit.n_iter} evaluations; loglik {fit.loglik:.6f}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    design = _load_design(args)
    records, labels = generate_dataset(design)
    out_dir = _out_dir(args)
    write_dataset_csvs(records, labels, out_dir)
    truth = design_to_dict(design)
    truth["params"]["baseline"] = truth["baseline"]
    write_json(out_dir / "truth.json", truth)
    print(f"wrote {len(records)} subjects to {out_dir}")
    return EXIT_OK


def _cmd_mc(args) -> int:
    report = mc_normality(_load_design(args), args.replications, _em_config(args),
                          threads=args.threads)
    out_dir = _out_dir(args)
    write_json(out_dir / "mc_report.json", report.to_dict())
    _write_csv(out_dir / "replications.csv",
               ["replication", "converged", "error"] + list(report.param_names)
               + [f"se_{n}" for n in report.param_names],
               ([rep, int(converged), error, *est, *se]
                for rep, (converged, error, est, se) in enumerate(zip(
                    report.rep_converged, report.rep_errors, report.estimates, report.std_errors))))
    if report.failure_flag:
        print(f"warning: {report.n_failures}/{report.n_replications} replications failed",
              file=sys.stderr)
    print(f"wrote MC report for {report.n_replications} replications to {out_dir}")
    return EXIT_OK


def _cmd_check(args) -> int:
    records = _read_records(args)
    params, baseline = _params_and_baseline(load_json(args.params))

    packed = PackedData(records, params.n_levels, params.n_items)
    gamma, tables = _inference.fixed_point_posterior(packed, params)
    equivalence = _inference.efficient_score_equivalence(packed, params, gamma)
    contraction = _inference.contraction_check(packed, params, tables)
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
    write_json(_out_dir(args) / "checks.json", checks)
    for name, rec in checks.items():
        print(f"{name}: {'pass' if rec['pass'] else 'FAIL'}")
    return EXIT_OK


# ---------------------------------------------------------------- arg parsing

def _add_em_flags(parser, restarts: int, seed: int | None):
    parser.add_argument("--tol-loglik", dest="tol_loglik", type=float,
                        default=EMConfig.tol_loglik)
    parser.add_argument("--tol-param", dest="tol_param", type=float, default=EMConfig.tol_param)
    parser.add_argument("--max-iter", dest="max_iter", type=int, default=EMConfig.max_iter)
    parser.add_argument("--restarts", type=int, default=restarts)
    parser.add_argument("--seed", type=int, default=seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="jointmix",
                                     description="Joint mixture of ordinal responses and survival times")
    parser.add_argument("--config", default=None,
                        help="JSON file of flag defaults; explicit flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit the model to ordinal + survival CSVs")
    p_fit.add_argument("ordinal_csv")
    p_fit.add_argument("survival_csv")
    p_fit.add_argument("--groups", type=int, default=2, help="number of latent groups R")
    _add_em_flags(p_fit, restarts=EMConfig.n_restarts, seed=EMConfig.seed)
    p_fit.add_argument("--levels", type=int, default=None, help="number of response levels L")
    p_fit.add_argument("--items", type=int, default=None, help="number of items J")
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
    _add_em_flags(p_mc, restarts=2, seed=None)
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


def _apply_config(parser, path: str):
    """Make the keys of the config file the defaults of the subcommands that take them.

    Each value is converted as its flag's ``type`` converts the same text on
    the command line: a JSON string is that text, and any other value its
    JSON spelling, so ``1.5`` is no ``--restarts`` and ``true`` no ``--groups``.
    A ``null`` keeps the flag's default.  A key that no subcommand accepts,
    or that names a required argument, which only the command line gives,
    raises :class:`DataError`.
    """
    defaults = load_json(path)
    actions = {sp: {a.dest: a for a in sp._actions if a.dest != "help"}
               for sp in parser._jointmix_subparsers.values()}
    unknown = sorted(set(defaults) - set().union(*actions.values()))
    if unknown:
        raise DataError(f"{path}: no subcommand accepts the keys {unknown}")
    required = sorted({dest for by_dest in actions.values()
                       for dest, action in by_dest.items() if action.required} & set(defaults))
    if required:
        raise DataError(f"{path}: the keys {required} name required arguments; "
                        "give them on the command line")
    for subparser, by_dest in actions.items():
        converted = {}
        for key, value in defaults.items():
            if key in by_dest and value is not None:
                text = value if isinstance(value, str) else json.dumps(value)
                try:
                    converted[key] = (by_dest[key].type or str)(text)
                except ValueError as err:
                    raise DataError(f"{path}: key {key!r}: invalid value {value!r}") from err
        subparser.set_defaults(**converted)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:  # parse again, so that explicit flags override the file
            _apply_config(parser, args.config)
            args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse's exit after --help or a usage error
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    except DataError as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except _NUMERIC_ERRORS as err:
        print(f"numeric failure: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
