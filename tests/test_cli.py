import csv
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from jointmix import default_design
from jointmix.cli import (EXIT_INPUT, EXIT_NUMERIC, build_records, design_from_dict,
                          design_to_dict, main, read_ordinal_csv, read_survival_csv,
                          write_dataset_csvs)
from jointmix.data import DataError
from jointmix.simulation import (ConstantBaseline, ExponentialCensoring, NoCensoring,
                                 PiecewiseConstantBaseline, TwoPointCovariate, UniformCensoring)

from conftest import make_subject

DESIGN = {
    "n": 90,
    "params": {
        "theta": [0.0, 1.0],
        "a": [0.0, 0.2, -0.3],
        "phi": [0.0, 0.5, 1.0],
        "b": [0.0, 0.5],
        "delta": [0.5, -0.5],
        "pi": [0.4, 0.6],
    },
    "time_points": 3,
    "baseline": {"type": "constant", "rate": 0.1},
    "censoring": {"type": "uniform", "max": 32.0},
    "covariate": {"type": "normal"},
    "seed": 77,
}


def write_design(tmp_path, **overrides):
    doc = json.loads(json.dumps(DESIGN))
    doc.update(overrides)
    path = tmp_path / "design.json"
    path.write_text(json.dumps(doc))
    return path


def read_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sim")
    design = write_design(tmp)
    assert main(["simulate", str(design), "--out", str(tmp / "data")]) == 0
    return tmp / "data"


class TestSimulate:
    def test_outputs_and_reproducibility(self, tmp_path, sim_dir):
        design = write_design(tmp_path)
        assert main(["simulate", str(design), "--out", str(tmp_path / "again")]) == 0
        assert read_bytes(sim_dir) == read_bytes(tmp_path / "again")
        for name in ("ordinal.csv", "survival.csv", "labels.csv", "truth.json"):
            assert (sim_dir / name).exists()

    def test_bad_design_exits_1(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 10}))
        assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 1


def assert_field_equal(got, want):
    assert type(got) is type(want)
    if dataclasses.is_dataclass(want):
        for field in dataclasses.fields(want):
            assert_field_equal(getattr(got, field.name), getattr(want, field.name))
    elif isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    else:
        assert got == want


class TestDesignCodec:
    @pytest.mark.parametrize("slot, value, doc", [
        ("baseline", ConstantBaseline(0.1), {"type": "constant", "rate": 0.1}),
        ("baseline", PiecewiseConstantBaseline(np.array([1.0, 3.0]), np.array([0.1, 0.2, 0.3])),
         {"type": "piecewise", "breaks": [1.0, 3.0], "rates": [0.1, 0.2, 0.3]}),
        ("censoring", UniformCensoring(32.0), {"type": "uniform", "max": 32.0}),
        ("censoring", ExponentialCensoring(0.05), {"type": "exponential", "rate": 0.05}),
        ("censoring", NoCensoring(), {"type": "none"}),
        ("covariate", "normal", {"type": "normal"}),
        ("covariate", TwoPointCovariate(-0.5, 1.5, 0.4),
         {"type": "two_point", "low": -0.5, "high": 1.5, "prob": 0.4}),
    ], ids=["constant", "piecewise", "uniform", "exponential", "none", "normal", "two_point"])
    def test_every_distribution_round_trips(self, slot, value, doc):
        design = dataclasses.replace(default_design(n=40, seed=3), **{slot: value})
        text = json.dumps(design_to_dict(design), indent=2, sort_keys=True)
        assert json.loads(text)[slot] == doc
        back = design_from_dict(json.loads(text))
        assert_field_equal(back, design)
        assert json.dumps(design_to_dict(back), indent=2, sort_keys=True) == text

    @pytest.mark.parametrize("slot, message", [
        ("baseline", "unknown baseline type 'x'"),
        ("censoring", "unknown censoring type 'x'"),
        ("covariate", "unknown covariate distribution {'type': 'x'}"),
    ])
    def test_an_unknown_type_is_named(self, slot, message):
        doc = design_to_dict(default_design(n=40))
        doc[slot] = {"type": "x"}
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            design_from_dict(doc)


class TestDatasetCsvs:
    @pytest.mark.parametrize("event", [1.0, True])
    def test_records_round_trip_whatever_the_event_type(self, tmp_path, event):
        records = [make_subject(2.5, event, 0.25, [(1, 1, 2), (2, 3, 1)], subject_id="a"),
                   make_subject(4, 0, -1, subject_id="b")]
        write_dataset_csvs(records, None, tmp_path)
        back = build_records(read_survival_csv(str(tmp_path / "survival.csv")),
                             read_ordinal_csv(str(tmp_path / "ordinal.csv")))
        assert [r.subject_id for r in back] == ["a", "b"]
        assert [r.survival for r in back] == [r.survival for r in records]
        assert [type(r.survival.event) for r in back + records] == [int] * 4
        for got, want in zip(back, records):
            for name in ("items", "time_points", "levels"):
                assert np.array_equal(getattr(got.responses, name), getattr(want.responses, name))


class TestFit:
    def test_round_trip_and_byte_stability(self, sim_dir, tmp_path):
        args = ["fit", str(sim_dir / "ordinal.csv"), str(sim_dir / "survival.csv"),
                "--groups", "2", "--restarts", "1", "--max-iter", "4000",
                "--seed", "4", "--levels", "3", "--items", "2"]
        assert main(args + ["--out", str(tmp_path / "one")]) == 0
        assert main(args + ["--out", str(tmp_path / "two")]) == 0
        assert read_bytes(tmp_path / "one") == read_bytes(tmp_path / "two")
        for name in ("estimates.csv", "info_matrix.csv", "gamma.csv", "hazard.csv",
                     "loglik_trace.csv", "result.json"):
            assert (tmp_path / "one" / name).exists()
        result = json.loads((tmp_path / "one" / "result.json").read_text())
        assert result["converged"] is True

    def test_threads_flag_is_rejected(self, sim_dir, tmp_path):
        # only mc runs replications in parallel; fit has no --threads flag
        code = main(["fit", str(sim_dir / "ordinal.csv"), str(sim_dir / "survival.csv"),
                     "--threads", "2", "--out", str(tmp_path / "out")])
        assert code == EXIT_INPUT
        assert not (tmp_path / "out").exists()

    def test_missing_subject_exits_1(self, sim_dir, tmp_path):
        survival = (sim_dir / "survival.csv").read_text().splitlines()
        (tmp_path / "survival.csv").write_text("\n".join([survival[0]] + survival[2:]) + "\n")
        code = main(["fit", str(sim_dir / "ordinal.csv"), str(tmp_path / "survival.csv"),
                     "--groups", "2", "--out", str(tmp_path / "out")])
        assert code == 1

    def test_missing_subject_message_names_id(self, sim_dir, tmp_path, capsys):
        survival = (sim_dir / "survival.csv").read_text().splitlines()
        dropped = survival[1].split(",")[0]
        (tmp_path / "survival.csv").write_text("\n".join([survival[0]] + survival[2:]) + "\n")
        main(["fit", str(sim_dir / "ordinal.csv"), str(tmp_path / "survival.csv"),
              "--groups", "2", "--out", str(tmp_path / "out")])
        assert dropped in capsys.readouterr().err

    def test_non_convergence_exits_2_with_partial_trace(self, sim_dir, tmp_path):
        code = main(["fit", str(sim_dir / "ordinal.csv"), str(sim_dir / "survival.csv"),
                     "--groups", "2", "--restarts", "1", "--max-iter", "1",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        trace = (tmp_path / "out" / "loglik_trace.csv").read_text().splitlines()
        assert len(trace) >= 2  # header plus at least one recorded value

    def test_schema_violation_exits_1(self, tmp_path):
        (tmp_path / "ordinal.csv").write_text("subject_id,time_index,item\n1,1,1\n")
        (tmp_path / "survival.csv").write_text("subject_id,time,event,covariate\n1,1.0,1,0.0\n")
        code = main(["fit", str(tmp_path / "ordinal.csv"), str(tmp_path / "survival.csv"),
                     "--out", str(tmp_path / "out")])
        assert code == 1

    @pytest.mark.parametrize("name, short_row", [("survival.csv", "zz,2.0"),
                                                 ("ordinal.csv", "1,1")])
    def test_a_short_row_exits_1_naming_the_line(self, sim_dir, tmp_path, capsys,
                                                 name, short_row):
        lines = (sim_dir / name).read_text().splitlines()
        (tmp_path / name).write_text("\n".join(lines[:3] + [short_row]) + "\n")
        files = {n: str(tmp_path / n if n == name else sim_dir / n)
                 for n in ("ordinal.csv", "survival.csv")}
        code = main(["fit", files["ordinal.csv"], files["survival.csv"],
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("input error: ")
        assert f"{tmp_path / name}:4: " in err
        assert not (tmp_path / "out").exists()

    def test_config_file_supplies_defaults(self, sim_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_iter": 1, "restarts": 1}))
        code = main(["--config", str(config), "fit", str(sim_dir / "ordinal.csv"),
                     str(sim_dir / "survival.csv"), "--groups", "2",
                     "--out", str(tmp_path / "out")])
        assert code == 2  # config's max_iter=1 prevents convergence
        code = main(["--config", str(config), "fit", str(sim_dir / "ordinal.csv"),
                     str(sim_dir / "survival.csv"), "--groups", "2",
                     "--max-iter", "4000", "--seed", "4",
                     "--out", str(tmp_path / "out2")])
        assert code == 0  # explicit flag overrides the config file

    @pytest.mark.parametrize("doc", [{"restart": 1, "max_iters": 3}, {"restarts": 1, "max_iters": 3}])
    def test_config_keys_no_subcommand_accepts_exit_1(self, sim_dir, tmp_path, capsys, doc):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        code = main(["--config", str(config), "fit", str(sim_dir / "ordinal.csv"),
                     str(sim_dir / "survival.csv"), "--out", str(tmp_path / "out")])
        assert code == EXIT_INPUT
        assert "max_iters" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, config", [
        (["--max-iter", "0"], None), (["--restarts", "0"], None), (["--tol-param=-1e-6"], None),
        (["--groups", "0"], None), ([], {"max_iter": 0}),
        # a config value converts as its flag converts the same text on the command line
        ([], {"restarts": 1.5}), ([], {"seed": 1.5}), ([], {"groups": True}),
        ([], {"tol_loglik": [1]})],
        ids=["max-iter", "restarts", "tol-param", "groups", "config", "config-float-restarts",
             "config-float-seed", "config-bool-groups", "config-list-tol"])
    def test_invalid_fit_settings_exit_1(self, sim_dir, tmp_path, capsys, flags, config):
        before = []
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config))
            before = ["--config", str(tmp_path / "config.json")]
        code = main(before + ["fit", str(sim_dir / "ordinal.csv"), str(sim_dir / "survival.csv"),
                              *flags, "--out", str(tmp_path / "out")])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err.startswith("input error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, doc", [
        ("fit", {"ordinal_csv": "nonexistent.csv"}), ("check", {"params": "nonexistent.json"})],
        ids=["fit-positional", "check-required-option"])
    def test_config_keys_naming_required_arguments_exit_1(self, sim_dir, tmp_path, capsys,
                                                          command, doc):
        # the command line gives every required argument; the file's value would be ignored
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        args = {"fit": [str(sim_dir / "ordinal.csv"), str(sim_dir / "survival.csv")],
                "check": ["--ordinal", str(sim_dir / "ordinal.csv"),
                          "--survival", str(sim_dir / "survival.csv"),
                          "--params", str(sim_dir / "truth.json")]}[command]
        code = main(["--config", str(config), command, *args, "--out", str(tmp_path / "out")])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and repr(next(iter(doc))) in err
        assert not (tmp_path / "out").exists()

    def test_a_config_flag_without_a_file_exits_1(self, capsys):
        assert main(["--config"]) == EXIT_INPUT
        assert "expected one argument" in capsys.readouterr().err

    def test_config_values_convert_as_their_flags_do(self, sim_dir, tmp_path):
        # a null keeps the default, and a string converts as the same text on the command line
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"levels": None, "restarts": 1, "tol_loglik": 1e-6,
                                      "max_iter": "40"}))
        data = [str(sim_dir / "ordinal.csv"), str(sim_dir / "survival.csv")]
        code = main(["--config", str(config), "fit", *data, "--out", str(tmp_path / "config")])
        assert code == main(["fit", *data, "--restarts", "1", "--tol-loglik", "1e-06",
                             "--max-iter", "40", "--out", str(tmp_path / "flags")])
        assert read_bytes(tmp_path / "config") == read_bytes(tmp_path / "flags")

    def test_config_keys_of_another_subcommand_are_allowed(self, sim_dir, tmp_path):
        # threads and replications belong to mc; fit ignores them
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_iter": 1, "restarts": 1, "threads": 2,
                                      "replications": 3}))
        code = main(["--config", str(config), "fit", str(sim_dir / "ordinal.csv"),
                     str(sim_dir / "survival.csv"), "--out", str(tmp_path / "out")])
        assert code == 2


class TestMc:
    def test_mc_writes_report_and_is_deterministic(self, tmp_path):
        design = write_design(tmp_path, n=50)
        args = ["mc", str(design), "--replications", "2", "--restarts", "1",
                "--max-iter", "30", "--seed", "3"]
        assert main(args + ["--out", str(tmp_path / "one")]) == 0
        assert main(args + ["--out", str(tmp_path / "two")]) == 0
        assert read_bytes(tmp_path / "one") == read_bytes(tmp_path / "two")
        report = json.loads((tmp_path / "one" / "mc_report.json").read_text())
        assert report["n_replications"] == 2
        reps = (tmp_path / "one" / "replications.csv").read_text().splitlines()
        assert len(reps) == 3
        assert reps[0].split(",")[:3] == ["replication", "converged", "error"]
        assert len(report["rep_errors"]) == 2

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_1_exit_1(self, tmp_path, threads):
        design = write_design(tmp_path, n=50)
        code = main(["mc", str(design), "--replications", "2", "--threads", threads,
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_INPUT
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("replications, theta, config", [
        ("-1", [0.0, 1.0], None), ("2", [0.0, -1.0], None),
        (None, [0.0, 1.0], {"replications": True}), ("2", [0.0, 1.0], {"threads": 1.5})],
        ids=["replications", "descending-theta", "config-bool-replications",
             "config-float-threads"])
    def test_invalid_study_exits_1(self, tmp_path, capsys, replications, theta, config):
        design = write_design(tmp_path, n=50, params=dict(DESIGN["params"], theta=theta))
        before, flags = [], [] if replications is None else ["--replications", replications]
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config))
            before = ["--config", str(tmp_path / "config.json")]
        code = main(before + ["mc", str(design), *flags, "--out", str(tmp_path / "out")])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err.startswith("input error: ")
        assert not (tmp_path / "out").exists()


class TestCheck:
    def test_check_runs_and_reports(self, sim_dir, tmp_path):
        code = main(["check", "--ordinal", str(sim_dir / "ordinal.csv"),
                     "--survival", str(sim_dir / "survival.csv"),
                     "--params", str(sim_dir / "truth.json"),
                     "--out", str(tmp_path / "checks")])
        assert code == 0
        doc = json.loads((tmp_path / "checks" / "checks.json").read_text())
        assert set(doc) == {"efficient_score_equivalence", "contraction",
                            "orthogonality", "info_identity"}
        assert doc["efficient_score_equivalence"]["pass"] is True
        assert doc["efficient_score_equivalence"]["max_relative_gap"] <= 1e-8
        assert len(doc["orthogonality"]["directions"]) == 6

    def test_check_packs_the_data_once(self, sim_dir, tmp_path, monkeypatch):
        from jointmix.data import PackedData
        built = []
        init = PackedData.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(PackedData, "__init__", counting_init)
        code = main(["check", "--ordinal", str(sim_dir / "ordinal.csv"),
                     "--survival", str(sim_dir / "survival.csv"),
                     "--params", str(sim_dir / "truth.json"),
                     "--out", str(tmp_path / "checks")])
        assert code == 0
        assert len(built) == 1

    def test_missing_baseline_exits_1(self, sim_dir, tmp_path):
        params = json.loads((sim_dir / "truth.json").read_text())["params"]
        params.pop("baseline", None)
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"params": params}))
        code = main(["check", "--ordinal", str(sim_dir / "ordinal.csv"),
                     "--survival", str(sim_dir / "survival.csv"),
                     "--params", str(path), "--out", str(tmp_path / "checks")])
        assert code == 1

    def check(self, sim_dir, tmp_path, params, survival=None):
        return main(["check", "--ordinal", str(sim_dir / "ordinal.csv"),
                     "--survival", str(survival or sim_dir / "survival.csv"),
                     "--params", str(params), "--out", str(tmp_path / "checks")])

    @pytest.mark.parametrize("malformed", ["array", "baseline-without-rate"])
    def test_a_malformed_params_document_exits_1(self, sim_dir, tmp_path, capsys, malformed):
        doc = json.loads((sim_dir / "truth.json").read_text())
        if malformed == "array":
            doc = [1, 2]
        else:
            del doc["baseline"]["rate"], doc["params"]["baseline"]["rate"]
        (tmp_path / "params.json").write_text(json.dumps(doc))
        assert self.check(sim_dir, tmp_path, tmp_path / "params.json") == EXIT_INPUT
        assert capsys.readouterr().err.startswith("input error: ")
        assert not (tmp_path / "checks").exists()

    def test_a_dataset_without_events_exits_1(self, sim_dir, tmp_path, capsys):
        with open(sim_dir / "survival.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(tmp_path / "survival.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows([dict(row, event="0") for row in rows])
        code = self.check(sim_dir, tmp_path, sim_dir / "truth.json", tmp_path / "survival.csv")
        assert code == EXIT_INPUT
        assert capsys.readouterr().err.startswith("input error: ")
        assert not (tmp_path / "checks").exists()

    def test_phi_tied_at_a_boundary_exits_1(self, sim_dir, tmp_path, capsys):
        # the identity check cannot step phi[2] past phi[3] = 1
        doc = json.loads((sim_dir / "truth.json").read_text())
        doc["params"]["phi"] = [0.0, 1.0, 1.0]
        (tmp_path / "params.json").write_text(json.dumps(doc))
        assert self.check(sim_dir, tmp_path, tmp_path / "params.json") == EXIT_INPUT
        assert capsys.readouterr().err.startswith("input error: cannot perturb coordinate phi[2]: ")
        assert not (tmp_path / "checks").exists()


def test_a_numeric_failure_exits_3_naming_its_type(sim_dir, tmp_path, capsys, monkeypatch):
    def failing_fit(*args, **kwargs):
        raise FloatingPointError("risk set overflowed")

    monkeypatch.setattr("jointmix.cli.em_fit", failing_fit)
    code = main(["fit", str(sim_dir / "ordinal.csv"), str(sim_dir / "survival.csv"),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_NUMERIC == 3
    err = capsys.readouterr().err
    assert err == "numeric failure: FloatingPointError: risk set overflowed\n"
    assert not (tmp_path / "out").exists()
