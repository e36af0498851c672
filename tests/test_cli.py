import json
from pathlib import Path

import pytest

from jointmix.cli import EXIT_INPUT, main

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
