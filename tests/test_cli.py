import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

from hofsel.cli import _atomic_write, main
from hofsel.data import load_csv
from hofsel.synth import TreeModelSpec, gen_tree
from hofsel.data import write_csv


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def tree_csv(tmp_path):
    path = tmp_path / "tree.csv"
    write_csv(gen_tree(TreeModelSpec(n_samples=400, seed=0)), str(path))
    return str(path)


class TestAtomicWrite:
    def test_failed_write_keeps_old_file_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")

        def fail(tmp):
            with open(tmp, "w") as fh:
                fh.write("partial")
            raise OSError("disk full")

        with pytest.raises(OSError):
            _atomic_write(str(target), fail)
        assert target.read_text() == "old"
        assert os.listdir(tmp_path) == ["out.txt"]


class TestSynthCommand:
    def test_tree_csv_round_trips(self, runner, tmp_path):
        out = tmp_path / "tree.csv"
        result = runner.invoke(main, ["synth", "--model", "tree",
                                      "-n", "300", "--seed", "5",
                                      "-o", str(out)])
        assert result.exit_code == 0, result.output
        table = load_csv(str(out), label_column="label")
        assert table.n_samples == 300
        assert table.n_features == 9

    def test_hetero_sample_count_validated(self, runner, tmp_path):
        out = tmp_path / "h.csv"
        result = runner.invoke(main, ["synth", "--model", "hetero",
                                      "-n", "105", "-o", str(out)])
        assert result.exit_code == 2
        assert "multiple of 10" in result.output
        assert not out.exists()

    def test_hetero_generates(self, runner, tmp_path):
        out = tmp_path / "h.csv"
        result = runner.invoke(main, ["synth", "--model", "hetero",
                                      "-n", "200", "-o", str(out)])
        assert result.exit_code == 0, result.output
        table = load_csv(str(out), label_column="label")
        assert table.n_features == 20
        assert table.n_samples == 200

    def test_config_echoed(self, runner, tmp_path):
        out = tmp_path / "t.csv"
        result = runner.invoke(main, ["synth", "--model", "tree",
                                      "-n", "100", "-o", str(out)])
        assert result.output.startswith("config: ")


class TestSelectCommand:
    def test_hofs_writes_selection_and_trace(self, runner, tree_csv,
                                             tmp_path):
        out_dir = tmp_path / "out"
        result = runner.invoke(main, ["select", "--data", tree_csv,
                                      "-T", "4", "--out-dir", str(out_dir)])
        assert result.exit_code == 0, result.output
        selection = json.loads((out_dir / "selection.json").read_text())
        trace = json.loads((out_dir / "trace.json").read_text())
        assert len(selection["selection_order"]) == 4
        assert selection["subsets"]
        assert len(trace["steps"]) == 4
        for step in trace["steps"]:
            assert set(step) >= {"chosen", "gain", "maxcov", "total_mi"}
            assert set(step["score_parts"]) == set(step["candidate_scores"])

    def test_baseline_method_writes_scores(self, runner, tree_csv, tmp_path):
        out_dir = tmp_path / "out"
        result = runner.invoke(main, ["select", "--data", tree_csv,
                                      "--method", "jmi", "-T", "3",
                                      "--out-dir", str(out_dir)])
        assert result.exit_code == 0, result.output
        selection = json.loads((out_dir / "selection.json").read_text())
        assert len(selection["selection_order"]) == 3
        assert len(selection["scores"]) == 3
        assert not (out_dir / "trace.json").exists()

    def test_config_dump_writes_nothing(self, runner, tree_csv, tmp_path):
        out_dir = tmp_path / "out"
        result = runner.invoke(main, ["select", "--data", tree_csv,
                                      "--config-dump",
                                      "--out-dir", str(out_dir)])
        assert result.exit_code == 0
        assert not (out_dir / "selection.json").exists()
        dumped = json.loads(result.output.split("config: ", 1)[1]
                            .split("\n", 1)[1])
        assert dumped["command"] == "select"

    def test_nan_score_is_numeric_failure(self, runner, tree_csv, tmp_path,
                                          monkeypatch):
        from hofsel.hofs import _EngineState
        monkeypatch.setattr(_EngineState, "conditional_term",
                            lambda self, subset, candidate: float("nan"))
        out_dir = tmp_path / "out"
        result = runner.invoke(main, ["select", "--data", tree_csv,
                                      "-T", "3", "--out-dir", str(out_dir)])
        assert result.exit_code == 4, result.output
        assert "non-finite" in result.output
        assert not (out_dir / "selection.json").exists()

    def test_missing_file_is_data_error(self, runner, tmp_path):
        result = runner.invoke(main, ["select", "--data",
                                      str(tmp_path / "ghost.csv")])
        assert result.exit_code == 3

    def test_out_dir_env_honored(self, runner, tree_csv, tmp_path,
                                 monkeypatch):
        env_dir = tmp_path / "envout"
        monkeypatch.setenv("HOFSEL_OUT_DIR", str(env_dir))
        result = runner.invoke(main, ["select", "--data", tree_csv,
                                      "--method", "mim", "-T", "2"])
        assert result.exit_code == 0, result.output
        assert (env_dir / "selection.json").exists()


class TestBenchCommand:
    def test_report_rows_cover_methods_and_ks(self, runner, tree_csv,
                                              tmp_path):
        out_dir = tmp_path / "bench"
        result = runner.invoke(main, ["bench", "--data", tree_csv,
                                      "--methods", "mim,jmi",
                                      "--k-list", "2,3", "--folds", "3",
                                      "--out-dir", str(out_dir)])
        assert result.exit_code == 0, result.output
        report = json.loads((out_dir / "report.json").read_text())
        assert len(report["results"]) == 4
        assert set(report["orders"]) == {"mim", "jmi"}
        csv_lines = (out_dir / "report.csv").read_text().strip().split("\n")
        assert csv_lines[0] == "method,k,error"
        assert len(csv_lines) == 5

    def test_unknown_method_rejected(self, runner, tree_csv):
        result = runner.invoke(main, ["bench", "--data", tree_csv,
                                      "--methods", "mim,sorcery"])
        assert result.exit_code == 2

    def test_k_out_of_range_rejected(self, runner, tree_csv):
        result = runner.invoke(main, ["bench", "--data", tree_csv,
                                      "--methods", "mim",
                                      "--k-list", "99"])
        assert result.exit_code == 2


class TestDiagnoseCommand:
    def test_diagnostics_payload(self, runner, tree_csv, tmp_path):
        out_dir = tmp_path / "diag"
        result = runner.invoke(main, ["diagnose", "--data", tree_csv,
                                      "-T", "4", "--out-dir", str(out_dir)])
        assert result.exit_code == 0, result.output
        payload = json.loads((out_dir / "diagnostics.json").read_text())
        assert set(payload) >= {"subsets", "avg_pearson",
                                "avg_balance_ratio", "gain_curve",
                                "total_mi"}
        assert len(payload["gain_curve"]) == 4
        for sub in payload["subsets"]:
            assert set(sub) >= {"features", "mi_estimate", "avg_pearson",
                                "balance_ratio"}


class TestTopLevel:
    def test_version_flag(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert "hofsel" in result.output

    def test_help_lists_commands(self, runner):
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        for cmd in ("select", "synth", "bench", "diagnose"):
            assert cmd in result.output
