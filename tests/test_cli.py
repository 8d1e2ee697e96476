import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import hofsel
from hofsel.cli import _METHODS, _atomic_write, main
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


def assert_ranked(subsets):
    """Each subset's rank is its 1-based place by mi_estimate, highest
    first, ties to the earlier subset; the list keeps its own order."""
    by_mi = sorted(range(len(subsets)),
                   key=lambda i: (-subsets[i]["mi_estimate"], i))
    assert [subsets[i]["rank"] for i in by_mi] == list(
        range(1, len(subsets) + 1))


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
        assert_ranked(selection["subsets"])
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

    @pytest.mark.parametrize("beta", ["nan", "inf", "-1"])
    def test_bad_mifs_beta_is_a_configuration_error(self, runner, tree_csv,
                                                    tmp_path, beta):
        out_dir = tmp_path / "out"
        result = runner.invoke(main, ["select", "--data", tree_csv,
                                      "--method", "mifs", "--beta", beta,
                                      "-T", "3", "--out-dir", str(out_dir)])
        assert result.exit_code == 2, result.output
        assert "beta" in result.output
        assert not (out_dir / "selection.json").exists()

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

    def test_cross_validate_once_per_distinct_set(self, runner, tree_csv,
                                                  tmp_path, monkeypatch):
        import hofsel.cli as cli
        from hofsel.eval import cross_validate
        calls = []

        def counting(table, features, **kwargs):
            calls.append(tuple(features))
            return cross_validate(table, features, **kwargs)

        monkeypatch.setattr(cli, "cross_validate", counting)
        out_dir = tmp_path / "bench"
        result = runner.invoke(main, ["bench", "--data", tree_csv,
                                      "--methods", "mim,mrmr,jmi,cmim",
                                      "--k-list", "1,2,3", "--folds", "3",
                                      "--out-dir", str(out_dir)])
        assert result.exit_code == 0, result.output
        report = json.loads((out_dir / "report.json").read_text())
        assert len(report["results"]) == 12
        table = load_csv(tree_csv, label_column="label")
        names = table.feature_names
        distinct = set()
        for row in report["results"]:
            ids = [names.index(f)
                   for f in report["orders"][row["method"]][:row["k"]]]
            distinct.add(tuple(sorted(ids)))
            # the error is a function of the set, so a shared set shares it
            assert row["error"] == cross_validate(table, ids[::-1],
                                                  n_folds=3, seed=0)
        # every method opens with the most relevant feature
        assert len(distinct) < 12
        # each distinct set is validated once, as its sorted ids
        assert sorted(calls) == sorted(distinct)

    def test_unconverged_probe_is_numeric_failure(self, runner, tree_csv,
                                                  tmp_path, monkeypatch):
        import hofsel.eval as evaluation
        monkeypatch.setattr(evaluation, "PROBE_MAX_STEPS", 1)
        out_dir = tmp_path / "bench"
        result = runner.invoke(main, ["bench", "--data", tree_csv,
                                      "--methods", "mim", "--k-list", "2",
                                      "--folds", "3",
                                      "--out-dir", str(out_dir)])
        assert result.exit_code == 4, result.output
        assert "did not converge" in result.output
        assert not (out_dir / "report.json").exists()

    def test_unknown_method_rejected(self, runner, tree_csv):
        result = runner.invoke(main, ["bench", "--data", tree_csv,
                                      "--methods", "mim,sorcery"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("methods", [",", " , ", ""])
    def test_empty_method_list_rejected(self, runner, tree_csv, tmp_path,
                                        monkeypatch, methods):
        import hofsel.cli as cli

        def refuse(*args, **kwargs):
            raise AssertionError("the CSV was read")

        monkeypatch.setattr(cli, "load_csv", refuse)
        out_dir = tmp_path / "bench"
        result = runner.invoke(main, ["bench", "--data", tree_csv,
                                      "--methods", methods,
                                      "--out-dir", str(out_dir)])
        assert result.exit_code == 2, result.output
        assert "--methods" in result.output
        assert not out_dir.exists()

    def test_k_out_of_range_rejected(self, runner, tree_csv):
        result = runner.invoke(main, ["bench", "--data", tree_csv,
                                      "--methods", "mim",
                                      "--k-list", "99"])
        assert result.exit_code == 2


class TestLoadReportEcho:
    def test_commands_echo_rows_read_and_dropped(self, runner, tree_csv,
                                                 tmp_path):
        with open(tree_csv) as fh:
            lines = fh.read().splitlines()
        lines[3] = "," + lines[3].split(",", 1)[1]
        lines[7] = "NA," + lines[7].split(",", 1)[1]
        lines[9] = lines[9].rsplit(",", 1)[0] + ","
        lines.append("1.0,2.0")
        gaps = tmp_path / "gaps.csv"
        gaps.write_text("\n".join(lines) + "\n")
        for args in (["select", "--method", "mim", "-T", "2"],
                     ["bench", "--methods", "mim", "--k-list", "2",
                      "--folds", "3"],
                     ["diagnose", "-T", "2"]):
            result = runner.invoke(main, args + [
                "--data", str(gaps), "--out-dir", str(tmp_path / args[0])])
            assert result.exit_code == 0, result.output
            assert "rows: read 401, dropped 4\n" in result.output


class TestDiagnoseCommand:
    def test_diagnostics_payload(self, runner, tree_csv, tmp_path):
        out_dir = tmp_path / "diag"
        result = runner.invoke(main, ["diagnose", "--data", tree_csv,
                                      "-T", "4", "--out-dir", str(out_dir)])
        assert result.exit_code == 0, result.output
        payload = json.loads((out_dir / "diagnostics.json").read_text())
        assert set(payload) >= {"subsets", "max_between_corr",
                                "avg_balance_ratio", "gain_curve",
                                "total_mi"}
        assert len(payload["gain_curve"]) == 4
        assert_ranked(payload["subsets"])
        for sub in payload["subsets"]:
            assert set(sub) >= {"features", "mi_estimate", "rank",
                                "mean_corr", "balance_ratio"}
            if len(sub["features"]) == 1:
                assert sub["mean_corr"] is None
            else:
                assert sub["mean_corr"] > 0.5
        between = payload["max_between_corr"]
        if len(payload["subsets"]) > 1:
            assert between <= 0.5
            assert "max between-subset correlation: %.4f" % (between,) \
                in result.output
        else:
            assert between is None

    def test_diagnose_factors_the_block_once(self, runner, tree_csv,
                                             tmp_path, monkeypatch):
        # run_hofs factors the standardized block; the balance ratio reads
        # the run's subset estimates and factors nothing again, and the
        # partition correlations are the block's Gram, not np.corrcoef's
        calls = [0]
        qr = np.linalg.qr

        def counted(*args, **kwargs):
            calls[0] += 1
            return qr(*args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("np.corrcoef called")

        monkeypatch.setattr(np.linalg, "qr", counted)
        monkeypatch.setattr(np, "corrcoef", refuse)
        result = runner.invoke(main, ["diagnose", "--data", tree_csv,
                                      "--out-dir", str(tmp_path / "diag")])
        assert result.exit_code == 0, result.output
        assert calls[0] == 1


class TestBinsOption:
    @pytest.mark.parametrize("args", [
        ["select", "--method", "hofs"],
        ["select", "--method", "mim"],
        ["bench", "--k-list", "2", "--folds", "3"],
        ["diagnose"],
    ], ids=["select-hofs", "select-mim", "bench", "diagnose"])
    def test_one_bin_is_a_configuration_error(self, runner, tree_csv,
                                              tmp_path, args):
        out_dir = tmp_path / "out"
        result = runner.invoke(main, args + ["--data", tree_csv,
                                             "--bins", "1",
                                             "--out-dir", str(out_dir)])
        assert result.exit_code == 2, result.output
        assert "--bins" in result.output
        assert not out_dir.exists()


class TestCoverageOption:
    @pytest.mark.parametrize("value", ["1.5", "-0.5", "nan"])
    @pytest.mark.parametrize("args", [
        ["select", "--method", method] for method in _METHODS] + [
        ["bench", "--methods", method, "--k-list", "2", "--folds", "3"]
        for method in _METHODS] + [["diagnose"]],
        ids=["select-" + m for m in _METHODS] + ["bench-" + m for m in
                                                 _METHODS] + ["diagnose"])
    def test_out_of_range_is_a_configuration_error(self, runner, tree_csv,
                                                   tmp_path, args, value):
        # rejected as the command line is parsed, whether or not a HOFS
        # run would read it
        out_dir = tmp_path / "out"
        result = runner.invoke(main, args + ["--data", tree_csv,
                                             "-C", value,
                                             "--out-dir", str(out_dir)])
        assert result.exit_code == 2, result.output
        assert "-C" in result.output
        assert not out_dir.exists()


class TestSelectOutDir:
    @pytest.mark.parametrize("args", [
        ["--method", "hofs", "-T", "0"],
        ["--method", "mim", "-T", "99"],
        ["--method", "hofs", "-C", "1.5"],
    ], ids=["hofs-T0", "mim-T99", "hofs-C1.5"])
    def test_configuration_error_creates_no_directory(self, runner,
                                                      tree_csv, tmp_path,
                                                      args):
        out_dir = tmp_path / "out"
        result = runner.invoke(main, ["select", "--data", tree_csv] + args
                               + ["--out-dir", str(out_dir)])
        assert result.exit_code == 2, result.output
        assert not out_dir.exists()


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

    def test_module_entry_point(self):
        # python -m hofsel runs the same command line as the hofsel script
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(hofsel.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        result = subprocess.run([sys.executable, "-m", "hofsel", "--help"],
                                env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("Usage: hofsel ")
