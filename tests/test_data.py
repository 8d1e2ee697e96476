import re
from dataclasses import replace

import numpy as np
import pytest

import oracles
from hofsel.data import (
    DataError,
    DataTable,
    _discretize_column,
    _encode_labels,
    _infer_kinds,
    discretize,
    load_csv,
    tied_equal_frequency_counts,
    write_csv,
)
from hofsel.synth import HeteroModelSpec, gen_hetero


def small_table():
    cont = np.array([0.1, 0.9, 2.3, -1.5, 0.4, 3.2], dtype=np.float64)
    cat = np.array([0.0, 1.0, 1.0, 2.0, 0.0, 2.0], dtype=np.float64)
    labels = np.array([0, 1, 0, 1, 0, 1], dtype=np.int64)
    return DataTable(columns=[cont, cat], feature_names=["a", "b"],
                     feature_kinds=["continuous", "categorical"],
                     labels=labels, label_values=["no", "yes"])


# every missing spelling, whitespace, overflow to inf, an underscore
# separator, a row of the wrong width and a missing label; column a falls
# back to the cell-by-cell read, b holds both kinds of cell, c is numeric
AWKWARD_CSV = (
    "a,b,c,label\n"
    "1.5,2,3,0\n"
    " NA ,4,1e400,1\n"
    "Null,5,-1,0\n"
    ",6,2,1\n"
    "nan,7,3,0\n"
    "inf,1_000,4,1\n"
    "2.5,3,5,\n"
    "1,2,3\n"
    "-inf,,7,0\n"
    "4.5,10, 8 , 1 \n"
    "5.5,nUll,9,0\n"
    " 6.5 ,12,10,1\n"
    "7.5,2,-inf,0\n"
    "8.5,2,11,1\n"
)


# Files for the row-by-row comparison beside AWKWARD_CSV and a written
# hetero table. "quoted", "extremes" and "nan-label" are numbers only, so
# load_csv reads them in one C pass; the C pass rejects every other one,
# or reads it at another width than the header's, and the per-column
# read takes over.
ROW_BY_ROW_FILES = {
    "awkward": AWKWARD_CSV,
    # a default np.loadtxt would skip this row as a comment
    "comment": "a,b,label\n1,2,0\n#9,10,0\n3,4,1\n",
    "quoted": 'a,b,label\n"1.5",2,0\n3,"-4e-3",1\n" 5 ","6",0\n',
    "underscore": "a,b,label\n1_000,2,0\n\uff13,4,1\n5,6,0\n",
    # a whitespace-only line is a row of one cell: read, then dropped
    "blank": "a,b,label\n1,2,0\n   \n3,4,1\n",
    "ragged": "a,b,label\n1,2,0\n3,4\n5,6,1\n",
    # every body row is one cell wider than the header, so all drop
    "wide": "a,b,label\n1,2,0,9\n3,4,1,9\n5,6,0,9\n",
    "string-labels": "a,b,label\n1,2,no\n3,4,yes\n5,6,no\n",
    "extremes": "a,b,label\n1e500,2,0\n1e-320,4,1\n5,-1e500,0\n"
                "6,1e-320,1\n7,8,0\n",
    "nan-label": "a,b,label\n1,2,0\n3,4,nan\n5,6,1\n7,8,nan\n",
}


class TestLoadCsv:
    @pytest.mark.parametrize("policy", ["drop", "impute"])
    @pytest.mark.parametrize("case", ["hetero"] + list(ROW_BY_ROW_FILES))
    def test_matches_row_by_row_read(self, tmp_path, case, policy):
        path = tmp_path / "cells.csv"
        if case == "hetero":
            write_csv(gen_hetero(HeteroModelSpec(seed=0)), str(path))
        else:
            path.write_text(ROW_BY_ROW_FILES[case])
        try:
            columns, raw_labels, read, dropped = oracles.csv_by_rows(
                str(path), "label", policy)
        except ValueError as exc:
            # both reads name the first non-numeric cell in file order
            with pytest.raises(DataError, match=re.escape(str(exc))):
                load_csv(str(path), label_column="label",
                         missing_policy=policy)
            return
        if not raw_labels:
            with pytest.raises(DataError, match="zero usable rows"):
                load_csv(str(path), label_column="label",
                         missing_policy=policy)
            return
        table = load_csv(str(path), label_column="label",
                         missing_policy=policy)
        assert [c.tolist() for c in table.columns] == \
            [c.tolist() for c in columns]
        labels, values = _encode_labels(raw_labels)
        assert table.labels.tolist() == labels.tolist()
        # equal, with a NaN label value equal to NaN
        np.testing.assert_equal(table.label_values, values)
        kinds = _infer_kinds(columns, table.feature_names, None)
        assert table.load_report == {
            "rows_read": read, "rows_dropped": dropped,
            "missing_policy": policy,
            "feature_kinds": dict(zip(table.feature_names, kinds))}

    def test_label_codes_follow_sorted_values(self):
        # numbers by value, every NaN one class coded last; strings by
        # code point; cells parsed as numbers code as their floats do
        labels, values = _encode_labels(["2", "nan", "10", " 1.5", "nan"])
        assert labels.tolist() == [1, 3, 2, 0, 3]
        np.testing.assert_equal(values, [1.5, 2, 10, np.nan])
        labels, values = _encode_labels(np.array([2.0, np.nan, 10.0]))
        assert labels.tolist() == [0, 2, 1]
        labels, values = _encode_labels(["b", "B", "10", "2"])
        assert labels.tolist() == [3, 2, 0, 1]
        assert values == ["10", "2", "B", "b"]

    @pytest.mark.parametrize("case", ["hetero", "awkward"])
    def test_one_c_pass_or_the_per_column_read(self, tmp_path, monkeypatch,
                                               case):
        # a file of numbers only is parsed by one np.loadtxt call, and
        # csv.reader reads its header row alone; a file that call rejects
        # is read again by the per-column read
        import hofsel.data as data
        path = tmp_path / "cells.csv"
        if case == "hetero":
            write_csv(gen_hetero(HeteroModelSpec(seed=0)), str(path))
        else:
            path.write_text(AWKWARD_CSV)
        calls = {"loadtxt": 0, "rows": 0, "by_cells": 0}
        loadtxt, reader, by_cells = np.loadtxt, data.csv.reader, \
            data._columns_by_cells

        def counted_loadtxt(*args, **kwargs):
            calls["loadtxt"] += 1
            return loadtxt(*args, **kwargs)

        def counted_reader(*args, **kwargs):
            for row in reader(*args, **kwargs):
                calls["rows"] += 1
                yield row

        def counted_by_cells(*args, **kwargs):
            calls["by_cells"] += 1
            return by_cells(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counted_loadtxt)
        monkeypatch.setattr(data.csv, "reader", counted_reader)
        monkeypatch.setattr(data, "_columns_by_cells", counted_by_cells)
        table = load_csv(str(path), label_column="label")
        if case == "hetero":
            assert table.n_samples == 1000
            assert calls == {"loadtxt": 1, "rows": 1, "by_cells": 0}
        else:
            # the header, then the header and the 14 body rows again
            assert calls == {"loadtxt": 1, "rows": 16, "by_cells": 1}

    def test_error_names_first_non_numeric_cell_in_file_order(self,
                                                              tmp_path):
        # row 1 column 2 comes before row 2 column 1
        path = tmp_path / "two_bad.csv"
        path.write_text("x1,x2,x3,label\n1,oops,3,0\nbad,2,3,1\n")
        with pytest.raises(ValueError, match="'oops'"):
            oracles.csv_by_rows(str(path), "label", "drop")
        with pytest.raises(DataError, match="'oops'"):
            load_csv(str(path), label_column="label")

    def test_round_trip(self, tmp_path):
        table = small_table()
        path = tmp_path / "round.csv"
        write_csv(table, str(path))
        back = load_csv(str(path), label_column="label")
        assert back.feature_names == ["a", "b"]
        assert np.array_equal(back.labels, table.labels)
        for ours, theirs in zip(back.columns, table.columns):
            assert np.allclose(ours, theirs, atol=1e-12)

    def test_written_text(self, tmp_path):
        # integral categorical values as integers, every other value as
        # repr(float), labels by name, quoted where csv needs it
        table = DataTable(
            columns=[np.array([0.1, -2.0, 1e-05, 3.0]),
                     np.array([0.0, 2.0, 1.5, -1.0])],
            feature_names=["a", "b"],
            feature_kinds=["continuous", "categorical"],
            labels=np.array([1, 0, 1, 2], dtype=np.int64),
            label_values=["no", "yes", "a,b"])
        path = tmp_path / "text.csv"
        write_csv(table, str(path), label_name="y")
        with open(path, newline="") as fh:
            text = fh.read()
        assert text == ("a,b,y\r\n0.1,0,yes\r\n-2.0,2,no\r\n"
                        "1e-05,1.5,yes\r\n3.0,-1,\"a,b\"\r\n")

    def test_kind_inference(self, tmp_path):
        path = tmp_path / "kinds.csv"
        lines = ["x,y,label"]
        rng = np.random.default_rng(0)
        for i in range(40):
            lines.append("%.6f,%d,%s" % (rng.normal(), i % 3,
                                         "a" if i % 2 else "b"))
        path.write_text("\n".join(lines) + "\n")
        table = load_csv(str(path), label_column="label")
        assert table.feature_kinds == ["continuous", "categorical"]
        assert sorted(table.label_values) == ["a", "b"]

    def test_label_by_index(self, tmp_path):
        path = tmp_path / "byidx.csv"
        path.write_text("p,q,r\n1,2,0\n3,4,1\n5,6,0\n7,8,1\n")
        table = load_csv(str(path), label_column=2)
        assert table.feature_names == ["p", "q"]
        assert np.array_equal(table.labels, [0, 1, 0, 1])

    def test_missing_drop(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("x,label\n1.0,0\n,1\n3.0,0\nNA,1\n5.0,1\n")
        table = load_csv(str(path), label_column="label",
                         missing_policy="drop")
        assert table.n_samples == 3
        assert table.load_report["rows_dropped"] == 2

    def test_missing_impute_median(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("x,label\n1.5,0\n,1\n3.5,0\n9.5,1\n5.5,1\n")
        table = load_csv(str(path), label_column="label",
                         missing_policy="impute")
        assert table.n_samples == 5
        # median of {1.5, 3.5, 9.5, 5.5} is 4.5
        assert table.columns[0][1] == pytest.approx(4.5)

    def test_missing_label_always_drops(self, tmp_path):
        path = tmp_path / "nolabel.csv"
        path.write_text("x,label\n1.0,0\n2.0,\n3.0,1\n")
        table = load_csv(str(path), label_column="label",
                         missing_policy="impute")
        assert table.n_samples == 2

    def test_errors(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,label\noops,0\n")
        with pytest.raises(DataError):
            load_csv(str(path), label_column="label")
        with pytest.raises(DataError):
            load_csv(str(path), label_column="absent")
        with pytest.raises(DataError):
            load_csv(str(tmp_path / "nothere.csv"), label_column="label")

    def test_categorical_override(self, tmp_path):
        path = tmp_path / "ovr.csv"
        lines = ["x,label"] + ["%.4f,%d" % (v, i % 2)
                               for i, v in enumerate(np.linspace(0, 1, 30))]
        path.write_text("\n".join(lines) + "\n")
        table = load_csv(str(path), label_column="label",
                         categorical_overrides={"x": "categorical"})
        assert table.feature_kinds == ["categorical"]


class TestDiscretize:
    def test_equal_frequency_balances_counts(self):
        rng = np.random.default_rng(4)
        col = rng.normal(size=1000)
        table = DataTable(columns=[col], feature_names=["x"],
                          feature_kinds=["continuous"],
                          labels=np.tile([0, 1], 500).astype(np.int64),
                          label_values=[0, 1])
        view = discretize(table, bins=5)
        counts = np.bincount(view.codes[0])
        assert len(counts) == 5
        assert counts.max() - counts.min() <= 2

    def test_categorical_is_bijective(self):
        table = small_table()
        view = discretize(table, bins=3)
        cat = table.columns[1]
        codes = view.codes[1]
        for v in np.unique(cat):
            got = np.unique(codes[cat == v])
            assert got.shape[0] == 1

    def test_constant_column_single_level(self):
        table = small_table()
        table.columns[0] = np.full(6, 1.0)
        view = discretize(table, bins=5)
        assert view.n_levels[0] == 1
        assert np.array_equal(view.codes[0], np.zeros(6, dtype=np.int64))

    def test_duplicate_quantiles_collapse(self):
        col = np.array([0.0] * 70 + [1.0] * 30)
        table = DataTable(columns=[col], feature_names=["x"],
                          feature_kinds=["continuous"],
                          labels=np.arange(100, dtype=np.int64) % 2,
                          label_values=[0, 1])
        view = discretize(table, bins=5)
        assert view.n_levels[0] == 2

    def test_codes_match_searchsorted_reference(self):
        def reference(col, edges):
            raw = np.searchsorted(edges, col, side="right")
            return np.unique(raw, return_inverse=True)[1].astype(np.int64)

        rng = np.random.default_rng(9)
        x = rng.normal(size=2000)
        cases = [(x, 5), (np.round(x, 1), 5),
                 (rng.exponential(size=500) ** 3, 10),
                 # 255 and 256 edges: the largest count a uint8 holds,
                 # and the first that needs a uint16
                 (x, 256), (x, 257)]
        # an interior bin that comes out empty: [0.6, 1.4)
        gap = np.array([0.0] * 40 + [1.0] * 20 + [2.0] * 40)
        gaps = [(gap, 5)]
        for k, (col, bins) in enumerate(cases + gaps):
            codes, edges = _discretize_column(col, "continuous", bins)
            if bins > 255:
                assert edges.size == bins - 1
            ref = reference(col, edges)
            assert codes.dtype == ref.dtype
            assert np.array_equal(codes, ref), bins
            if k >= len(cases):
                raw = np.unique(np.searchsorted(edges, col, side="right"))
                assert raw[-1] - raw[0] + 1 > len(raw)
        # tied_equal_frequency_counts moves every edge inside a run down to
        # the run's first value: 60% of these values form one run spread
        # by rounding, so the edges at 0.3..0.8 repeat
        rng = np.random.default_rng(3)
        run = 0.5 + rng.choice([-1e-16, 0.0, 1e-16], size=1200)
        col = rng.permutation(np.concatenate([rng.normal(size=800), run]))
        edges = oracles.tied_quantile_edges(col, 10)
        assert edges.size == 9 and np.unique(edges).size == 4
        counts = tied_equal_frequency_counts(col[None], 10)[0]
        assert np.array_equal(counts,
                              np.searchsorted(edges, col, side="right"))
        assert same_partition(counts, reference(col, edges))

    def test_sorted_edges_equal_np_quantile(self):
        # guards the edges read off one sort against np.quantile's own
        # rounding, which a future numpy could change
        rng = np.random.default_rng(2024)
        makers = [
            lambda n: rng.normal(size=n),
            lambda n: np.round(rng.normal(size=n), int(rng.integers(0, 3))),
            lambda n: rng.integers(-20, 20, size=n).astype(np.float64),
            lambda n: rng.choice([-1.5, 2.25], size=n),
            lambda n: rng.choice([0.0, 1.0, 7.0], size=n,
                                 p=[0.9, 0.07, 0.03]),
            lambda n: rng.exponential(size=n) ** 3,
        ]
        for trial in range(240):
            n = int(rng.integers(2, 5001))
            bins = int(rng.integers(2, 61))
            col = makers[trial % len(makers)](n)
            codes, edges = _discretize_column(col, "continuous", bins)
            if col.max() - col.min() < 1e-12:
                assert edges.size == 0 and not codes.any()
                continue
            want = np.unique(np.quantile(col, np.arange(1, bins) / bins))
            assert edges.shape == want.shape and (edges == want).all(), \
                (trial, n, bins)
            ref = np.searchsorted(want, col, side="right")
            ref = np.unique(ref, return_inverse=True)[1].astype(np.int64)
            assert np.array_equal(codes, ref), (trial, n, bins)

    def test_bad_arguments(self):
        with pytest.raises(DataError):
            discretize(small_table(), bins=1)
        with pytest.raises(DataError):
            discretize(small_table(), bins=5, scheme="mystery")
        # checked before the columns, so a table with no continuous
        # column, which bins nothing, rejects it too
        table = small_table()
        categorical = replace(table, columns=table.columns[1:],
                              feature_names=table.feature_names[1:],
                              feature_kinds=table.feature_kinds[1:])
        with pytest.raises(DataError):
            discretize(categorical, bins=5, scheme="mystery")


def same_partition(a, b):
    """Two codings that group the samples alike, whatever the code values."""
    pairs = np.unique(np.stack([a, b]), axis=1)
    return (pairs.shape[1] == np.unique(a).size == np.unique(b).size)


class TestTiedCodes:
    def test_distinct_values_bin_as_discretize_does(self):
        rng = np.random.default_rng(5)
        for bins in (2, 5, 9):
            x = rng.normal(size=3000)
            codes, _ = _discretize_column(x, "continuous", bins)
            counts = tied_equal_frequency_counts(x[None], bins)[0]
            assert np.array_equal(counts, codes)

    def test_levels_split_by_rounding_stay_one_level(self):
        # three levels, each spread over a few values 1e-16 apart, as a
        # least-squares reconstruction leaves them
        rng = np.random.default_rng(0)
        level = np.repeat([-1.06, 0.0, 1.06], [400, 200, 400])
        col = level + rng.choice([-2.2e-16, 0.0, 2.2e-16], size=level.size)
        assert np.unique(col).size > 3
        codes = tied_equal_frequency_counts(col[None], 5)[0]
        assert same_partition(codes, np.unique(level, return_inverse=True)[1])
        split, _ = _discretize_column(col, "continuous", 5)
        assert np.unique(split).size > 3

    def test_matches_oracle_walk(self):
        rng = np.random.default_rng(11)
        makers = [
            lambda n: rng.normal(size=n),
            lambda n: rng.integers(0, 4, size=n) * 0.7
            + rng.normal(scale=1e-15, size=n),
            lambda n: np.concatenate([rng.normal(size=n // 2),
                                      np.full(n - n // 2, 0.3)
                                      + rng.normal(scale=1e-14,
                                                   size=n - n // 2)]),
            lambda n: rng.choice([0.0, 1.0, 7.0], size=n,
                                 p=[0.9, 0.07, 0.03]),
        ]
        for trial in range(80):
            n = int(rng.integers(2, 2001))
            bins = int(rng.integers(2, 12))
            col = makers[trial % len(makers)](n)
            codes = tied_equal_frequency_counts(col[None], bins)[0]
            ref = oracles.tied_quantile_codes(col, bins)
            assert same_partition(codes, ref), (trial, n, bins)

    def test_constant_column_is_one_level(self):
        col = np.full(50, 0.3) + np.tile([0.0, 1e-14], 25)
        assert not tied_equal_frequency_counts(col[None], 5)[0].any()
