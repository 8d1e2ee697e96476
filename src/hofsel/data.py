"""Dataset ingestion and discretization.

Everything downstream (plug-in estimators, label fits, the selection engine)
works off the two containers defined here: DataTable holds numeric columns
plus integer class labels, DiscretizedView holds the integer-coded columns
that the entropy estimators consume.
"""

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

CONTINUOUS = "continuous"
CATEGORICAL = "categorical"

# a column whose values are all integral with at most this many distinct
# values is treated as categorical unless overridden
CATEGORICAL_MAX_LEVELS = 32


class DataError(ValueError):
    """Raised for unusable input data (bad files, bad columns, bad labels)."""


@dataclass
class DataTable:
    """Column-major numeric samples with integer class labels.

    columns: list of float64 vectors, one per feature, each of length N.
    feature_kinds: "continuous" or "categorical" per feature.
    labels: int64 class codes in [0, L); label_values maps code -> original.
    """

    columns: list
    feature_names: list
    feature_kinds: list
    labels: np.ndarray
    label_values: list = None
    load_report: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.columns) != len(self.feature_names):
            raise DataError("feature_names length does not match columns")
        if len(self.feature_kinds) != len(self.columns):
            raise DataError("feature_kinds length does not match columns")
        self.labels = np.asarray(self.labels, dtype=np.int64)
        n = self.labels.shape[0]
        cols = []
        for name, col in zip(self.feature_names, self.columns):
            arr = np.asarray(col, dtype=np.float64)
            if arr.ndim != 1 or arr.shape[0] != n:
                raise DataError("column %r does not have %d samples" % (name, n))
            if not np.all(np.isfinite(arr)):
                raise DataError("column %r contains non-finite values" % (name,))
            cols.append(arr)
        self.columns = cols
        if n == 0:
            raise DataError("zero usable rows")
        levels = np.unique(self.labels)
        if levels.size < 2:
            raise DataError("labels must contain at least 2 classes")
        if levels[0] != 0 or levels[-1] != levels.size - 1:
            raise DataError("label codes must cover [0, L) with every class present")
        if self.label_values is None:
            self.label_values = [int(v) for v in levels]

    @property
    def n_samples(self):
        return int(self.labels.shape[0])

    @property
    def n_features(self):
        return len(self.columns)

    @property
    def n_classes(self):
        return int(self.labels.max()) + 1


@dataclass
class DiscretizedView:
    """Integer codes per column, the substrate for plug-in entropies.

    codes[j] has values in [0, n_levels[j]); bin_edges[j] is None for
    categorical columns and an ascending interior-edge array otherwise.
    criteria_tables holds the per-feature entropies, relevances and pair
    tables the criteria computed over these codes for one label vector
    (criteria._PairCache); it is a memo, not part of the view's value.
    """

    codes: list
    bin_edges: list
    bin_count: int
    n_levels: list
    criteria_tables: tuple = field(default=None, init=False, repr=False,
                                   compare=False)


def _is_categorical(values):
    if not np.all(values == np.floor(values)):
        return False
    return np.unique(values).size <= CATEGORICAL_MAX_LEVELS


def _infer_kinds(columns, names, overrides):
    overrides = overrides or {}
    kinds = []
    for name, col in zip(names, columns):
        if name in overrides:
            kinds.append(overrides[name])
        elif _is_categorical(col):
            kinds.append(CATEGORICAL)
        else:
            kinds.append(CONTINUOUS)
    return kinds


def _encode_labels(raw):
    """Map raw label cells (numeric or string) to codes 0..L-1.

    Codes follow sorted order of the distinct values, numerically when every
    value parses as a number (as float() parses it; NaN labels form one
    class, coded last) and by code point otherwise.
    """
    raw = np.asarray(raw)
    try:
        raw = raw.astype(np.float64)
    except ValueError:
        numeric = False
    else:
        numeric = True
    distinct, codes = np.unique(raw, return_inverse=True)
    values = distinct.tolist()
    if numeric:
        values = [int(v) if v.is_integer() else v for v in values]
    return codes.astype(np.int64), values


def _float_body(fh, delimiter, width):
    """The rest of fh as a (rows, width) float64 array, parsed in C by one
    np.loadtxt pass, or None when that pass rejects the text or reads
    another width.

    No cell is a comment and '"' quotes a cell, as in csv.reader. The
    pass rejects every cell that float() rejects, and also empty and NA
    cells, "1_000", non-ASCII digits, whitespace-only lines and rows of
    unequal width: those files take the per-column read.
    """
    try:
        with warnings.catch_warnings():
            # a body without rows reads as an empty array, with a warning
            warnings.simplefilter("ignore", UserWarning)
            body = np.loadtxt(fh, delimiter=delimiter, comments=None,
                              quotechar='"', dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    return body if body.shape[1] == width else None


def _columns_by_cells(rows, n_cols, label_idx, path):
    """The per-column read of load_csv's body rows: the stripped label
    cells, and the feature values as a (features, rows) float64 array
    with NaN for missing cells."""

    def parse_cell(cell):
        cell = cell.strip()
        if cell == "" or cell.lower() in ("na", "nan", "null"):
            return np.nan
        try:
            return float(cell)
        except ValueError:
            raise DataError("non-numeric cell %r outside the label column" % cell)

    rows = [row for row in rows if len(row) == n_cols]
    if not rows:
        raise DataError("zero usable rows in %s" % (path,))
    cells = list(zip(*rows))
    labs = np.array([cell.strip() for cell in cells.pop(label_idx)])
    matrix = np.empty((len(cells), len(rows)))
    rejected = []
    for j, col in enumerate(cells):
        try:
            matrix[j] = np.array(col, dtype=np.float64)
        except ValueError:
            rejected.append(j)
    # rejected columns are read cell by cell in file order, so that the
    # error names the first non-numeric cell, as a row-by-row read would
    for i, row in enumerate(zip(*[cells[j] for j in rejected])):
        matrix[rejected, i] = [parse_cell(cell) for cell in row]
    return labs, matrix


def load_csv(path, label_column, delimiter=",", has_header=True,
             missing_policy="drop", categorical_overrides=None):
    """Parse a delimited text file into a DataTable.

    label_column may be a header name or a 0-based column index. The
    header is the first non-empty row, read by csv.reader. The body takes
    one of two reads, picked from the text alone:
    - one np.loadtxt pass in C (_float_body), when every cell is a number
      that it parses and every row has the header's width: a file of
      numbers only, such as write_csv writes for numeric labels. Its
      values are float()'s.
    - the per-column read, for every other file: csv.reader, then rows
      whose width is not the header's drop, and each feature column is
      read by one np.array(cells, dtype=float64), which parses a str as
      float() does; a column it rejects is read cell by cell, where "",
      na, nan and null (any case, stripped) are missing and any other
      non-numeric cell raises DataError naming the first one in file
      order. Empty and NA cells, "1_000", non-ASCII digits, string
      labels, whitespace-only lines and rows of another width all take
      this read.
    Non-finite feature values are missing. Rows with missing cells are
    dropped (missing_policy="drop") or imputed with the column
    mode/median (missing_policy="impute"); a missing label always drops.
    A load report (rows read, rows dropped, inferred kinds) is attached
    to the result.
    """
    if missing_policy not in ("drop", "impute"):
        raise DataError("unknown missing_policy %r" % (missing_policy,))
    try:
        fh = open(path, "r", newline="")
    except OSError as exc:
        raise DataError("cannot read %s: %s" % (path, exc))
    with fh:
        first = next((row for row in csv.reader(fh, delimiter=delimiter)
                      if row), None)
        if first is None:
            raise DataError("empty file %s" % (path,))
        if not has_header:
            fh.seek(0)
        body = _float_body(fh, delimiter, len(first))
        if body is None:
            fh.seek(0)
            rows = [row for row in csv.reader(fh, delimiter=delimiter)
                    if row]
            body = rows[1:] if has_header else rows

    if has_header:
        header = [h.strip() for h in first]
    else:
        header = ["c%d" % i for i in range(len(first))]
    if isinstance(label_column, int):
        if not 0 <= label_column < len(header):
            raise DataError("label column index %d out of range" % label_column)
        label_idx = label_column
    else:
        if label_column not in header:
            raise DataError("label column %r absent from header" % (label_column,))
        label_idx = header.index(label_column)

    n_cols = len(header)
    feature_names = [h for i, h in enumerate(header) if i != label_idx]
    rows_read = len(body)
    if isinstance(body, np.ndarray):
        labs = body[:, label_idx]
        matrix = body.T[[j for j in range(n_cols) if j != label_idx]]
        keep = np.ones(rows_read, dtype=bool)
    else:
        labs, matrix = _columns_by_cells(body, n_cols, label_idx, path)
        # a missing label can never be imputed, so those rows always drop
        keep = labs != ""
    # non-finite feature values are missing
    if missing_policy == "drop":
        keep &= np.isfinite(matrix).all(axis=0)
    if not keep.any():
        raise DataError("zero usable rows in %s" % (path,))
    matrix = np.compress(keep, matrix, axis=1)
    raw_labels = labs[keep]
    if missing_policy == "impute":
        for j, col in enumerate(matrix):
            bad = ~np.isfinite(col)
            if not bad.any():
                continue
            good = col[~bad]
            if good.size == 0:
                raise DataError("column %r has no usable values" % feature_names[j])
            if _is_categorical(good):
                vals, counts = np.unique(good, return_counts=True)
                fill = vals[np.argmax(counts)]
            else:
                fill = np.median(good)
            col[bad] = fill

    columns = list(matrix)
    kinds = _infer_kinds(columns, feature_names, categorical_overrides)
    labels, label_values = _encode_labels(raw_labels)
    report = {
        "rows_read": rows_read,
        "rows_dropped": rows_read - len(raw_labels),
        "missing_policy": missing_policy,
        "feature_kinds": dict(zip(feature_names, kinds)),
    }
    return DataTable(columns=columns, feature_names=feature_names,
                     feature_kinds=kinds, labels=labels,
                     label_values=label_values, load_report=report)


def write_csv(table, path, label_name="label"):
    """Write a DataTable as delimited text that load_csv round-trips.

    Integral categorical values are written as integers and every other
    value as repr(float). Each column is converted to Python objects once,
    and the rows are written in one writerows call."""
    cols = []
    for kind, col in zip(table.feature_kinds, table.columns):
        values = np.asarray(col, dtype=np.float64).tolist()
        if kind == CATEGORICAL:
            values = ["%d" % v if v.is_integer() else repr(v)
                      for v in values]
        cols.append(values)
    names = table.label_values
    cols.append([names[k] for k in table.labels.tolist()])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(table.feature_names) + [label_name])
        writer.writerows(zip(*cols))


def _sorted_quantiles(s, qs):
    """np.quantile(s, qs) along the last axis of s, ascending along it,
    without its partition.

    The "linear" rule as numpy computes it: virtual index (n - 1) * q,
    its floor and the next element as neighbours, and the two-sided
    lerp (from b where the fraction is at least 0.5), so the values are
    np.quantile's bit for bit. Each quantile lies between its two
    neighbours.
    """
    last = s.shape[-1] - 1
    pos = last * qs
    below = np.floor(pos)
    gamma = pos - below
    i = below.astype(np.intp)
    a = s[..., i]
    b = s[..., np.minimum(i + 1, last)]
    diff = b - a
    return np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)


def _tied_edges(s, bins):
    """Equal-frequency edges of each ascending row of s that never split a
    tied level, as an (rows, bins - 1) array.

    Runs of a row's values break wherever the gap between neighbours
    exceeds 1e-10 of the row's range, so values that differ only by
    rounding form one run. The edges start as discretize's
    equal-frequency edges; an edge that falls in a run (above its first
    value, at or below its last) moves down to the run's first value, so
    the whole run codes as one level, and edges that fall in one run
    repeat. A row whose range is below 1e-12 gets every edge at +inf, so
    no value reaches one and the row is one level.
    """
    span = s[:, -1] - s[:, 0]
    edges = _sorted_quantiles(s, np.arange(1, bins) / bins)
    for row, e, width in zip(s, edges, span):
        if width < 1e-12:
            e[:] = np.inf
            continue
        tol = 1e-10 * width
        # the first sorted value at or above each edge: the edge falls in
        # a run when the value below it is within tol, and only then are
        # the run starts looked up
        above = np.searchsorted(row, e)
        inside = (above > 0) & (row[above] - row[np.maximum(above - 1, 0)]
                                <= tol)
        if inside.any():
            starts = np.flatnonzero(np.concatenate(([True],
                                                    np.diff(row) > tol)))
            e[inside] = row[starts[np.searchsorted(starts, above[inside],
                                                   side="right") - 1]]
    return edges


def _edge_counts(values, edges):
    """For each value, the count of the edges at or below it.

    values is one row (N,) with edges (E,), or rows (k, N) with one edge
    row each (k, E). For ascending edges, repeated ones included, the
    count is searchsorted(edges, value, side="right"). It is formed by
    one comparison of every edge with every value, summed into the
    narrowest unsigned integer that holds E: O(N*E) comparisons and a
    temporary of E bytes per value, against searchsorted's O(N log E)
    with a slower step per value.
    """
    return np.add.reduce(np.moveaxis(edges, -1, 0)[..., None] <= values,
                         axis=0, dtype=np.min_scalar_type(edges.shape[-1]))


def _discretize_column(col, kind, bins):
    if kind == CATEGORICAL:
        _, codes = np.unique(col, return_inverse=True)
        return codes.astype(np.int64), None
    s = np.sort(col)
    lo, hi = s[0], s[-1]
    # constant up to rounding at the column's own scale
    if hi - lo <= 1e-12 * max(abs(lo), abs(hi)):
        return np.zeros(col.shape[0], dtype=np.int64), np.empty(0)
    edges = np.unique(_sorted_quantiles(s, np.arange(1, bins) / bins))
    codes = _edge_counts(col, edges).astype(np.int64)
    # compacted, so that the levels are contiguous even when a bin came
    # out empty
    present = np.bincount(codes, minlength=edges.size + 1) > 0
    if not present.all():
        codes = (np.cumsum(present) - 1)[codes]
    return codes, edges


def tied_equal_frequency_counts(rows, bins):
    """Equal-frequency bins of each row of rows, (k, N), that never split a
    tied level: each value's count (_edge_counts) of its row's edges
    (_tied_edges, read off one sort of the row) at or below it. The
    counts are not compacted, so an empty bin leaves its count unused."""
    return _edge_counts(rows, _tied_edges(np.sort(rows, axis=1), bins))


def discretize(table, bins=5, scheme="equal_frequency"):
    """Integer-code every column: categorical bijectively, continuous binned.

    equal_frequency, the one scheme, places interior edges at the
    1/B..(B-1)/B quantiles (duplicate edges collapse), read off one sort
    of the column by np.quantile's "linear" rule, so they equal
    np.quantile's, and codes a value by the count of edges at or below
    it (_edge_counts), compacted. A continuous column whose range is at
    most 1e-12 of its largest |value| is one level.
    Labels are never binned; they stay class codes on the DataTable.
    """
    if bins < 2:
        raise DataError("bins must be >= 2")
    if scheme != "equal_frequency":
        raise DataError("unknown scheme %r" % (scheme,))
    codes = []
    edges = []
    levels = []
    for kind, col in zip(table.feature_kinds, table.columns):
        c, e = _discretize_column(col, kind, bins)
        codes.append(c)
        edges.append(e)
        levels.append(int(c.max()) + 1 if c.size else 0)
    return DiscretizedView(codes=codes, bin_edges=edges, bin_count=bins,
                           n_levels=levels)
