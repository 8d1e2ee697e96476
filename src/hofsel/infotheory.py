"""Plug-in discrete estimators over integer-coded columns.

Every estimate counts once: the codes of a tuple of columns are packed
into one int64 key per sample (mixed radix, width max + 1 per column)
and counted with np.bincount. The nonzero counts come out in ascending
key order, which is the lexicographic order of the code tuples, so an
entropy does not depend on how its keys were packed. bincount needs one
cell per possible key, so a radix above _RADIX_PER_SAMPLE cells per
sample is compacted to the ranks of the keys seen (np.unique, the only
sort on the counting path), which keeps their order. Codes must be
nonnegative: a negative code would share its key with another tuple, so
it raises EstimatorError.

label_entropies counts each column's (code, label) table once and reads
H(x) and H(x, y) from it; pair_information reads three pairwise
quantities from one contingency table, and takes the per-column
entropies from label_entropies when they are already counted. Values
are natural-log by default; pass base=2 for bits.
0 * log 0 is 0 by convention and no bias correction is applied.
"""

import math

import numpy as np

# Cells per sample a bincount may span before keys are compacted: the
# count buffer stays within 4x the key array, and up to there one
# bincount (3 ms over 4N cells at N = 100k) costs less than the
# np.unique that would compact the keys (4-5 ms).
_RADIX_PER_SAMPLE = 4


class EstimatorError(ValueError):
    pass


def _as_columns(x):
    """Normalize an argument to a list of int64 code vectors."""
    if isinstance(x, np.ndarray) and x.ndim == 1:
        cols = [x]
    elif isinstance(x, (list, tuple)):
        cols = list(x)
        if cols and np.isscalar(cols[0]):
            cols = [np.asarray(cols)]
    else:
        cols = [np.asarray(x)]
    out = []
    for c in cols:
        arr = np.asarray(c)
        if arr.ndim != 1:
            raise EstimatorError("columns must be 1-D")
        out.append(arr.astype(np.int64, copy=False))
    return out


def _compact(codes):
    """Ranks of the codes among their distinct values, and their count."""
    _, ranks = np.unique(codes, return_inverse=True)
    return ranks, int(ranks.max()) + 1


def joint_codes(cols):
    """Pack per-column codes into one int64 key per sample.

    Keys follow the lexicographic order of the code tuples and stay
    below _RADIX_PER_SAMPLE * N; they are the mixed-radix keys (width
    max + 1 per column) unless that radix exceeds the bound.
    """
    cols = _as_columns(cols)
    if not cols:
        raise EstimatorError("need at least one column")
    n = cols[0].shape[0]
    if n == 0:
        raise EstimatorError("empty column")
    bound = _RADIX_PER_SAMPLE * n
    codes = None
    radix = 1
    for c in cols:
        if c.shape[0] != n:
            raise EstimatorError("column length mismatch")
        if c.min() < 0:
            raise EstimatorError("negative code %d: codes must be >= 0"
                                 % c.min())
        width = int(c.max()) + 1
        if width > bound:
            c, width = _compact(c)
        if codes is None:
            codes = c
        elif codes is cols[0]:
            codes = codes * width + c  # never write the caller's column
        else:
            # in place: a fresh N-sample buffer costs more in page faults
            # than the arithmetic that fills it
            codes *= width
            codes += c
        radix *= width
        if radix > bound:
            codes, radix = _compact(codes)
    return codes


def _joint_counts(cols):
    """Nonzero joint counts in ascending key order, as np.unique gives."""
    counts = np.bincount(joint_codes(cols))
    return counts[counts > 0]


def _h_from_counts(counts):
    n = counts.sum()
    return float(np.log(n) - (counts * np.log(counts)).sum() / n)


def _convert(value, base):
    if base in (None, "e", "nats"):
        return value
    if base in (2, "2", "bits"):
        return value / np.log(2.0)
    return value / np.log(float(base))


def _clamp(value):
    # plug-in information quantities are nonnegative for the empirical
    # distribution; only float rounding can push them below zero
    if value < 0.0:
        if value < -1e-9:
            raise EstimatorError("negative information value %r" % value)
        return 0.0
    return value


def entropy(col, base=None):
    """H(X) = -sum p log p with p = count / N."""
    return joint_entropy(col, base=base)


def joint_entropy(cols, base=None):
    """Entropy of the tuple-valued variable over the given columns."""
    return _convert(_h_from_counts(_joint_counts(cols)), base)


def conditional_entropy(cols, given, base=None):
    """H(cols | given) = H(cols, given) - H(given); empty given degenerates."""
    cols = _as_columns(cols)
    given = _as_columns(given) if given is not None and len(given) else []
    if not given:
        return joint_entropy(cols, base=base)
    h_all = _h_from_counts(_joint_counts(cols + given))
    h_given = _h_from_counts(_joint_counts(given))
    return _convert(_clamp(h_all - h_given), base)


def information_from_entropies(h_a, h_b, h_ab):
    """I(A : B) = H(A) + H(B) - H(A, B) from entropies already counted."""
    return _clamp(h_a + h_b - h_ab)


def mutual_information(a, b, base=None):
    """I(A : B) = H(A) + H(B) - H(A, B), symmetric and nonnegative."""
    a = _as_columns(a)
    b = _as_columns(b)
    h_a = _h_from_counts(_joint_counts(a))
    h_b = _h_from_counts(_joint_counts(b))
    h_ab = _h_from_counts(_joint_counts(a + b))
    return _convert(information_from_entropies(h_a, h_b, h_ab), base)


def conditional_mutual_information(a, b, given, base=None):
    """I(A : B | given) via four joint entropies; empty given gives MI."""
    a = _as_columns(a)
    b = _as_columns(b)
    given = _as_columns(given) if given is not None and len(given) else []
    if not given:
        return mutual_information(a, b, base=base)
    h_ag = _h_from_counts(_joint_counts(a + given))
    h_bg = _h_from_counts(_joint_counts(b + given))
    h_abg = _h_from_counts(_joint_counts(a + b + given))
    h_g = _h_from_counts(_joint_counts(given))
    return _convert(_clamp(h_ag + h_bg - h_abg - h_g), base)


def _entropy_reader(cols):
    """h(*axes): the joint entropy of the columns at those axes, in nats.

    One bincount fills the dense contingency table of the columns, and
    each entropy is that of one of its marginals, whose nonzero cells in
    C order are the counts _joint_counts gives for those columns, so h
    equals joint_entropy bit for bit. Columns whose table would span
    more than _RADIX_PER_SAMPLE cells per sample form no table; h then
    counts the columns at its axes by _joint_counts.
    """
    keys = joint_codes(cols)
    shape = tuple(int(c.max()) + 1 for c in cols)
    if math.prod(shape) > _RADIX_PER_SAMPLE * keys.shape[0]:
        # joint_codes compacted these keys, so they index no table
        return lambda *axes: _h_from_counts(
            _joint_counts([cols[k] for k in axes]))
    table = np.bincount(keys, minlength=math.prod(shape)).reshape(shape)

    def h(*axes):
        counts = table.sum(axis=tuple(k for k in range(len(cols))
                                      if k not in axes))
        return _h_from_counts(counts[counts > 0])

    return h


def label_entropies(cols, labels):
    """H(x) and H(x, labels) of every column x, as two arrays in nats.

    Each column's (code, label) table is counted once (_entropy_reader):
    H(x, labels) is read from its cells and H(x) from its row sums, so
    the two equal joint_entropy([x, labels]) and entropy(x) bit for bit.
    The relevance I(x : labels) is information_from_entropies(H(x),
    H(labels), H(x, labels)), and pair_information takes both as a
    pair's marginals.
    """
    labels = _as_columns(labels)[0]
    h_x = []
    h_xy = []
    for x in _as_columns(cols):
        h = _entropy_reader([x, labels])
        h_x.append(h(0))
        h_xy.append(h(0, 1))
    return np.array(h_x), np.array(h_xy)


def row_conditional_entropies(rows, labels, levels):
    """H(labels | row) in nats for each row of rows, a (k, N) array of
    nonnegative codes below levels.

    One bincount of (row, code, label) keys fills every row's (code,
    label) table. H(row, labels) is read from a table's nonzero cells in
    C order and H(row) from its nonzero row sums, which are the counts
    _joint_counts gives for (row, labels) and for row, so each value
    equals joint_entropy([row, labels]) - entropy(row) bit for bit.
    """
    n_labels = int(labels.max()) + 1
    keys = np.multiply(rows, n_labels, dtype=np.int64)
    keys += labels
    keys += (np.arange(len(rows)) * (levels * n_labels))[:, None]
    tables = np.bincount(keys.ravel(), minlength=len(rows) * levels
                         * n_labels).reshape(len(rows), levels * n_labels)
    sums = tables.reshape(len(rows), levels, n_labels).sum(axis=2)
    return np.array([_h_from_counts(cells[cells > 0])
                     - _h_from_counts(row[row > 0])
                     for cells, row in zip(tables, sums)])


def pair_information(a, b, given, marginals=None):
    """I(a : b), I(a : b | given) and I(a, b : given) in nats.

    The seven entropies are read from the (a, b, given) contingency
    table (_entropy_reader). Five of them belong to one column or to one
    column with given: marginals, when passed, holds those already
    counted, (H(a), H(b), H(given), H(a, given), H(b, given)) as
    label_entropies and entropy give them, and the table then supplies
    only H(a, b) and H(a, b, given). The sums follow mutual_information
    and conditional_mutual_information term by term, so the three values
    equal theirs bit for bit, whichever way the marginals were counted.
    """
    h = _entropy_reader(_as_columns([a, b, given]))
    if marginals is None:
        marginals = (h(0), h(1), h(2), h(0, 2), h(1, 2))
    h_a, h_b, h_g, h_ag, h_bg = marginals
    h_ab, h_abg = h(0, 1), h(0, 1, 2)
    return (information_from_entropies(h_a, h_b, h_ab),
            _clamp(h_ag + h_bg - h_abg - h_g),
            information_from_entropies(h_ab, h_g, h_abg))
