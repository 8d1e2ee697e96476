"""Greedy feature selection over a partition of jointly modeled subsets.

Selected features are grouped into subsets of correlated features. Each
conditional term fits the label once: a least-squares reconstruction of
the standardized label from the subset's columns and the candidate's
column, whose binned values upgrade that subset's mutual information
with the label beyond what per-feature plug-in estimates can see. The
standardized columns and label form one block (standardized_block):
its QR factor R is computed once per run, and the Gram matrix of its
feature rows over N assigns the subsets. Before each greedy step,
every uncached candidate of one subset is scored in one stacked pass
(label_conditional_entropies): one batched solve on R's columns, which
is each fit over all samples exactly, with lstsq's rank cutoff for the
N-row problem; one product that forms every reconstruction; one sort
and one edge count that bin them all, so that values tied up to
rounding stay one level whichever solver computed them; and one count
of every (code, label) table. A null fit, as on a parity interaction,
is answered by the plug-in on the joint code of the subset's and
candidate's discretized columns. The diagnostics read the run's own
results: the balance ratio reads each subset's booked estimate
(r_balance), and the subset correlations read the matrix that assigns
the subsets, from the same block (partition_correlation).

Per-subset accounting: a subset created from feature x starts at the
plug-in estimate I(x:y). When feature x joins an existing subset S, the
subset estimate becomes I(x:y) + term(S, x), where the conditional term
telescopes the entropies so that the subset total equals H(y) minus the
conditional entropy of the label given the reconstruction. Candidate
ranking adds, on top of each candidate's own relevance, only the part
of each conditional term that exceeds the subset's current estimate,
clamped at zero. That surplus is exactly the modeled synergy: redundant
candidates contribute nothing extra, synergistic ones do.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import discretize, tied_equal_frequency_counts
from .infotheory import (entropy, information_from_entropies, joint_codes,
                         joint_entropy, label_entropies,
                         row_conditional_entropies)


_EPS = np.finfo(np.float64).eps
# cap on one stacked (candidates, N) float buffer of the label fits
_STACK_MAX_BYTES = 1 << 22


class HofsError(ValueError):
    pass


def standardized_block(data):
    """The run's standardized columns as one (m+1, N) float64 block.

    Row j is feature j at zero mean and unit variance, and row m is the
    standardized label. A column whose std is at most 1e-12 of its
    largest |value| is constant up to rounding at its own scale and
    gives a row of zeros.
    """
    block = np.empty((data.n_features + 1, data.n_samples))
    for row, col in zip(block, [*data.columns,
                                data.labels.astype(np.float64)]):
        sd = float(np.std(col))
        if sd <= 1e-12 * float(np.abs(col).max()):
            row[:] = 0.0
        else:
            np.subtract(col, col.mean(), out=row)
            row /= sd
    return block


def label_conditional_entropies(block, R, subset, candidates, view_codes,
                                labels, bins):
    """Conditional label entropy given a linear reconstruction of the label,
    for the fit on idx = subset + [x] of each candidate x, as an array.

    Each reconstruction is the least-squares fit of the standardized
    label (block's last row) on the feature rows idx of block. It is
    solved on block's small QR factor R (_EngineState): block.T = QR
    with orthonormal Q, so min |X_idx b - s| over N samples is
    min |R[:, idx] b - R[:, m]| over m+1 rows, with the same solution.
    One batched SVD of the stacked R[:, idx] solves every fit with
    lstsq's rank cutoff for the N-row problem: singular values above
    eps * max(N, |idx|) of the largest. A fit's variance is
    |R[:, idx] b|^2 / N, since the block rows have zero mean.

    The varying fits' weights, zero off idx, give every reconstruction
    in one product with the block's feature rows. They are binned
    together (data.tied_equal_frequency_counts), so that levels tied up
    to rounding stay one level whichever solver computed them, and one
    bincount gives each plug-in H(y | code)
    (infotheory.row_conditional_entropies). A numerically constant fit
    carries no information (as in parity interactions): its samples are
    coded by the joint code of the columns idx of view_codes, the run's
    discretized columns, so the estimate is the plug-in
    H(y | columns idx), which is r_balance's numerator. Either way every
    entropy in the score stays on one discrete scale. The candidates go
    in chunks whose stacked (k, N) float buffers stay within
    _STACK_MAX_BYTES, so memory per candidate is O(N).
    """
    m, n = block.shape[0] - 1, block.shape[1]
    subset = list(subset)
    candidates = list(candidates)
    rcond = _EPS * max(n, len(subset) + 1)
    out = np.empty(len(candidates))
    step = max(1, _STACK_MAX_BYTES // (8 * n))
    for at in range(0, len(candidates), step):
        chunk = candidates[at:at + step]
        idx = np.array([subset + [x] for x in chunk], dtype=np.intp)
        # (k, rows of R, |idx|): candidate r's columns R[:, idx[r]]
        A = np.swapaxes(R.T[idx], 1, 2)
        U, sv, Vt = np.linalg.svd(A, full_matrices=False)
        keep = sv > rcond * sv[:, :1]
        coef = np.divide(np.einsum("kri,r->ki", U, R[:, -1]), sv,
                         out=np.zeros_like(sv), where=keep)
        beta = np.einsum("kij,ki->kj", Vt, coef)
        fit = np.einsum("kri,ki->kr", A, beta)
        null = np.einsum("kr,kr->k", fit, fit) / n < 1e-12
        for r in np.flatnonzero(null):
            codes = joint_codes([view_codes[j] for j in idx[r]])
            out[at + r] = joint_entropy([codes, labels]) - entropy(codes)
        live = np.flatnonzero(~null)
        if not live.size:
            continue
        weights = np.zeros((live.size, m))
        np.put_along_axis(weights, idx[live], beta[live], axis=1)
        recon = weights @ block[:-1]
        codes = tied_equal_frequency_counts(recon, bins)
        out[at + live] = row_conditional_entropies(codes, labels, bins)
    return out


@dataclass
class HofsConfig:
    C: float = 0.5
    bins: int = 5

    def __post_init__(self):
        if not 0.0 <= self.C <= 1.0:
            raise HofsError("C must lie in [0, 1], got %r" % (self.C,))
        if int(self.bins) < 2:
            raise HofsError("bins must be at least 2")
        self.bins = int(self.bins)


@dataclass
class Subset:
    feature_ids: list
    mi_estimate: float


@dataclass
class SubsetPartition:
    subsets: list = field(default_factory=list)
    selection_order: list = field(default_factory=list)

    @property
    def n_subsets(self):
        return len(self.subsets)

    def total_mi(self):
        return float(sum(s.mi_estimate for s in self.subsets))

    def feature_sets(self):
        return [frozenset(s.feature_ids) for s in self.subsets]

    def ranks(self):
        """1-based rank of each subset by mi_estimate, highest first; ties
        go to the lower subset index. Aligned with self.subsets."""
        by_mi = sorted(range(len(self.subsets)),
                       key=lambda i: (-self.subsets[i].mi_estimate, i))
        ranks = [0] * len(by_mi)
        for rank, i in enumerate(by_mi, start=1):
            ranks[i] = rank
        return ranks


@dataclass
class StepRecord:
    """One greedy step. The candidates scored at the step are held as
    arrays aligned with candidates: their scores and relevances, and
    terms[i, j], candidate i's conditional term for subset j."""

    step: int
    chosen: int
    created_new_subset: bool
    subset_index: int
    maxcov: float
    gain: float
    total_mi: float
    candidates: np.ndarray
    scores: np.ndarray
    relevances: np.ndarray
    terms: np.ndarray

    @property
    def candidate_scores(self):
        """{candidate: score}."""
        return dict(zip(self.candidates.tolist(), self.scores.tolist()))

    @property
    def score_parts(self):
        """{candidate: {"relevance": r, "terms": {subset index: term}}}."""
        return {c: {"relevance": r, "terms": dict(enumerate(row))}
                for c, r, row in zip(self.candidates.tolist(),
                                     self.relevances.tolist(),
                                     self.terms.tolist())}


@dataclass
class SelectionTrace:
    steps: list = field(default_factory=list)
    config: dict = field(default_factory=dict)


def correlation_matrix(block):
    """Signed Pearson correlations between the feature rows of a
    standardized_block: their Gram matrix over N.

    A column constant up to rounding is a zero row there, by the rule
    that also flags it constant for the label fits, so its row and
    column read 0 and it never exceeds a coverage threshold C >= 0.
    """
    return block[:-1] @ block[:-1].T / block.shape[1]


class _EngineState:
    """Per-run caches: discretized view, the standardized block (rows
    stdcols and label_std) with its QR factor R, computed once (block.T
    is Fortran-ordered, so qr takes it without a copy), its feature
    correlations corr, per-feature entropies and relevances, and the
    conditional terms, filled a subset at a time (fill_terms)."""

    def __init__(self, data, config):
        self.config = config
        self.view = discretize(data, bins=config.bins)
        self.labels = data.labels
        self.block = standardized_block(data)
        self.R = np.linalg.qr(self.block.T, mode="r")
        self.stdcols = self.block[:-1]
        self.label_std = self.block[-1]
        self.constant = [not col.any() for col in self.stdcols]
        self.label_constant = not self.label_std.any()
        # H(x) and H(x,y) per feature, from one count of its (code, label)
        # table: the relevance I(x:y) sums them with H(y), and every
        # conditional term of x reads them again
        self.h_x, self.h_xy = label_entropies(self.view.codes, self.labels)
        h_y = entropy(self.labels)
        self.rel = np.array([information_from_entropies(hx, h_y, hxy)
                             for hx, hxy in zip(self.h_x.tolist(),
                                                self.h_xy.tolist())])
        self.corr = correlation_matrix(self.block)
        self.term_cache = {}

    def fill_terms(self, subset, candidates):
        """Cache the conditional term of every candidate for subset that is
        not cached yet, from one stacked pass over the subset's label fits
        (label_conditional_entropies).

        A term estimates I(S:y | x) for candidate x and subset S, as
        -H(x) + H(x,y) - Hm, where Hm is the conditional entropy of the
        label given its least-squares reconstruction from the columns of
        S and x, so relevance(x) + term telescopes to H(y) - Hm. When that
        fit is null, Hm is the plug-in H(y | S, x) and the term is exactly
        the plug-in I(S:y | x). A constant candidate or constant label
        contributes nothing and scores zero by convention.
        """
        members = tuple(subset.feature_ids)
        fits = []
        for c in candidates:
            if (members, c) in self.term_cache:
                continue
            if self.constant[c] or self.label_constant:
                self.term_cache[members, c] = 0.0
            else:
                fits.append(c)
        if fits:
            cond_h = label_conditional_entropies(
                self.block, self.R, members, fits, self.view.codes,
                self.labels, self.config.bins)
            terms = -self.h_x[fits] + self.h_xy[fits] - cond_h
            self.term_cache.update(zip([(members, c) for c in fits],
                                       terms.tolist()))

    def conditional_term(self, subset, candidate):
        """Estimate of I(S:y | x) for candidate x and subset S (fill_terms)."""
        key = (tuple(subset.feature_ids), candidate)
        if key not in self.term_cache:
            self.fill_terms(subset, [candidate])
        return self.term_cache[key]

    def commit(self, partition, fid):
        """Place fid into the partition, updating the subset estimates."""
        idx, maxcov = assign_subset(fid, partition, self.corr, self.config.C)
        if idx is None:
            sub = Subset(feature_ids=[fid], mi_estimate=float(self.rel[fid]))
            partition.subsets.append(sub)
            gain = sub.mi_estimate
            created = True
            idx = len(partition.subsets) - 1
        else:
            sub = partition.subsets[idx]
            term = self.conditional_term(sub, fid)
            new_mi = float(self.rel[fid]) + term
            gain = new_mi - sub.mi_estimate
            sub.feature_ids = list(sub.feature_ids) + [fid]
            sub.mi_estimate = new_mi
            created = False
        partition.selection_order.append(fid)
        return idx, created, maxcov, gain


def assign_subset(candidate, partition, corr, C):
    """Pick the subset whose members correlate most with the candidate.

    Coverage of a subset is the signed mean Pearson correlation between
    the candidate and the subset's members. Returns (index, maxcov);
    index is None when no coverage strictly exceeds C, meaning the
    candidate starts a subset of its own.
    """
    if not partition.subsets:
        return None, 0.0
    covs = []
    for sub in partition.subsets:
        members = list(sub.feature_ids)
        covs.append(float(np.mean([corr[candidate, j] for j in members])))
    best = int(np.argmax(covs))
    maxcov = covs[best]
    if maxcov > C:
        return best, maxcov
    return None, maxcov


def hofs_score(candidate, partition, data, config=None, state=None):
    """Literal composite score: relevance plus every conditional term."""
    if state is None:
        state = _EngineState(data, config if config is not None
                             else HofsConfig())
    total = float(state.rel[candidate])
    for sub in partition.subsets:
        total += state.conditional_term(sub, candidate)
    return total


def _require_finite(value, candidate, step, subset=None):
    """Return a score (or one subset's term of it), raising if not finite.

    A NaN never compares greater, so one that reached the argmax would
    silently lose every step, or win it as the first candidate; the
    surplus clamp max(0, term - estimate) would also turn a NaN term
    into 0.
    """
    if not math.isfinite(value):
        what = "score" if subset is None else "subset %d term" % (subset,)
        raise FloatingPointError("non-finite %s (%r) for feature %d at "
                                 "step %d" % (what, value, candidate, step))
    return value


def run_hofs(data, T, config=None):
    """Select T features greedily; returns (partition, trace).

    Ranking adds each candidate's plug-in relevance to the clamped
    surplus of every subset's conditional term over that subset's
    current estimate, so redundancy never inflates a score while
    modeled synergy still does. Ties break toward the lowest index.
    """
    if config is None:
        config = HofsConfig()
    m = data.n_features
    if not 1 <= T <= m:
        raise HofsError("T=%d out of range for %d features" % (T, m))
    state = _EngineState(data, config)
    partition = SubsetPartition()
    steps = []
    total = 0.0
    selected = set()
    for t in range(1, T + 1):
        cands = [c for c in range(m) if c not in selected]
        for sub in partition.subsets:
            state.fill_terms(sub, cands)
        scores = np.empty(len(cands))
        terms = np.empty((len(cands), partition.n_subsets))
        for i, cand in enumerate(cands):
            surplus = 0.0
            for j, sub in enumerate(partition.subsets):
                term = _require_finite(state.conditional_term(sub, cand),
                                       cand, t, subset=j)
                terms[i, j] = term
                surplus += max(0.0, term - sub.mi_estimate)
            scores[i] = _require_finite(float(state.rel[cand]) + surplus,
                                        cand, t)
        # the first maximum: ties go to the lowest index
        best = cands[int(np.argmax(scores))]
        idx, created, maxcov, gain = state.commit(partition, best)
        selected.add(best)
        total += gain
        steps.append(StepRecord(
            step=t, chosen=best, created_new_subset=created,
            subset_index=idx, maxcov=maxcov, gain=gain, total_mi=total,
            candidates=np.array(cands), scores=scores,
            relevances=state.rel[cands], terms=terms))
    trace = SelectionTrace(steps=steps, config={
        "T": T, "C": config.C, "bins": config.bins})
    return partition, trace


def accumulate_partition(data, feature_order, config=None):
    """Assign features to subsets in the given order, no ranking involved."""
    if config is None:
        config = HofsConfig()
    order = list(feature_order)
    if len(set(order)) != len(order):
        raise HofsError("feature order contains duplicates")
    state = _EngineState(data, config)
    partition = SubsetPartition()
    for fid in order:
        if not 0 <= fid < data.n_features:
            raise HofsError("feature id %r out of range" % (fid,))
        state.commit(partition, fid)
    return partition


def r_balance(partition, data, config=None, per_subset=False):
    """Ratio of discrete to reconstruction-based conditional label entropy,
    read from the partition's own subset estimates.

    partition must come from run_hofs or accumulate_partition on the same
    data and config. For each subset X the numerator is the plug-in
    H(y|X) on discretized codes and the denominator is H(y) minus the
    subset's mi_estimate. A subset with two or more members booked its
    estimate as H(y) minus the conditional label entropy given the label
    fit that added its last member (_EngineState.fill_terms), so the
    denominator is that fit's entropy, read without refitting; when the
    fit was null it is the plug-in on the same codes, so such a subset
    reads 1. A singleton's estimate is its plug-in relevance, so it
    reads 1 to rounding. Subsets with near-zero denominators are
    excluded with a warning. Returns the mean ratio, optionally with the
    per-subset values (None where excluded)."""
    if config is None:
        config = HofsConfig()
    view = discretize(data, bins=config.bins)
    labels = data.labels
    if len(np.unique(labels)) < 2:
        warnings.warn("constant label: every subset ratio is degenerate")
        if per_subset:
            return float("nan"), [None] * len(partition.subsets)
        return float("nan")
    h_y = entropy(labels)
    ratios = []
    detail = []
    for sub in partition.subsets:
        cols = [view.codes[f] for f in sub.feature_ids]
        num = joint_entropy(cols + [labels]) - joint_entropy(cols)
        den = h_y - sub.mi_estimate
        if abs(den) < 1e-9:
            warnings.warn("subset %r excluded from balance ratio: "
                          "near-zero conditional entropy" %
                          (list(sub.feature_ids),))
            detail.append(None)
            continue
        ratio = num / den
        ratios.append(ratio)
        detail.append(ratio)
    mean = float(np.mean(ratios)) if ratios else float("nan")
    if per_subset:
        return mean, detail
    return mean


def partition_correlation(partition, data):
    """Correlation structure of a partition, read from correlation_matrix.

    Returns (max_between, per_subset). per_subset holds each subset's
    signed mean pairwise correlation between its members, None for a
    singleton; a subset built by assign_subset always reads above C,
    since every member joined with a mean correlation above C to the
    members before it. max_between is the largest signed mean
    correlation between the members of two different subsets, None
    when there are fewer than two subsets."""
    corr = correlation_matrix(standardized_block(data))
    per_subset = []
    for sub in partition.subsets:
        ids = list(sub.feature_ids)
        if len(ids) < 2:
            per_subset.append(None)
            continue
        block = corr[np.ix_(ids, ids)]
        per_subset.append(float(block[np.triu_indices(len(ids), 1)].mean()))
    between = [float(corr[np.ix_(a.feature_ids, b.feature_ids)].mean())
               for i, a in enumerate(partition.subsets)
               for b in partition.subsets[i + 1:]]
    return (max(between) if between else None), per_subset
