"""Greedy feature selection over a partition of jointly modeled subsets.

Selected features are grouped into subsets of correlated features. Each
conditional term fits the label once: a least-squares reconstruction of
the standardized label from the subset's columns and the candidate's
column, whose binned values upgrade that subset's mutual information
with the label beyond what per-feature plug-in estimates can see. The
triangular unmixing models of ica.py are built only for diagnostics
(partition_pearson).

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

from .data import _discretize_column, discretize, standardize_column
from .ica import avg_pearson, fit_batch, logistic_scale, signal_entropy
from .infotheory import entropy, joint_entropy, mutual_information


class HofsError(ValueError):
    pass


def label_conditional_entropy(columns, label_std, labels, bins):
    """Conditional label entropy given a linear reconstruction of the label.

    One least-squares fit of the standardized label on the stacked
    columns gives the reconstruction. When it varies, the estimate is
    the plug-in conditional entropy of the class codes given the binned
    reconstruction, which keeps every entropy in the score on one
    discrete scale. When the reconstruction is numerically constant the
    linear fit carries no information, and the estimate falls back to
    the histogram entropy of the unit-variance residual plus the log of
    its spread, minus the log of its logistic scale (solved here and only
    here by logistic_scale); a residual more concentrated than its
    spread implies (as in parity interactions) still lowers that
    fallback below the marginal entropy.
    """
    X = np.column_stack(columns)
    beta, _, _, _ = np.linalg.lstsq(X, label_std, rcond=None)
    recon = X @ beta
    if float(recon.var()) < 1e-12:
        resid = label_std - recon
        sd = math.sqrt(float(resid.var()))
        s = resid / sd
        return (signal_entropy(s, bins) + math.log(sd)
                - math.log(logistic_scale(s)))
    codes, _ = _discretize_column(recon, "continuous", bins,
                                  "equal_frequency")
    return joint_entropy([codes, labels]) - entropy(codes)


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


@dataclass
class StepRecord:
    step: int
    chosen: int
    created_new_subset: bool
    subset_index: int
    maxcov: float
    gain: float
    total_mi: float
    candidate_scores: dict = field(default_factory=dict)
    score_parts: dict = field(default_factory=dict)


@dataclass
class SelectionTrace:
    steps: list = field(default_factory=list)
    config: dict = field(default_factory=dict)


def _standardized(col):
    """Zero-mean, unit-variance copy of a column; zeros for a constant one."""
    if float(np.std(col)) <= 1e-12:
        return np.zeros(len(col))
    return standardize_column(col)


class _EngineState:
    """Per-run caches: discretized view, standardized columns, relevances,
    the signed correlation matrix, and memoized conditional terms."""

    def __init__(self, data, config):
        self.config = config
        self.view = discretize(data, bins=config.bins)
        self.labels = data.labels
        m = data.n_features
        self.stdcols = [_standardized(col) for col in data.columns]
        self.constant = [not col.any() for col in self.stdcols]
        self.label_constant = len(np.unique(data.labels)) < 2
        if self.label_constant:
            self.label_std = np.zeros(data.n_samples)
        else:
            self.label_std = standardize_column(data.labels.astype(np.float64))
        self.rel = np.array([
            mutual_information(self.view.codes[j], self.labels)
            for j in range(m)])
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = np.corrcoef(np.vstack([np.asarray(c, dtype=np.float64)
                                          for c in data.columns]))
        corr = np.atleast_2d(corr)
        self.corr = np.nan_to_num(corr, nan=0.0)
        self.term_cache = {}

    def conditional_term(self, subset, candidate):
        """Estimate of I(S:y | x) for candidate x and subset S.

        Computed as -H(x) + H(x,y) - Hm, where Hm is the conditional
        entropy of the label given its least-squares reconstruction from
        the columns of S and x (label_conditional_entropy), so
        relevance(x) + term telescopes to H(y) - Hm. A constant
        candidate or constant label contributes nothing and scores zero
        by convention.
        """
        key = (tuple(subset.feature_ids), candidate)
        if key in self.term_cache:
            return self.term_cache[key]
        if self.constant[candidate] or self.label_constant:
            self.term_cache[key] = 0.0
            return 0.0
        h_x = entropy(self.view.codes[candidate])
        h_xy = joint_entropy([self.view.codes[candidate], self.labels])
        cond_h = label_conditional_entropy(
            [self.stdcols[f] for f in [*subset.feature_ids, candidate]],
            self.label_std, self.labels, self.config.bins)
        term = -h_x + h_xy - cond_h
        self.term_cache[key] = term
        return term

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
        best = None
        best_score = None
        cand_scores = {}
        parts = {}
        for cand in range(m):
            if cand in selected:
                continue
            rel = float(state.rel[cand])
            terms = {}
            surplus = 0.0
            for j, sub in enumerate(partition.subsets):
                term = _require_finite(state.conditional_term(sub, cand),
                                       cand, t, subset=j)
                terms[j] = term
                surplus += max(0.0, term - sub.mi_estimate)
            score = _require_finite(rel + surplus, cand, t)
            cand_scores[cand] = score
            parts[cand] = {"relevance": rel, "terms": terms}
            if best_score is None or score > best_score:
                best = cand
                best_score = score
        idx, created, maxcov, gain = state.commit(partition, best)
        selected.add(best)
        total += gain
        steps.append(StepRecord(
            step=t, chosen=best, created_new_subset=created,
            subset_index=idx, maxcov=maxcov, gain=gain, total_mi=total,
            candidate_scores=cand_scores, score_parts=parts))
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
    """Ratio of discrete to reconstruction-based conditional label entropy.

    For each subset X the numerator is the plug-in H(y|X) on discretized
    codes and the denominator is label_conditional_entropy on the
    subset's columns. Subsets with near-zero denominators are excluded
    with a warning. Returns the mean ratio, optionally with the
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
    label_std = standardize_column(labels.astype(np.float64))
    ratios = []
    detail = []
    for sub in partition.subsets:
        cols = [view.codes[f] for f in sub.feature_ids]
        num = joint_entropy(cols + [labels]) - joint_entropy(cols)
        den = label_conditional_entropy(
            [_standardized(data.columns[f]) for f in sub.feature_ids],
            label_std, labels, config.bins)
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


def partition_pearson(partition, data):
    """Mean absolute pairwise signal correlation, per subset and overall.

    Each subset with two or more features gets its triangular unmixing
    model fitted here, on its standardized columns in member order.
    Singleton subsets have no pairs; they report 0.0 and are excluded
    from the overall mean."""
    # fit_batch's bins feed only the signal entropies, which avg_pearson
    # never reads, so any value gives the same correlations.
    bins = HofsConfig().bins
    per = []
    vals = []
    for sub in partition.subsets:
        if len(sub.feature_ids) >= 2:
            model = fit_batch([standardize_column(data.columns[f])
                               for f in sub.feature_ids], bins)
            v = avg_pearson(model)
            per.append(v)
            vals.append(v)
        else:
            per.append(0.0)
    overall = float(np.mean(vals)) if vals else 0.0
    return overall, per
