"""Classic lower-order feature scoring criteria and the shared greedy loop.

Each criterion scores a candidate feature against the already-selected set
using only single- and pairwise plug-in estimates. Selection is forward
greedy: at every step the highest-scoring unselected feature wins, ties
broken toward the lowest feature index.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .infotheory import (entropy, information_from_entropies,
                         label_entropies, pair_information)

MIM = "MIM"
MIFS = "MIFS"
JMI = "JMI"
MRMR = "MRMR"
CMIM = "CMIM"
SPECCMI_GREEDY = "SPECCMI_GREEDY"

KINDS = (MIM, MIFS, JMI, MRMR, CMIM, SPECCMI_GREEDY)

_ALIASES = {
    "mim": MIM, "mifs": MIFS, "jmi": JMI, "mrmr": MRMR, "cmim": CMIM,
    "speccmi": SPECCMI_GREEDY, "speccmi_greedy": SPECCMI_GREEDY,
}


class CriterionError(ValueError):
    pass


@dataclass
class Criterion:
    kind: str
    beta: float = 1.0

    def __post_init__(self):
        kind = _ALIASES.get(str(self.kind).lower())
        if kind is None:
            raise CriterionError("unknown criterion %r" % (self.kind,))
        self.kind = kind
        if self.kind == MIFS and not 0 <= self.beta < math.inf:
            raise CriterionError("MIFS beta must be finite and >= 0")


@dataclass
class SelectionResult:
    order: list
    scores: list
    per_step_candidates: list = field(default_factory=list)


class _PairCache:
    """Memoizes the quantities the criteria share, on the view they read.

    Each feature's H(x) and H(x, y) are counted once, from its (code,
    label) table (label_entropies), and give its relevance. Each
    unordered pair is computed once, from the table of the lower index,
    the higher index and the label, with the two features' entropies
    as its marginals (pair_information), so a pairwise value does not
    depend on which order asked for it first and counts only its own
    table. The entropies and pair tables are kept on the view for one
    label vector at a time: every select_greedy or score_candidate call
    over that view with equal labels fills each of them once, and other
    labels replace them with fresh ones. Labels are compared by content
    against a private copy, so a caller that rewrites its array in
    place never reads tables of the old values. The tables live and
    die with the view, whose codes are never rewritten.
    """

    def __init__(self, view, labels):
        self.codes = view.codes
        labels = np.asarray(labels, dtype=np.int64)
        shared = view.criteria_tables
        if shared is None or not np.array_equal(shared[0], labels):
            h_x, h_xy = (h.tolist()
                         for h in label_entropies(view.codes, labels))
            h_y = entropy(labels)
            rel = [information_from_entropies(a, h_y, ab)
                   for a, ab in zip(h_x, h_xy)]
            shared = view.criteria_tables = (
                labels.copy(), h_x, h_xy, h_y, rel, {})
        (self.labels, self.h_x, self.h_xy, self.h_y, self.rel,
         self.pairs) = shared

    def relevance(self, i):
        return self.rel[i]

    def _pair(self, i, j):
        a, b = (i, j) if i <= j else (j, i)
        if (a, b) not in self.pairs:
            self.pairs[a, b] = pair_information(
                self.codes[a], self.codes[b], self.labels,
                marginals=(self.h_x[a], self.h_x[b], self.h_y,
                           self.h_xy[a], self.h_xy[b]))
        return self.pairs[a, b]

    def feature_mi(self, i, j):
        return self._pair(i, j)[0]

    def feature_cmi_given_label(self, i, j):
        return self._pair(i, j)[1]

    def joint_relevance(self, i, j):
        return self._pair(i, j)[2]

    def label_cmi_given_feature(self, i, j):
        # I(x_i : y | x_j) by the chain I({x_i,x_j}:y) - I(x_j:y)
        return max(0.0, self.joint_relevance(i, j) - self.relevance(j))


def score_candidate(criterion, candidate, selected, view, labels, cache=None):
    """J value of one candidate given the ordered selected set."""
    if candidate in selected:
        raise CriterionError("candidate %r already selected" % (candidate,))
    if cache is None:
        cache = _PairCache(view, labels)
    rel = cache.relevance(candidate)
    kind = criterion.kind
    if kind == MIM:
        return rel
    if kind == MIFS:
        penalty = sum(cache.feature_mi(candidate, j) for j in selected)
        return rel - criterion.beta * penalty
    if kind == JMI:
        if not selected:
            return rel
        return sum(cache.joint_relevance(candidate, j) for j in selected)
    if kind == MRMR:
        if not selected:
            return rel
        penalty = sum(cache.feature_mi(candidate, j) for j in selected)
        return rel - penalty / len(selected)
    if kind == CMIM:
        if not selected:
            return rel
        worst = max(cache.feature_mi(candidate, j)
                    - cache.feature_cmi_given_label(candidate, j)
                    for j in selected)
        return rel - worst
    if kind == SPECCMI_GREEDY:
        bonus = sum(cache.label_cmi_given_feature(candidate, j)
                    for j in selected)
        return rel + bonus
    raise CriterionError("unknown criterion %r" % (kind,))


def select_greedy(criterion, view, labels, T, record_candidates=True):
    """Forward greedy selection of T features under one criterion."""
    m = len(view.codes)
    if not 1 <= T <= m:
        raise CriterionError("T=%d out of range for %d features" % (T, m))
    cache = _PairCache(view, labels)
    selected = []
    chosen_scores = []
    per_step = []
    for _ in range(T):
        best = None
        best_score = None
        step_scores = {}
        for cand in range(m):
            if cand in selected:
                continue
            s = score_candidate(criterion, cand, selected, view, labels,
                                cache=cache)
            if not math.isfinite(s):
                raise FloatingPointError(
                    "non-finite %s score (%r) for feature %d at step %d"
                    % (criterion.kind, s, cand, len(selected) + 1))
            step_scores[cand] = s
            if best_score is None or s > best_score:
                best = cand
                best_score = s
        selected.append(best)
        chosen_scores.append(best_score)
        if record_candidates:
            per_step.append(step_scores)
    return SelectionResult(order=selected, scores=chosen_scores,
                           per_step_candidates=per_step)
