import numpy as np
import pytest

import oracles
from hofsel.criteria import (
    CMIM,
    JMI,
    KINDS,
    MIFS,
    MIM,
    MRMR,
    SPECCMI_GREEDY,
    Criterion,
    CriterionError,
    score_candidate,
    select_greedy,
)
from hofsel.criteria import _PairCache
from hofsel.data import DataTable, discretize
from hofsel.infotheory import (conditional_mutual_information,
                               mutual_information, pair_information)
from hofsel.synth import TreeModelSpec, gen_tree


def random_view(rng, n, m, levels=3):
    codes = [rng.integers(0, levels, size=n) for _ in range(m)]
    labels = rng.integers(0, 2, size=n).astype(np.int64)
    cols = [c.astype(np.float64) for c in codes]
    table = DataTable(columns=cols, feature_names=["f%d" % i
                                                   for i in range(m)],
                      feature_kinds=["categorical"] * m, labels=labels,
                      label_values=[0, 1])
    return discretize(table, bins=levels), labels


class TestCriterionConfig:
    def test_aliases_normalize(self):
        assert Criterion("mrmr").kind == MRMR
        assert Criterion("MiM").kind == MIM
        assert Criterion("speccmi").kind == SPECCMI_GREEDY

    def test_unknown_kind_rejected(self):
        with pytest.raises(CriterionError):
            Criterion("entropyMax")

    def test_negative_beta_rejected(self):
        with pytest.raises(CriterionError):
            Criterion(MIFS, beta=-0.5)

    @pytest.mark.parametrize("beta", [float("nan"), float("inf")])
    def test_non_finite_beta_rejected(self, beta):
        with pytest.raises(CriterionError):
            Criterion(MIFS, beta=beta)

    def test_already_selected_candidate_rejected(self):
        rng = np.random.default_rng(0)
        view, labels = random_view(rng, 60, 4)
        with pytest.raises(CriterionError):
            score_candidate(Criterion(MIM), 1, [1, 2], view, labels)


class TestScoreFormulas:
    """Pointwise agreement with the reference formulas, all six kinds."""

    def test_scores_match_reference(self):
        rng = np.random.default_rng(42)
        for trial in range(5):
            view, labels = random_view(rng, 120, 6)
            selected = [0, 3]
            for kind in KINDS:
                crit = Criterion(kind, beta=0.7)
                for cand in (1, 2, 4, 5):
                    ours = score_candidate(crit, cand, selected, view, labels)
                    ref = oracles.criterion_score(kind, cand, selected,
                                                  view.codes, labels,
                                                  beta=0.7)
                    assert ours == pytest.approx(ref, abs=1e-10), \
                        (trial, kind, cand)

    def test_empty_selection_reduces_to_relevance(self):
        rng = np.random.default_rng(1)
        view, labels = random_view(rng, 80, 5)
        for kind in KINDS:
            for cand in range(5):
                ours = score_candidate(Criterion(kind), cand, [], view,
                                       labels)
                rel = mutual_information(view.codes[cand], labels)
                assert ours == pytest.approx(rel, abs=1e-12), kind

    def test_mrmr_penalizes_redundancy(self):
        rng = np.random.default_rng(2)
        n = 400
        bit0 = rng.integers(0, 2, size=n)
        bit1 = rng.integers(0, 2, size=n)
        labels = (bit0 + 2 * bit1).astype(np.int64)
        clone = bit0.copy()
        cols = [c.astype(np.float64) for c in (bit0, clone, bit1)]
        table = DataTable(columns=cols, feature_names=["a", "b", "c"],
                          feature_kinds=["categorical"] * 3, labels=labels,
                          label_values=[0, 1, 2, 3])
        view = discretize(table)
        crit = Criterion(MRMR)
        s_clone = score_candidate(crit, 1, [0], view, labels)
        s_fresh = score_candidate(crit, 2, [0], view, labels)
        assert s_fresh > s_clone


class TestPairCache:
    def test_pair_quantities_depend_only_on_unordered_pair(self):
        table = gen_tree(TreeModelSpec(seed=0))
        view = discretize(table, bins=5)
        y = table.labels
        forward = _PairCache(view, y)
        # its own view: one view shares its tables between caches
        backward = _PairCache(discretize(table, bins=5), y)
        m = len(view.codes)
        for i in range(m):
            for j in range(i + 1, m):
                for name in ("feature_mi", "feature_cmi_given_label",
                             "joint_relevance"):
                    got = getattr(forward, name)(i, j)
                    assert getattr(backward, name)(j, i) == got, (name, i, j)
                a, b = view.codes[i], view.codes[j]
                # the estimators' own formulas, in ascending index order
                assert forward.feature_mi(i, j) == mutual_information(a, b)
                assert forward.feature_cmi_given_label(i, j) == \
                    conditional_mutual_information(a, b, y)
                assert forward.joint_relevance(i, j) == \
                    mutual_information([a, b], y)


    def test_values_equal_pair_information_on_random_views(self):
        # marginals counted per feature give the values a pair's own
        # table gives, also for categorical columns of many levels and
        # pairs whose table is above 4N cells (pair_information's
        # fallback)
        rng = np.random.default_rng(17)
        above = 0
        for trial in range(12):
            n = int(rng.integers(30, 400))
            levels = [2, 3, 7, 12, int(rng.integers(20, 60))]
            cols = [rng.integers(0, k, size=n).astype(np.float64)
                    for k in levels]
            labels = rng.integers(0, int(rng.integers(2, 6)), size=n)
            labels = np.unique(labels, return_inverse=True)[1]
            table = DataTable(columns=cols,
                              feature_names=["f%d" % i
                                             for i in range(len(cols))],
                              feature_kinds=["categorical"] * len(cols),
                              labels=labels)
            view = discretize(table, bins=5)
            assert max(view.n_levels) > 5
            cache = _PairCache(view, labels)
            codes = view.codes
            for i in range(len(codes)):
                assert cache.relevance(i) == \
                    mutual_information(codes[i], labels)
                for j in range(len(codes)):
                    if i == j:
                        continue
                    a, b = min(i, j), max(i, j)
                    got = (cache.feature_mi(i, j),
                           cache.feature_cmi_given_label(i, j),
                           cache.joint_relevance(i, j))
                    assert got == pair_information(codes[a], codes[b],
                                                   labels), (trial, i, j)
                    cells = (view.n_levels[a] * view.n_levels[b]
                             * (int(labels.max()) + 1))
                    above += cells > 4 * n
        assert above > 0


def _run(kind, view, labels, T):
    r = select_greedy(Criterion(kind), view, labels, T)
    return r.order, r.scores, r.per_step_candidates


def _shared_runs(view, labels, T):
    return [_run(kind, view, labels, T) for kind in KINDS]


def _fresh_runs(table, labels, T):
    """Each criterion over a view of its own, so nothing is shared."""
    return [_run(kind, discretize(table, bins=5), labels, T)
            for kind in KINDS]


class TestSharedTables:
    """Criteria over one view share its tables, one label vector at a
    time: every value equals the one a fresh view gives."""

    def test_shared_tables_never_serve_another_label_vector(self):
        table = gen_tree(TreeModelSpec(n_samples=3000, seed=3))
        view = discretize(table, bins=5)
        y = table.labels.copy()
        rng = np.random.default_rng(12)
        T = 5
        for labels in (y, 1 - y, rng.permutation(y), y):
            assert _shared_runs(view, labels, T) == \
                _fresh_runs(table, labels, T)
            for kind in KINDS:
                got = score_candidate(Criterion(kind), 4, [0, 7], view,
                                      labels)
                assert got == score_candidate(
                    Criterion(kind), 4, [0, 7], discretize(table, bins=5),
                    labels), kind

        # the caller rewrites its label array in place between calls
        view = discretize(table, bins=5)
        caller = y.copy()
        _shared_runs(view, caller, T)
        caller[:] = rng.permutation(caller)
        expect = _fresh_runs(table, caller.copy(), T)
        assert _shared_runs(view, caller, T) == expect

    def test_six_criteria_over_one_view_count_each_table_once(
            self, monkeypatch):
        # every table is counted by one _entropy_reader: a feature's
        # (code, label) table once, and a pair's (a, b, label) table once,
        # with the two features' entropies handed in as its marginals
        import hofsel.criteria as criteria
        import hofsel.infotheory as infotheory
        table = gen_tree(TreeModelSpec(n_samples=5000, seed=0))
        T = table.n_features
        fresh = _fresh_runs(table, table.labels, T)
        tables = {2: 0, 3: 0}
        handed = []
        reader = infotheory._entropy_reader
        pair = criteria.pair_information

        def counted_reader(cols):
            tables[len(cols)] += 1
            return reader(cols)

        def counted_pair(*args, **kwargs):
            handed.append(kwargs.get("marginals") is not None)
            return pair(*args, **kwargs)

        monkeypatch.setattr(infotheory, "_entropy_reader", counted_reader)
        monkeypatch.setattr(criteria, "pair_information", counted_pair)
        shared = _shared_runs(discretize(table, bins=5), table.labels, T)
        assert tables == {2: T, 3: T * (T - 1) // 2}
        assert handed == [True] * (T * (T - 1) // 2)
        assert shared == fresh


class TestGreedySelection:
    def test_first_pick_is_max_relevance(self):
        rng = np.random.default_rng(3)
        view, labels = random_view(rng, 150, 7)
        rels = [mutual_information(c, labels) for c in view.codes]
        expect = int(np.argmax(rels))
        for kind in KINDS:
            result = select_greedy(Criterion(kind), view, labels, 3)
            assert result.order[0] == expect, kind

    def test_ties_break_to_lowest_index(self):
        n = 40
        rng = np.random.default_rng(4)
        base = rng.integers(0, 2, size=n)
        labels = base.astype(np.int64)
        cols = [base.astype(np.float64).copy() for _ in range(3)]
        table = DataTable(columns=cols, feature_names=["a", "b", "c"],
                          feature_kinds=["categorical"] * 3, labels=labels,
                          label_values=[0, 1])
        view = discretize(table)
        result = select_greedy(Criterion(MIM), view, labels, 3)
        assert result.order == [0, 1, 2]

    def test_result_shape(self):
        rng = np.random.default_rng(5)
        view, labels = random_view(rng, 90, 6)
        result = select_greedy(Criterion(JMI), view, labels, 4)
        assert len(result.order) == 4
        assert len(result.scores) == 4
        assert len(result.per_step_candidates) == 4
        assert len(set(result.order)) == 4
        assert result.per_step_candidates[0][result.order[0]] == \
            pytest.approx(result.scores[0], abs=1e-12)

    def test_nan_score_raises_instead_of_winning(self, monkeypatch):
        import hofsel.criteria as criteria
        rng = np.random.default_rng(7)
        view, labels = random_view(rng, 120, 5)
        real = criteria.score_candidate

        def nan_for_first(criterion, candidate, *args, **kwargs):
            if candidate == 0:
                return float("nan")
            return real(criterion, candidate, *args, **kwargs)

        monkeypatch.setattr(criteria, "score_candidate", nan_for_first)
        with pytest.raises(FloatingPointError,
                           match=r"MIM score .* feature 0 at step 1"):
            select_greedy(Criterion(MIM), view, labels, 2)

    def test_bad_t_rejected(self):
        rng = np.random.default_rng(6)
        view, labels = random_view(rng, 50, 4)
        with pytest.raises(CriterionError):
            select_greedy(Criterion(MIM), view, labels, 0)
        with pytest.raises(CriterionError):
            select_greedy(Criterion(MIM), view, labels, 5)

    def test_parity_pair_beats_noise_once_one_input_chosen(self):
        reps = 30
        x1 = np.tile([0, 0, 1, 1], reps)
        x2 = np.tile([0, 1, 0, 1], reps)
        y = (x1 == x2).astype(np.int64)
        rng = np.random.default_rng(7)
        noise = rng.integers(0, 2, size=4 * reps)
        cols = [c.astype(np.float64) for c in (x1, x2, noise)]
        table = DataTable(columns=cols, feature_names=["x1", "x2", "z"],
                          feature_kinds=["categorical"] * 3, labels=y,
                          label_values=[0, 1])
        view = discretize(table)
        for kind in (JMI, CMIM, SPECCMI_GREEDY):
            crit = Criterion(kind)
            s_pair = score_candidate(crit, 1, [0], view, y)
            s_noise = score_candidate(crit, 2, [0], view, y)
            assert s_pair > s_noise, kind


class TestOracleOrders:
    """Full greedy runs against the from-scratch reference selector."""

    def test_ten_random_datasets_match_exactly(self):
        rng = np.random.default_rng(555)
        for trial in range(10):
            n = int(rng.integers(120, 260))
            view, labels = random_view(rng, n, 10)
            for kind in (MRMR, JMI, CMIM):
                result = select_greedy(Criterion(kind), view, labels, 10,
                                       record_candidates=False)
                ref = oracles.greedy_order(kind, view.codes, labels, 10)
                assert result.order == ref, (trial, kind)
