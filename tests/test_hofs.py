import warnings

import numpy as np
import pytest

from hofsel.data import DataTable
from hofsel.hofs import (
    HofsConfig,
    HofsError,
    _EngineState,
    accumulate_partition,
    assign_subset,
    hofs_score,
    partition_pearson,
    r_balance,
    run_hofs,
    subset_conditional_score,
)
from hofsel.infotheory import mutual_information
from hofsel.synth import HeteroModelSpec, TreeModelSpec, gen_hetero, \
    gen_tree


@pytest.fixture(scope="module")
def small_tree():
    return gen_tree(TreeModelSpec(n_samples=5000, seed=1))


def copy_pair_table(n=2000, seed=0):
    """Two identical continuous features and an independent binary label."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=n)
    y = rng.integers(0, 2, size=n).astype(np.int64)
    return DataTable(columns=[a, a.copy()], feature_names=["a", "b"],
                     feature_kinds=["continuous", "continuous"],
                     labels=y, label_values=[0, 1])


def xnor_table(reps=25):
    x1 = np.tile([-1.0, -1.0, 1.0, 1.0], reps)
    x2 = np.tile([-1.0, 1.0, -1.0, 1.0], reps)
    y = ((x1 * x2) > 0).astype(np.int64)
    x3 = np.zeros(4 * reps)
    return DataTable(columns=[x1, x2, x3],
                     feature_names=["x1", "x2", "x3"],
                     feature_kinds=["continuous"] * 3,
                     labels=y, label_values=[0, 1])


class TestConfig:
    def test_threshold_range_enforced(self):
        with pytest.raises(HofsError):
            HofsConfig(C=1.5)
        with pytest.raises(HofsError):
            HofsConfig(C=-0.1)
        with pytest.raises(HofsError):
            HofsConfig(bins=1)


class TestConditionalTerm:
    def test_exact_copy_contributes_nothing(self):
        table = copy_pair_table()
        config = HofsConfig()
        partition = accumulate_partition(table, [0], config)
        score = subset_conditional_score(partition.subsets[0], 1, table,
                                         config)
        # the reconstruction is a monotone transform of the shared column,
        # so the two conditional entropies cancel term for term
        assert abs(score) <= 0.05

    def test_constant_label_scores_zero(self):
        table = copy_pair_table()
        config = HofsConfig()
        partition = accumulate_partition(table, [0], config)
        table.labels[:] = 0
        score = subset_conditional_score(partition.subsets[0], 1, table,
                                         config)
        assert abs(score) <= 1e-6

    def test_constant_candidate_scores_zero(self):
        table = copy_pair_table()
        table.columns[1] = np.zeros(table.n_samples)
        config = HofsConfig()
        partition = accumulate_partition(table, [0], config)
        score = subset_conditional_score(partition.subsets[0], 1, table,
                                         config)
        assert score == 0.0

    def test_unrelated_feature_keeps_more_subset_information(self, small_tree):
        # conditioning on x1's child x4 must shrink what {x1} still says
        # about the label; conditioning on the unrelated x8 must not
        config = HofsConfig()
        partition = accumulate_partition(small_tree, [0], config)
        t_child = subset_conditional_score(partition.subsets[0], 3,
                                           small_tree, config)
        t_far = subset_conditional_score(partition.subsets[0], 7,
                                         small_tree, config)
        assert t_far > t_child
        rel_x1 = mutual_information(
            _EngineState(small_tree, config).view.codes[0], small_tree.labels)
        assert 0.0 < t_child < rel_x1
        assert t_far == pytest.approx(rel_x1, abs=0.03)

    def test_ranking_still_prefers_the_strong_child(self, small_tree):
        # selection-level check: after x1, the ranking rule takes x4
        # over x8 because the clamped surplus falls back to relevance
        _, trace = run_hofs(small_tree, 2, HofsConfig())
        scores = trace.steps[1].candidate_scores
        assert scores[3] > scores[7]


class TestHofsScore:
    def test_empty_partition_is_relevance(self, small_tree):
        from hofsel.data import discretize
        config = HofsConfig()
        partition = accumulate_partition(small_tree, [], config)
        view = discretize(small_tree, bins=config.bins)
        for cand in (0, 4, 8):
            score = hofs_score(cand, partition, small_tree, config)
            rel = mutual_information(view.codes[cand], small_tree.labels)
            assert score == pytest.approx(rel, abs=1e-12)

    def test_single_subset_composition(self, small_tree):
        config = HofsConfig()
        partition = accumulate_partition(small_tree, [0], config)
        state = _EngineState(small_tree, config)
        for cand in (1, 3, 7):
            whole = hofs_score(cand, partition, small_tree, config,
                               state=state)
            term = subset_conditional_score(partition.subsets[0], cand,
                                            small_tree, config)
            rel = float(state.rel[cand])
            assert whole == pytest.approx(rel + term, abs=1e-9)

    def test_parity_partner_beats_constant(self):
        table = xnor_table()
        config = HofsConfig()
        partition = accumulate_partition(table, [0], config)
        state = _EngineState(table, config)
        s2 = hofs_score(1, partition, table, config, state=state)
        s3 = hofs_score(2, partition, table, config, state=state)
        assert s3 == 0.0
        assert s2 > s3
        assert s2 > 0.05


class TestAssignSubset:
    def test_empty_partition_creates(self, small_tree):
        config = HofsConfig()
        partition = accumulate_partition(small_tree, [], config)
        state = _EngineState(small_tree, config)
        idx, maxcov = assign_subset(0, partition, state.corr, config.C)
        assert idx is None
        assert maxcov == 0.0

    def test_exact_copy_joins_at_default_threshold(self):
        table = copy_pair_table()
        config = HofsConfig(C=0.5)
        partition = accumulate_partition(table, [0], config)
        state = _EngineState(table, config)
        idx, maxcov = assign_subset(1, partition, state.corr, config.C)
        assert idx == 0
        assert maxcov == pytest.approx(1.0, abs=1e-12)

    def test_tree_child_joins_its_head(self, small_tree):
        config = HofsConfig()
        partition = accumulate_partition(small_tree, [0, 1], config)
        state = _EngineState(small_tree, config)
        idx, _ = assign_subset(3, partition, state.corr, config.C)
        assert partition.subsets[idx].feature_ids == [0]


class TestRunHofs:
    def test_t_one_is_the_relevance_argmax(self, small_tree):
        from hofsel.data import discretize
        config = HofsConfig()
        partition, trace = run_hofs(small_tree, 1, config)
        view = discretize(small_tree, bins=config.bins)
        rels = [mutual_information(view.codes[j], small_tree.labels)
                for j in range(small_tree.n_features)]
        assert partition.selection_order == [int(np.argmax(rels))]
        assert len(trace.steps) == 1

    def test_partition_invariants_every_step(self, small_tree):
        config = HofsConfig()
        partition, trace = run_hofs(small_tree, 9, config)
        seen = []
        for step in trace.steps:
            seen.append(step.chosen)
            assert step.subset_index is not None
            assert len(set(seen)) == len(seen)
        ids = [f for sub in partition.subsets for f in sub.feature_ids]
        assert sorted(ids) == sorted(seen)
        assert partition.n_subsets <= len(trace.steps)

    def test_trace_rescoring_reproduces_recorded_scores(self, small_tree):
        config = HofsConfig()
        _, trace = run_hofs(small_tree, 6, config)
        for step in trace.steps:
            prefix = [s.chosen for s in trace.steps[:step.step - 1]]
            partition = accumulate_partition(small_tree, prefix, config)
            state = _EngineState(small_tree, config)
            rel = float(state.rel[step.chosen])
            surplus = 0.0
            for sub in partition.subsets:
                term = state.conditional_term(sub, step.chosen)
                surplus += max(0.0, term - sub.mi_estimate)
            recorded = step.candidate_scores[step.chosen]
            assert rel + surplus == pytest.approx(recorded, abs=1e-9)

    def test_first_pick_matches_mim(self, small_tree):
        from hofsel.criteria import MIM, Criterion, select_greedy
        from hofsel.data import discretize
        config = HofsConfig()
        partition, _ = run_hofs(small_tree, 1, config)
        view = discretize(small_tree, bins=config.bins)
        result = select_greedy(Criterion(MIM), view, small_tree.labels, 1)
        assert partition.selection_order[0] == result.order[0]

    def test_full_threshold_forces_singletons(self, small_tree):
        partition, _ = run_hofs(small_tree, 6, HofsConfig(C=1.0))
        assert partition.n_subsets == 6
        assert all(len(s.feature_ids) == 1 for s in partition.subsets)

    def test_subset_count_monotone_in_threshold(self, small_tree):
        order = list(range(9))
        counts = []
        for c in (1.0, 0.7, 0.5, 0.3, 0.0):
            partition = accumulate_partition(small_tree, order,
                                             HofsConfig(C=c))
            counts.append(partition.n_subsets)
        assert counts == sorted(counts, reverse=True)

    def test_bad_t_rejected(self, small_tree):
        with pytest.raises(HofsError):
            run_hofs(small_tree, 0, HofsConfig())
        with pytest.raises(HofsError):
            run_hofs(small_tree, 10, HofsConfig())

    def test_deterministic(self, small_tree):
        p1, t1 = run_hofs(small_tree, 5, HofsConfig())
        p2, t2 = run_hofs(small_tree, 5, HofsConfig())
        assert p1.selection_order == p2.selection_order
        assert p1.feature_sets() == p2.feature_sets()
        for s1, s2 in zip(t1.steps, t2.steps):
            assert s1.candidate_scores == s2.candidate_scores


    def test_nan_term_raises_naming_feature_and_step(self, small_tree,
                                                     monkeypatch):
        monkeypatch.setattr(_EngineState, "conditional_term",
                            lambda self, subset, candidate: float("nan"))
        with pytest.raises(FloatingPointError,
                           match=r"subset 0 term .* at step 2"):
            run_hofs(small_tree, 2, HofsConfig())


class TestInvariance:
    @pytest.mark.parametrize("make, T", [
        (lambda: gen_tree(TreeModelSpec(n_samples=5000, seed=1)), 9),
        (lambda: gen_hetero(HeteroModelSpec(seed=0)), 14),
    ], ids=["tree-5k", "hetero"])
    def test_sample_row_order(self, make, T):
        table = make()
        perm = np.random.default_rng(0).permutation(table.n_samples)
        shuffled = DataTable(columns=[c[perm] for c in table.columns],
                             feature_names=list(table.feature_names),
                             feature_kinds=list(table.feature_kinds),
                             labels=table.labels[perm],
                             label_values=list(table.label_values))
        p1, _ = run_hofs(table, T, HofsConfig())
        p2, _ = run_hofs(shuffled, T, HofsConfig())
        assert p2.selection_order == p1.selection_order
        assert [s.feature_ids for s in p2.subsets] == \
            [s.feature_ids for s in p1.subsets]
        for s1, s2 in zip(p1.subsets, p2.subsets):
            assert abs(s2.mi_estimate - s1.mi_estimate) < 1e-9


class TestAccumulate:
    def test_replaying_selection_order_rebuilds_partition(self, small_tree):
        config = HofsConfig()
        partition, _ = run_hofs(small_tree, 7, config)
        replay = accumulate_partition(small_tree, partition.selection_order,
                                      config)
        assert replay.feature_sets() == partition.feature_sets()
        for a, b in zip(replay.subsets, partition.subsets):
            assert a.mi_estimate == pytest.approx(b.mi_estimate, abs=1e-9)

    def test_duplicate_order_rejected(self, small_tree):
        with pytest.raises(HofsError):
            accumulate_partition(small_tree, [0, 0], HofsConfig())

    def test_out_of_range_id_rejected(self, small_tree):
        with pytest.raises(HofsError):
            accumulate_partition(small_tree, [99], HofsConfig())


class TestDiagnostics:
    def test_singleton_balance_is_unity(self, small_tree):
        config = HofsConfig(C=1.0)
        partition = accumulate_partition(small_tree, [0, 1, 2], config)
        mean, per = r_balance(partition, small_tree, config, per_subset=True)
        assert len(per) == 3
        for ratio in per:
            assert 0.9 <= ratio <= 1.1
        assert 0.9 <= mean <= 1.1

    def test_constant_label_excluded_with_warning(self, small_tree):
        config = HofsConfig()
        partition = accumulate_partition(small_tree, [0, 3], config)
        mutated = DataTable(columns=[c.copy() for c in small_tree.columns],
                            feature_names=list(small_tree.feature_names),
                            feature_kinds=list(small_tree.feature_kinds),
                            labels=small_tree.labels.copy(),
                            label_values=[0, 1])
        mutated.labels[:] = 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            mean, per = r_balance(partition, mutated, config,
                                  per_subset=True)
        assert np.isnan(mean)
        assert per == [None]
        assert len(caught) == 1

    def test_partition_pearson_shapes(self, small_tree):
        config = HofsConfig()
        partition, _ = run_hofs(small_tree, 9, config)
        overall, per = partition_pearson(partition)
        assert len(per) == partition.n_subsets
        for sub, value in zip(partition.subsets, per):
            if len(sub.feature_ids) == 1:
                assert value == 0.0
            else:
                assert 0.0 <= value < 1.0
        assert 0.0 <= overall < 1.0
