import gc
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import oracles
from hofsel import hofs
from hofsel.data import DataTable
from hofsel.hofs import (
    HofsConfig,
    HofsError,
    Subset,
    SubsetPartition,
    _EngineState,
    accumulate_partition,
    assign_subset,
    hofs_score,
    partition_correlation,
    r_balance,
    run_hofs,
)
from hofsel.infotheory import (conditional_mutual_information, entropy,
                               joint_entropy, mutual_information)
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


def xnor_with_independent_column(reps=25):
    """x1, x2 and y = xnor(x1, x2) on an 8-row period, with a third ±1
    column x4 that takes each value once on every (x1, x2) pair, so it
    is independent of x1, x2 and y."""
    x1 = np.tile([-1.0, -1.0, 1.0, 1.0], 2 * reps)
    x2 = np.tile([-1.0, 1.0, -1.0, 1.0], 2 * reps)
    x4 = np.tile([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0, 1.0, -1.0], reps)
    y = ((x1 * x2) > 0).astype(np.int64)
    return DataTable(columns=[x1, x2, x4],
                     feature_names=["x1", "x2", "x4"],
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
        score = _EngineState(table, config).conditional_term(
            partition.subsets[0], 1)
        # the reconstruction is a monotone transform of the shared column,
        # so the two conditional entropies cancel term for term
        assert abs(score) <= 0.05

    def test_constant_label_scores_zero(self):
        table = copy_pair_table()
        config = HofsConfig()
        partition = accumulate_partition(table, [0], config)
        table.labels[:] = 0
        score = _EngineState(table, config).conditional_term(
            partition.subsets[0], 1)
        assert abs(score) <= 1e-6

    def test_constant_candidate_scores_zero(self):
        table = copy_pair_table()
        table.columns[1] = np.zeros(table.n_samples)
        config = HofsConfig()
        partition = accumulate_partition(table, [0], config)
        score = _EngineState(table, config).conditional_term(
            partition.subsets[0], 1)
        assert score == 0.0

    def test_unrelated_feature_keeps_more_subset_information(self, small_tree):
        # conditioning on x1's child x4 must shrink what {x1} still says
        # about the label; conditioning on the unrelated x8 must not
        config = HofsConfig()
        partition = accumulate_partition(small_tree, [0], config)
        state = _EngineState(small_tree, config)
        t_child = state.conditional_term(partition.subsets[0], 3)
        t_far = state.conditional_term(partition.subsets[0], 7)
        assert t_far > t_child
        rel_x1 = mutual_information(state.view.codes[0], small_tree.labels)
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
            term = _EngineState(small_tree, config).conditional_term(
                partition.subsets[0], cand)
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

    def test_trace_is_compact(self):
        # each step keeps its scored candidates as arrays, not as one dict
        # per candidate; the dicts are built only when read
        table = gen_hetero(HeteroModelSpec())
        gc.collect()
        tracemalloc.start()
        try:
            partition, trace = run_hofs(table, 20)
            del partition
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            del trace
            gc.collect()
            held -= tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 30 * 1024

    def test_trace_dicts_hold_python_numbers(self, small_tree):
        _, trace = run_hofs(small_tree, 4, HofsConfig())
        step = trace.steps[3]
        assert list(step.candidate_scores) == step.candidates.tolist()
        for cand, part in step.score_parts.items():
            assert type(cand) is int
            assert type(part["relevance"]) is float
            assert list(part["terms"]) == list(range(step.terms.shape[1]))
            assert all(type(v) is float for v in part["terms"].values())
            assert type(step.candidate_scores[cand]) is float

    def test_nan_term_raises_naming_feature_and_step(self, small_tree,
                                                     monkeypatch):
        monkeypatch.setattr(_EngineState, "conditional_term",
                            lambda self, subset, candidate: float("nan"))
        with pytest.raises(FloatingPointError,
                           match=r"subset 0 term .* at step 2"):
            run_hofs(small_tree, 2, HofsConfig())


def selection_by_name(table, T):
    """Order, subsets as (member names, mi_estimate), and per-step
    candidate scores of one run, all keyed by feature name."""
    partition, trace = run_hofs(table, T, HofsConfig())
    names = table.feature_names
    return ([names[f] for f in partition.selection_order],
            [([names[f] for f in s.feature_ids], s.mi_estimate)
             for s in partition.subsets],
            [{names[f]: v for f, v in step.candidate_scores.items()}
             for step in trace.steps])


def assert_same_selection(table, other, T, reindexed=False):
    """The same partition and order by name, subset MI within 1e-9.

    run_hofs breaks an exact score tie toward the lowest feature index,
    so when the tables index the features differently (reindexed) the
    tied features may be picked in swapped order: each step where the
    picked sets differ must then be such a tie in both runs.
    """
    order, subsets, scores = selection_by_name(table, T)
    other_order, other_subsets, other_scores = selection_by_name(other, T)
    assert [f for f, _ in other_subsets] == [f for f, _ in subsets]
    for (_, mi), (_, other_mi) in zip(subsets, other_subsets):
        assert abs(other_mi - mi) < 1e-9
    if not reindexed:
        assert other_order == order
        return
    for t in range(T):
        if set(order[:t + 1]) != set(other_order[:t + 1]):
            a, b = order[t], other_order[t]
            assert scores[t][a] == scores[t][b]
            assert other_scores[t][a] == other_scores[t][b]


def append_column(table, column, name, kind):
    return replace(table, columns=table.columns + [column],
                   feature_names=table.feature_names + [name],
                   feature_kinds=table.feature_kinds + [kind])


TREE_AND_HETERO = pytest.mark.parametrize("make, T", [
    (lambda: gen_tree(TreeModelSpec(n_samples=5000, seed=1)), 9),
    (lambda: gen_hetero(HeteroModelSpec(seed=0)), 14),
], ids=["tree-5k", "hetero"])


class TestInvariance:
    @TREE_AND_HETERO
    def test_sample_row_order(self, make, T):
        table = make()
        perm = np.random.default_rng(0).permutation(table.n_samples)
        shuffled = replace(table, columns=[c[perm] for c in table.columns],
                           labels=table.labels[perm])
        assert_same_selection(table, shuffled, T)

    @TREE_AND_HETERO
    def test_feature_column_order(self, make, T):
        table = make()
        perm = np.random.default_rng(0).permutation(table.n_features)
        permuted = replace(
            table, columns=[table.columns[j] for j in perm],
            feature_names=[table.feature_names[j] for j in perm],
            feature_kinds=[table.feature_kinds[j] for j in perm])
        # hetero's F2 and F3 tie exactly at step 5; this permutation puts
        # F3 first, so the two picks swap
        assert_same_selection(table, permuted, T, reindexed=True)

    @TREE_AND_HETERO
    def test_positive_rescaling_of_continuous_columns(self, make, T):
        # 1e-13 x is pure scaling: a column is constant only when its
        # spread is within rounding of its own largest |value|
        table = make()
        for rescale in (lambda col: 3.0 * col + 7.0, lambda col: 1e-13 * col):
            rescaled = replace(table, columns=[
                rescale(col) if kind == "continuous" else col
                for col, kind in zip(table.columns, table.feature_kinds)])
            assert_same_selection(table, rescaled, T)

    def test_binary_label_swap(self, small_tree):
        swapped = replace(small_tree, labels=1 - small_tree.labels,
                          label_values=small_tree.label_values[::-1])
        assert_same_selection(small_tree, swapped, 9)

    @TREE_AND_HETERO
    def test_appended_constant_column_is_never_picked(self, make, T):
        # the order must equal the original one, so the column is not in it
        table = make()
        padded = append_column(table, np.full(table.n_samples, 2.5),
                               "const", "continuous")
        assert_same_selection(table, padded, T)

    @pytest.mark.parametrize("make", [
        lambda: gen_tree(TreeModelSpec(n_samples=5000, seed=1)),
        lambda: gen_hetero(HeteroModelSpec(seed=0)),
    ], ids=["tree-5k", "hetero"])
    @pytest.mark.parametrize("constant", [
        lambda table: 1e6 + 1e-9 * table.columns[0],
        lambda table: np.full(table.n_samples, 2.5),
    ], ids=["constant-up-to-rounding", "exactly-constant"])
    def test_appended_constant_column_opens_its_own_subset(self, make,
                                                           constant):
        # picked last, it opens a subset of its own: 1e6 + 1e-9 x1 is one
        # level to discretize and a zero row of the block, so coverage too
        # must not see its 0.99 raw correlation with x1 (F1), or it joins
        # that subset and books its own MI of 0 over the subset's
        table = make()
        m = table.n_features
        _, subsets, _ = selection_by_name(table, m)
        padded = append_column(table, constant(table), "const",
                               "continuous")
        order, padded_subsets, _ = selection_by_name(padded, m + 1)
        assert order[-1] == "const"
        assert padded_subsets[-1] == (["const"], 0.0)
        assert padded_subsets[:-1] == subsets
        assert sum(mi for _, mi in padded_subsets) == \
            sum(mi for _, mi in subsets)

    def test_binning_and_label_fits_share_one_constancy_rule(self,
                                                             small_tree):
        # std 9.5e-13 of its largest |value|, range 1.9e-12: within the
        # std rule but past a range rule at 1e-12, so discretize would
        # give it two levels and the label's 0.693 nats while the block
        # gave it a zero row
        column = 1e6 + 1.9e-6 * small_tree.labels
        assert np.std(column) <= 1e-12 * column.max() < np.ptp(column)
        padded = append_column(small_tree, column, "near", "continuous")
        state = _EngineState(padded, HofsConfig())
        assert state.view.n_levels[-1] == 1
        assert state.rel[-1] == 0.0
        assert state.constant[-1]

    @TREE_AND_HETERO
    def test_appended_copy_of_first_pick_adds_nothing(self, make, T):
        # a guard on the rest of the selection only: the copy itself wins
        # step 2 although its subset's MI does not move
        table = make()
        order, subsets, _ = selection_by_name(table, T)
        first = table.feature_names.index(order[0])
        padded = append_column(table, table.columns[first].copy(), "copy",
                               table.feature_kinds[first])
        padded_order, padded_subsets, _ = selection_by_name(padded, T + 1)
        assert "copy" in padded_order
        assert [f for f in padded_order if f != "copy"] == order
        assert len(padded_subsets) == len(subsets)
        for (members, mi), (padded_members, padded_mi) in zip(
                subsets, padded_subsets):
            assert [f for f in padded_members if f != "copy"] == members
            assert abs(padded_mi - mi) < 1e-9


class TestRanks:
    def test_rank_by_mi_with_ties_to_lower_index(self):
        partition = SubsetPartition(subsets=[
            Subset([0], 0.2), Subset([1], 0.5), Subset([2], 0.2),
            Subset([3], 0.7)])
        assert partition.ranks() == [3, 2, 4, 1]


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

    @pytest.mark.parametrize("make, T", [
        (lambda: gen_tree(TreeModelSpec(n_samples=5000, seed=1)), 9),
        (lambda: gen_hetero(HeteroModelSpec(seed=0)), 20),
    ], ids=["tree-5k", "hetero"])
    def test_balance_factors_and_solves_nothing(self, make, T, monkeypatch):
        table = make()
        config = HofsConfig()
        partition, _ = run_hofs(table, T, config)

        def refuse(*args, **kwargs):
            raise AssertionError("r_balance refactored or refit the data")

        monkeypatch.setattr(hofs, "standardized_block", refuse)
        for name in ("qr", "svd", "lstsq"):
            monkeypatch.setattr(np.linalg, name, refuse)
        mean, per = r_balance(partition, table, config, per_subset=True)
        assert len(per) == partition.n_subsets
        assert math.isfinite(mean)

    @pytest.mark.parametrize("make, T, min_fits", [
        (lambda: gen_tree(TreeModelSpec(n_samples=5000, seed=1)), 9, 1),
        (lambda: gen_hetero(HeteroModelSpec(seed=0)), 20, 1),
        (lambda: gen_hetero(HeteroModelSpec(seed=1)), 20, 1),
        (lambda: gen_hetero(HeteroModelSpec(seed=2)), 20, 1),
        (xnor_table, 3, 0),
    ], ids=["tree-5k", "hetero-0", "hetero-1", "hetero-2", "xnor"])
    def test_booked_estimate_is_label_entropy_less_the_last_fit(
            self, make, T, min_fits):
        # the identity r_balance's denominator rests on: a subset of two
        # or more members booked H(y) - H(y | the fit that added its last
        # member), and a singleton its plug-in relevance (xnor's columns
        # are uncorrelated, so each is a singleton, one of them constant)
        table = make()
        config = HofsConfig()
        state = _EngineState(table, config)
        partition, _ = run_hofs(table, T, config)
        h_y = entropy(table.labels)
        fits = 0
        for sub in partition.subsets:
            ids = sub.feature_ids
            if len(ids) > 1:
                want = engine_entropy(state, ids)
                fits += 1
            else:
                code = state.view.codes[ids[0]]
                want = joint_entropy([code, table.labels]) - entropy(code)
            assert abs(h_y - sub.mi_estimate - want) <= 1e-12, ids
        assert fits >= min_fits

    def test_partition_correlation_shapes(self, small_tree):
        config = HofsConfig()
        partition, _ = run_hofs(small_tree, 9, config)
        max_between, per = partition_correlation(partition, small_tree)
        assert len(per) == partition.n_subsets
        for sub, value in zip(partition.subsets, per):
            if len(sub.feature_ids) == 1:
                assert value is None
            else:
                assert config.C < value <= 1.0
        assert -1.0 <= max_between <= config.C

    def test_partition_correlation_reads_the_assignment_matrix(self):
        table = copy_pair_table()
        table.columns.append(np.zeros(table.n_samples))
        table.feature_names.append("c")
        table.feature_kinds.append("continuous")
        partition = accumulate_partition(table, [0, 1, 2], HofsConfig())
        max_between, per = partition_correlation(partition, table)
        assert [s.feature_ids for s in partition.subsets] == [[0, 1], [2]]
        assert per[0] == pytest.approx(1.0, abs=1e-12)
        assert per[1] is None
        # the constant column's correlation row reads 0, not NaN
        assert max_between == 0.0
        # on a run's partition, bit for bit the means of the matrix that
        # assigned its subsets
        config = HofsConfig()
        for table, T in [
                (gen_tree(TreeModelSpec(n_samples=5000, seed=1)), 9),
                (gen_hetero(HeteroModelSpec(seed=0)), 20)]:
            partition, _ = run_hofs(table, T, config)
            corr = _EngineState(table, config).corr
            max_between, per = partition_correlation(partition, table)
            for sub, value in zip(partition.subsets, per):
                ids = sub.feature_ids
                pairs = np.triu_indices(len(ids), 1)
                assert value == (None if len(ids) < 2 else float(
                    corr[np.ix_(ids, ids)][pairs].mean()))
            assert max_between == max(
                float(corr[np.ix_(a.feature_ids, b.feature_ids)].mean())
                for i, a in enumerate(partition.subsets)
                for b in partition.subsets[i + 1:])


def binned_entropy(recon, labels, bins):
    """H(y | recon) with recon binned by the oracle's tie rule."""
    codes = oracles.tied_quantile_codes(recon, bins)
    return joint_entropy([codes, labels]) - entropy(codes)


def unmixing_route_entropy(columns, codes, label_std, labels, bins):
    """Conditional label entropy read off a triangular unmixing model.

    Stacks the columns and the standardized label, and inverts the label
    row: beta = -W[-1, :-1] / W[-1, -1] reconstructs the label from the
    columns. A constant reconstruction reads the brute-force H(y | codes)
    of the columns' discretized codes. Returns (entropy, whether that
    fallback ran).
    """
    W, _ = oracles.triangular_unmixing(list(columns) + [label_std])
    w_last = W[-1]
    beta = -w_last[:-1] / w_last[-1]
    recon = np.column_stack(columns) @ beta
    if float(recon.var()) < 1e-12:
        return oracles.table_conditional_entropy([labels], codes), True
    return binned_entropy(recon, labels, bins), False


def fitted_route_entropy(beta, X, codes, labels, bins):
    """Conditional label entropy of the reconstruction X @ beta, or the
    brute-force H(y | codes) for a constant one."""
    recon = X @ beta
    if float(recon.var()) < 1e-12:
        return oracles.table_conditional_entropy([labels], codes)
    return binned_entropy(recon, labels, bins)


def enumerated_terms(table, T, config):
    """Every prefix of every subset run_hofs selects, with every other
    non-constant feature as the candidate: (state, prefix + [candidate]).
    Covers hetero's degenerate {F1, F6, F2} row and xnor's constant
    reconstruction."""
    state = _EngineState(table, config)
    partition, _ = run_hofs(table, T, config)
    for sub in partition.subsets:
        for k in range(1, len(sub.feature_ids) + 1):
            prefix = sub.feature_ids[:k]
            if any(state.constant[f] for f in prefix):
                continue
            for cand in range(table.n_features):
                if cand in prefix or state.constant[cand]:
                    continue
                yield state, prefix + [cand]


def engine_entropy(state, idx):
    return hofs.label_conditional_entropies(
        state.block, state.R, idx[:-1], idx[-1:], state.view.codes,
        state.labels, state.config.bins).item()


class TestLabelFit:
    @pytest.mark.parametrize("make, T, min_fallbacks", [
        (lambda: gen_tree(TreeModelSpec(n_samples=5000, seed=1)), 9, 0),
        (lambda: gen_hetero(HeteroModelSpec(seed=0)), 14, 1),
        (xnor_table, 2, 1),
    ], ids=["tree-5k", "hetero", "xnor"])
    def test_one_solve_matches_unmixing_route(self, make, T, min_fallbacks):
        config = HofsConfig()
        compared = 0
        fallbacks = 0
        for state, idx in enumerated_terms(make(), T, config):
            ref, fell_back = unmixing_route_entropy(
                [state.stdcols[f] for f in idx],
                [state.view.codes[f] for f in idx], state.label_std,
                state.labels, config.bins)
            assert abs(engine_entropy(state, idx) - ref) <= 1e-12
            compared += 1
            fallbacks += fell_back
        assert compared > 0
        assert fallbacks >= min_fallbacks

    def test_levels_tied_up_to_rounding_bin_as_one(self):
        # {F3, F8} + F6 reconstructs the label on 3 levels (400/200/400
        # samples); an N-row lstsq spreads them over 5 values by rounding,
        # which read 0.3819 nats when each value was binned as a level
        state = _EngineState(gen_hetero(HeteroModelSpec(seed=0)),
                             HofsConfig())
        assert abs(engine_entropy(state, [2, 7, 5])
                   - 0.8 * math.log(2)) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_engine_matches_lstsq_and_normal_equations(self, seed):
        # three solvers with three roundings; under the tie rule they read
        # one entropy on every term (at one time the lstsq and normal
        # equation routes differed by 1.7e-4 on seed 2's {F1, F6} + F11)
        config = HofsConfig()
        compared = 0
        for state, idx in enumerated_terms(
                gen_hetero(HeteroModelSpec(seed=seed)), 14, config):
            X = np.column_stack([state.stdcols[f] for f in idx])
            s = state.label_std
            by_lstsq = np.linalg.lstsq(X, s, rcond=None)[0]
            by_gram = np.linalg.lstsq(X.T @ X, X.T @ s, rcond=None)[0]
            got = engine_entropy(state, idx)
            for beta in (by_lstsq, by_gram):
                ref = fitted_route_entropy(
                    beta, X, [state.view.codes[f] for f in idx],
                    state.labels, config.bins)
                assert abs(got - ref) <= 1e-12
            compared += 1
        assert compared > 100

    def test_nearly_collinear_pair_keeps_the_label_signal(self):
        # x and x + 1e-8 n with the label 1[n > 0]: only the difference of
        # the columns carries the label. A normal-equations solve squares
        # the condition number (~1e16) and reconstructs noise (corr 0.001
        # with the label); a solve on the data or on its QR factor reads
        # corr ~0.8
        rng = np.random.default_rng(0)
        x = rng.normal(size=20000)
        noise = rng.normal(size=20000)
        table = DataTable(columns=[x, x + 1e-8 * noise],
                          feature_names=["x", "x_n"],
                          feature_kinds=["continuous"] * 2,
                          labels=(noise > 0).astype(np.int64))
        state = _EngineState(table, HofsConfig())
        assert engine_entropy(state, [0, 1]) < 0.5 * math.log(2)
        assert state.conditional_term(Subset([0], 0.0), 1) > 0.3

    def test_one_factor_per_run_and_one_fit_per_term_miss(self, small_tree,
                                                           monkeypatch):
        # the QR factor is computed once per run, no solve sees the N
        # sample rows, and the stacked label fits compute each distinct
        # (subset members, candidate) key of the run exactly once; the
        # coverage correlations are the block's Gram, not a second
        # standardization by np.corrcoef. Every table is one bincount of
        # one-byte keys: per feature its presence count in discretize and
        # its (code, label) table, H(label), and one (row, code, label)
        # count per stacked pass, whose k * 5 * 2 cells fit a uint8 here
        n = small_tree.n_samples
        m = small_tree.n_features
        calls = {"keys": [], "qr": 0, "svd_rows": [], "passes": 0,
                 "bincounts": []}
        stacked = hofs.label_conditional_entropies
        qr = np.linalg.qr
        svd = np.linalg.svd
        bincount = np.bincount

        def refuse(*args, **kwargs):
            raise AssertionError("np.corrcoef called")

        def counted_stacked(block, R, subset, candidates, *args, **kwargs):
            calls["keys"] += [(tuple(subset), c) for c in candidates]
            calls["passes"] += 1
            return stacked(block, R, subset, candidates, *args, **kwargs)

        def counted_bincount(x, *args, **kwargs):
            calls["bincounts"].append(x.dtype)
            return bincount(x, *args, **kwargs)

        def counted_qr(a, *args, **kwargs):
            calls["qr"] += 1
            return qr(a, *args, **kwargs)

        def counted_svd(a, *args, **kwargs):
            calls["svd_rows"].append(np.shape(a)[-2])
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(hofs, "label_conditional_entropies",
                            counted_stacked)
        monkeypatch.setattr(np.linalg, "qr", counted_qr)
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(np, "corrcoef", refuse)
        monkeypatch.setattr(np, "bincount", counted_bincount)
        partition, trace = run_hofs(small_tree, 9, HofsConfig())

        # distinct (subset members, candidate) keys looked up in the run
        members = []
        misses = set()
        for step in trace.steps:
            for cand, part in step.score_parts.items():
                for j in part["terms"]:
                    misses.add((tuple(members[j]), cand))
            if step.created_new_subset:
                members.append([step.chosen])
            else:
                members[step.subset_index].append(step.chosen)
        assert [list(m) for m in members] == \
            [s.feature_ids for s in partition.subsets]
        assert len(misses) > 0
        assert sorted(calls["keys"]) == sorted(misses)
        assert calls["qr"] == 1
        assert 0 < len(calls["svd_rows"]) < len(misses)
        assert n not in calls["svd_rows"]
        assert calls["bincounts"] == [np.uint8] * (2 * m + 1
                                                   + calls["passes"])


def stacked_and_single(state, prefix, candidates):
    """The stacked entropies of prefix + [x] for every candidate x, and
    the one-candidate call for each."""
    args = (state.view.codes, state.labels, state.config.bins)
    stacked = hofs.label_conditional_entropies(
        state.block, state.R, prefix, candidates, *args)
    single = [hofs.label_conditional_entropies(
        state.block, state.R, prefix, [c], *args).item()
        for c in candidates]
    return stacked.tolist(), single


def every_prefix(table, T, config):
    """(state, prefix, candidates) for every prefix of every subset that
    run_hofs selects, with every other feature as a candidate."""
    state = _EngineState(table, config)
    partition, _ = run_hofs(table, T, config)
    for sub in partition.subsets:
        for k in range(1, len(sub.feature_ids) + 1):
            prefix = sub.feature_ids[:k]
            yield state, prefix, [c for c in range(table.n_features)
                                  if c not in prefix]


class TestStackedFits:
    """One stacked pass per subset gives each candidate's one-fit value."""

    @pytest.mark.parametrize("make, T, min_terms, min_nulls", [
        (lambda: gen_tree(TreeModelSpec(n_samples=5000, seed=1)), 9, 30, 0),
        (lambda: gen_hetero(HeteroModelSpec(seed=0)), 14, 150, 1),
        (lambda: gen_hetero(HeteroModelSpec(seed=1)), 14, 150, 0),
        (lambda: gen_hetero(HeteroModelSpec(seed=2)), 14, 150, 0),
        (xnor_table, 3, 6, 1),
    ], ids=["tree-5k", "hetero-0", "hetero-1", "hetero-2", "xnor"])
    def test_every_term_equals_the_one_candidate_call(
            self, make, T, min_terms, min_nulls, monkeypatch):
        # xnor's and hetero seed 0's null fits take the joint-code branch
        # inside a stack of fits that do not; the stacked and the single
        # call each look joint_codes up once per null fit
        calls = [0]
        joint_codes = hofs.joint_codes

        def counted(*args, **kwargs):
            calls[0] += 1
            return joint_codes(*args, **kwargs)

        monkeypatch.setattr(hofs, "joint_codes", counted)
        compared = 0
        nulls = 0
        for state, prefix, cands in every_prefix(make(), T, HofsConfig()):
            calls[0] = 0
            stacked, single = stacked_and_single(state, prefix, cands)
            assert stacked == single, (prefix, cands)
            assert calls[0] % 2 == 0
            compared += len(cands)
            nulls += calls[0] // 2
        assert compared >= min_terms
        assert nulls >= min_nulls

    def test_constant_candidate_among_others(self):
        # a constant column fits as a zero row of R: its fit is the
        # subset's alone, and the engine scores it 0 by convention
        table = gen_hetero(HeteroModelSpec(seed=0))
        table = DataTable(
            columns=table.columns + [np.full(table.n_samples, 2.5)],
            feature_names=table.feature_names + ["const"],
            feature_kinds=table.feature_kinds + ["continuous"],
            labels=table.labels, label_values=table.label_values)
        state = _EngineState(table, HofsConfig())
        cands = [1, 20, 5, 6]
        stacked, single = stacked_and_single(state, [0], cands)
        assert stacked == single
        assert single[1] == hofs.label_conditional_entropies(
            state.block, state.R, [], [0], state.view.codes, state.labels,
            state.config.bins).item()
        state.fill_terms(Subset([0], 0.0), cands)
        assert state.term_cache[(0,), 20] == 0.0
        for c, h in zip(cands, single):
            if c != 20:
                assert state.term_cache[(0,), c] == \
                    -state.h_x[c] + state.h_xy[c] - h

    def test_bins_above_256_count_into_uint16(self):
        # 256 edges overflow a uint8 count: the stacked codes must still
        # tell 257 levels apart, as the oracle's binning does
        state = _EngineState(gen_tree(TreeModelSpec(n_samples=5000, seed=2)),
                             HofsConfig(bins=257))
        prefix, cands = [0, 3], [1, 2, 4, 5, 8]
        stacked, single = stacked_and_single(state, prefix, cands)
        assert stacked == single
        for c, got in zip(cands, stacked):
            X = np.column_stack([state.stdcols[f] for f in prefix + [c]])
            recon = X @ np.linalg.lstsq(X, state.label_std, rcond=None)[0]
            assert np.unique(oracles.tied_quantile_codes(recon, 257)).size \
                == 257
            assert abs(got - binned_entropy(recon, state.labels, 257)) \
                <= 1e-12

    def test_byte_cap_splits_a_subset_into_chunks(self, monkeypatch):
        rng = np.random.default_rng(4)
        n, m = 1500, 24
        cols = [rng.normal(size=n) for _ in range(m)]
        labels = ((cols[0] + cols[1] - cols[2] > 0).astype(np.int64)
                  + (cols[3] > 0.5))
        table = DataTable(columns=cols,
                          feature_names=["f%d" % i for i in range(m)],
                          feature_kinds=["continuous"] * m, labels=labels)
        state = _EngineState(table, HofsConfig())
        prefix = [0, 3]
        cands = [c for c in range(m) if c not in prefix]
        whole, single = stacked_and_single(state, prefix, cands)
        # seven rows per chunk: the 22 candidates take four chunks
        monkeypatch.setattr(hofs, "_STACK_MAX_BYTES", 7 * 8 * n + 5)
        shapes = []
        svd = np.linalg.svd

        def counted_svd(a, *args, **kwargs):
            shapes.append(np.shape(a)[0])
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        chunked, _ = stacked_and_single(state, prefix, cands)
        assert shapes[:4] == [7, 7, 7, 1]
        assert chunked == whole == single


class TestNullFit:
    def test_parity_partner_beats_an_independent_column(self):
        # no linear fit sees xnor; the joint codes of {x1, x2} determine
        # y, those of {x1, x4} say nothing about it
        partition, trace = run_hofs(xnor_with_independent_column(), 3,
                                    HofsConfig())
        step = trace.steps[1]
        terms = dict(zip(step.candidates.tolist(), step.terms[:, 0]))
        assert terms[1] - terms[2] >= 0.5
        assert terms[1] == pytest.approx(math.log(2), abs=1e-12)
        assert abs(terms[2]) <= 1e-12
        assert partition.selection_order == [0, 1, 2]

    def test_term_is_the_plug_in_conditional_information(self):
        # hetero seed 0's one null fit: F8 joining {F3}
        table = gen_hetero(HeteroModelSpec(seed=0))
        config = HofsConfig()
        state = _EngineState(table, config)
        codes = state.view.codes
        term = state.conditional_term(Subset([2], 0.0), 7)
        assert abs(term - conditional_mutual_information(
            codes[2], table.labels, codes[7])) <= 1e-12
        assert term == pytest.approx(0.277259, abs=1e-6)
        partition, _ = run_hofs(table, 14, config)
        sub = next(s for s in partition.subsets if s.feature_ids == [2, 7])
        plug_in = mutual_information([codes[2], codes[7]], table.labels)
        assert abs(sub.mi_estimate - plug_in) <= 1e-12
        assert plug_in == pytest.approx(0.673012, abs=1e-6)

    @pytest.mark.parametrize("make, T, expected", [
        (lambda: gen_tree(TreeModelSpec(n_samples=5000, seed=1)), 9, 0),
        (lambda: gen_hetero(HeteroModelSpec(seed=0)), 14, 1),
    ], ids=["tree-5k", "hetero"])
    def test_null_fits_per_run(self, make, T, expected, monkeypatch):
        # label_conditional_entropies looks joint_codes up in the hofs
        # namespace only on a null fit
        table = make()
        calls = [0]
        joint_codes = hofs.joint_codes

        def counted(*args, **kwargs):
            calls[0] += 1
            return joint_codes(*args, **kwargs)

        monkeypatch.setattr(hofs, "joint_codes", counted)
        run_hofs(table, T, HofsConfig())
        assert calls[0] == expected

    def test_balance_of_a_null_fit_is_unity(self):
        # on a null fit, numerator and denominator are one plug-in
        # estimator
        table = xnor_table()
        config = HofsConfig()
        partition, _ = run_hofs(table, 3, config)
        mean, per = r_balance(partition, table, config, per_subset=True)
        assert per == [1.0] * partition.n_subsets
        assert mean == 1.0
