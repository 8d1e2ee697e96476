"""End-to-end acceptance gate.

One test per acceptance criterion, each printing a single PASS/FAIL
line with the measured values and its tolerance. The expensive
100000-sample tree run is shared across the criteria that need it.
"""

import math
import time

import numpy as np
import pytest

import oracles
from hofsel.criteria import CMIM, JMI, MIM, MRMR, Criterion, select_greedy
from hofsel.data import DataTable, discretize
from hofsel.eval import cross_validate, global_mi, information_gain_curve
from hofsel.hofs import (
    HofsConfig,
    Subset,
    SubsetPartition,
    accumulate_partition,
    hofs_score,
    partition_correlation,
    r_balance,
    run_hofs,
)
from hofsel.infotheory import (
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    joint_entropy,
    mutual_information,
)
from hofsel.synth import HeteroModelSpec, TreeModelSpec, gen_hetero, gen_tree

TREE_MI_TARGETS = (0.111, 0.052, 0.022, 0.058, 0.058, 0.025, 0.029,
                   0.012, 0.012)
TREE_PARTITION = {frozenset({0, 3, 4}), frozenset({1, 5, 6}),
                  frozenset({2, 7, 8})}
HETERO_FIRST_SUBSET = {0, 5, 1, 6}
HETERO_NOISE_IDS = {15, 16, 17, 18, 19}


def verdict(name, ok, detail):
    print("acceptance %s: %s (%s)" % (name, "PASS" if ok else "FAIL",
                                      detail))
    assert ok, "%s: %s" % (name, detail)


@pytest.fixture(scope="module")
def tree_data():
    t0 = time.perf_counter()
    table = gen_tree(TreeModelSpec(n_samples=100000, seed=0))
    return table, time.perf_counter() - t0


@pytest.fixture(scope="module")
def tree_run(tree_data):
    table, _ = tree_data
    t0 = time.perf_counter()
    partition, trace = run_hofs(table, 9, HofsConfig())
    return partition, trace, time.perf_counter() - t0


@pytest.fixture(scope="module")
def hetero_data():
    return gen_hetero(HeteroModelSpec(seed=0))


@pytest.fixture(scope="module")
def hetero_run(hetero_data):
    t0 = time.perf_counter()
    partition, trace = run_hofs(hetero_data, 14, HofsConfig())
    return partition, trace, time.perf_counter() - t0


def parity_table(reps=25):
    x1 = np.tile([-1.0, -1.0, 1.0, 1.0], reps)
    x2 = np.tile([-1.0, 1.0, -1.0, 1.0], reps)
    y = ((x1 * x2) > 0).astype(np.int64)
    x3 = np.zeros(4 * reps)
    return DataTable(columns=[x1, x2, x3],
                     feature_names=["x1", "x2", "x3"],
                     feature_kinds=["continuous"] * 3,
                     labels=y, label_values=[0, 1])


def test_tree_mi_calibration(tree_data):
    table, gen_elapsed = tree_data
    t0 = time.perf_counter()
    view = discretize(table, bins=10, scheme="equal_frequency")
    values = [mutual_information(view.codes[j], table.labels)
              for j in range(9)]
    elapsed = gen_elapsed + (time.perf_counter() - t0)
    devs = [abs(v - t) for v, t in zip(values, TREE_MI_TARGETS)]
    ok = max(devs) <= 0.01 and elapsed < 30.0
    verdict("tree-mi-calibration", ok,
            "max per-feature deviation %.4f <= 0.01, %.1fs < 30s"
            % (max(devs), elapsed))


def test_tree_partition_recovery(tree_data, tree_run):
    partition, _, elapsed = tree_run
    got = set(partition.feature_sets())
    first = partition.selection_order[0]
    ok = got == TREE_PARTITION and first == 0 and elapsed < 120.0
    names = [sorted("x%d" % (f + 1) for f in s) for s in got]
    verdict("tree-partition-recovery", ok,
            "subsets %s, first pick x%d, %.1fs < 120s"
            % (sorted(names), first + 1, elapsed))


def test_hetero_first_subset(hetero_data, hetero_run):
    partition, _, elapsed = hetero_run
    first = set(partition.subsets[0].feature_ids)
    picked_noise = HETERO_NOISE_IDS & set(partition.selection_order)
    ok = (first == HETERO_FIRST_SUBSET and not picked_noise
          and elapsed < 60.0)
    verdict("hetero-first-subset", ok,
            "first subset %s, noise picks %s, %.1fs < 60s"
            % (sorted("F%d" % (f + 1) for f in first),
               sorted(picked_noise) or "none", elapsed))


def test_parity_sanity():
    table = parity_table()
    view = discretize(table, bins=5)
    pair_bits = mutual_information([view.codes[0], view.codes[1]],
                                   table.labels, base=2)
    gmi_nats = global_mi(view, [0, 1], table.labels)
    single = max(mutual_information(view.codes[0], table.labels),
                 mutual_information(view.codes[1], table.labels))
    config = HofsConfig()
    partition = accumulate_partition(table, [0], config)
    s2 = hofs_score(1, partition, table, config)
    s3 = hofs_score(2, partition, table, config)
    ok = (abs(pair_bits - 1.0) <= 1e-12
          and abs(gmi_nats - math.log(2.0)) <= 1e-12
          and single <= 1e-12 and s2 > s3)
    verdict("parity-sanity", ok,
            "pair MI %.15f bits (1.0 +/- 1e-12), singleton MI %.1e <= "
            "1e-12, score(x2)=%.4f > score(x3)=%.4f"
            % (pair_bits, single, s2, s3))


def test_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 65))
        n_cols = int(rng.integers(1, 5))
        cols = [rng.integers(0, int(rng.integers(1, 4)) + 1, size=n)
                for _ in range(n_cols)]
        worst = max(worst, abs(joint_entropy(cols)
                               - oracles.table_entropy(cols)))
        worst = max(worst, abs(entropy(cols[0])
                               - oracles.table_entropy([cols[0]])))
        if n_cols >= 2:
            worst = max(worst, abs(
                conditional_entropy([cols[0]], cols[1:])
                - oracles.table_conditional_entropy([cols[0]], cols[1:])))
            worst = max(worst, abs(
                mutual_information(cols[0], cols[1])
                - oracles.table_mi(cols[0], cols[1])))
        if n_cols >= 3:
            worst = max(worst, abs(
                conditional_mutual_information(cols[0], cols[1], cols[2])
                - oracles.table_cmi(cols[0], cols[1], cols[2])))
    mismatches = []
    rng2 = np.random.default_rng(555)
    for trial in range(10):
        n = int(rng2.integers(120, 260))
        codes = [rng2.integers(0, 3, size=n) for _ in range(10)]
        labels = rng2.integers(0, 2, size=n).astype(np.int64)
        cols = [c.astype(np.float64) for c in codes]
        table = DataTable(columns=cols,
                          feature_names=["f%d" % i for i in range(10)],
                          feature_kinds=["categorical"] * 10,
                          labels=labels, label_values=[0, 1])
        view = discretize(table, bins=3)
        for kind in (MRMR, JMI, CMIM):
            result = select_greedy(Criterion(kind), view, labels, 10,
                                   record_candidates=False)
            ref = oracles.greedy_order(kind, view.codes, labels, 10)
            if result.order != ref:
                mismatches.append((trial, kind))
    ok = worst <= 1e-12 and not mismatches
    verdict("oracle-equivalence", ok,
            "max estimator deviation %.2e <= 1e-12 over 50 instances, "
            "greedy order mismatches %s over 10 datasets x 3 criteria"
            % (worst, mismatches or "none"))


def correlation_check(partition, table, C):
    """(ok, lowest within-subset mean, max between) for a partition."""
    max_between, per = partition_correlation(partition, table)
    within = min(v for v in per if v is not None)
    return within > C and max_between <= C, within, max_between


def shuffled_partition(partition, seed):
    """The same subset sizes, with the selected features dealt at random."""
    ids = np.random.default_rng(seed).permutation(
        [f for sub in partition.subsets for f in sub.feature_ids])
    out = SubsetPartition()
    start = 0
    for sub in partition.subsets:
        stop = start + len(sub.feature_ids)
        out.subsets.append(Subset(feature_ids=ids[start:stop].tolist(),
                                  mi_estimate=sub.mi_estimate))
        start = stop
    return out


def test_partition_diagnostics(tree_data, tree_run, hetero_data,
                               hetero_run):
    """Correlation structure and balance of the tree and hetero partitions.

    Every multi-feature subset's mean member correlation must exceed C.
    That holds by construction for any partition assign_subset built, as
    each member joined with a mean correlation above C to the members
    before it, so the check pins that invariant. No two subsets may
    correlate above C on average. A shuffle of each partition with the
    same subset sizes is the negative control and must fail the check.
    """
    C = HofsConfig().C
    results = {}
    for name, (table, run) in (("tree", (tree_data[0], tree_run)),
                               ("hetero", (hetero_data, hetero_run))):
        partition = run[0]
        ok, within, between = correlation_check(partition, table, C)
        control_ok, control_within, _ = correlation_check(
            shuffled_partition(partition, seed=0), table, C)
        balance = r_balance(partition, table, HofsConfig())
        results[name] = (ok and not control_ok and 0.85 <= balance <= 1.15,
                         within, between, balance, control_within)
    ok = all(r[0] for r in results.values())
    verdict("partition-diagnostics", ok,
            "tree min mean_corr %.4f max_between %.4f balance %.4f "
            "shuffled min mean_corr %.4f, hetero min mean_corr %.4f "
            "max_between %.4f balance %.4f shuffled min mean_corr %.4f "
            "(mean_corr > C=%.2f >= max_between, balance in [0.85, 1.15], "
            "shuffles fail)"
            % (results["tree"][1:] + results["hetero"][1:] + (C,)))


def test_information_gain_curve(tree_run):
    partition, trace, _ = tree_run
    curve = information_gain_curve(trace)
    start_dev = abs(curve[0] - 0.111)
    late = max(abs(g) for g in curve[4:])
    running = np.cumsum(curve)
    tele = max(abs(running[i] - trace.steps[i].total_mi)
               for i in range(len(curve)))
    tele = max(tele, abs(float(running[-1]) - partition.total_mi()))
    ok = start_dev <= 0.01 and late <= 0.02 and tele <= 1e-12
    verdict("information-gain-curve", ok,
            "start %.4f (0.111 +/- 0.01), max |gain| after step 4 "
            "%.4f <= 0.02, telescoping error %.1e <= 1e-12"
            % (curve[0], late, tele))


def test_probe_error_and_global_mi(tree_data, tree_run):
    table, _ = tree_data
    partition, _, _ = tree_run
    top3 = partition.selection_order[:3]
    hofs_err = cross_validate(table, top3, n_folds=10, seed=0)
    rng = np.random.default_rng(12345)
    random_errs = []
    for _ in range(10):
        triple = rng.choice(9, size=3, replace=False).tolist()
        random_errs.append(cross_validate(table, triple, n_folds=10,
                                          seed=0))
    random_mean = float(np.mean(random_errs))

    view = discretize(table, bins=5)
    mim = select_greedy(Criterion(MIM), view, table.labels, 9)
    gmi_hofs = global_mi(view, partition.selection_order[:9], table.labels)
    gmi_mim = global_mi(view, mim.order[:9], table.labels)

    ok = hofs_err < random_mean and gmi_hofs >= gmi_mim - 1e-12
    verdict("probe-error-and-global-mi", ok,
            "top-3 %s error %.3f%% < random mean %.3f%%, global MI "
            "%.4f >= %.4f"
            % (sorted("x%d" % (f + 1) for f in top3), hofs_err,
               random_mean, gmi_hofs, gmi_mim))
