import math

import numpy as np
import pytest

import oracles
from hofsel.infotheory import (
    EstimatorError,
    _RADIX_PER_SAMPLE,
    _joint_counts,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    joint_codes,
    joint_entropy,
    mutual_information,
    pair_information,
)

LOG2 = math.log(2.0)


def xnor_dataset():
    """Enumerated two-input parity table: y = 1 iff x1 == x2."""
    x1 = np.array([0, 0, 1, 1], dtype=np.int64)
    x2 = np.array([0, 1, 0, 1], dtype=np.int64)
    y = (x1 == x2).astype(np.int64)
    return x1, x2, y


class TestEntropy:
    def test_constant_column_is_zero(self):
        assert entropy(np.zeros(17, dtype=np.int64)) == 0.0

    def test_uniform_alphabet(self):
        for k in (2, 3, 5, 8):
            col = np.repeat(np.arange(k), 12)
            assert entropy(col) == pytest.approx(math.log(k), abs=1e-12)

    def test_base_conversion(self):
        col = np.array([0, 0, 1, 2, 2, 2], dtype=np.int64)
        nats = entropy(col)
        bits = entropy(col, base=2)
        assert bits == pytest.approx(nats / LOG2, abs=1e-12)

    def test_empty_column_rejected(self):
        with pytest.raises(EstimatorError):
            entropy(np.array([], dtype=np.int64))

    def test_fair_coin_is_one_bit(self):
        col = np.array([0, 1] * 50, dtype=np.int64)
        assert entropy(col, base=2) == pytest.approx(1.0, abs=1e-12)

    def test_negative_codes_rejected(self):
        # packed with width max + 1, the pairs (0, -1) and (1, -1) would
        # share keys with (-1, 1) and (0, 1): log 4 would read as 1.0397
        # and the MI of these two independent columns as 0.3466
        a = [0, 1, 0, 1]
        b = [0, -1, -1, 0]
        with pytest.raises(EstimatorError, match="negative"):
            joint_entropy([a, b])
        with pytest.raises(EstimatorError, match="negative"):
            mutual_information(np.array(a), np.array(b))
        with pytest.raises(EstimatorError, match="negative"):
            entropy(np.array(b))
        with pytest.raises(EstimatorError, match="negative"):
            joint_codes([np.array(b), np.array(a)])


class TestJointAndChain:
    def test_joint_matches_single_column(self):
        col = np.array([0, 1, 1, 2], dtype=np.int64)
        assert joint_entropy([col]) == pytest.approx(entropy(col), abs=1e-15)

    def test_joint_is_order_invariant(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 3, size=40)
        b = rng.integers(0, 2, size=40)
        c = rng.integers(0, 4, size=40)
        assert joint_entropy([a, b, c]) == pytest.approx(
            joint_entropy([c, a, b]), abs=1e-12)

    def test_chain_rule_is_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(8, 60))
            a = rng.integers(0, 3, size=n)
            b = rng.integers(0, 3, size=n)
            lhs = joint_entropy([a, b])
            rhs = entropy(a) + conditional_entropy([b], [a])
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_joint_codes_preserve_outcome_identity(self):
        rng = np.random.default_rng(5)
        a = rng.integers(0, 3, size=30)
        b = rng.integers(0, 2, size=30)
        codes = joint_codes([a, b])
        seen = {}
        for i in range(30):
            key = (a[i], b[i])
            if key in seen:
                assert codes[i] == seen[key]
            seen[key] = codes[i]
        assert len(np.unique(codes)) == len(seen)

    def test_counts_equal_sorted_unique_counts(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(1, 80))
            cols = [rng.integers(0, int(rng.integers(1, 7)), size=n)
                    for _ in range(int(rng.integers(1, 5)))]
            _, ref = np.unique(joint_codes(cols), return_counts=True)
            got = _joint_counts(cols)
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref)

    def test_compacted_keys_keep_identity_and_order(self):
        # 28 five-level columns span 5**28 > 2**62 keys, past any radix
        # bound; 300 samples repeat 100 distinct tuples
        rng = np.random.default_rng(12)
        n = 300
        rows = rng.integers(0, 100, size=n)
        cols = [rng.integers(0, 5, size=100)[rows] for _ in range(28)]
        cols[3][:] = 4  # a constant column
        codes = joint_codes(cols)
        assert codes.dtype == np.int64
        assert 0 <= codes.min()
        assert codes.max() < _RADIX_PER_SAMPLE * n
        table = {}
        key_of = {}
        for i in range(n):
            t = tuple(int(c[i]) for c in cols)
            table[t] = table.get(t, 0) + 1
            assert key_of.setdefault(t, codes[i]) == codes[i]
        # one key per tuple, ascending in the lexicographic tuple order
        keys = [key_of[t] for t in sorted(table)]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        counts = _joint_counts(cols)
        assert counts.tolist() == [table[t] for t in sorted(table)]
        _, ref = np.unique(codes, return_counts=True)
        assert np.array_equal(counts, ref)
        assert joint_entropy(cols) == pytest.approx(
            oracles.table_entropy(cols), abs=1e-12)
        assert mutual_information(cols[:14], cols[14:]) == pytest.approx(
            oracles.table_mi(oracles.joint_column(cols[:14]),
                             oracles.joint_column(cols[14:])), abs=1e-12)


class TestMutualInformation:
    def test_self_information_equals_entropy(self):
        col = np.array([0, 1, 2, 0, 1, 2, 0, 0], dtype=np.int64)
        assert mutual_information(col, col) == pytest.approx(
            entropy(col), abs=1e-12)

    def test_independent_blocks_are_zero(self):
        a = np.repeat([0, 1], 8)
        b = np.tile([0, 1], 8)
        assert mutual_information(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        a = rng.integers(0, 4, size=50)
        b = rng.integers(0, 3, size=50)
        assert mutual_information(a, b) == pytest.approx(
            mutual_information(b, a), abs=1e-12)

    def test_nonnegative_after_clamp(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            a = rng.integers(0, 3, size=16)
            b = rng.integers(0, 3, size=16)
            assert mutual_information(a, b) >= 0.0


class TestPairInformation:
    """One contingency table gives the estimators' values bit for bit."""

    def test_equals_estimators_on_both_paths(self):
        rng = np.random.default_rng(31)
        dense = []
        for trial in range(40):
            n = int(rng.integers(2, 120))
            # every fourth trial has columns too wide for a dense table
            top = 60 if trial % 4 == 0 else 5
            a = rng.integers(0, int(rng.integers(1, top)) + 1, size=n)
            b = rng.integers(0, int(rng.integers(1, top)) + 1, size=n)
            y = rng.integers(0, int(rng.integers(1, 4)) + 1, size=n)
            cells = (a.max() + 1) * (b.max() + 1) * (y.max() + 1)
            dense.append(cells <= _RADIX_PER_SAMPLE * n)
            assert pair_information(a, b, y) == (
                mutual_information(a, b),
                conditional_mutual_information(a, b, y),
                mutual_information([a, b], y)), trial
        assert 5 <= sum(dense) <= 35

    def test_negative_codes_rejected(self):
        with pytest.raises(EstimatorError, match="negative"):
            pair_information(np.array([0, 1]), np.array([1, 0]),
                             np.array([0, -1]))


class TestParityExamples:
    """The two-input parity triple, the standard synergy stress case."""

    def test_joint_entropy_two_bits(self):
        x1, x2, y = xnor_dataset()
        assert joint_entropy([x1, x2, y], base=2) == pytest.approx(
            2.0, abs=1e-12)

    def test_label_given_one_input_is_one_bit(self):
        x1, x2, y = xnor_dataset()
        assert conditional_entropy([y], [x1], base=2) == pytest.approx(
            1.0, abs=1e-12)

    def test_single_inputs_carry_nothing(self):
        x1, x2, y = xnor_dataset()
        assert mutual_information(x1, y, base=2) == pytest.approx(
            0.0, abs=1e-12)
        assert mutual_information(x2, y, base=2) == pytest.approx(
            0.0, abs=1e-12)

    def test_pair_carries_everything(self):
        x1, x2, y = xnor_dataset()
        assert mutual_information([x1, x2], y, base=2) == pytest.approx(
            1.0, abs=1e-12)

    def test_inputs_coupled_given_label(self):
        x1, x2, y = xnor_dataset()
        assert conditional_mutual_information(x1, x2, y, base=2) == \
            pytest.approx(1.0, abs=1e-12)


class TestOracleAgreement:
    """Every operation against the full-probability-table reference."""

    def test_random_instances_match_tables(self):
        rng = np.random.default_rng(2024)
        for trial in range(50):
            n = int(rng.integers(4, 65))
            n_cols = int(rng.integers(1, 5))
            cols = [rng.integers(0, int(rng.integers(1, 4)) + 1, size=n)
                    for _ in range(n_cols)]
            assert joint_entropy(cols) == pytest.approx(
                oracles.table_entropy(cols), abs=1e-12), trial
            assert entropy(cols[0]) == pytest.approx(
                oracles.table_entropy([cols[0]]), abs=1e-12), trial
            if n_cols >= 2:
                given = cols[1:]
                assert conditional_entropy([cols[0]], given) == pytest.approx(
                    oracles.table_conditional_entropy([cols[0]], given),
                    abs=1e-12), trial
                assert mutual_information(cols[0], cols[1]) == pytest.approx(
                    oracles.table_mi(cols[0], cols[1]), abs=1e-12), trial
            if n_cols >= 3:
                assert conditional_mutual_information(
                    cols[0], cols[1], cols[2]) == pytest.approx(
                    oracles.table_cmi(cols[0], cols[1], cols[2]),
                    abs=1e-12), trial

    def test_grouped_arguments_match_joint_column(self):
        rng = np.random.default_rng(77)
        a = rng.integers(0, 2, size=48)
        b = rng.integers(0, 3, size=48)
        y = rng.integers(0, 2, size=48)
        ours = mutual_information([a, b], y)
        ref = oracles.table_mi(oracles.joint_column([a, b]), y)
        assert ours == pytest.approx(ref, abs=1e-12)
