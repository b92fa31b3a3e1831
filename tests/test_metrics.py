"""ROUGE hand cases, the exhaustive LCS oracle, and relative performance."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specmix.metrics import RougeScore, TaskMetricPair, relative_performance, rouge1_f, rougeL_f

# micro- and macro-averaged per-task f1 scores for the two models under
# comparison, one value per task in a fixed task order
BASELINE_MICRO = [71.2, 79.7, 68.3, 71.4, 87.6, 95.6, 70.8]
FOURIER_MICRO = [57.1, 65.7, 60.5, 65.2, 85.6, 95.3, 50.9]
BASELINE_MACRO = [63.6, 73.4, 58.3, 57.2, 81.8, 81.3, 70.8]
FOURIER_MACRO = [46.4, 56.4, 46.5, 46.5, 80.1, 78.0, 50.9]
HARTLEY_MICRO = [62.0, 70.4, 72.2, 65.6, 85.5, 93.5, 63.1]


def pairs_of(candidate, reference):
    return [TaskMetricPair(c, r, task=str(i)) for i, (c, r) in
            enumerate(zip(candidate, reference))]


def brute_force_lcs(a, b):
    """Maximum common subsequence length by enumerating all subsequences of a."""
    best = 0
    n = len(a)
    for mask in range(1 << n):
        sub = [a[i] for i in range(n) if mask >> i & 1]
        it = iter(b)
        if all(tok in it for tok in sub):
            best = max(best, len(sub))
    return best


class TestRouge1:
    def test_identical(self):
        assert rouge1_f("a b c", "a b c").fmeasure == 1.0

    def test_disjoint(self):
        assert rouge1_f("a b", "c d").fmeasure == 0.0

    def test_hand_case(self):
        score = rouge1_f("the cat", "the cat sat")
        assert score.precision == 1.0
        assert score.recall == pytest.approx(2 / 3)
        assert score.fmeasure == pytest.approx(0.8)

    def test_clipping(self):
        score = rouge1_f("a a a", "a")
        assert score.precision == pytest.approx(1 / 3)
        assert score.recall == 1.0

    def test_lowercasing(self):
        assert rouge1_f("The CAT", "the cat").fmeasure == 1.0

    def test_empty_sides(self):
        assert rouge1_f("", "a b") == RougeScore(0.0, 0.0, 0.0)
        assert rouge1_f("a b", "") == RougeScore(0.0, 0.0, 0.0)

    def test_swap_symmetry(self):
        a = rouge1_f("a b c", "a c d e")
        b = rouge1_f("a c d e", "a b c")
        assert a.precision == b.recall and a.recall == b.precision
        assert a.fmeasure == b.fmeasure


class TestRougeL:
    def test_identical(self):
        assert rougeL_f("x y z", "x y z").fmeasure == 1.0

    def test_hand_case(self):
        score = rougeL_f("the cat", "the cat sat")
        assert score.fmeasure == pytest.approx(0.8)

    def test_reordered(self):
        score = rougeL_f("c a b", "a b c")
        assert score.precision == pytest.approx(2 / 3)
        assert score.recall == pytest.approx(2 / 3)
        assert score.fmeasure == pytest.approx(2 / 3)

    def test_empty_sides(self):
        assert rougeL_f("", "a") == RougeScore(0.0, 0.0, 0.0)

    def test_swap_symmetry(self):
        a = rougeL_f("a b c d", "b d a")
        b = rougeL_f("b d a", "a b c d")
        assert a.fmeasure == b.fmeasure

    def test_exhaustive_oracle_short(self):
        """Every pair over {a,b,c} with lengths <= 4, against brute force."""
        alphabet = ["a", "b", "c"]
        seqs = [list(s) for n in range(5) for s in product(alphabet, repeat=n)]
        for h in seqs:
            for r in seqs:
                score = rougeL_f(" ".join(h), " ".join(r))
                lcs = brute_force_lcs(h, r)
                if not h or not r:
                    assert score.fmeasure == 0.0
                    continue
                p, rr = lcs / len(h), lcs / len(r)
                expected = 2 * p * rr / (p + rr) if p + rr > 0 else 0.0
                assert score.fmeasure == pytest.approx(expected, abs=1e-12)

    def test_sampled_oracle_longer(self):
        # lengths 5..8: the full cross product is out of reach, so a seeded
        # sample stands in for it
        rng = np.random.default_rng(42)
        alphabet = np.array(["a", "b", "c"])
        for _ in range(300):
            na, nb = rng.integers(5, 9, size=2)
            h = list(alphabet[rng.integers(0, 3, size=na)])
            r = list(alphabet[rng.integers(0, 3, size=nb)])
            lcs = brute_force_lcs(h, r)
            score = rougeL_f(" ".join(h), " ".join(r))
            assert score.precision == pytest.approx(lcs / len(h), abs=1e-12)
            assert score.recall == pytest.approx(lcs / len(r), abs=1e-12)

    @given(st.lists(st.sampled_from("abc"), max_size=10),
           st.lists(st.sampled_from("abc"), max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_bounds_property(self, h, r):
        score = rougeL_f(" ".join(h), " ".join(r))
        for v in (score.precision, score.recall, score.fmeasure):
            assert 0.0 <= v <= 1.0
        if h and r:
            lcs = score.precision * len(h)
            assert lcs <= min(len(h), len(r)) + 1e-9


class TestRelativePerformance:
    def test_micro_f1_reproduction(self):
        p = relative_performance(pairs_of(FOURIER_MICRO, BASELINE_MICRO))
        assert abs(100 * p - 87.4) <= 0.1

    def test_macro_f1_reproduction(self):
        p = relative_performance(pairs_of(FOURIER_MACRO, BASELINE_MACRO))
        assert abs(100 * p - 82.4) <= 0.1

    def test_hartley_micro_f1_reproduction(self):
        p = relative_performance(pairs_of(HARTLEY_MICRO, BASELINE_MICRO))
        assert abs(100 * p - 93.9) <= 0.1

    def test_all_equal_is_one(self):
        assert relative_performance(pairs_of([3.0, 5.0], [3.0, 5.0])) == 1.0

    def test_scale_covariance(self):
        base = relative_performance(pairs_of(FOURIER_MICRO, BASELINE_MICRO))
        doubled = relative_performance(pairs_of([2 * c for c in FOURIER_MICRO], BASELINE_MICRO))
        assert doubled == pytest.approx(2 * base, rel=1e-12)

    def test_task_mean_not_ratio_of_means(self):
        # [2/1, 2/4] -> mean 1.25, while sum ratio would be 4/5
        p = relative_performance(pairs_of([2.0, 2.0], [1.0, 4.0]))
        assert p == pytest.approx(1.25)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            relative_performance([])

    def test_nonpositive_reference_rejected(self):
        with pytest.raises(ValueError, match="taskX"):
            relative_performance([TaskMetricPair(1.0, 0.0, task="taskX")])

