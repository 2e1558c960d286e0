"""Metrics against longhand definition oracles."""

import concurrent.futures

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kneegrade import metrics
from kneegrade.errors import BootstrapError, ConfigurationError, MetricUndefinedError
from kneegrade.metrics import (
    MetricWithCI,
    average_precision,
    average_precision_rows,
    balanced_accuracy,
    balanced_accuracy_rows,
    binarize_probs,
    bootstrap_ci,
    bootstrap_rows,
    cohen_kappa,
    confusion_matrix,
    f1_macro,
    kappa_rows,
    kappa_weights,
    mse_grades,
    pr_curve,
    resample_indices,
    resample_matrix,
    roc_auc,
    roc_auc_rows,
    roc_curve,
)


def kappa_oracle(y_true, y_pred, k, q):
    """Straight from the definition, all loops."""
    n = len(y_true)
    o = np.zeros((k, k))
    for t, p in zip(y_true, y_pred):
        o[t, p] += 1.0 / n
    rows = o.sum(axis=1)
    cols = o.sum(axis=0)
    num = 0.0
    den = 0.0
    for i in range(k):
        for j in range(k):
            if q == 0:
                w = 1.0 if i != j else 0.0
            else:
                w = (abs(i - j) / (k - 1)) ** q
            num += w * o[i, j]
            den += w * rows[i] * cols[j]
    return 1.0 - num / den


def mann_whitney_auc(y_true, scores):
    """Tie-adjusted pairwise comparison, all loops."""
    pos = [s for t, s in zip(y_true, scores) if t == 1]
    neg = [s for t, s in zip(y_true, scores) if t == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestKappa:
    def test_worked_example_quadratic(self):
        y_true = [0, 0, 1, 2, 3]
        y_pred = [0, 1, 1, 2, 2]
        got = cohen_kappa(y_true, y_pred, 4, "quadratic")
        assert got == pytest.approx(kappa_oracle(y_true, y_pred, 4, 2), abs=1e-12)
        assert got == pytest.approx(19.0 / 24.0, abs=1e-9)

    def test_worked_example_linear_and_unweighted(self):
        y_true = [0, 0, 1, 2, 3]
        y_pred = [0, 1, 1, 2, 2]
        for weighting, q in (("none", 0), ("linear", 1)):
            got = cohen_kappa(y_true, y_pred, 4, weighting)
            assert got == pytest.approx(kappa_oracle(y_true, y_pred, 4, q), abs=1e-12)

    def test_perfect_agreement_with_spread(self):
        y = [0, 1, 2, 3, 1, 2]
        assert cohen_kappa(y, y, 4) == pytest.approx(1.0)

    def test_random_arrays_match_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            k = int(rng.integers(2, 6))
            n = int(rng.integers(5, 40))
            t = rng.integers(0, k, size=n)
            p = rng.integers(0, k, size=n)
            try:
                expect = kappa_oracle(t, p, k, 2)
            except ZeroDivisionError:
                with pytest.raises(MetricUndefinedError):
                    cohen_kappa(t, p, k)
                continue
            assert cohen_kappa(t, p, k) == pytest.approx(expect, abs=1e-12)

    def test_label_reversal_invariance(self):
        rng = np.random.default_rng(11)
        k = 5
        t = rng.integers(0, k, size=60)
        p = rng.integers(0, k, size=60)
        for weighting in ("none", "linear", "quadratic"):
            a = cohen_kappa(t, p, k, weighting)
            b = cohen_kappa(k - 1 - t, k - 1 - p, k, weighting)
            assert a == pytest.approx(b, abs=1e-12)

    def test_degenerate_sample_raises(self):
        with pytest.raises(MetricUndefinedError):
            cohen_kappa([1, 1, 1], [1, 1, 1], 5)

    def test_empty_raises(self):
        with pytest.raises(MetricUndefinedError):
            cohen_kappa([], [], 5)

    def test_bad_weighting_rejected(self):
        with pytest.raises(ConfigurationError):
            cohen_kappa([0, 1], [0, 1], 2, "cubic")

    def test_out_of_range_labels_rejected(self):
        with pytest.raises(ConfigurationError):
            cohen_kappa([0, 5], [0, 1], 5)

    def test_weight_matrix_values(self):
        w = kappa_weights(4, "quadratic")
        assert w[0, 0] == 0.0
        assert w[0, 3] == pytest.approx(1.0)
        assert w[0, 1] == pytest.approx(1.0 / 9.0)
        u = kappa_weights(3, "none")
        assert u.tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


class TestBalancedAccuracy:
    def test_only_present_classes_count(self):
        # class 3 never occurs in y_true; recall averaged over 0..2 only
        t = [0, 0, 1, 2]
        p = [0, 1, 1, 2]
        assert balanced_accuracy(t, p, 4) == pytest.approx((0.5 + 1.0 + 1.0) / 3 * 100)

    def test_perfect_is_100(self):
        assert balanced_accuracy([0, 1, 2], [0, 1, 2], 3) == pytest.approx(100.0)

    def test_empty_raises(self):
        with pytest.raises(MetricUndefinedError):
            balanced_accuracy([], [], 3)


class TestF1:
    def test_harmonic_matches_longhand(self):
        t = [0, 0, 1, 1, 2, 2, 2]
        p = [0, 1, 1, 1, 0, 2, 2]
        # class 0: P=1/2, R=1/2, F=1/2; class 1: P=2/3, R=1; F=4/5
        # class 2: P=1, R=2/3, F=4/5
        expect = (0.5 + 0.8 + 0.8) / 3
        assert f1_macro(t, p, 3) == pytest.approx(expect, abs=1e-12)

    def test_geometric_variant(self):
        t = [0, 0, 1, 1, 2, 2, 2]
        p = [0, 1, 1, 1, 0, 2, 2]
        expect = (np.sqrt(0.25) + np.sqrt(2 / 3) + np.sqrt(2 / 3)) / 3
        assert f1_macro(t, p, 3, variant="geometric") == pytest.approx(expect, abs=1e-12)

    def test_geometric_at_least_harmonic(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            t = rng.integers(0, 4, size=30)
            p = rng.integers(0, 4, size=30)
            assert f1_macro(t, p, 4, "geometric") >= f1_macro(t, p, 4, "harmonic") - 1e-12

    def test_absent_class_skipped_predicted_only_counts(self):
        # class 2 appears only in predictions: P=0, R=0 there -> contributes 0
        t = [0, 0, 1]
        p = [0, 2, 1]
        expect = (2 / 3 + 1.0 + 0.0) / 3
        assert f1_macro(t, p, 4) == pytest.approx(expect, abs=1e-12)

    def test_bad_variant(self):
        with pytest.raises(ConfigurationError):
            f1_macro([0], [0], 2, variant="arith")


class TestMSE:
    def test_values(self):
        assert mse_grades([0, 1, 4], [0, 3, 4], 5) == pytest.approx(4.0 / 3.0)

    def test_empty(self):
        with pytest.raises(MetricUndefinedError):
            mse_grades([], [], 5)


class TestBinarize:
    def test_kl_threshold_two(self):
        probs = np.array([[0.5, 0.2, 0.1, 0.1, 0.1],
                          [0.0, 0.1, 0.3, 0.3, 0.3]])
        labels, scores = binarize_probs([1, 3], probs, 2)
        assert labels.tolist() == [0, 1]
        assert scores == pytest.approx([0.3, 0.9])

    def test_oarsi_threshold_one(self):
        probs = np.array([[0.7, 0.1, 0.1, 0.1]])
        labels, scores = binarize_probs([0], probs, 1)
        assert labels.tolist() == [0]
        assert scores == pytest.approx([0.3])

    def test_threshold_range_checked(self):
        with pytest.raises(ConfigurationError):
            binarize_probs([0], np.ones((1, 4)) / 4, 4)


class TestROC:
    def test_auc_equals_mann_whitney_with_ties(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            n = int(rng.integers(6, 40))
            t = rng.integers(0, 2, size=n)
            if t.min() == t.max():
                t[0] = 1 - t[0]
            # coarse grid forces ties
            s = rng.integers(0, 5, size=n) / 4.0
            assert roc_auc(t, s) == pytest.approx(mann_whitney_auc(t, s), abs=1e-12)

    def test_perfect_separation(self):
        assert roc_auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == pytest.approx(1.0)

    def test_reversed_scores(self):
        assert roc_auc([0, 0, 1, 1], [0.9, 0.8, 0.2, 0.1]) == pytest.approx(0.0)

    def test_all_tied_is_half(self):
        assert roc_auc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == pytest.approx(0.5)

    def test_curve_endpoints(self):
        fpr, tpr, thresholds, _ = roc_curve([0, 1, 1, 0], [0.3, 0.6, 0.8, 0.1])
        assert fpr[0] == 0.0 and tpr[0] == 0.0
        assert fpr[-1] == 1.0 and tpr[-1] == 1.0
        assert thresholds[0] == np.inf

    def test_single_class_raises(self):
        with pytest.raises(MetricUndefinedError):
            roc_curve([1, 1, 1], [0.1, 0.2, 0.3])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 6)), min_size=4, max_size=30))
    def test_auc_matches_pairwise_statistic(self, pairs):
        t = np.array([a for a, _ in pairs])
        s = np.array([b for _, b in pairs], dtype=float) / 6.0
        if t.min() == t.max():
            return
        assert roc_auc(t, s) == pytest.approx(mann_whitney_auc(t, s), abs=1e-12)


class TestPR:
    def test_average_precision_longhand(self):
        # scores descending: labels 1,0,1,1 -> R,P pairs (1/3,1),(1/3,1/2),(2/3,2/3),(1,3/4)
        t = [1, 0, 1, 1]
        s = [0.9, 0.8, 0.7, 0.6]
        expect = (1 / 3) * 1.0 + 0.0 + (1 / 3) * (2 / 3) + (1 / 3) * 0.75
        assert average_precision(t, s) == pytest.approx(expect, abs=1e-12)

    def test_perfect_ranking_is_one(self):
        assert average_precision([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == pytest.approx(1.0)

    def test_curve_starts_at_zero_recall(self):
        recall, precision, thresholds, _ = pr_curve([0, 1], [0.2, 0.8])
        assert recall[0] == 0.0 and precision[0] == 1.0
        assert recall[-1] == 1.0

    def test_no_positives_raises(self):
        with pytest.raises(MetricUndefinedError):
            pr_curve([0, 0], [0.1, 0.2])


class TestBootstrap:
    def test_stratum_sizes_preserved_exactly(self):
        strata = np.array([0] * 7 + [1] * 13 + [2] * 5)
        for it in range(10):
            idx = resample_indices(strata, seed=3, iteration=it)
            resampled = strata[idx]
            assert (resampled == 0).sum() == 7
            assert (resampled == 1).sum() == 13
            assert (resampled == 2).sum() == 5

    def test_resample_depends_only_on_seed_and_iteration(self):
        strata = np.array([0, 0, 1, 1, 1])
        a = resample_indices(strata, seed=9, iteration=4)
        b = resample_indices(strata, seed=9, iteration=4)
        c = resample_indices(strata, seed=9, iteration=5)
        assert a.tolist() == b.tolist()
        assert a.tolist() != c.tolist()

    def test_point_estimate_from_original_sample(self):
        rng = np.random.default_rng(0)
        t = rng.integers(0, 4, size=80)
        p = np.clip(t + rng.integers(-1, 2, size=80), 0, 3)
        stat = lambda a, b: cohen_kappa(a, b, 4)
        res = bootstrap_ci(stat, t, p, n_iterations=100, seed=1)
        assert res.point == pytest.approx(cohen_kappa(t, p, 4))
        assert res.lo <= res.hi
        assert res.n_failed == 0

    def test_interval_usually_contains_point(self):
        rng = np.random.default_rng(2)
        t = rng.integers(0, 4, size=120)
        p = np.clip(t + rng.integers(-1, 2, size=120), 0, 3)
        stat = lambda a, b: cohen_kappa(a, b, 4)
        res = bootstrap_ci(stat, t, p, n_iterations=100, seed=5)
        assert not res.point_outside_interval

    def test_parallel_matches_serial(self):
        rng = np.random.default_rng(4)
        t = rng.integers(0, 5, size=60)
        p = rng.integers(0, 5, size=60)
        stat = lambda a, b: balanced_accuracy(a, b, 5)
        serial = bootstrap_ci(stat, t, p, n_iterations=64, seed=11)
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            parallel = bootstrap_ci(stat, t, p, n_iterations=64, seed=11, executor=pool)
        assert serial == parallel

    def test_undefined_point_estimate_propagates(self):
        t = np.zeros(10, dtype=int)
        stat = lambda a, b: cohen_kappa(a, b, 5)
        with pytest.raises(MetricUndefinedError):
            bootstrap_ci(stat, t, t.copy(), n_iterations=50, seed=0)

    def test_too_many_undefined_iterations_raise(self):
        calls = {"n": 0}

        def stat(a, b):
            calls["n"] += 1
            if calls["n"] > 1:   # point estimate fine, every resample fails
                raise MetricUndefinedError("synthetic failure")
            return 0.5

        with pytest.raises(BootstrapError) as err:
            bootstrap_ci(stat, np.zeros(10, dtype=int), np.zeros(10, dtype=int),
                         n_iterations=50, seed=0)
        assert "50/50" in str(err.value)

    def test_some_undefined_iterations_excluded(self):
        calls = {"n": 0}

        def stat(a, b):
            calls["n"] += 1
            if calls["n"] % 10 == 0:
                raise MetricUndefinedError("synthetic failure")
            return float(np.mean(a == b))

        rng = np.random.default_rng(8)
        t = rng.integers(0, 3, size=30)
        res = bootstrap_ci(stat, t, t.copy(), n_iterations=100, seed=2)
        assert res.n_failed == 10
        assert res.lo <= res.point <= res.hi

    def test_custom_strata(self):
        t = np.array([0, 0, 1, 1, 2, 2])
        strata = np.array([0, 1, 0, 1, 0, 1])
        idx = resample_indices(strata, seed=0, iteration=0)
        assert (strata[idx] == 0).sum() == 3
        assert (strata[idx] == 1).sum() == 3

    def test_ci_to_dict_flags_escape(self):
        m = MetricWithCI(point=0.9, lo=0.1, hi=0.5, n_bootstrap=10, level=0.95)
        assert m.point_outside_interval
        assert m.to_dict()["point_outside_interval"] is True

    def test_empty_sample(self):
        with pytest.raises(MetricUndefinedError):
            bootstrap_ci(lambda a, b: 0.0, [], [], seed=0)


def resample_oracle(strata, seed, iteration):
    """One stratified resample, longhand: one draw per stratum in sorted label order."""
    strata = np.asarray(strata)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xb007, iteration]))
    out = []
    for label in np.unique(strata):
        members = np.nonzero(strata == label)[0]
        out.extend(members[rng.integers(0, members.size, size=members.size)])
    return np.array(out, dtype=np.int64)


def scalar_rows(statistic, a, b, idx):
    """``statistic`` on each resample row, NaN where it is undefined."""
    out = []
    for row in idx:
        try:
            out.append(statistic(a[row], b[row]))
        except MetricUndefinedError:
            out.append(np.nan)
    return np.array(out)


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


labelled = st.integers(2, 5).flatmap(lambda k: st.tuples(
    st.just(k),
    st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), min_size=1, max_size=40),
    st.integers(0, 2**31 - 1)))


class TestBatchedBootstrap:
    @pytest.mark.parametrize("seed", [0, 1, 9, 12345])
    def test_matrix_rows_are_resample_indices(self, seed):
        # the stratum of label 7 holds a single sample
        strata = np.array([3, 0, 3, 7, 0, 0, 3, 5, 5, 3, 0, 5])
        idx = resample_matrix(strata, seed, 40)
        assert idx.shape == (40, strata.size)
        for it in range(40):
            assert idx[it].tolist() == resample_oracle(strata, seed, it).tolist()
            assert resample_indices(strata, seed, it).tolist() == idx[it].tolist()
        tail = resample_matrix(strata, seed, 5, start=35)
        assert tail.tolist() == idx[35:].tolist()

    def test_matrix_of_singleton_strata_is_identity(self):
        strata = np.array([4, 1, 3, 0])
        assert resample_matrix(strata, 2, 3).tolist() == [[3, 1, 2, 0]] * 3

    @settings(max_examples=40, deadline=None)
    @given(labelled)
    def test_kappa_and_balanced_accuracy_rows_bit_for_bit(self, case):
        k, pairs, seed = case
        t = np.array([a for a, _ in pairs])
        p = np.array([b for _, b in pairs])
        idx = np.random.default_rng(seed).integers(0, t.size, size=(25, t.size))
        for weighting in ("none", "linear", "quadratic"):
            want = scalar_rows(lambda a, b: cohen_kappa(a, b, k, weighting), t, p, idx)
            assert same_bits(kappa_rows(t, p, idx, k, weighting), want)
        want = scalar_rows(lambda a, b: balanced_accuracy(a, b, k), t, p, idx)
        assert same_bits(balanced_accuracy_rows(t, p, idx, k), want)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 5)), min_size=1, max_size=40),
           st.integers(0, 2**31 - 1))
    def test_auc_and_ap_rows_match_scalar_with_ties(self, pairs, seed):
        t = np.array([a for a, _ in pairs])
        s = np.array([b for _, b in pairs], dtype=float) / 5.0   # a coarse grid: ties
        idx = np.random.default_rng(seed).integers(0, t.size, size=(25, t.size))
        for rows, scalar in ((roc_auc_rows, roc_auc), (average_precision_rows, average_precision)):
            got = rows(t, s, idx)
            want = scalar_rows(scalar, t, s, idx)
            assert np.array_equal(np.isnan(got), np.isnan(want))
            assert np.allclose(got, want, rtol=0.0, atol=1e-12, equal_nan=True)

    def test_rows_of_the_whole_sample_are_the_point_values(self):
        rng = np.random.default_rng(6)
        t = rng.integers(0, 4, size=50)
        p = np.clip(t + rng.integers(-1, 2, size=50), 0, 3)
        s = rng.integers(0, 7, size=50) / 6.0
        whole = np.arange(50)[None]
        assert kappa_rows(t, p, whole, 4)[0] == cohen_kappa(t, p, 4)
        assert balanced_accuracy_rows(t, p, whole, 4)[0] == balanced_accuracy(t, p, 4)
        b = (t >= 2).astype(int)
        assert roc_auc_rows(b, s, whole)[0] == roc_auc(b, s)
        assert average_precision_rows(b, s, whole)[0] == average_precision(b, s)

    def test_undefined_kappa_fails_as_in_bootstrap_ci(self, monkeypatch):
        # one stratum over a sample that is mostly one label: some resamples
        # hold that label alone, where kappa has no value
        t = np.array([0, 0, 0, 0, 0, 1])
        p = t.copy()
        strata = np.zeros(t.size, dtype=int)
        stat = lambda a, b: cohen_kappa(a, b, 2)
        with monkeypatch.context() as patch:
            patch.setattr(metrics, "MAX_FAILURE_FRACTION", 0.9)
            want = bootstrap_ci(stat, t, p, n_iterations=200, seed=3, strata=strata)
            got = bootstrap_rows({"kappa": (stat(t, p), lambda idx: kappa_rows(t, p, idx, 2))},
                                 strata, n_iterations=200, seed=3)
        assert 0 < want.n_failed < 200
        assert got["kappa"] == want
        with pytest.raises(BootstrapError, match=f"{want.n_failed}/200"):
            bootstrap_rows({"kappa": (1.0, lambda idx: kappa_rows(t, p, idx, 2))},
                           strata, n_iterations=200, seed=3)

    def test_intervals_match_bootstrap_ci(self):
        rng = np.random.default_rng(10)
        t = rng.integers(0, 5, size=90)
        p = np.clip(t + rng.integers(-1, 2, size=90), 0, 4)
        b = (t >= 2).astype(int)
        s = np.round(rng.random(90) * 0.5 + 0.5 * b, 2)
        kappa = lambda x, y: cohen_kappa(x, y, 5)
        ba = lambda x, y: balanced_accuracy(x, y, 5)
        got = bootstrap_rows({
            "kappa": (kappa(t, p), lambda idx: kappa_rows(t, p, idx, 5)),
            "ba": (ba(t, p), lambda idx: balanced_accuracy_rows(t, p, idx, 5)),
            "auc": (roc_auc(b, s), lambda idx: roc_auc_rows(b, s, idx)),
            "ap": (average_precision(b, s), lambda idx: average_precision_rows(b, s, idx)),
        }, t, n_iterations=150, level=0.9, seed=8)
        for name, stat, x, y in (("kappa", kappa, t, p), ("ba", ba, t, p)):
            assert got[name] == bootstrap_ci(stat, x, y, n_iterations=150, level=0.9,
                                             seed=8, strata=t)
        for name, stat in (("auc", roc_auc), ("ap", average_precision)):
            want = bootstrap_ci(stat, b, s, n_iterations=150, level=0.9, seed=8, strata=t)
            assert got[name].point == want.point
            assert got[name].n_failed == want.n_failed == 0
            assert got[name].lo == pytest.approx(want.lo, abs=1e-12)
            assert got[name].hi == pytest.approx(want.hi, abs=1e-12)

    def test_blocks_do_not_change_the_result(self, monkeypatch):
        rng = np.random.default_rng(12)
        t = rng.integers(0, 3, size=40)
        p = rng.integers(0, 3, size=40)
        stats = {"kappa": (cohen_kappa(t, p, 3), lambda idx: kappa_rows(t, p, idx, 3))}
        whole = bootstrap_rows(stats, t, n_iterations=50, seed=1)
        monkeypatch.setattr(metrics, "_BLOCK_BYTES", 8 * 40 * 7)   # blocks of 7 rows
        assert bootstrap_rows(stats, t, n_iterations=50, seed=1) == whole

    def test_bootstrap_ci_across_blocks_and_threads(self):
        # 3,000 samples give 43 rows per block, so 150 iterations span four
        rng = np.random.default_rng(14)
        t = rng.integers(0, 4, size=3000)
        p = np.clip(t + rng.integers(-1, 2, size=3000), 0, 3)
        assert metrics._BLOCK_BYTES // (8 * t.size) == 43

        def stat(a, b):   # undefined on a resample by its content, not by call order
            if int((3 * a + b).sum()) % 7 == 0:
                raise MetricUndefinedError("sum divisible by 7")
            return float(np.mean(a == b))

        values = []
        for it in range(150):
            row = resample_oracle(t, 5, it)
            try:
                values.append(stat(t[row], p[row]))
            except MetricUndefinedError:
                pass
        alpha = (1.0 - 0.9) / 2.0
        lo, hi = np.percentile(values, [100.0 * alpha, 100.0 * (1.0 - alpha)])
        want = MetricWithCI(point=stat(t, p), lo=float(lo), hi=float(hi), n_bootstrap=150,
                            level=0.9, n_failed=150 - len(values))
        assert 0 < want.n_failed < 30
        assert bootstrap_ci(stat, t, p, n_iterations=150, level=0.9, seed=5) == want
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            assert bootstrap_ci(stat, t, p, n_iterations=150, level=0.9, seed=5,
                                executor=pool) == want

    def test_binary_labels_checked(self):
        with pytest.raises(ConfigurationError):
            roc_auc_rows([0, 2, 1], [0.1, 0.2, 0.3], np.zeros((1, 3), dtype=int))


class TestConfusion:
    def test_counts(self):
        m = confusion_matrix([0, 0, 1, 2], [0, 1, 1, 2], 3)
        assert m.tolist() == [[1, 1, 0], [0, 1, 0], [0, 0, 1]]

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            confusion_matrix([0, 1], [0], 2)
