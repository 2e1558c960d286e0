"""Tests of the benchmark's reference computations.

    PYTHONPATH=src python3 -m pytest bench/test_reference.py -q
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from common import use_source_tree

use_source_tree()

import reference as R  # noqa: E402
from kneegrade import tensor as T  # noqa: E402
from kneegrade.metrics import cohen_kappa  # noqa: E402


def scalar_conv(x, w, b, stride, padding, groups):
    n, cin, h, wd = x.shape
    cout, cg, kh, kw = w.shape
    og = cout // groups
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, cout, ho, wo))
    for b_, o, i, j in itertools.product(range(n), range(cout), range(ho), range(wo)):
        g = o // og
        acc = 0.0 if b is None else b[o]
        for c, ki, kj in itertools.product(range(cg), range(kh), range(kw)):
            y, xx = i * stride + ki - padding, j * stride + kj - padding
            if 0 <= y < h and 0 <= xx < wd:
                acc += x[b_, g * cg + c, y, xx] * w[o, c, ki, kj]
        out[b_, o, i, j] = acc
    return out


@pytest.mark.parametrize("stride,padding,groups,bias", [
    (1, 1, 1, False), (2, 1, 1, True), (2, 0, 2, False), (1, 0, 2, True)])
def test_conv_ref_matches_scalar_loops(stride, padding, groups, bias):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 4, 7, 6))
    w = rng.standard_normal((6, 4 // groups, 3, 3))
    b = rng.standard_normal(6) if bias else None
    np.testing.assert_allclose(R.conv2d_ref(x, w, b, stride, padding, groups),
                               scalar_conv(x, w, b, stride, padding, groups),
                               rtol=1e-12, atol=1e-12)


def test_bn_ref_training_normalizes_and_updates_running_stats():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 2, 4, 5)) * 3.0 + 2.0
    out, rm, rv = R.batch_norm2d_ref(x, np.ones(2), np.zeros(2), np.zeros(2), np.ones(2),
                                     training=True, momentum=0.1, eps=0.0)
    np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.var(axis=(0, 2, 3)), 1.0, rtol=1e-12)
    np.testing.assert_allclose(rm, 0.1 * x.mean(axis=(0, 2, 3)), rtol=1e-12)
    np.testing.assert_allclose(rv, 0.9 + 0.1 * x.var(axis=(0, 2, 3)), rtol=1e-12)


def test_bn_ref_eval_uses_running_stats_and_leaves_them():
    x = np.full((1, 1, 2, 2), 3.0)
    out, rm, rv = R.batch_norm2d_ref(x, [2.0], [0.5], [1.0], [4.0], training=False, eps=0.0)
    np.testing.assert_allclose(out, 2.0 * (3.0 - 1.0) / 2.0 + 0.5)
    assert rm.tolist() == [1.0] and rv.tolist() == [4.0]


@pytest.mark.parametrize("kernel,stride", [(2, 2), (3, 1), (3, 2)])
def test_avg_pool_ref_matches_scalar_loops(kernel, stride):
    x = np.random.default_rng(2).standard_normal((2, 3, 7, 8))
    ho, wo = (7 - kernel) // stride + 1, (8 - kernel) // stride + 1
    want = np.zeros((2, 3, ho, wo))
    for n, c, i, j in itertools.product(range(2), range(3), range(ho), range(wo)):
        want[n, c, i, j] = x[n, c, i * stride:i * stride + kernel,
                             j * stride:j * stride + kernel].mean()
    np.testing.assert_allclose(R.avg_pool2d_ref(x, kernel, stride), want, rtol=1e-12)


def test_gradient_mismatches_accepts_exact_and_flags_wrong_gradients():
    a = np.array([[1.0, -2.0], [0.5, 3.0]])
    loss = lambda: float((a ** 3).sum())  # noqa: E731
    rng = np.random.default_rng(3)
    assert R.gradient_mismatches(loss, {"a": a}, {"a": 3 * a ** 2}, rng, samples=4) == []
    bad = R.gradient_mismatches(loss, {"a": a}, {"a": 3 * a ** 2 + 1e-3}, rng, samples=4)
    assert len(bad) == 4
    assert a.tolist() == [[1.0, -2.0], [0.5, 3.0]]   # restored after probing


def test_quadratic_kappa_brute_known_values():
    assert R.confusion_brute([0, 0, 1, 1, 2, 2], [0, 1, 1, 2, 2, 2], 3) == \
        [[1, 1, 0], [0, 1, 1], [0, 0, 2]]
    # observed sum(w O) = 1/12, expected sum(w E) = 1/3, worked by hand
    assert R.quadratic_kappa_brute([0, 0, 1, 1, 2, 2], [0, 1, 1, 2, 2, 2], 3) == \
        pytest.approx(0.75, abs=1e-15)
    assert R.quadratic_kappa_brute([0, 1, 2, 3], [0, 1, 2, 3], 4) == 1.0


def test_quadratic_kappa_brute_matches_kneegrade_on_random_labels():
    rng = np.random.default_rng(4)
    for k in (4, 5):
        t = rng.integers(0, k, 200)
        p = np.clip(t + rng.integers(-1, 2, 200), 0, k - 1)
        assert abs(R.quadratic_kappa_brute(t, p, k) - cohen_kappa(t, p, k)) < 1e-12


def test_model_layer_shapes_cover_the_default_model():
    ops = [op for op, _ in R.model_layer_shapes(64)]
    assert ops.count("conv2d") == 11 and ops.count("avg_pool2d") == 1
    assert ops.count("batch_norm2d") == 5


def test_check_ops_passes_on_kneegrade():
    n, failures = R.check_ops(sides=(64,), seed=0)
    assert n == 11 + 2 * 5 + 1 and failures == []


def test_check_ops_catches_a_wrong_forward(monkeypatch):
    conv = T.conv2d

    def shifted(*args, **kwargs):
        out = conv(*args, **kwargs)
        out.data = out.data + 1e-3
        return out
    monkeypatch.setattr(T, "conv2d", shifted)
    _, failures = R.check_ops(sides=(64,), seed=0)
    assert failures and all(f.startswith("conv2d") for f in failures)


def test_check_ops_catches_a_wrong_backward(monkeypatch):
    pool = T.avg_pool2d

    def doubled(*args, **kwargs):
        out = pool(*args, **kwargs)
        bwd = out._backward
        if bwd is not None:
            out._backward = lambda g, grads: bwd(2.0 * g, grads)
        return out
    monkeypatch.setattr(T, "avg_pool2d", doubled)
    _, failures = R.check_ops(sides=(64,), seed=0)
    assert failures and all("analytic" in f for f in failures)
