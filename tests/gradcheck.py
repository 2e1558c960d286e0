"""Finite-difference gradient checking used across the op tests.

The oracle never touches the backward pass: it re-evaluates the forward
function with perturbed float64 inputs and compares central differences
against whatever the tape produced.
"""

import numpy as np

from kneegrade import tensor as T


def numeric_grad(f, arrays, index, h=1e-5, coords=None):
    """Central-difference gradient of scalar ``f(*arrays)`` w.r.t. one input.

    Differences every element, or only the flat indices in ``coords`` (the
    rest of the result stays 0).
    """
    base = [a.copy() for a in arrays]
    target = base[index]
    g = np.zeros_like(target)
    for flat in range(target.size) if coords is None else coords:
        idx = np.unravel_index(flat, target.shape)
        orig = target[idx]
        target[idx] = orig + h
        hi = f(*base)
        target[idx] = orig - h
        lo = f(*base)
        target[idx] = orig
        g[idx] = (hi - lo) / (2.0 * h)
    return g


def max_rel_error(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-3)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def check_param_gradients(forward, tensors, h=1e-5, tol=1e-4):
    """Gradient check against live module parameters.

    ``forward`` takes no arguments and rebuilds the loss from the current
    ``.data`` of every tensor in ``tensors`` (module parameters plus inputs).
    It must be deterministic across calls: reseed any rng it consumes.
    """
    for t in tensors:
        t.grad = None
        assert t.data.dtype == np.float64, "gradient checks need float64 tensors"
    loss = forward()
    T.backward(loss)
    worst = 0.0
    for i, t in enumerate(tensors):
        assert t.grad is not None, f"tensor {i} received no gradient"
        num = np.zeros_like(t.data)
        it = np.nditer(t.data, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = t.data[idx]
            t.data[idx] = orig + h
            hi = float(forward().data)
            t.data[idx] = orig - h
            lo = float(forward().data)
            t.data[idx] = orig
            num[idx] = (hi - lo) / (2.0 * h)
            it.iternext()
        err = max_rel_error(t.grad, num)
        assert err < tol, f"tensor {i}: max relative error {err:.3e} >= {tol:g}"
        worst = max(worst, err)
    return worst


def check_gradients(build, arrays, h=1e-5, tol=1e-4, samples=None):
    """Compare tape gradients with central differences for every input.

    ``build`` maps a list of Tensors to a scalar Tensor; it is re-invoked
    from scratch for every numeric evaluation so stateful ops (dropout and
    friends) must be seeded inside it. With ``samples``, an input larger than
    that is checked at ``samples`` coordinates drawn with a fixed seed
    instead of at all of them.

    Returns the worst relative error seen.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    tensors = [T.Tensor(a, requires_grad=True, dtype=np.float64) for a in arrays]
    loss = build(tensors)
    T.backward(loss)

    def forward(*vals):
        ts = [T.Tensor(v, dtype=np.float64) for v in vals]
        ts[0].requires_grad = True  # keep the graph alive without gradients mattering
        return float(build(ts).data)

    worst = 0.0
    for i, t in enumerate(tensors):
        assert t.grad is not None, f"input {i} received no gradient"
        coords = None
        if samples is not None and samples < t.data.size:
            coords = np.random.default_rng(i).choice(t.data.size, samples, replace=False)
        num = numeric_grad(forward, arrays, i, h=h, coords=coords)
        if coords is None:
            err = max_rel_error(t.grad, num)
        else:
            err = max_rel_error(t.grad.ravel()[coords], num.ravel()[coords])
        assert err < tol, f"input {i}: max relative error {err:.3e} >= {tol:g}"
        worst = max(worst, err)
    return worst


def float64(module):
    """Cast a built module's parameters and buffers to float64, in place.

    Modules build in float32; central differences need float64 to resolve,
    so a gradient check casts the module first. Returns ``module``.
    """
    for m in module.modules():
        for p in m._params.values():
            p.data = p.data.astype(np.float64)
        for name, b in m._buffers.items():
            m.register_buffer(name, b.astype(np.float64))
    return module
