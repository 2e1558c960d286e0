"""Tiny module system: parameter registration, train/eval mode, layers.

Parameters are Tensors flagged ``requires_grad``; buffers are plain numpy
arrays (batch-norm running statistics). Both are reachable by dotted name
through ``named_parameters`` / ``named_buffers``, and ``state_arrays`` flattens
everything for serialization and checksums.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ConfigurationError, WeightLoadError
from .tensor import Tensor


class Parameter(Tensor):
    def __init__(self, data, dtype=None):
        super().__init__(data, requires_grad=True, dtype=dtype)


class Module:
    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "_children", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._params[name] = value
        elif isinstance(value, Module):
            self._children[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name, array):
        self._buffers[name] = array
        object.__setattr__(self, name, array)

    def add_child(self, name, module):
        """Register a child under a name that is not an attribute (lists, dicts)."""
        self._children[name] = module
        return module

    def named_parameters(self, prefix=""):
        for name, p in self._params.items():
            yield (f"{prefix}{name}", p)
        for name, child in self._children.items():
            yield from child.named_parameters(f"{prefix}{name}.")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix=""):
        for name, b in self._buffers.items():
            yield (f"{prefix}{name}", b)
        for name, child in self._children.items():
            yield from child.named_buffers(f"{prefix}{name}.")

    def state_arrays(self, prefix=""):
        """All parameters and buffers as plain arrays, keyed by dotted name."""
        out = {name: p.data for name, p in self.named_parameters(prefix)}
        out.update({name: b for name, b in self.named_buffers(prefix)})
        return out

    def load_state_arrays(self, arrays, prefix=""):
        """Copy ``arrays`` into the parameters and buffers, in place.

        The one weight loader: names must match ``state_arrays(prefix)``
        exactly and every shape must agree, else WeightLoadError and the
        module is left as it was.
        """
        targets = self.state_arrays(prefix)
        odd = sorted(set(targets) ^ set(arrays))
        if odd:
            kind = "missing" if odd[0] in targets else "unexpected"
            raise WeightLoadError(f"{kind} tensor {odd[0]!r}")
        for name, dst in targets.items():
            if tuple(arrays[name].shape) != dst.shape:
                raise WeightLoadError(f"shape mismatch for {name!r}: "
                                      f"file {tuple(arrays[name].shape)}, model {dst.shape}")
        for name, dst in targets.items():
            dst[...] = arrays[name]

    def modules(self):
        yield self
        for child in self._children.values():
            yield from child.modules()

    def train(self, flag=True):
        for m in self.modules():
            object.__setattr__(m, "training", flag)
        return self

    def eval(self):
        return self.train(False)

    def set_trainable(self, flag):
        """Freeze or thaw every parameter below this module.

        Frozen batch-norm layers also stop updating running statistics, so a
        frozen subtree stays bit-identical however many steps run over it.
        """
        for m in self.modules():
            for p in m._params.values():
                p.requires_grad = bool(flag)
            if isinstance(m, BatchNorm2d):
                m.stats_frozen = not flag
        return self

    def zero_grad(self):
        for p in self.parameters():
            p.grad = None

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


def he_normal(rng, shape, fan_in, dtype):
    return (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(dtype)


class Conv2d(Module):
    """Bias-free, like every conv in the model; batch norm would cancel a bias."""

    def __init__(self, in_channels, out_channels, kernel, rng, stride=1,
                 padding=0, groups=1, dtype=np.float32):
        super().__init__()
        if in_channels % groups or out_channels % groups:
            raise ConfigurationError(
                f"Conv2d: groups={groups} must divide channels {in_channels}->{out_channels}")
        self.stride, self.padding, self.groups = stride, padding, groups
        fan_in = (in_channels // groups) * kernel * kernel
        self.weight = Parameter(
            he_normal(rng, (out_channels, in_channels // groups, kernel, kernel), fan_in, dtype),
            dtype=dtype)

    def forward(self, x):
        return T.conv2d(x, self.weight, stride=self.stride,
                        padding=self.padding, groups=self.groups)


class BatchNorm2d(Module):
    def __init__(self, channels, dtype=np.float32):
        super().__init__()
        self.stats_frozen = False
        self.gamma = Parameter(np.ones(channels, dtype=dtype), dtype=dtype)
        self.beta = Parameter(np.zeros(channels, dtype=dtype), dtype=dtype)
        self.register_buffer("running_mean", np.zeros(channels, dtype=dtype))
        self.register_buffer("running_var", np.ones(channels, dtype=dtype))

    @property
    def batch_stats(self):
        """True when forward normalizes by, and updates from, batch statistics."""
        return self.training and not self.stats_frozen

    def forward(self, x):
        return T.batch_norm2d(x, self.gamma, self.beta, self.running_mean,
                              self.running_var, training=self.batch_stats)


def conv_bn(conv, bn, x, act="relu"):
    """``act(bn(conv(x)))`` as one :func:`~kneegrade.tensor.conv_bn_act` node;
    ``act`` is "relu" or None."""
    return T.conv_bn_act(x, conv.weight, bn.gamma, bn.beta, bn.running_mean,
                         bn.running_var, training=bn.batch_stats, act=act,
                         stride=conv.stride, padding=conv.padding, groups=conv.groups)


class Linear(Module):
    def __init__(self, in_features, out_features, rng, bias=True, dtype=np.float32):
        super().__init__()
        self.weight = Parameter(
            he_normal(rng, (out_features, in_features), in_features, dtype), dtype=dtype)
        self.bias = Parameter(np.zeros(out_features, dtype=dtype), dtype=dtype) if bias else None

    def forward(self, x):
        return T.linear(x, self.weight, self.bias)


class Dropout(Module):
    """Inverted dropout driven by an owned generator; replace ``rng`` to reseed."""

    def __init__(self, p):
        super().__init__()
        self.p = float(p)
        self.rng = np.random.default_rng(0)

    def forward(self, x):
        return T.dropout(x, self.p, training=self.training, rng=self.rng)
