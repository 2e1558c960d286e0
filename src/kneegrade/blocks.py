"""Residual building blocks: SE gating, basic/bottleneck blocks, pooling heads.

Block geometry is declared with :class:`BlockSpec` so a whole backbone is a
plain list of specs (JSON-friendly, hashable into the run config).
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import tensor as T
from .errors import ConfigurationError
from .nn import BatchNorm2d, Conv2d, Linear, Module, conv_bn

BOTTLENECK_EXPANSION = 4


@dataclass(frozen=True)
class BlockSpec:
    kind: str                 # "basic" | "bottleneck"
    in_channels: int
    out_channels: int
    stride: int = 1
    groups: int = 1
    group_width: int = 0      # per-group width of the 3x3 stage; 0 = derive
    se_enabled: bool = False
    se_reduction: int = 16

    def __post_init__(self):
        if self.kind not in ("basic", "bottleneck"):
            raise ConfigurationError(f"block kind {self.kind!r} unknown")
        if self.stride not in (1, 2):
            raise ConfigurationError(f"block stride must be 1 or 2, got {self.stride}")
        if self.groups < 1:
            raise ConfigurationError("groups must be >= 1")
        if self.groups > 1 and self.kind != "bottleneck":
            raise ConfigurationError("grouped convolutions require a bottleneck block")
        if self.kind == "bottleneck":
            if self.out_channels % BOTTLENECK_EXPANSION:
                raise ConfigurationError(
                    f"bottleneck out_channels must be a multiple of {BOTTLENECK_EXPANSION}")
            if self.groups > 1 and self.group_width < 1:
                raise ConfigurationError("grouped bottleneck needs group_width >= 1")
        if self.se_enabled:
            if self.se_reduction < 1 or self.out_channels % self.se_reduction:
                raise ConfigurationError(
                    f"se_reduction={self.se_reduction} must divide out_channels={self.out_channels}")

    def mid_channels(self):
        if self.kind != "bottleneck":
            return self.out_channels
        if self.groups > 1:
            return self.groups * self.group_width
        return self.out_channels // BOTTLENECK_EXPANSION


@dataclass(frozen=True)
class PoolingSpec:
    kind: str = "avg"         # "avg" | "gwap" | "gwap_hidden"
    hidden_width: int = 0     # only for gwap_hidden

    def __post_init__(self):
        if self.kind not in ("avg", "gwap", "gwap_hidden"):
            raise ConfigurationError(f"pooling kind {self.kind!r} unknown")
        if self.kind == "gwap_hidden" and self.hidden_width < 1:
            raise ConfigurationError("gwap_hidden needs hidden_width >= 1")


@dataclass(frozen=True)
class StemSpec:
    out_channels: int = 16
    kernel: int = 3
    stride: int = 1
    pool: int = 2             # avg-pool window after the stem conv; 0 disables

    def __post_init__(self):
        if self.out_channels < 1 or self.kernel < 1 or self.stride < 1 or self.pool < 0:
            raise ConfigurationError(f"invalid stem geometry {asdict(self)}")


class SEGate(Module):
    """Channel gate values sigmoid(W2 relu(W1 globalavg(x))), [N, C].

    The block scales its residual branch by them in its join
    (:func:`~kneegrade.tensor.gate_add_relu`). The two projections carry no
    bias, so all-zero weights gate every channel at exactly 0.5.
    """

    def __init__(self, channels, reduction, rng, dtype=np.float32):
        super().__init__()
        if reduction < 1 or channels % reduction:
            raise ConfigurationError(
                f"SE reduction {reduction} must divide channel count {channels}")
        self.squeeze = Linear(channels, channels // reduction, rng, bias=False, dtype=dtype)
        self.excite = Linear(channels // reduction, channels, rng, bias=False, dtype=dtype)

    def forward(self, x):
        z = T.global_avg_pool(x)
        return T.sigmoid(self.excite(T.relu(self.squeeze(z))))


class ResidualBlock(Module):
    """Pre-activation-free residual block (conv-bn-relu style, post-add relu)."""

    def __init__(self, spec: BlockSpec, rng, dtype=np.float32):
        super().__init__()
        self.spec = spec
        cin, cout, s = spec.in_channels, spec.out_channels, spec.stride
        if spec.kind == "basic":
            self.conv1 = Conv2d(cin, cout, 3, rng, stride=s, padding=1, dtype=dtype)
            self.bn1 = BatchNorm2d(cout, dtype=dtype)
            self.conv2 = Conv2d(cout, cout, 3, rng, padding=1, dtype=dtype)
            self.bn2 = BatchNorm2d(cout, dtype=dtype)
            self.conv3 = None
        else:
            mid = spec.mid_channels()
            self.conv1 = Conv2d(cin, mid, 1, rng, dtype=dtype)
            self.bn1 = BatchNorm2d(mid, dtype=dtype)
            self.conv2 = Conv2d(mid, mid, 3, rng, stride=s, padding=1,
                                groups=spec.groups, dtype=dtype)
            self.bn2 = BatchNorm2d(mid, dtype=dtype)
            self.conv3 = Conv2d(mid, cout, 1, rng, dtype=dtype)
            self.bn3 = BatchNorm2d(cout, dtype=dtype)
        if cin != cout or s != 1:
            self.short_conv = Conv2d(cin, cout, 1, rng, stride=s, dtype=dtype)
            self.short_bn = BatchNorm2d(cout, dtype=dtype)
        else:
            self.short_conv = None
        self.se = SEGate(cout, spec.se_reduction, rng, dtype=dtype) if spec.se_enabled else None

    def forward(self, x):
        y = conv_bn(self.conv1, self.bn1, x)
        if self.conv3 is None:
            y = conv_bn(self.conv2, self.bn2, y, act=None)
        else:
            y = conv_bn(self.conv2, self.bn2, y)
            y = conv_bn(self.conv3, self.bn3, y, act=None)
        gate = None if self.se is None else self.se(y)
        short = x if self.short_conv is None else \
            conv_bn(self.short_conv, self.short_bn, x, act=None)
        return T.gate_add_relu(y, gate, short)


class PoolHead(Module):
    """Collapses [N, C, H, W] features to [N, C].

    ``avg`` is a plain spatial mean. ``gwap`` learns a 1x1 score map whose
    spatial softmax weights the average; a zero score map therefore reproduces
    the plain mean. ``gwap_hidden`` inserts a relu bottleneck before the score
    map. Score convs carry no bias: softmax ignores constant shifts.
    """

    def __init__(self, channels, spec: PoolingSpec, rng, dtype=np.float32):
        super().__init__()
        self.spec = spec
        if spec.kind == "gwap":
            self.score = Conv2d(channels, 1, 1, rng, dtype=dtype)
        elif spec.kind == "gwap_hidden":
            self.hidden = Conv2d(channels, spec.hidden_width, 1, rng, dtype=dtype)
            self.score = Conv2d(spec.hidden_width, 1, 1, rng, dtype=dtype)

    def spatial_weights(self, x):
        n, c, h, w = x.shape
        if self.spec.kind == "avg":
            return T.Tensor(np.full((n, 1, h, w), 1.0 / (h * w), dtype=x.data.dtype))
        s = x
        if self.spec.kind == "gwap_hidden":
            s = T.relu(self.hidden(s))
        s = self.score(s)
        flat = T.softmax(T.reshape(s, (n, h * w)))
        return T.reshape(flat, (n, 1, h, w))

    def forward(self, x):
        if self.spec.kind == "avg":
            return T.global_avg_pool(x)
        n, c, h, w = x.shape
        weights = T.broadcast_to(self.spatial_weights(x), x.shape)
        return T.reduce_sum(T.mul(x, weights), axis=(2, 3))


class Backbone(Module):
    """Stem conv (+ optional pool) followed by the configured residual blocks."""

    def __init__(self, stem: StemSpec, blocks, rng, dtype=np.float32):
        super().__init__()
        self.stem_spec = stem
        self.conv = Conv2d(1, stem.out_channels, stem.kernel, rng, stride=stem.stride,
                           padding=stem.kernel // 2, dtype=dtype)
        self.bn = BatchNorm2d(stem.out_channels, dtype=dtype)
        prev = stem.out_channels
        self.blocks = []
        for i, spec in enumerate(blocks):
            if spec.in_channels != prev:
                raise ConfigurationError(
                    f"block {i}: in_channels={spec.in_channels} but upstream provides {prev}")
            block = ResidualBlock(spec, rng, dtype=dtype)
            self.add_child(f"block{i}", block)
            self.blocks.append(block)
            prev = spec.out_channels
        self.out_channels = prev

    def stem_bytes(self, h, w):
        """Bytes of the stem conv's output for one h x w input image."""
        s = self.stem_spec.stride
        return (self.stem_spec.out_channels * -(-h // s) * -(-w // s)
                * self.conv.weight.data.itemsize)

    def forward(self, x):
        y = conv_bn(self.conv, self.bn, x)
        if self.stem_spec.pool:
            y = T.avg_pool2d(y, self.stem_spec.pool, self.stem_spec.pool)
        for block in self.blocks:
            y = block(y)
        return y
