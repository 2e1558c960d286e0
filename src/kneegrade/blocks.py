"""Residual building blocks: SE gating, basic/bottleneck blocks, pooling heads.

Block geometry is declared with :class:`BlockSpec` so a whole backbone is a
plain list of specs (JSON-friendly, hashable into the run config).
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

from . import tensor as T
from .errors import ConfigurationError, UsageError
from .nn import BatchNorm2d, Conv2d, Linear, Module

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

    Holds the gate's two projections: :func:`~kneegrade.tensor.residual_block`
    computes the gate from their weights inside its block's one node, keeping
    only [N, C] arrays, and ``forward`` computes it with separate ops. They
    carry no bias, so all-zero weights gate every channel at exactly 0.5.
    """

    def __init__(self, channels, reduction, rng):
        super().__init__()
        if reduction < 1 or channels % reduction:
            raise ConfigurationError(
                f"SE reduction {reduction} must divide channel count {channels}")
        self.squeeze = Linear(channels, channels // reduction, rng, bias=False)
        self.excite = Linear(channels // reduction, channels, rng, bias=False)

    def forward(self, x):
        z = T.global_avg_pool(x)
        return T.sigmoid(self.excite(T.relu(self.squeeze(z))))


class ResidualBlock(Module):
    """Pre-activation-free residual block (conv-bn-relu style, post-add relu)
    as one :func:`~kneegrade.tensor.residual_block` node, which keeps no unit
    output; its batch norms all train on batch statistics or are all frozen."""

    def __init__(self, spec: BlockSpec, rng):
        super().__init__()
        self.spec = spec
        cin, cout, s = spec.in_channels, spec.out_channels, spec.stride
        if spec.kind == "basic":
            self.conv1 = Conv2d(cin, cout, 3, rng, stride=s, padding=1)
            self.bn1 = BatchNorm2d(cout)
            self.conv2 = Conv2d(cout, cout, 3, rng, padding=1)
            self.bn2 = BatchNorm2d(cout)
            self.conv3 = None
        else:
            mid = spec.mid_channels()
            self.conv1 = Conv2d(cin, mid, 1, rng)
            self.bn1 = BatchNorm2d(mid)
            self.conv2 = Conv2d(mid, mid, 3, rng, stride=s, padding=1, groups=spec.groups)
            self.bn2 = BatchNorm2d(mid)
            self.conv3 = Conv2d(mid, cout, 1, rng)
            self.bn3 = BatchNorm2d(cout)
        if cin != cout or s != 1:
            self.short_conv = Conv2d(cin, cout, 1, rng, stride=s)
            self.short_bn = BatchNorm2d(cout)
        else:
            self.short_conv = None
        self.se = SEGate(cout, spec.se_reduction, rng) if spec.se_enabled else None
        self._units = [(self.conv1, self.bn1), (self.conv2, self.bn2)] + \
            ([] if self.conv3 is None else [(self.conv3, self.bn3)])
        self._short = None if self.short_conv is None else (self.short_conv, self.short_bn)

    def forward(self, x):
        pairs = self._units + ([self._short] if self._short else [])
        modes = {bn.batch_stats for _, bn in pairs}
        if len(modes) > 1:
            raise UsageError("a residual block's batch norms must all train on batch "
                             "statistics or all be frozen")
        units = [(conv.weight, bn.gamma, bn.beta, bn.running_mean, bn.running_var,
                  conv.stride, conv.padding, conv.groups) for conv, bn in pairs]
        se = None if self.se is None else (self.se.squeeze.weight, self.se.excite.weight)
        n = len(self._units)
        return T.residual_block(x, units[:n], units[n] if self._short else None, se,
                                modes.pop())


class PoolHead(Module):
    """Collapses [N, C, H, W] features to [N, C].

    ``avg`` is a plain spatial mean. ``gwap`` learns a 1x1 score map whose
    spatial softmax weights the average; a zero score map therefore reproduces
    the plain mean. ``gwap_hidden`` inserts a relu bottleneck before the score
    map. Score convs carry no bias: softmax ignores constant shifts.
    """

    def __init__(self, channels, spec: PoolingSpec, rng):
        super().__init__()
        self.spec = spec
        if spec.kind == "gwap":
            self.score = Conv2d(channels, 1, 1, rng)
        elif spec.kind == "gwap_hidden":
            self.hidden = Conv2d(channels, spec.hidden_width, 1, rng)
            self.score = Conv2d(spec.hidden_width, 1, 1, rng)

    def spatial_weights(self, x):
        n, c, h, w = x.shape
        s = x
        if self.spec.kind == "gwap_hidden":
            s = T.relu(self.hidden(s))
        s = self.score(s)
        flat = T.softmax(T.reshape(s, (n, h * w)))
        return T.reshape(flat, (n, 1, h, w))

    def forward(self, x):
        if self.spec.kind == "avg":
            return T.global_avg_pool(x)
        weights = T.broadcast_to(self.spatial_weights(x), x.shape)
        return T.reduce_sum(T.mul(x, weights), axis=(2, 3))


class Backbone(Module):
    """Stem unit (+ optional pool) followed by the configured residual blocks,
    whose channels chain as ``ModelConfig`` checks."""

    def __init__(self, stem: StemSpec, blocks, rng):
        super().__init__()
        self.stem_spec = stem
        self.conv = Conv2d(1, stem.out_channels, stem.kernel, rng, stride=stem.stride,
                           padding=stem.kernel // 2)
        self.bn = BatchNorm2d(stem.out_channels)
        self.blocks = []
        for i, spec in enumerate(blocks):
            block = ResidualBlock(spec, rng)
            self.add_child(f"block{i}", block)
            self.blocks.append(block)
        self.out_channels = blocks[-1].out_channels

    def stem_bytes(self, h, w):
        """Bytes of the stem conv's output for one h x w input image."""
        s = self.stem_spec.stride
        return (self.stem_spec.out_channels * -(-h // s) * -(-w // s)
                * self.conv.weight.data.itemsize)

    def forward(self, x):
        y = T.conv_bn_act(x, self.conv.weight, self.bn.gamma, self.bn.beta, self.bn.running_mean,
                          self.bn.running_var, self.bn.batch_stats, stride=self.conv.stride,
                          padding=self.conv.padding, pool=self.stem_spec.pool)
        for block in self.blocks:
            y = block(y)
        return y
