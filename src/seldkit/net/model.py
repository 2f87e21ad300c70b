"""RD3Net-lite: dense dilated conv blocks, whitening normalization, GRU
bottleneck, frame-rate output heads.

The trunk never pools time (labels need frame-wise outputs); frequency is
mean-pooled after every dense block.  A single-target model regresses
activity-coupled DOA vectors through a tanh head; the two-stage variant
holds separate detection (sigmoid) and localization (tanh) branches that
share the trunk architecture.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..accdoa import compose_accdoa
from ..features import FEATURE_CHANNELS
from .layers import BiGru, ConvUnit, DenseBlock, FreqPool, Linear, Module, Sigmoid, Tanh


@dataclass(frozen=True)
class NetConfig:
    n_classes: int
    f_bins: int = 257
    stem_channels: int = 16
    growth: int = 8
    layers_per_block: int = 3
    n_blocks: int = 2
    freq_pool: int = 4
    gru_hidden: int = 64

    def __post_init__(self):
        if self.f_trimmed < self.total_pool:
            raise ValueError(f"f_bins {self.f_bins} too small for pooling {self.total_pool}")

    @property
    def total_pool(self) -> int:
        return self.freq_pool ** self.n_blocks

    @property
    def f_trimmed(self) -> int:
        """Input bins actually consumed: highest bins dropped so pooling divides."""
        return self.f_bins - self.f_bins % self.total_pool

    @property
    def f_out(self) -> int:
        return self.f_trimmed // self.total_pool

    @property
    def trunk_channels(self) -> int:
        return self.stem_channels + self.n_blocks * self.layers_per_block * self.growth

    @property
    def gru_in(self) -> int:
        return self.trunk_channels * self.f_out

    @property
    def time_halo(self) -> int:
        """Frames of context each trunk output frame depends on, per side.

        The stem conv reaches 1 frame and a dense block's layers reach
        1, 2, ..., 2**(layers_per_block - 1); no layer pools time.  A
        segment's trunk output therefore differs from the whole-clip trunk
        output only within this many frames of an edge it does not share
        with the clip.
        """
        return 1 + self.n_blocks * (2 ** self.layers_per_block - 1)


class ConvTrunk(Module):
    """Stem conv unit, then alternating dense blocks and frequency pooling."""

    def __init__(self, cfg: NetConfig, rng, dtype=np.float32):
        super().__init__()
        self.cfg = cfg
        self.stem = self.register_child(
            "stem", ConvUnit(FEATURE_CHANNELS, cfg.stem_channels, 1, rng, dtype)
        )
        self.stem.conv.needs_input_grad = False  # nothing upstream to train
        ch = cfg.stem_channels
        self._stages = []
        for b in range(cfg.n_blocks):
            block = self.register_child(
                f"block{b}", DenseBlock(ch, cfg.growth, cfg.layers_per_block, rng, dtype)
            )
            pool = self.register_child(f"pool{b}", FreqPool(cfg.freq_pool))
            self._stages.append((block, pool))
            ch = block.out_ch

    def forward(self, x: np.ndarray) -> np.ndarray:
        y = self.stem.forward(x)
        for block, pool in self._stages:
            y = pool.forward(block.forward(y))
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        for block, pool in reversed(self._stages):
            dy = block.backward(pool.backward(dy))
        return self.stem.backward(dy)


class SeldBranch(Module):
    """Trunk -> (flatten freq x channels) -> BiGRU -> linear head -> activation."""

    def __init__(self, cfg: NetConfig, out_per_class: int, activation: str, rng, dtype=np.float32):
        super().__init__()
        self.cfg = cfg
        self.out_per_class = out_per_class
        self.trunk = self.register_child("trunk", ConvTrunk(cfg, rng, dtype))
        self.gru = self.register_child("gru", BiGru(cfg.gru_in, cfg.gru_hidden, rng, dtype))
        self.head = self.register_child(
            "head", Linear(2 * cfg.gru_hidden, cfg.n_classes * out_per_class, rng, dtype)
        )
        self.act = self.register_child("act", Tanh() if activation == "tanh" else Sigmoid())
        self.dtype = dtype

    def _check_input(self, x: np.ndarray):
        if x.ndim != 4 or x.shape[1] != FEATURE_CHANNELS:
            raise ValueError(f"expected (B, {FEATURE_CHANNELS}, T, F), got {x.shape}")
        if x.shape[3] != self.cfg.f_bins:
            raise ValueError(f"expected F = {self.cfg.f_bins}, got {x.shape[3]}")

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._output(self.gru.forward(self.forward_trunk(x)))

    def forward_trunk(self, x: np.ndarray) -> np.ndarray:
        """(B, 7, T, F) features -> (B, T, gru_in) trunk output."""
        self._check_input(x)
        cfg = self.cfg
        # channels-last, trimmed to a pool-divisible number of bins
        xcl = np.ascontiguousarray(
            x[:, :, :, : cfg.f_trimmed].transpose(0, 2, 3, 1), dtype=self.dtype
        )
        y = self.trunk.forward(xcl)
        B, T = y.shape[:2]
        return y.reshape(B, T, cfg.gru_in)

    def forward_head(self, g: np.ndarray) -> np.ndarray:
        """(B, T, 6 * gru_hidden) BiGRU input projections (`gru.project` of
        the trunk output) -> recurrence -> linear head -> activation."""
        return self._output(self.gru.recur(g))

    def _output(self, h: np.ndarray) -> np.ndarray:
        B, T = h.shape[:2]
        y = self.head.forward(h)
        if self.out_per_class > 1:
            y = y.reshape(B, T, self.cfg.n_classes, self.out_per_class)
        return self.act.forward(y)

    def backward(self, dy: np.ndarray):
        """Accumulates parameter gradients; the gradient w.r.t. the input
        features is not computed (the first conv skips it)."""
        cfg = self.cfg
        dy = self.act.backward(dy)
        B, T = dy.shape[:2]
        if self.out_per_class > 1:
            dy = dy.reshape(B, T, cfg.n_classes * self.out_per_class)
        dy = self.head.backward(dy)
        dy = self.gru.backward(dy)
        self.trunk.backward(dy.reshape(B, T, cfg.f_out, cfg.trunk_channels))
        return None


class RD3NetLite(Module):
    """Single-target model: frame-wise (B, T, N, 3) DOA vectors in (-1, 1)."""

    def __init__(self, cfg: NetConfig, seed: int = 0, dtype=np.float32):
        super().__init__()
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        self.branch = self.register_child("branch", SeldBranch(cfg, 3, "tanh", rng, dtype))
        self.branches = (self.branch,)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.branch.forward(x)

    @staticmethod
    def combine(y: np.ndarray) -> np.ndarray:
        """The network's output from its branch outputs: the one branch's."""
        return y

    predict_batch = forward

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return self.branch.backward(dy)


class TwoStageNet(Module):
    """Detection branch (sigmoid activities) plus localization branch.

    The localization branch is trained after its trunk is seeded with a
    copy of the detection trunk; `predict_batch` merges both outputs into
    the activity-coupled vector format.
    """

    def __init__(self, cfg: NetConfig, seed: int = 0, dtype=np.float32):
        super().__init__()
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        self.sed = self.register_child("sed", SeldBranch(cfg, 1, "sigmoid", rng, dtype))
        self.doa = self.register_child("doa", SeldBranch(cfg, 3, "tanh", rng, dtype))
        self.branches = (self.sed, self.doa)

    def copy_trunk_to_doa(self) -> None:
        state = {k: v.copy() for k, v in self.sed.trunk.state_dict().items()}
        self.doa.trunk.load_state_dict(state)

    @staticmethod
    def combine(sed: np.ndarray, doa: np.ndarray) -> np.ndarray:
        """The network's output from its branch outputs: activity-coupled vectors."""
        return compose_accdoa(sed, doa)

    def predict_batch(self, x: np.ndarray) -> np.ndarray:
        return self.combine(*(b.forward(x) for b in self.branches))
