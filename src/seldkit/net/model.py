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
from .layers import (
    Conv2d, ConvUnit, DenseBlock, FreqPool, Gru, Linear, Module, NetDeconv, Sigmoid, Tanh,
    _edge_columns, _put, _valid,
)

# frames an eval-mode trunk call holds at most, or one segment's if longer
TRUNK_FRAMES = 1024


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
        small = [f"{name} must be >= 1, got {getattr(self, name)}" for name in (
            "n_classes", "stem_channels", "growth", "layers_per_block", "n_blocks", "freq_pool", "gru_hidden",
        ) if getattr(self, name) < 1]
        if small:
            raise ValueError("; ".join(small))
        if self.f_trimmed < self.total_pool:
            raise ValueError("; ".join(f"{name} {getattr(self, name)}: freq_pool ** n_blocks = "
                                       f"{self.total_pool} exceeds f_bins {self.f_bins}"
                                       for name in ("freq_pool", "n_blocks")))

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
    """Stem conv unit, then alternating dense blocks and frequency pooling.

    Each stage writes straight into the next one's grid: the stem reads the
    features from a zero-bordered channel-major grid with the first block's
    border and writes its output into that block's grid, and each pool
    writes into the next block's grid, the last into the (B, T, f_out, C)
    array the BiGRU input is a reshape of.  All convs and norms share one
    module's workspaces for what lives only during one unit's pass (see
    `Conv2d` and `NetDeconv`).  Backward runs the other way, in place on
    gradient grids shaped like the forward's: each pool writes its
    gradient into the valid region of the gradient grid of the block
    before it (see `DenseBlock`), and the stem takes its own from the
    first block's, whose leading channels are the stem's output.
    """

    def __init__(self, cfg: NetConfig, rng, dtype=np.float32):
        super().__init__()
        self.cfg = cfg
        self.dtype = dtype
        self.stem = self.register_child(
            "stem", ConvUnit(FEATURE_CHANNELS, cfg.stem_channels, 1, rng, dtype)
        )
        self.stem.conv.needs_input_grad = False  # nothing upstream to train
        ch = cfg.stem_channels
        self.stages = []
        for b in range(cfg.n_blocks):
            block = self.register_child(
                f"block{b}", DenseBlock(ch, cfg.growth, cfg.layers_per_block, rng, dtype)
            )
            pool = self.register_child(f"pool{b}", FreqPool(cfg.freq_pool))
            self.stages.append((block, pool))
            ch = block.out_ch
        scratch, stack = Module(), [self]
        while stack:
            mod = stack.pop()
            stack.extend(mod._children.values())
            if isinstance(mod, (Conv2d, NetDeconv)):
                mod.scratch = scratch

    def forward(self, x: np.ndarray) -> np.ndarray:
        """(B, T, F, 7) features, any strides -> (B, T, f_out, channels)."""
        B, T, F, C = x.shape
        block = self.stages[0][0]
        p = block.pad
        src = self._bordered("features", (C, B, T + 2 * p, F + 2 * p), p, self.dtype)
        _valid(src, p)[...] = x
        g, stem = block.grid(B, T, F), self.stem.conv.out_ch
        with self.stem.conv.on_grid(src, g[:stem]):
            y = self.stem.forward(_valid(src, p))
        self._cats = []  # each block's input and layer outputs, for edge_rows
        for i, (block, pool) in enumerate(self.stages):
            self._cats.append(block.forward(y))
            F //= pool.factor
            if i + 1 < len(self.stages):
                nxt = self.stages[i + 1][0]
                y = pool.forward(self._cats[-1], out=_valid(nxt.grid(B, T, F)[:nxt.in_ch], nxt.pad))
            else:
                y = pool.forward(self._cats[-1], out=np.empty((B, T, F, block.out_ch), self.dtype))
        return y

    def edge_rows(self, x: np.ndarray, window: np.ndarray, at: np.ndarray, left: bool) -> np.ndarray:
        """(E, time_halo, f_out, channels): the output rows, within
        `time_halo` of edge i, of a segment that has that edge at row at[i]
        of window window[i] of the last `forward`, whose input was `x`.

        A left edge is the segment's first row, a right edge the row after
        its last.  Out of a layer of dilation d, the segment differs from
        the clip only within the reach r of the edge: the stem's d plus the
        d of each block layer so far.  Each block gets an edge grid, laid
        out as `Conv2d.forward_edges` takes it, with the block's border P:
        all E edges side by side, P zero rows beyond each, holding the
        block's concatenation on the rows its layers read, taken from the
        window's grid.  Each conv unit then computes, in place, just the r
        rows of every edge of its channel slice, from the r + d rows flush
        against it; the stem writes the first block's grid the same way.
        One block's grid is alive at a time (the stem's only while the
        stem runs): only the pooled rows carry over to the next block.
        This is exact where the window equals the clip on the rows read:
        within seg_len - 2 * time_halo rows of the window's start for a
        left edge, of its end for a right edge.
        """
        E = len(window)

        def near(a, n):  # the n rows of (C, rows, E, F) `a` flush against each edge
            return a[:, :n] if left else a[:, a.shape[1] - n:]

        def edge_grid(C, n, F, p):  # a zero edge grid and the (C, n, E, F) view of its edge rows
            g = np.zeros((C, n + p, E * (F + p) + p), self.dtype)
            return g, _edge_columns(g[:, p:] if left else g[:, :n], p, E, F)

        def fill(rows, a):  # rows <- the rows flush against each edge of (C, B, T, F) `a`
            n = rows.shape[1]
            for i, (w, t) in enumerate(zip(window.tolist(), at.tolist())):
                rows[:, :, i] = a[:, w, t:t + n] if left else a[:, w, t - n:t]

        reach = self.stem.conv.dilation
        own = None
        for (block, pool), cat in zip(self.stages, self._cats):
            dilations = [unit.conv.dilation for unit in block.units]
            n, p = reach + sum(dilations) + dilations[-1], block.pad
            g, rows = edge_grid(block.out_ch, n, cat.shape[2], p)
            fill(rows, cat.transpose(3, 0, 1, 2))
            if own is None:  # the stem, onto the first block's grid
                stem = self.stem
                src, features = edge_grid(stem.conv.in_ch, n, cat.shape[2], p)
                fill(near(features, 2 * reach), x.transpose(3, 0, 1, 2))
                with stem.conv.on_grid(src, g[:stem.conv.out_ch]):
                    y = stem.forward_edges(near(features, 2 * reach).transpose(1, 2, 3, 0), left)
                _put(near(rows, reach)[:stem.conv.out_ch].transpose(1, 2, 3, 0), y)
                del src, features
            else:
                near(rows, reach)[:block.in_ch] = own.transpose(3, 0, 1, 2)
            for unit, d in zip(block.units, dilations):
                lo = unit.conv.in_ch
                reach += d
                with unit.conv.on_grid(g, g[lo:lo + block.growth]):
                    y = unit.forward_edges(near(rows, reach + d)[:lo].transpose(1, 2, 3, 0), left)
                _put(near(rows, reach)[lo:lo + block.growth].transpose(1, 2, 3, 0), y)
            own = pool.forward(near(rows, reach).transpose(1, 2, 3, 0))
            del g, rows, y  # before the next block's grid is made
        return own.swapaxes(0, 1)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        for block, pool in reversed(self.stages):
            B, T, F, _ = dy.shape
            F *= pool.factor
            dy = block.backward(pool.backward(dy, out=_valid(block.grad(B, T, F), block.pad)))
        # the stem's output channels lead the first block's gradient grid
        with self.stem.conv.on_grid(None, block.grad(B, T, F)[:self.stem.conv.out_ch]):
            return self.stem.backward(dy)


class SeldBranch(Module):
    """Trunk -> (flatten freq x channels) -> BiGRU -> linear head -> activation."""

    def __init__(self, cfg: NetConfig, out_per_class: int, activation: str, rng, dtype=np.float32):
        super().__init__()
        self.cfg = cfg
        self.out_per_class = out_per_class
        self.trunk = self.register_child("trunk", ConvTrunk(cfg, rng, dtype))
        self.gru = self.register_child("gru", Gru(cfg.gru_in, cfg.gru_hidden, rng, dtype))
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
        """(B, 7, T, F) -> the branch output.  In eval mode without backward,
        the trunk and the BiGRU input projection run on max(1, TRUNK_FRAMES
        // T) segments at a time, and the recurrence and head on the whole
        batch, with the bits of one pass."""
        if self.for_backward:
            return self._output(self.gru.forward(self.forward_trunk(x)))
        self._check_input(x)
        per = max(1, TRUNK_FRAMES // max(1, x.shape[2]))
        return self.forward_head(np.concatenate([
            self.gru.project(self.forward_trunk(x[i:i + per])) for i in range(0, len(x), per)
        ]))

    def _channels_last(self, x: np.ndarray) -> np.ndarray:
        """(B, 7, T, F) -> (B, T, f_trimmed, 7) view: the highest bins
        dropped so pooling divides."""
        return x[:, :, :, : self.cfg.f_trimmed].transpose(0, 2, 3, 1)

    def forward_trunk(self, x: np.ndarray) -> np.ndarray:
        """(B, 7, T, F) features -> (B, T, gru_in) trunk output."""
        self._check_input(x)
        y = self.trunk.forward(self._channels_last(x))
        B, T = y.shape[:2]
        return y.reshape(B, T, self.cfg.gru_in)

    def forward_edges(self, x: np.ndarray, window: np.ndarray, at: np.ndarray, left: bool) -> np.ndarray:
        """After `forward_trunk(x)` on a batch of windows: (E, time_halo,
        gru_in), the trunk output of segments near their edges (see
        `ConvTrunk.edge_rows`)."""
        y = self.trunk.edge_rows(self._channels_last(x), window, at, left)
        return y.reshape(len(y), -1, self.cfg.gru_in)

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
