"""Full-clip inference: overlapped segments and rotation averaging."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .accdoa import pool_to_label_rate
from .augment import ALL_PATTERNS, rotate_accdoa
from .features import FeatureStack, StftConfig, extract_features, rotated_feature_stacks
from .net.layers import Module
from .net.model import TRUNK_FRAMES
from .scene import AmbisonicClip

DEFAULT_SEG_LEN = 1024
DEFAULT_SHIFT = 20
MAX_BATCH = 32  # segments per predict_batch call


def _check_geometry(seg_len: int, shift: int) -> None:
    """Reject segment lengths below 1 and shifts outside [1, seg_len]: a
    larger shift leaves frames that no segment covers."""
    if seg_len < 1 or not 1 <= shift <= seg_len:
        raise ValueError(
            f"need seg_len >= 1 and 1 <= shift <= seg_len, got seg_len {seg_len}, shift {shift}"
        )


def _pad_to_segment(data: np.ndarray, seg_len: int) -> np.ndarray:
    """A clip shorter than one segment, followed by zero feature frames."""
    n_t = data.shape[1]
    if n_t >= seg_len:
        return data
    padded = np.zeros((data.shape[0], seg_len, data.shape[2]), dtype=data.dtype)
    padded[:, :n_t] = data
    return padded


def _segment_starts(n_t: int, seg_len: int, shift: int) -> list:
    """Starts every `shift` frames, plus a last segment flush against the end."""
    starts = list(range(0, n_t - seg_len + 1, shift))
    if starts[-1] != n_t - seg_len:
        starts.append(n_t - seg_len)
    return starts


def _overlap_average(n_t: int, seg_len: int, outputs) -> np.ndarray:
    """Per-frame mean of the (start, (seg_len, N, 3) output) pairs covering it."""
    total = count = None
    for s, out in outputs:
        if total is None:
            total = np.zeros((n_t,) + out.shape[1:])
            count = np.zeros(n_t)
        total[s:s + seg_len] += out
        count[s:s + seg_len] += 1
    return total / count[:, None, None]


def _segment_batches(data: np.ndarray, seg_len: int, shift: int, per: int = MAX_BATCH):
    """Yield (starts, segments) in start order, at most `per` segments
    at a time, for `_segment_starts(data.shape[1], seg_len, shift)`.

    `segments` is a read-only strided view of `data`,
    (len(starts), 7, seg_len, F), not a copy: each run of starts on the
    `shift` grid is one view, and the segment flush against the end, when
    off that grid, comes in a batch of its own.
    """
    windows = sliding_window_view(data, seg_len, axis=1).transpose(1, 0, 3, 2)
    grid = range(0, len(windows), shift)
    for lo in range(0, len(grid), per):
        starts = grid[lo:lo + per]
        yield starts, windows[starts.start:starts.stop:shift]
    if grid[-1] != len(windows) - 1:
        yield [len(windows) - 1], windows[-1:]


def sliding_inference(
    predict_batch,
    fs: FeatureStack,
    seg_len: int = DEFAULT_SEG_LEN,
    shift: int = DEFAULT_SHIFT,
) -> np.ndarray:
    """Run a fixed-length model over a whole clip.

    `predict_batch` maps (B, 7, seg_len, F) to (B, seg_len, N, 3).  The
    clip is split into segments of `seg_len` frames every `shift` frames
    (plus a final segment flush against the end), handed to `predict_batch`
    in order of their starts, at most MAX_BATCH at a time, as read-only
    views of the clip; each output frame is the mean over all segments
    covering it.  Clips shorter than one segment are zero-padded and the
    padding frames dropped.
    """
    _check_geometry(seg_len, shift)
    data = _pad_to_segment(fs.data, seg_len)

    def outputs():
        for starts, segments in _segment_batches(data, seg_len, shift):
            yield from zip(starts, predict_batch(segments))

    return _overlap_average(data.shape[1], seg_len, outputs())[:fs.data.shape[1]]


def _segment_gates(branch, data: np.ndarray, seg_len: int, shift: int, halo: int):
    """Yield, in start order, the BiGRU input projections of each segment
    of `_segment_starts(data.shape[1], seg_len, shift)` on its own,
    (seg_len, 6 * gru_hidden).

    Where a segment's edge rows would overlap, the segments go through the
    trunk as they are, max(1, TRUNK_FRAMES // seg_len) at a time.
    Otherwise the clip goes through the trunk one window a call, a view of
    the clip of L = max(seg_len, TRUNK_FRAMES) frames (the whole clip if
    shorter), every step = L - 2 * halo frames (plus one flush against the
    end); each window gives the frames at least `halo` from its edges
    inside the clip, where it equals the whole-clip trunk, and these are
    projected.  A segment's rows within `halo` of an edge inside the clip
    come from edge rows: its left edge at s from window s // step (the
    last window where that is past the grid), its right edge at
    e = s + seg_len from window ceil((e - L) / step) (clipped to the
    windows), each equal to the clip on every row the edge reads.  A conv
    of an edge reads at most halo + d rows, d the largest dilation, so an
    edge call takes at most max(1, TRUNK_FRAMES // seg_len) * seg_len //
    (halo + d) edges, no more rows than a trunk call.  An edge's bits do
    not depend on how many edges share its call, as every conv GEMM stays
    on OpenBLAS's large kernel however few rows it has (`_stacked_conv` in
    `net.layers`).  A segment is yielded once the window of its right edge
    has run, and clip frames are kept only from the first segment not yet
    yielded, so memory does not grow with the clip.
    """
    per = max(1, TRUNK_FRAMES // seg_len)
    if seg_len <= 2 * halo:
        for _, x in _segment_batches(data, seg_len, shift, per):
            yield from branch.gru.project(branch.forward_trunk(x))
        return
    n_t = data.shape[1]
    L = min(max(seg_len, TRUNK_FRAMES), n_t)
    step = L - 2 * halo
    edge_cap = per * seg_len // (halo + 2 ** (branch.cfg.layers_per_block - 1))
    windows = _segment_starts(n_t, L, step)
    starts = np.array(_segment_starts(n_t, seg_len, shift))
    first = np.minimum(starts // step, len(windows) - 1)  # the left edge's window
    last = np.clip(-((L - seg_len - starts) // step), 0, len(windows) - 1)  # the right edge's
    frames = np.empty((0, 6 * branch.cfg.gru_hidden), dtype=branch.dtype)
    lo = end = 0  # the clip frames of frames[0] and frames[-1] + 1
    edges = {}  # (segment index, left) -> (halo, 6 * gru_hidden) projections
    i = 0  # the first segment not yet yielded
    for w, s in enumerate(windows):
        x = data[None, :, s:s + L]
        hi = s + L - halo if s + L < n_t else n_t
        frames = np.concatenate([frames, branch.gru.project(branch.forward_trunk(x)[0, end - s:hi - s])])
        end = hi
        for left, edge_w, e in ((True, first, starts), (False, last, starts + seg_len)):
            mine = np.flatnonzero((edge_w == w) & (0 < e) & (e < n_t))
            for c in range(0, len(mine), edge_cap):  # the edges inside the clip, in this window
                k = mine[c:c + edge_cap]
                rows = branch.forward_edges(x, np.zeros(len(k), int), e[k] - s, left)
                edges.update(zip([(j, left) for j in k.tolist()], branch.gru.project(rows)))
        while i < len(starts) and last[i] <= w:
            s = starts[i]
            g = np.empty((seg_len, frames.shape[1]), dtype=frames.dtype)
            clip = frames[s - lo:s - lo + seg_len]  # short by the right edge rows while they are not projected
            g[:len(clip)] = clip
            if s > 0:
                g[:halo] = edges.pop((i, True))
            if s + seg_len < n_t:
                g[-halo:] = edges.pop((i, False))
            i += 1
            if i < len(starts):
                keep = min(starts[i], end)  # the next segment may start past the frames projected so far
                frames, lo = frames[keep - lo:], keep
            yield g


def _shared_trunk_inference(model, fs: FeatureStack, seg_len: int, shift: int) -> np.ndarray:
    """`sliding_inference` of an eval-mode RD3NetLite or TwoStageNet, with
    each frame sent through the conv trunk about once instead of about
    seg_len / shift times.

    In eval mode every trunk layer acts on time only through 3x3 convs
    (NetDeconv is pointwise and pooling is over frequency), so a segment's
    trunk output is the clip's except near its edges (`NetConfig.time_halo`).
    The BiGRU's input projection is per frame too, so it is computed once
    over the clip and the segments' edge rows (`_segment_gates`).  The
    `predict_batch` handed to `sliding_inference` runs the recurrence and
    head on each branch's next len(x) segments; outputs are averaged as
    for any model.
    """
    if model.training:
        # batch statistics would make outputs depend on how segments are batched
        raise ValueError("the network is in training mode; call .eval() before inference")
    data = _pad_to_segment(fs.data, seg_len)
    gates = [_segment_gates(b, data, seg_len, shift, model.cfg.time_halo) for b in model.branches]

    def predict_batch(x):
        # segments arrive in start order, as the generators yield them
        return model.combine(*(
            b.forward_head(np.stack([next(g) for _ in range(len(x))]))
            for b, g in zip(model.branches, gates)
        ))

    return sliding_inference(predict_batch, fs, seg_len, shift)


def rotation_tta(predict_features, clip: AmbisonicClip, cfg: StftConfig, patterns=ALL_PATTERNS,
                 dtype=np.float64) -> np.ndarray:
    """Average predictions over FOA rotations of one clip.

    Each pattern's features come from `features.rotated_feature_stacks`
    in `dtype`, which builds the amplitudes and phases once for all
    patterns, a chunk of frames at a time.  `predict_features` gets one
    stack per pattern in one shared read-only buffer, which the next
    pattern overwrites, so it must not keep the stack.  Each pattern is
    its own inverse, so the prediction on the rotated clip is mapped back
    with the same pattern before averaging.
    """
    total = None
    for r, fs in rotated_feature_stacks(clip, patterns, cfg, dtype):
        out = rotate_accdoa(predict_features(fs), r)
        total = out if total is None else total + out
    return total / len(patterns)


class Predictor:
    """Clip-level prediction glue around a trained or analytic model.

    The model's `predict_batch` maps (B, 7, T, F) feature batches to
    (B, T, N, 3) sequences.  Produces 10-ms-rate (T, N, 3) sequences via
    overlapped segments, with optional rotation averaging, and label-rate
    sequences for decoding.  Every model goes through `sliding_inference`.
    Networks (RD3NetLite, TwoStageNet) must be in eval mode; their segments
    share one trunk pass over the clip.
    """

    def __init__(
        self,
        model,
        stft_cfg: StftConfig,
        seg_len: int = DEFAULT_SEG_LEN,
        shift: int = DEFAULT_SHIFT,
    ):
        _check_geometry(seg_len, shift)
        self.model = model
        self.stft_cfg = stft_cfg
        self.seg_len = seg_len
        self.shift = shift

    def predict_features(self, fs: FeatureStack) -> np.ndarray:
        if isinstance(self.model, Module):
            return _shared_trunk_inference(self.model, fs, self.seg_len, self.shift)
        return sliding_inference(self.model.predict_batch, fs, self.seg_len, self.shift)

    @property
    def _feature_dtype(self):
        """A network's dtype, which its trunk casts features to anyway;
        float64 for other models."""
        return self.model.branches[0].dtype if isinstance(self.model, Module) else np.float64

    def predict_clip(self, clip: AmbisonicClip) -> np.ndarray:
        return self.predict_features(extract_features(clip, self.stft_cfg, self._feature_dtype))

    def predict_clip_tta(self, clip: AmbisonicClip) -> np.ndarray:
        return rotation_tta(self.predict_features, clip, self.stft_cfg, dtype=self._feature_dtype)

    def label_rate_sequence(self, clip: AmbisonicClip, tta: bool = False) -> np.ndarray:
        seq = self.predict_clip_tta(clip) if tta else self.predict_clip(clip)
        return pool_to_label_rate(seq)
