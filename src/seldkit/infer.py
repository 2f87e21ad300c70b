"""Full-clip inference: overlapped segments and rotation averaging."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .accdoa import pool_to_label_rate
from .augment import ALL_PATTERNS, RotationPattern, rotate_accdoa, rotate_foa, zero_signs_matter
from .features import FeatureStack, StftConfig, extract_features, rotated_feature_stacks, stft
from .net.layers import Module
from .scene import AmbisonicClip

DEFAULT_SEG_LEN = 1024
DEFAULT_SHIFT = 20
MAX_BATCH = 32  # segments per predict_batch call
TRUNK_BATCH = 8  # a network's trunk takes at most this many segments' frames per call
_FLIP_YZX = RotationPattern(add_pi=True, elevation_sign=-1)  # negates Y, Z and X


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


def _segment_batches(data: np.ndarray, seg_len: int, shift: int):
    """Yield (starts, segments) in start order, at most MAX_BATCH segments
    at a time, for `_segment_starts(data.shape[1], seg_len, shift)`.

    `segments` is a read-only strided view of `data`,
    (len(starts), 7, seg_len, F), not a copy: each run of starts on the
    `shift` grid is one view, and the segment flush against the end, when
    off that grid, comes in a batch of its own.
    """
    windows = sliding_window_view(data, seg_len, axis=1).transpose(1, 0, 3, 2)
    grid = range(0, len(windows), shift)
    for lo in range(0, len(grid), MAX_BATCH):
        starts = grid[lo:lo + MAX_BATCH]
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


def _edge_gates(branch, x: np.ndarray, left: bool, starts, window, at, halo: int) -> dict:
    """{(segment start, left): (halo, 6 * gru_hidden)}: the BiGRU input
    projections of one edge's rows of each segment at `starts`, that edge
    lying at row at[i] of window window[i] of `x`, the window batch that
    `branch.forward_trunk` has just run.  An edge reads at most 2 * halo
    rows a layer, so a call takes at most TRUNK_BATCH * seg_len rows."""
    per_call = TRUNK_BATCH * x.shape[2] // (2 * halo)
    gates = {}
    for lo in range(0, len(starts), per_call):
        part = slice(lo, lo + per_call)
        rows = branch.forward_edges(x, window[part], at[part], left)
        gates.update(zip([(s, left) for s in starts[part].tolist()], branch.gru.project(rows)))
    return gates


def _clip_gate_pieces(branch, data: np.ndarray, seg_len: int, shift: int, halo: int):
    """Yield, window batch by window batch, (projections, edges): the BiGRU
    input projections of the branch's trunk output over the whole clip,
    (frames, 6 * gru_hidden), in consecutive pieces from frame 0 on; and
    `_edge_gates` of the segments (every `shift` frames) whose edges are
    taken from the batch's windows.

    Windows of `seg_len` frames start every step = seg_len - 2 * halo
    frames, plus one flush against the end; each contributes the frames at
    least `halo` from any edge it does not share with the clip, where it
    equals the whole-clip trunk.  TRUNK_BATCH windows go through the trunk
    per call, and the frames they contribute are projected together.  The
    segment at s takes its left edge from window s // step and its right
    edge from window ceil(s / step) (the last window where that is past
    the grid): there the window equals the clip on every row the edge reads.
    """
    n_t = data.shape[1]
    step = seg_len - 2 * halo
    windows = _segment_starts(n_t, seg_len, step)
    starts = np.array(_segment_starts(n_t, seg_len, shift))
    sides = []  # (left, segment starts, window, edge row in the window), for edges inside the clip
    for left, w, e in ((True, starts // step, starts), (False, -(-starts // step), starts + seg_len)):
        inside = (0 < e) & (e < n_t)
        sides.append((left, starts[inside], w[inside], e[inside] - np.take(windows, w[inside])))
    end = 0
    for lo in range(0, len(windows), TRUNK_BATCH):
        part = windows[lo:lo + TRUNK_BATCH]
        x = np.stack([data[:, s:s + seg_len] for s in part])
        ys = branch.forward_trunk(x)
        kept = []
        for s, y in zip(part, ys):
            hi = s + seg_len - halo if s + seg_len < n_t else n_t
            kept.append(y[end - s:hi - s])
            end = hi
        piece = branch.gru.project(np.concatenate(kept))
        gates = {}
        for left, s, w, at in sides:
            mine = (lo <= w) & (w < lo + len(part))
            gates.update(_edge_gates(branch, x, left, s[mine], w[mine] - lo, at[mine], halo))
        del x, ys, kept  # not held while the segments run
        yield piece, gates


class _ClipGates:
    """A branch's whole-clip BiGRU input projections and its segments'
    edge projections, computed ahead of the segments that need them and
    dropped behind them, so memory does not grow with the clip."""

    def __init__(self, branch, data: np.ndarray, seg_len: int, shift: int, halo: int):
        self._pieces = _clip_gate_pieces(branch, data, seg_len, shift, halo)
        self._frames = np.empty((0, 6 * branch.cfg.gru_hidden), dtype=branch.dtype)
        self._lo = 0  # clip frame of self._frames[0]
        self.edges = {}  # (segment start, left) -> (halo, 6 * gru_hidden) projections

    def span(self, a: int, b: int) -> np.ndarray:
        """Frames [a, b), with the edges of the segments in it starting at
        or after `a` in `edges`; `a` never decreases and never passes the
        last `b`."""
        kept = self._frames[a - self._lo:]
        self._lo = a
        self.edges = {k: v for k, v in self.edges.items() if k[0] >= a}
        pieces, have = [kept], a + len(kept)
        while have < b:
            piece, edges = next(self._pieces)
            pieces.append(piece)
            self.edges.update(edges)
            have += len(piece)
        if len(pieces) > 1:
            kept = np.concatenate(pieces)
        self._frames = kept
        return kept[:b - a]


def _segment_gates(branch, clip_gates: _ClipGates, x: np.ndarray, starts, n_t: int, halo: int):
    """The BiGRU input projections of each segment of `x` (at `starts`)
    on its own, (len(starts), seg_len, 6 * gru_hidden).

    Frames further than `halo` from a segment edge come from the clip,
    and those within `halo` of an edge the clip does not share from the
    edge rows.  When the edge rows of a segment would overlap, the segment
    goes through the trunk as it is, TRUNK_BATCH segments per call.
    """
    seg_len = x.shape[2]
    if seg_len <= 2 * halo:
        return np.concatenate([
            branch.gru.project(branch.forward_trunk(x[lo:lo + TRUNK_BATCH]))
            for lo in range(0, len(x), TRUNK_BATCH)
        ])
    a = starts[0]
    span = clip_gates.span(a, starts[-1] + seg_len)
    seg = np.stack([span[s - a:s - a + seg_len] for s in starts])
    for i, s in enumerate(starts):
        if s > 0:
            seg[i, :halo] = clip_gates.edges[s, True]
        if s + seg_len < n_t:
            seg[i, -halo:] = clip_gates.edges[s, False]
    return seg


def _shared_trunk_inference(model, fs: FeatureStack, seg_len: int, shift: int) -> np.ndarray:
    """`sliding_inference` of an eval-mode RD3NetLite or TwoStageNet, with
    each frame sent through the conv trunk about once instead of about
    seg_len / shift times.

    In eval mode every trunk layer acts on time only through 3x3 convs
    (NetDeconv is pointwise and pooling is over frequency), so a segment's
    trunk output is the clip's except near its edges (`NetConfig.time_halo`).
    The BiGRU's input projection is per frame too, so it is computed once
    over the clip and the segments' edge rows.  The `predict_batch` handed
    to `sliding_inference` splices each segment's projections from the
    clip and its edges, then runs the recurrence and head on the whole
    batch of segments; outputs are averaged as for any model.
    """
    if model.training:
        # batch statistics would make outputs depend on how segments are batched
        raise ValueError("the network is in training mode; call .eval() before inference")
    data = _pad_to_segment(fs.data, seg_len)
    n_t = data.shape[1]
    halo = model.cfg.time_halo
    clip_gates = [_ClipGates(b, data, seg_len, shift, halo) for b in model.branches]
    starts = iter(_segment_starts(n_t, seg_len, shift))

    def predict_batch(x):
        batch = [next(starts) for _ in range(len(x))]  # segments arrive in start order
        return model.combine(*(
            b.forward_head(_segment_gates(b, g, x, batch, n_t, halo))
            for b, g in zip(model.branches, clip_gates)
        ))

    return sliding_inference(predict_batch, fs, seg_len, shift)


def rotation_tta(predict_features, spec: np.ndarray, patterns=ALL_PATTERNS, flipped=None) -> np.ndarray:
    """Average predictions over FOA rotations of one clip, from its (4, T, F) STFT.

    Each pattern's features come from `features.rotated_feature_stacks`,
    which builds the amplitudes and phases once for all patterns; pass
    `flipped`, the STFT of the clip with Y, Z and X negated, where
    `zero_signs_matter(spec)`, as `Predictor.predict_clip_tta` does.
    `predict_features` gets one stack per pattern in one shared buffer,
    which the next pattern overwrites, so it must not keep the stack.
    Each pattern is its own inverse, so the prediction on the rotated clip
    is mapped back with the same pattern before averaging.
    """
    total = None
    for r, fs in rotated_feature_stacks(spec, patterns, flipped):
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

    def predict_clip(self, clip: AmbisonicClip) -> np.ndarray:
        return self.predict_features(extract_features(clip, self.stft_cfg))

    def predict_clip_tta(self, clip: AmbisonicClip) -> np.ndarray:
        """`rotation_tta` from one STFT of the clip, and a second of the
        clip with Y, Z and X negated only where `zero_signs_matter`."""
        spec = stft(clip, self.stft_cfg)
        flipped = stft(rotate_foa(clip, _FLIP_YZX), self.stft_cfg) if zero_signs_matter(spec) else None
        return rotation_tta(self.predict_features, spec, flipped=flipped)

    def label_rate_sequence(self, clip: AmbisonicClip, tta: bool = False) -> np.ndarray:
        seq = self.predict_clip_tta(clip) if tta else self.predict_clip(clip)
        return pool_to_label_rate(seq)
