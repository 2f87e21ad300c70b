"""Independent reference implementations used to check the library.

Everything here is deliberately written from first principles (different
formulas, brute-force enumeration) rather than calling the code under test.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np
from scipy import signal as sps
from scipy.linalg import get_blas_funcs

from seldkit.accdoa import encode_accdoa, expand_to_frame_rate
from seldkit.augment import (
    ALL_PATTERNS, MAX_SECONDARIES, emda_mix, rotate_accdoa, rotate_events, rotate_foa, spec_augment,
)
from seldkit.features import FEATURE_CHANNELS, FeatureStack, extract_features, make_feature_stack
from seldkit.net.layers import Conv2d, Module, _edge_columns, _least_rows, _valid
from seldkit.net.train import SceneBatchStream
from seldkit.scene import (
    _EVENT_GAIN_RANGE, SAMPLE_RATE, AmbisonicClip, DoaAngles, Event, EventList, _fade_edges,
    class_center_frequencies, class_signature, render_events,
)


def great_circle_deg(d1: DoaAngles, d2: DoaAngles) -> float:
    """Spherical law of cosines on (azimuth, elevation) pairs."""
    cos_d = (
        math.sin(d1.elevation) * math.sin(d2.elevation)
        + math.cos(d1.elevation) * math.cos(d2.elevation) * math.cos(abs(d1.azimuth - d2.azimuth))
    )
    return math.degrees(math.acos(min(max(cos_d, -1.0), 1.0)))


def exhaustive_match(preds: list, refs: list):
    """Minimum-total-distance matching by trying every assignment.

    preds/refs are DoaAngles lists; returns (pairs, unmatched_pred,
    unmatched_ref) with pairs as (pred_idx, ref_idx, distance) tuples.
    """
    n, m = len(preds), len(refs)
    if n == 0 or m == 0:
        return [], list(range(n)), list(range(m))
    k = min(n, m)
    best = None
    if n <= m:
        for combo in itertools.permutations(range(m), k):
            pairs = [(i, combo[i], great_circle_deg(preds[i], refs[combo[i]])) for i in range(n)]
            total = sum(p[2] for p in pairs)
            if best is None or total < best[0]:
                best = (total, pairs)
    else:
        for combo in itertools.permutations(range(n), k):
            pairs = [(combo[j], j, great_circle_deg(preds[combo[j]], refs[j])) for j in range(m)]
            total = sum(p[2] for p in pairs)
            if best is None or total < best[0]:
                best = (total, pairs)
    pairs = best[1]
    unmatched_pred = sorted(set(range(n)) - {p for p, _, _ in pairs})
    unmatched_ref = sorted(set(range(m)) - {r for _, r, _ in pairs})
    return pairs, unmatched_pred, unmatched_ref


def exhaustive_metrics(pred: EventList, ref: EventList, n_classes: int, threshold: float = 20.0):
    """Frame-level joint metrics with exhaustive matching; plain dict out."""
    def cells(events):
        table: dict = {}
        for ev in events.events:
            for i, frame in enumerate(range(ev.onset, ev.offset)):
                table.setdefault((frame, ev.class_id), []).append(ev.trajectory[i])
        return table

    pc, rc = cells(pred), cells(ref)
    tp = fp = fn = s = d = i_count = k_matched = 0
    d_sum = 0.0
    n_ref = 0
    for frame in range(ref.n_frames):
        fp_f = fn_f = 0
        for c in range(n_classes):
            preds = pc.get((frame, c), [])
            refs = rc.get((frame, c), [])
            pairs, un_p, un_r = exhaustive_match(preds, refs)
            n_ref += len(refs)
            k_matched += len(pairs)
            for _, _, dist in pairs:
                d_sum += dist
                if dist < threshold:
                    tp += 1
                else:
                    fp_f += 1
                    fn_f += 1
            fp_f += len(un_p)
            fn_f += len(un_r)
        fp += fp_f
        fn += fn_f
        s += min(fp_f, fn_f)
        d += max(0, fn_f - fp_f)
        i_count += max(0, fp_f - fn_f)
    return {
        "TP": tp, "FP": fp, "FN": fn, "S": s, "D": d, "I": i_count,
        "K_matched": k_matched, "D_sum": d_sum, "N_ref": n_ref,
        "LE": d_sum / k_matched if k_matched else float("nan"),
        "LR": 100.0 * k_matched / n_ref if n_ref else float("nan"),
        "ER": (s + d + i_count) / n_ref if n_ref else float("nan"),
        "F": 100.0 * 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else float("nan"),
    }


def random_event_list(
    rng: np.random.Generator,
    n_classes: int,
    n_frames: int,
    max_events: int = 4,
    moving: bool = True,
) -> EventList:
    """Random valid EventList: no same-class overlap and a gap of at least
    one frame between same-class events (so decode round-trips exactly)."""
    events = []
    busy = np.zeros((n_frames, n_classes), dtype=bool)
    n_events = int(rng.integers(0, max_events + 1))
    for _ in range(n_events):
        for _attempt in range(30):
            c = int(rng.integers(n_classes))
            dur = int(rng.integers(1, max(2, n_frames // 2)))
            onset = int(rng.integers(0, n_frames - dur + 1))
            lo = max(onset - 1, 0)
            hi = min(onset + dur + 1, n_frames)
            if busy[lo:hi, c].any():
                continue
            busy[onset:onset + dur, c] = True
            if moving:
                traj = [
                    DoaAngles(rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi / 2, math.pi / 2))
                    for _ in range(dur)
                ]
            else:
                d = DoaAngles(rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi / 2, math.pi / 2))
                traj = [d] * dur
            events.append(Event(c, onset, onset + dur, traj))
            break
    events.sort(key=lambda e: (e.onset, e.class_id))
    return EventList(events, n_frames)


def brute_force_mse(pred: np.ndarray, target: np.ndarray) -> float:
    total = 0.0
    count = 0
    for p, t in zip(pred.ravel(), target.ravel()):
        total += (p - t) ** 2
        count += 1
    return total / count


def brute_force_bce(pred: np.ndarray, target: np.ndarray, clamp: float = 1e-7) -> float:
    total = 0.0
    count = 0
    for p, t in zip(pred.ravel(), target.ravel()):
        p = min(max(p, clamp), 1.0 - clamp)
        total += -(t * math.log(p) + (1.0 - t) * math.log(1.0 - p))
        count += 1
    return total / count


def brute_force_masked_mse(pred, target, mask) -> float:
    pred = np.asarray(pred)
    target = np.asarray(target)
    mask = np.asarray(mask)
    total = 0.0
    count = 0.0
    for idx in np.ndindex(pred.shape):
        m = mask[idx[:-1]]
        total += m * (pred[idx] - target[idx]) ** 2
        count += m
    return total / max(count, 1.0)


def ensemble_weights_by_descent(outputs, targets, lr: float = 0.1, iters: int = 5000) -> np.ndarray:
    """Full-batch gradient descent on each class's MSE from weights 1/M: it
    reaches the least-squares optimum nearest uniform weights, also where
    the optimum is not unique."""
    stacked = np.stack([np.asarray(o, float) for o in outputs])
    m, _, n, _ = stacked.shape
    w = np.full((n, m), 1.0 / m)
    for c in range(n):
        a = stacked[:, :, c, :].reshape(m, -1).T
        y = np.asarray(targets, float)[:, c, :].reshape(-1)
        for _ in range(iters):
            w[c] -= lr * 2.0 * (a.T @ (a @ w[c] - y)) / len(y)
    return w


def feature_stack_by_mod(spec: np.ndarray) -> np.ndarray:
    """(7, T, F) features the direct way: amplitudes, then each channel's
    `np.angle` minus W's wrapped by `np.mod`, zeroed where W is zero."""
    amp = np.abs(spec)
    phase = np.angle(spec)
    ipd = np.mod(phase[1:] - phase[0], 2.0 * math.pi)
    ipd[:, amp[0] == 0] = 0.0
    return np.concatenate([amp, ipd], axis=0)


def rotate_stft(spec: np.ndarray, r, flipped: np.ndarray | None = None) -> np.ndarray:
    """The (4, T, F) STFT of `rotate_foa(clip, r)`, from the clip's STFT `spec`.

    The STFT is linear and negating a nonzero float is exact, so negating
    the channels `r` flips gives the rotated clip's STFT except in the sign
    of exact zeros.  Where that sign can change the features
    (`zero_signs_matter`), pass `flipped`, the STFT of the clip with Y, Z
    and X negated: the flipped channels are then taken from it.
    """
    signs = r.channel_signs[:, None, None]
    return signs * spec if flipped is None else np.where(signs < 0, flipped, spec)


def rotation_tta_by_rotated_stfts(predict_features, spec: np.ndarray, patterns, flipped=None) -> np.ndarray:
    """Rotation averaging with one rotated STFT and one fresh feature stack
    per pattern: `make_feature_stack(rotate_stft(spec, r, flipped))`."""
    total = None
    for r in patterns:
        out = rotate_accdoa(predict_features(make_feature_stack(rotate_stft(spec, r, flipped))), r)
        total = out if total is None else total + out
    return total / len(patterns)


def stft_whole_clip(clip: AmbisonicClip, cfg) -> np.ndarray:
    """(4, T, F) complex STFT with every windowed frame of the clip made at
    once and transformed in one `rfft` call."""
    win = sps.get_window(cfg.window, cfg.win_len, fftbins=True)
    n_frames = cfg.n_frames(clip.n_samples)
    frames = np.lib.stride_tricks.sliding_window_view(clip.samples, cfg.win_len, axis=1)[:, :: cfg.hop][:, :n_frames]
    return np.fft.rfft(frames * win, n=cfg.fft_size, axis=-1)


def rotated_feature_stacks_from_spec(spec: np.ndarray, patterns, flipped: np.ndarray | None = None):
    """Yield (pattern, FeatureStack) for each FOA rotation pattern from the
    clip's whole (4, T, F) STFT: the four amplitudes and the six
    phase-difference planes are computed once over the clip, and each
    pattern copies into one read-only (7, T, F) buffer the planes whose
    sign differs from the previous pattern's.  The negation's phase is that
    of `flipped`, the STFT of the clip with Y, Z and X negated, when given,
    and that of the negated spectrum otherwise.  Differences are wrapped by
    `np.mod`, as in `feature_stack_by_mod`."""
    spec = np.asarray(spec)
    out = np.empty((FEATURE_CHANNELS,) + spec.shape[1:])
    amp = out[:4]
    np.abs(spec, out=amp)
    planes = np.empty((2, 3) + spec.shape[1:])
    ref_phase = np.arctan2(spec[0].imag, spec[0].real, out=out[6])
    re, im = out[4], out[5]
    for q in range(3):
        np.copyto(re, spec[q + 1].real)
        np.copyto(im, spec[q + 1].imag)
        np.arctan2(im, re, out=planes[0, q])
        if flipped is None:
            np.arctan2(np.negative(im, out=im), np.negative(re, out=re), out=planes[1, q])
        else:
            np.arctan2(flipped[q + 1].imag, flipped[q + 1].real, out=planes[1, q])
        np.subtract(planes[:, q], ref_phase, out=planes[:, q])
    np.mod(planes, 2.0 * math.pi, out=planes)
    planes[:, :, amp[0] == 0] = 0.0
    view = out.view()
    view.flags.writeable = False
    fs = FeatureStack(view)
    held = [None] * 3
    for r in patterns:
        for q, sign in enumerate(r.channel_signs[1:]):
            if held[q] != (sign < 0):
                held[q] = sign < 0
                np.copyto(out[4 + q], planes[int(held[q]), q])
        yield r, fs


def rotation_tta_from_spec(predict_features, spec: np.ndarray, patterns=ALL_PATTERNS, flipped=None) -> np.ndarray:
    """Rotation averaging from the clip's whole STFT, and `flipped`, the
    whole STFT of the clip with Y, Z and X negated, where
    `zero_signs_matter(spec)`, through `rotated_feature_stacks_from_spec`."""
    total = None
    for r, fs in rotated_feature_stacks_from_spec(spec, patterns, flipped):
        out = rotate_accdoa(predict_features(fs), r)
        total = out if total is None else total + out
    return total / len(patterns)


def intensity_over_all_bins(band_bins: list, data: np.ndarray, floor: float = 1e-12) -> np.ndarray:
    """Intensity-model (T, N, 3) predictions from a (7, T, F) stack, with
    the intensity and power planes computed over every bin and each band
    summing its own bins of them."""
    amp_w = data[0]
    i_x = amp_w * data[3] * np.cos(data[6])
    i_y = amp_w * data[1] * np.cos(data[4])
    i_z = amp_w * data[2] * np.cos(data[5])
    power = amp_w * amp_w
    out = np.zeros((data.shape[1], len(band_bins), 3))
    for c, bins in enumerate(band_bins):
        vec = np.stack(
            [i_x[:, bins].sum(axis=1), i_y[:, bins].sum(axis=1), i_z[:, bins].sum(axis=1)],
            axis=1,
        )
        norms = np.linalg.norm(vec, axis=1, keepdims=True)
        direction = np.divide(vec, norms, out=np.zeros_like(vec), where=norms > floor)
        band_power = power[:, bins].sum(axis=1)
        peak = band_power.max()
        activity = band_power / peak if peak > 0 else band_power
        out[:, c, :] = activity[:, None] * direction
    return out


def same_bits(a, b) -> bool:
    """Equal shapes, dtypes and bit patterns; unlike ==, tells -0.0 from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def conv2d_by_tap_copies(x: np.ndarray, W: np.ndarray, b: np.ndarray, dilation: int) -> np.ndarray:
    """3x3 same-padded conv of (B, T, F, C) the per-tap-copy way: each
    tap's shifted window copied out of the zero-padded input, then one
    accumulating BLAS GEMM per tap in tap order, onto the bias."""
    B, T, F, C = x.shape
    p = dilation
    xp = np.zeros((B, T + 2 * p, F + 2 * p, C), dtype=x.dtype)
    xp[:, p:p + T, p:p + F] = x
    y = np.empty((B * T * F, W.shape[2]), dtype=x.dtype)
    y[...] = b
    gemm = get_blas_funcs("gemm", (y,))
    for idx, (i, j) in enumerate(itertools.product(range(3), range(3))):
        tap = np.ascontiguousarray(xp[:, i * p:i * p + T, j * p:j * p + F]).reshape(-1, C)
        # y.T = W.T @ tap.T + y.T, in place on the Fortran-ordered transpose
        y = gemm(1.0, W[idx].T, tap.T, 1.0, y.T, overwrite_c=1).T
    return y.reshape(B, T, F, W.shape[2])


def conv2d_backward_by_tap_copies(x: np.ndarray, W: np.ndarray, dy: np.ndarray, dilation: int):
    """Gradients (dx, gW, gb) of the 3x3 same-padded conv of (B, T, F, C)
    at input x for output gradient dy, the per-tap-copy way: each tap's
    shifted window copied out of the zero-padded x for gW, and out of the
    zero-padded dy for dx, which accumulates one BLAS GEMM per tap with the
    flipped kernel's transposed weights, from tap 0 of dy and W[8]."""
    B, T, F, C = x.shape
    Co = W.shape[2]
    p = dilation
    xp = np.zeros((B, T + 2 * p, F + 2 * p, C), dtype=x.dtype)
    xp[:, p:p + T, p:p + F] = x
    dyp = np.zeros((B, T + 2 * p, F + 2 * p, Co), dtype=x.dtype)
    dyp[:, p:p + T, p:p + F] = dy
    dy2 = np.ascontiguousarray(dy, dtype=x.dtype).reshape(-1, Co)
    gW = np.zeros_like(W)
    dx = np.zeros((B * T * F, C), dtype=x.dtype)
    gemm = get_blas_funcs("gemm", (dx,))
    for idx, (i, j) in enumerate(itertools.product(range(3), range(3))):
        tap = np.ascontiguousarray(xp[:, i * p:i * p + T, j * p:j * p + F]).reshape(-1, C)
        gW[idx] += tap.T @ dy2
        dtap = np.ascontiguousarray(dyp[:, i * p:i * p + T, j * p:j * p + F]).reshape(-1, Co)
        # dx.T = W[8 - idx] @ dtap.T + dx.T, in place on the Fortran-ordered transpose
        Wt = np.ascontiguousarray(W[8 - idx].T)
        dx = gemm(1.0, Wt.T, dtap.T, 1.0, dx.T, overwrite_c=1).T
    return dx.reshape(B, T, F, C), gW, dy2.sum(axis=0)


def freq_pool_by_mean(x: np.ndarray, factor: int) -> np.ndarray:
    """Mean over each run of `factor` neighbouring frequency bins of (B, T, F, C)."""
    B, T, F, C = x.shape
    return x.reshape(B, T, F // factor, factor, C).mean(axis=3)


class OnGrid(Module):
    """A `Conv2d` or `ConvUnit`, `layer`, run alone on grids of its own, as
    a dense block runs its layers: every pass copies its input onto the
    channel prefix of a new zero grid, runs the layer inside
    `Conv2d.on_grid` with its output in the channels after the prefix, and
    returns a copy of what the layer returns.  The grids' border is
    `border`, the conv's dilation d by default.

    forward takes (B, T, F, C) x onto a grid (C + Co, B, T + 2p, F + 2p);
    backward takes dy onto a gradient grid of the forward's shape and
    border and returns dx, or None.  forward_edges takes the r + d rows
    (r + d, E, F, C) flush against each of E segment edges onto an edge
    grid (C + Co, r + d + p, E (F + p) + p), laid out as
    `ConvTrunk.edge_rows` lays out a block's: the edges side by side, p
    zero columns before the first and after each, and p zero rows beyond
    them."""

    def __init__(self, layer, border: int | None = None):
        super().__init__()
        self.layer = self.register_child("layer", layer)
        self.conv = layer if isinstance(layer, Conv2d) else layer.conv
        self.border = self.conv.dilation if border is None else border

    def _run(self, grid, layer_pass, *args):
        conv = self.conv
        with conv.on_grid(grid, grid[conv.in_ch:]):
            out = layer_pass(*args)
        return None if out is None else np.array(out)

    def forward(self, x: np.ndarray) -> np.ndarray:
        B, T, F, C = x.shape
        p = self.border
        grid = np.zeros((C + self.conv.out_ch, B, T + 2 * p, F + 2 * p), self.conv.dtype)
        _valid(grid[:C], p)[...] = x
        return self._run(grid, self.layer.forward, _valid(grid[:C], p))

    def backward(self, dy: np.ndarray) -> np.ndarray | None:
        conv = self.conv
        B, T, F, p = conv._shape
        grid = np.zeros((conv.in_ch + conv.out_ch, B, T + 2 * p, F + 2 * p), conv.dtype)
        return self._run(grid, self.layer.backward, dy)

    def forward_edges(self, x: np.ndarray, left: bool) -> np.ndarray:
        n, E, F, C = x.shape
        p = self.border
        grid = np.zeros((C + self.conv.out_ch, n + p, E * (F + p) + p), self.conv.dtype)
        rows = _edge_columns(grid[:C, p:] if left else grid[:C, :n], p, E, F)
        rows[...] = x.transpose(3, 0, 1, 2)
        return self._run(grid, self.layer.forward_edges, rows.transpose(1, 2, 3, 0), left)


def trunk_by_layer(trunk, x: np.ndarray) -> list:
    """One segment's (7, T, F) features run alone through an eval-mode
    conv trunk, one conv unit at a time: the stem, then each dense block's
    layers on the concatenation of the block input and the layer outputs
    so far, with frequency mean-pooled after each block.  Every unit sees
    the whole segment on a grid of its own (`OnGrid`), border d, so its
    conv zero-pads at the segment's own edges.
    The units themselves are checked by their own oracles; this one is the
    reference for which rows near an edge each unit must produce.
    Returns every unit's (T, F, C) output in order, then the
    (T, f_out, channels) trunk output."""
    k = trunk.cfg.freq_pool
    h = np.moveaxis(x[:, :, :trunk.cfg.f_trimmed], 0, -1)[None].astype(np.float32)
    outputs = [OnGrid(trunk.stem).forward(h)]
    h = outputs[-1]
    for block, _pool in trunk.stages:
        for unit in block.units:
            outputs.append(OnGrid(unit).forward(h))
            h = np.concatenate([h, outputs[-1]], axis=-1)
        _, T, F, C = h.shape
        h = h.reshape(1, T, F // k, k, C).mean(axis=3)
    return [y[0] for y in outputs] + [h[0]]


def edge_rows_by_batch(trunk, x: np.ndarray, window: np.ndarray, at: np.ndarray, left: bool) -> np.ndarray:
    """`ConvTrunk.edge_rows` with every edge a batch item of its own: each
    conv unit runs its `forward` on the r + d input rows flush against the
    edge, on a grid of its own (`OnGrid`) of (r + 3d) x (F + 2d) rows, and
    keeps the r output rows nearest the edge.  The zero padding stands in
    for the segment's beyond the edge and spoils only rows past r."""

    def near(a, n):  # the n rows of `a` flush against each edge
        return a[:, :n] if left else a[:, a.shape[1] - n:]

    def gather(a, n):  # the n rows flush against each edge, read from the windows
        rows = np.arange(n) if left else np.arange(-n, 0)
        return a[window[:, None], at[:, None] + rows]

    reach = trunk.stem.conv.dilation
    own = near(OnGrid(trunk.stem).forward(gather(x, 2 * reach)), reach)
    for (block, pool), cat in zip(trunk.stages, trunk._cats):
        dilations = [unit.conv.dilation for unit in block.units]
        g = gather(cat, reach + sum(dilations) + dilations[-1])
        near(g, reach)[..., :block.in_ch] = own
        lo = block.in_ch
        for unit, d in zip(block.units, dilations):
            reach += d
            y = OnGrid(unit).forward(near(g, reach + d)[..., :lo])
            near(g, reach)[..., lo:lo + block.growth] = near(y, reach)
            lo += block.growth
        own = pool.forward(near(g, reach))
    return own


def conv2d_backward_whole_rows(conv, dy: np.ndarray):
    """`Conv2d.backward` after the conv's last forward, with workspaces of
    its own and each tap's weight gradient one GEMM over every row of the
    grid: dy written into a fresh zero-bordered padded array, gW[t] +=
    (a row slice of the input grid) @ dy, and dx accumulating one BLAS
    GEMM per tap of the flipped kernel, from W[8].  Accumulates into the
    conv's gradients and returns dx, or None when it needs no input
    gradient."""
    B, T, F, p = conv._shape
    C, Co = conv.in_ch, conv.out_ch
    dy2 = np.ascontiguousarray(dy, dtype=conv.dtype).reshape(-1, Co)
    conv.grads["b"] += dy2.sum(axis=0)
    dyp = np.zeros((B, T + 2 * p, F + 2 * p, Co), conv.dtype)
    dyp[:, p:p + T, p:p + F] = dy2.reshape(B, T, F, Co)
    x2, dyf = conv._src.reshape(len(conv._src), -1)[:C], dyp.reshape(-1, Co)
    Fp = F + 2 * p
    lo, hi = p * Fp + p, len(dyf) - p * Fp - p
    offs = [conv.dilation * ((i - 1) * Fp + j - 1) for i in range(3) for j in range(3)]
    for idx, off in enumerate(offs):
        conv.grads["W"][idx] += x2[:, lo + off:hi + off] @ dyf[lo:hi]
    if not conv.needs_input_grad:
        return None
    dx = np.zeros((hi - lo, C), conv.dtype)
    gemm = get_blas_funcs("gemm", (dx,))
    for idx in range(8, -1, -1):
        Wt = np.ascontiguousarray(conv.params["W"][idx].T)
        # dx.T = Wt.T @ dy.T + dx.T, in place on the Fortran-ordered transpose
        dx = gemm(1.0, Wt.T, dyf[lo - offs[idx]:hi - offs[idx]].T, 1.0, dx.T, overwrite_c=1).T
    dxp = np.zeros(dyp.shape[:3] + (C,), conv.dtype)
    dxp.reshape(-1, C)[lo:hi] = dx
    return dxp[:, p:p + T, p:p + F]


def trunk_backward_per_unit(trunk, dy: np.ndarray) -> None:
    """`ConvTrunk.backward` after the trunk's last forward, every layer
    with arrays of its own: each pool's gradient `np.repeat` of dy / k, a
    copy of it that the dense block's layers accumulate their input
    gradients in, the block's input-channel gradient copied out of it, and
    each conv unit's backward the ELU's, then dy times NetDeconv's
    whitening matrix, then `conv2d_backward_whole_rows`."""

    def unit_backward(unit, dy):
        dy = np.ascontiguousarray(unit.act.backward(dy), dtype=unit.norm.dtype)
        dy = (dy.reshape(-1, unit.norm.channels) @ unit.norm._whiten).reshape(dy.shape)
        return conv2d_backward_whole_rows(unit.conv, dy)

    for block, pool in reversed(trunk.stages):
        grad = np.array(np.repeat(dy * (1.0 / pool.factor), pool.factor, axis=2), copy=True)
        for layer in range(block.n_layers - 1, -1, -1):
            lo = block.in_ch + layer * block.growth
            grad[..., :lo] += unit_backward(block.units[layer], grad[..., lo:lo + block.growth])
        dy = grad[..., :block.in_ch].copy()
    unit_backward(trunk.stem, dy)


def class_signature_designed_per_call(class_id: int, duration_s: float, rng: np.random.Generator,
                                      n_classes: int = 14) -> np.ndarray:
    """`scene.class_signature` before its band-pass was cached: the filter
    is designed anew on every call."""
    if not 0 <= class_id < n_classes:
        raise ValueError(f"class_id {class_id} outside [0, {n_classes})")
    n = int(round(duration_s * SAMPLE_RATE))
    fc = class_center_frequencies(n_classes)[class_id]
    lo = fc * 2.0 ** (-1.0 / 6.0)
    hi = fc * 2.0 ** (1.0 / 6.0)
    noise = rng.standard_normal(n)
    sos = sps.butter(4, [lo, hi], btype="bandpass", fs=SAMPLE_RATE, output="sos")
    band = sps.sosfiltfilt(sos, noise)
    am_rate = 0.5 + class_id * 0.35
    phase = rng.uniform(0.0, 2.0 * math.pi)
    t = np.arange(n) / SAMPLE_RATE
    env = 0.6 + 0.4 * np.sin(2.0 * math.pi * am_rate * t + phase)
    out = band * env
    peak = np.max(np.abs(out))
    if peak > 0:
        out = out / peak
    return out


def synth_scene_in_one_pass(cfg, rng: np.random.Generator) -> tuple:
    """`scene.synth_scene` before it was split into `place_events` and
    `render_scene`: draw and render in one loop, then peak-normalize to 0.5."""
    n_frames = cfg.n_label_frames
    poly = np.zeros(n_frames, dtype=int)
    class_busy = np.zeros((n_frames, cfg.n_classes), dtype=bool)
    placed = []
    for _ in range(cfg.n_events):
        for _attempt in range(20):
            class_id = int(rng.integers(cfg.n_classes))
            dur = min(int(rng.integers(cfg.min_event_frames, cfg.max_event_frames + 1)), n_frames)
            onset = int(rng.integers(0, n_frames - dur + 1))
            span = slice(onset, onset + dur)
            if np.any(poly[span] >= cfg.max_polyphony) or np.any(class_busy[span, class_id]):
                continue
            d = DoaAngles(rng.uniform(-math.pi, math.pi), rng.uniform(*cfg.elevation_range))
            gain = rng.uniform(*_EVENT_GAIN_RANGE)
            sig = _fade_edges(class_signature(class_id, dur * 0.1, rng, cfg.n_classes) * gain)
            placed.append((Event(class_id, onset, onset + dur, [d] * dur), sig))
            poly[span] += 1
            class_busy[span, class_id] = True
            break
    clip = render_events(placed, n_frames)
    peak = np.max(np.abs(clip.samples))
    if peak > 0:
        clip.samples *= 0.5 / peak
    return clip, EventList([ev for ev, _ in placed], n_frames)


class DensePoolStream(SceneBatchStream):
    """`SceneBatchStream` as it kept its pool and bank before storing event
    signals: every scene rendered once, at construction, into a read-only
    dense 4-channel clip, and each sample augmenting those clips."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        pool_rng = np.random.default_rng(np.random.SeedSequence(entropy=(self.seed, 0)))
        secondary_cfg = replace(self.scene_cfg, n_events=1, max_polyphony=1)
        self.pool = [synth_scene_in_one_pass(self.scene_cfg, pool_rng) for _ in self.pool]
        self.bank = [synth_scene_in_one_pass(secondary_cfg, pool_rng) for _ in self.bank]
        for clip, _events in self.pool + self.bank:
            clip.samples.flags.writeable = False

    def _sample(self, rng: np.random.Generator):
        clip, events = self.pool[int(rng.integers(len(self.pool)))]
        if self.augment.emda:
            n_sec = int(rng.integers(0, MAX_SECONDARIES + 1))
            if n_sec:
                secs = [self.bank[int(rng.integers(len(self.bank)))] for _ in range(n_sec)]
                clip, events = emda_mix((clip, events), secs, rng)
        if self.augment.rotate:
            r = ALL_PATTERNS[int(rng.integers(len(ALL_PATTERNS)))]
            clip = rotate_foa(clip, r)
            events = rotate_events(events, r)
        stft_cfg = self.stft_cfg
        t0 = int(rng.integers(0, stft_cfg.n_frames(clip.n_samples) - self.input_frames + 1))
        span = stft_cfg.frame_span(self.input_frames)
        cropped = AmbisonicClip(clip.samples[:, t0 * stft_cfg.hop: t0 * stft_cfg.hop + span])
        fs = extract_features(cropped, stft_cfg)
        if self.augment.specaug:
            fs = spec_augment(fs, self.augment.spec_cfg, rng)
        seq = expand_to_frame_rate(encode_accdoa(events, self.scene_cfg.n_classes), t0 + self.input_frames)
        accdoa = seq[t0:].astype(np.float32)
        activity = (np.linalg.norm(accdoa, axis=-1) > 0).astype(np.float32)
        return fs.data.astype(np.float32), activity, accdoa


class GruOneDirection(Module):
    """One direction of a GRU over (B, T, D) -> (B, T, H) in its own time
    loop, the reference for the bidirectional `Gru`; `reverse` runs the
    frames last to first.  Two of these, forward then reverse, drawn one
    after the other from one rng, are a `Gru`'s `fwd` and `bwd` halves.

    Gate layout along the last parameter axis is [reset, update, candidate];
    the candidate's recurrent contribution is gated by reset including its
    bias, matching the common two-bias formulation.
    """

    def __init__(self, in_dim: int, hidden: int, rng, reverse: bool = False, dtype=np.float32):
        super().__init__()
        self.in_dim = in_dim
        self.hidden = hidden
        self.reverse = reverse
        bx = np.sqrt(6.0 / (in_dim + 3 * hidden))
        bh = np.sqrt(6.0 / (hidden + 3 * hidden))
        self.register_param("Wx", rng.uniform(-bx, bx, (in_dim, 3 * hidden)).astype(dtype))
        self.register_param("Wh", rng.uniform(-bh, bh, (hidden, 3 * hidden)).astype(dtype))
        self.register_param("bx", np.zeros(3 * hidden, dtype=dtype))
        self.register_param("bh", np.zeros(3 * hidden, dtype=dtype))
        self.dtype = dtype

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        x2 = np.ascontiguousarray(x).reshape(-1, x.shape[-1])
        self._x2 = x2 if self.for_backward else None
        return self.recur(self.project(x2.reshape(x.shape)))

    def project(self, x: np.ndarray) -> np.ndarray:
        """(..., D) -> (..., 3H): x @ Wx + bx, too few frames for OpenBLAS's
        large kernel multiplied followed by zero frames."""
        x2 = np.ascontiguousarray(x).reshape(-1, self.in_dim)
        n, least = len(x2), _least_rows(self.in_dim * 3 * self.hidden)
        if n < least:
            x2 = np.concatenate([x2, np.zeros((least - n, self.in_dim), x2.dtype)])
        return (x2 @ self.params["Wx"] + self.params["bx"])[:n].reshape(*x.shape[:-1], 3 * self.hidden)

    def recur(self, gx: np.ndarray) -> np.ndarray:
        """(B, T, 3H) projected input -> (B, T, H) hidden states."""
        B, T = gx.shape[:2]
        H = self.hidden
        order = range(T - 1, -1, -1) if self.reverse else range(T)
        h = np.zeros((B, H), dtype=self.dtype)
        out = np.empty((B, T, H), dtype=self.dtype)
        cache = self._cache = [None] * T if self.for_backward else None
        Wh, bh = self.params["Wh"], self.params["bh"]
        for t in order:
            gh = h @ Wh + bh
            r = 1.0 / (1.0 + np.exp(-(gx[:, t, :H] + gh[:, :H])))
            z = 1.0 / (1.0 + np.exp(-(gx[:, t, H:2 * H] + gh[:, H:2 * H])))
            ghn = gh[:, 2 * H:]
            n = np.tanh(gx[:, t, 2 * H:] + r * ghn)
            if cache is not None:
                cache[t] = (r, z, n, ghn, h)
            h = (1.0 - z) * n + z * h
            out[:, t] = h
        return out

    def backward(self, dy: np.ndarray) -> np.ndarray:
        B, T, D = self._shape
        H = self.hidden
        Wh = self.params["Wh"]
        dgx = np.zeros((B, T, 3 * H), dtype=self.dtype)
        dh = np.zeros((B, H), dtype=self.dtype)
        dWh = self.grads["Wh"]
        dbh = self.grads["bh"]
        order = range(T) if self.reverse else range(T - 1, -1, -1)
        dgh = np.empty((B, 3 * H), dtype=self.dtype)
        for t in order:
            dh = dh + dy[:, t]
            r, z, n, ghn, hprev = self._cache[t]
            dz = dh * (hprev - n)
            dn = dh * (1.0 - z)
            dhprev = dh * z
            dan = dn * (1.0 - n * n)
            dr = dan * ghn
            dgh[:, :H] = dr * r * (1.0 - r)
            dgh[:, H:2 * H] = dz * z * (1.0 - z)
            dgh[:, 2 * H:] = dan * r
            dgx[:, t, :H] = dgh[:, :H]
            dgx[:, t, H:2 * H] = dgh[:, H:2 * H]
            dgx[:, t, 2 * H:] = dan
            dWh += hprev.T @ dgh
            dbh += dgh.sum(axis=0)
            dh = dhprev + dgh @ Wh.T
        dgx2 = dgx.reshape(-1, 3 * H)
        self.grads["Wx"] += self._x2.T @ dgx2
        self.grads["bx"] += dgx2.sum(axis=0)
        return (dgx2 @ self.params["Wx"].T).reshape(B, T, D)
