"""Full-clip inference: overlapped segments and rotation averaging."""

from __future__ import annotations

import numpy as np

from .accdoa import pool_to_label_rate
from .augment import ALL_PATTERNS, rotate_accdoa, rotate_foa
from .features import FeatureStack, StftConfig, extract_features
from .scene import AmbisonicClip

DEFAULT_SEG_LEN = 1024
DEFAULT_SHIFT = 20
MAX_BATCH = 8  # segments per predict_batch call


def sliding_inference(
    predict_batch,
    fs: FeatureStack,
    seg_len: int = DEFAULT_SEG_LEN,
    shift: int = DEFAULT_SHIFT,
) -> np.ndarray:
    """Run a fixed-length model over a whole clip.

    `predict_batch` maps (B, 7, seg_len, F) to (B, seg_len, N, 3).  The
    clip is split into segments of `seg_len` frames every `shift` frames
    (plus a final segment flush against the end); each output frame is the
    mean over all segments covering it.  Clips shorter than one segment are
    zero-padded and the padding frames dropped.
    """
    data = fs.data
    n_t = data.shape[1]
    if n_t <= seg_len:
        padded = np.zeros((7, seg_len, data.shape[2]), dtype=data.dtype)
        padded[:, :n_t] = data
        out = predict_batch(padded[None])[0]
        return np.asarray(out[:n_t], dtype=float)

    starts = list(range(0, n_t - seg_len + 1, shift))
    if starts[-1] != n_t - seg_len:
        starts.append(n_t - seg_len)
    first = predict_batch(data[None, :, starts[0]:starts[0] + seg_len])[0]
    total = np.zeros((n_t,) + first.shape[1:])
    count = np.zeros(n_t)
    total[:seg_len] += first
    count[:seg_len] += 1
    for lo in range(1, len(starts), MAX_BATCH):
        chunk = starts[lo:lo + MAX_BATCH]
        batch = np.stack([data[:, s:s + seg_len] for s in chunk])
        outs = predict_batch(batch)
        for s, out in zip(chunk, outs):
            total[s:s + seg_len] += out
            count[s:s + seg_len] += 1
    return total / count[:, None, None]


def rotation_tta(predict_clip, clip: AmbisonicClip, patterns=ALL_PATTERNS) -> np.ndarray:
    """Average predictions over FOA rotations.

    Each pattern is its own inverse, so the prediction on the rotated clip
    is mapped back with the same pattern before averaging.
    """
    total = None
    for r in patterns:
        out = rotate_accdoa(predict_clip(rotate_foa(clip, r)), r)
        total = out if total is None else total + out
    return total / len(patterns)


class Predictor:
    """Clip-level prediction glue around a trained or analytic model.

    The model's `predict_batch` maps (B, 7, T, F) feature batches to
    (B, T, N, 3) sequences.  Produces 10-ms-rate (T, N, 3) sequences via
    overlapped segments, with optional rotation averaging, and label-rate
    sequences for decoding.
    """

    def __init__(
        self,
        model,
        stft_cfg: StftConfig,
        seg_len: int = DEFAULT_SEG_LEN,
        shift: int = DEFAULT_SHIFT,
    ):
        self.model = model
        self.stft_cfg = stft_cfg
        self.seg_len = seg_len
        self.shift = shift

    def predict_features(self, fs: FeatureStack) -> np.ndarray:
        return sliding_inference(self.model.predict_batch, fs, self.seg_len, self.shift)

    def predict_clip(self, clip: AmbisonicClip) -> np.ndarray:
        return self.predict_features(extract_features(clip, self.stft_cfg))

    def predict_clip_tta(self, clip: AmbisonicClip, patterns=ALL_PATTERNS) -> np.ndarray:
        return rotation_tta(self.predict_clip, clip, patterns)

    def label_rate_sequence(self, clip: AmbisonicClip, tta: bool = False) -> np.ndarray:
        seq = self.predict_clip_tta(clip) if tta else self.predict_clip(clip)
        return pool_to_label_rate(seq)
