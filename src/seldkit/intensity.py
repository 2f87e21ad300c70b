"""Acoustic-intensity baseline predictor.

Classical estimator with no trainable parameters: the per-bin active
intensity Re(W* . [X, Y, Z]) is reconstructed from the feature stack as
|W| |Q| cos(phase difference), summed over each class's known passband, and
emitted in activity-coupled vector form.  For a plane wave this recovers
the source direction exactly, so the model is equivariant under the eight
FOA rotations; it serves as an oracle for the inference-time machinery and
as a sanity baseline.

A prediction takes two stages.  `band_sums` is frame-local: each band's
intensity and W-power sums of a frame depend on that frame alone.
`segment_vectors` needs the segment: the activity is the band power over
its peak in the segment.  `infer.Predictor` therefore runs the first stage
once over a clip and only the second per segment, and under rotation TTA
takes the first stage of two stacks for all eight patterns (a pattern only
picks each channel's own or negated phase difference).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .features import FeatureStack, StftConfig
from .scene import SAMPLE_RATE, class_center_frequencies

_BAND_OCTAVES = 1.0 / 3.0    # width of each class band, as in the class signatures
_ACTIVITY_FLOOR = 1e-12      # intensity norm below which a band has no direction


class IntensityVectorModel:
    """ACCDOA-style predictions from time-frequency intensity vectors."""

    def __init__(self, n_classes: int, band_bins: list):
        self.n_classes = n_classes
        self.band_bins = [np.asarray(b, dtype=int) for b in band_bins]
        if len(self.band_bins) != n_classes:
            raise ValueError("one bin set per class required")
        # the union of the bands, and each band's columns in it
        self._bins = functools.reduce(np.union1d, self.band_bins, np.zeros(0, dtype=int))
        self._band_cols = [np.searchsorted(self._bins, b) for b in self.band_bins]
        runs = []  # [first, last] of each run of consecutive bins; none runs from bin -1 into 0
        for b in self._bins.tolist():
            if runs and b == runs[-1][1] + 1 and b != 0:
                runs[-1][1] = b
            else:
                runs.append([b, b])
        self._runs = [slice(a, b + 1 or None) for a, b in runs] or [slice(0, 0)]

    @classmethod
    def for_scene_classes(cls, n_classes: int, stft_cfg: StftConfig) -> "IntensityVectorModel":
        """1/3-octave bands matching the synthetic class signatures."""
        centers = class_center_frequencies(n_classes)
        hz_per_bin = SAMPLE_RATE / stft_cfg.fft_size
        bands = []
        for fc in centers:
            lo = int(math.floor(fc * 2.0 ** (-_BAND_OCTAVES / 2.0) / hz_per_bin))
            hi = int(math.ceil(fc * 2.0 ** (_BAND_OCTAVES / 2.0) / hz_per_bin))
            bands.append(np.arange(max(lo, 1), min(hi + 1, stft_cfg.n_bins)))
        return cls(n_classes, bands)

    def band_sums(self, data: np.ndarray) -> tuple:
        """The frame-local stage: each band's sums over its bins of the
        intensity [x, y, z], (T, N, 3), and of the W power, (T, N), of a
        (7, T, F) stack.

        Only the bins of some class band are read: the union is gathered
        once, as slices of its runs of consecutive bins.  Each band adds
        its bins one after another onto 0.0, in every frame alike, so a
        frame's sums do not depend on the frames summed with it (np.sum of
        the band's columns does that for T > 1, but sums a lone frame's
        bins pairwise).
        """
        union = np.concatenate([data[:, :, run] for run in self._runs], axis=2)
        if union.shape[2] != self._bins.size:
            raise IndexError(f"band bins {self._bins.min()}..{self._bins.max()} outside the stack's "
                             f"{data.shape[2]} bins")
        amp_w = union[0]
        # in place in the gathered copy: the intensity of Y, Z and X (ACN
        # order [W, Y, Z, X]) over their amplitudes, each from its phase
        # difference to W in channel 3 + q, then the W power over Y's phase
        # difference, read by then
        for q in (1, 2, 3):
            union[q] *= amp_w
            union[q] *= np.cos(union[3 + q])
        np.multiply(amp_w, amp_w, out=union[4])
        sums = np.zeros((self.n_classes, 4, union.shape[1]))  # [y, z, x, power]
        for band, cols in zip(sums, self._band_cols):
            for j in cols.tolist():
                band += union[1:5, :, j]
        return sums[:, [2, 0, 1]].transpose(2, 0, 1), sums[:, 3].T

    @staticmethod
    def segment_vectors(vec: np.ndarray, band_power: np.ndarray) -> np.ndarray:
        """The per-segment stage: (T, N, 3) predictions of one segment from
        its frames' `band_sums`; direction from the intensity, activity the
        band power over its peak in the segment."""
        norms = np.linalg.norm(vec, axis=2, keepdims=True)
        direction = np.divide(vec, norms, out=np.zeros_like(vec), where=norms > _ACTIVITY_FLOOR)
        peak = band_power.max(axis=0)
        activity = np.divide(band_power, peak, out=band_power.copy(), where=peak > 0)
        return activity[:, :, None] * direction

    def predict_features(self, fs: FeatureStack) -> np.ndarray:
        """(T, N, 3) vectors of one segment: `segment_vectors` of its `band_sums`."""
        return self.segment_vectors(*self.band_sums(fs.data))

    def predict_batch(self, x: np.ndarray) -> np.ndarray:
        return np.stack([self.predict_features(FeatureStack(sample)) for sample in x])
