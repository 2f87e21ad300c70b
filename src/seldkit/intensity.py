"""Acoustic-intensity baseline predictor.

Classical estimator with no trainable parameters: the per-bin active
intensity Re(W* . [X, Y, Z]) is reconstructed from the feature stack as
|W| |Q| cos(phase difference), summed over each class's known passband, and
emitted in activity-coupled vector form.  For a plane wave this recovers
the source direction exactly, so the model is equivariant under the eight
FOA rotations; it serves as an oracle for the inference-time machinery and
as a sanity baseline.
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

    def predict_features(self, fs: FeatureStack) -> np.ndarray:
        """(T, N, 3) vectors; direction from intensity, activity from W power.

        Only the bins of some class band are read: the union is gathered
        once, as slices of its runs of consecutive bins, and each band sums
        its own columns of it.
        """
        data = np.concatenate([fs.data[:, :, run] for run in self._runs], axis=2)
        if data.shape[2] != self._bins.size:
            raise IndexError(f"band bins {self._bins.min()}..{self._bins.max()} outside the stack's "
                             f"{fs.n_bins} bins")
        amp_w = data[0]
        # ACN order [W, Y, Z, X]: x from channel 3, y from 1, z from 2
        i_x = amp_w * data[3] * np.cos(data[6])
        i_y = amp_w * data[1] * np.cos(data[4])
        i_z = amp_w * data[2] * np.cos(data[5])
        power = amp_w * amp_w
        n_t = data.shape[1]
        out = np.zeros((n_t, self.n_classes, 3))
        for c, cols in enumerate(self._band_cols):
            vec = np.stack(
                [i_x[:, cols].sum(axis=1), i_y[:, cols].sum(axis=1), i_z[:, cols].sum(axis=1)],
                axis=1,
            )
            norms = np.linalg.norm(vec, axis=1, keepdims=True)
            direction = np.divide(vec, norms, out=np.zeros_like(vec), where=norms > _ACTIVITY_FLOOR)
            band_power = power[:, cols].sum(axis=1)
            peak = band_power.max()
            activity = band_power / peak if peak > 0 else band_power
            out[:, c, :] = activity[:, None] * direction
        return out

    def predict_batch(self, x: np.ndarray) -> np.ndarray:
        return np.stack([self.predict_features(FeatureStack(sample)) for sample in x])
