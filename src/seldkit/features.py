"""Feature extraction: amplitude spectrograms and inter-channel phase differences.

The network input for a 4-channel clip is a (7, T, F) stack: amplitude
spectrograms of the four channels followed by the phase differences of
channels 1..3 relative to channel 0.  Phase differences are wrapped into
[0, 2pi] so that the SpecAugment replacement distribution matches the
feature range.  The interval is closed: a difference d a hair below 0
wraps to 2pi + d, which rounds to exactly 2pi, and synthesized scenes
hold such values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import get_window

from .accdoa import LABEL_FRAME_FACTOR
from .scene import LABEL_FRAME_SAMPLES, AmbisonicClip

_TWO_PI = 2.0 * np.pi
FEATURE_CHANNELS = 7  # amplitudes of [W, Y, Z, X], then 3 phase differences


@dataclass(frozen=True)
class StftConfig:
    """STFT framing: 20 ms windows by default; the hop is the 10 ms target frame grid."""

    win_len: int = 480
    hop: int = 240
    fft_size: int = 512
    window: str = "hann"

    def __post_init__(self):
        if not (0 < self.hop <= self.win_len <= self.fft_size):
            raise ValueError("require 0 < hop <= win_len <= fft_size")
        if self.hop * LABEL_FRAME_FACTOR != LABEL_FRAME_SAMPLES:
            raise ValueError(f"hop {self.hop}: the label grid needs a 10 ms hop, "
                             f"{LABEL_FRAME_SAMPLES // LABEL_FRAME_FACTOR} samples")

    @property
    def n_bins(self) -> int:
        return self.fft_size // 2 + 1

    def n_frames(self, n_samples: int) -> int:
        if n_samples < self.win_len:
            raise ValueError(f"clip of {n_samples} samples shorter than one window ({self.win_len})")
        return 1 + (n_samples - self.win_len) // self.hop

    def frame_span(self, n_frames: int) -> int:
        """Samples covered by `n_frames` consecutive frames."""
        return self.win_len + (n_frames - 1) * self.hop


@dataclass
class FeatureStack:
    """(7, T, F) array: channels 0-3 amplitudes of [W,Y,Z,X], 4-6 phase diffs."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if self.data.ndim != 3 or self.data.shape[0] != FEATURE_CHANNELS:
            raise ValueError(f"expected ({FEATURE_CHANNELS}, T, F), got {self.data.shape}")

    @property
    def n_frames(self) -> int:
        return self.data.shape[1]

    @property
    def n_bins(self) -> int:
        return self.data.shape[2]


def stft(clip: AmbisonicClip, cfg: StftConfig = StftConfig()) -> np.ndarray:
    """Complex STFT of all channels, shape (4, T, F).

    T = 1 + floor((L - win_len) / hop); frame t covers samples
    [t*hop, t*hop + win_len).  The window is zero-padded to fft_size.
    """
    x = clip.samples
    n_frames = cfg.n_frames(x.shape[1])
    win = get_window(cfg.window, cfg.win_len, fftbins=True)
    frames = np.lib.stride_tricks.sliding_window_view(x, cfg.win_len, axis=1)[:, :: cfg.hop][:, :n_frames]
    return np.fft.rfft(frames * win, n=cfg.fft_size, axis=-1)


def make_feature_stack(spec: np.ndarray) -> FeatureStack:
    """Build the (7, T, F) feature stack from a 4-channel complex STFT.

    Phase differences are angle(channel q) - angle(channel 0), wrapped to
    [0, 2pi] as `np.mod(d, 2pi)` wraps them (see the module docstring);
    bins where the reference channel has zero magnitude get 0.
    """
    spec = np.asarray(spec)
    if spec.ndim != 3 or spec.shape[0] != 4:
        raise ValueError(f"expected (4, T, F) STFT, got {spec.shape}")
    out = np.empty((FEATURE_CHANNELS,) + spec.shape[1:])
    amp, ipd = out[:4], out[4:]
    np.abs(spec, out=amp)
    ref_phase = np.arctan2(spec[0].imag, spec[0].real)
    for q in range(3):
        np.arctan2(spec[q + 1].imag, spec[q + 1].real, out=ipd[q])
        np.subtract(ipd[q], ref_phase, out=ipd[q])
    # d lies in [-2pi, 2pi]; np.mod maps d = 2pi to 0 and adds 2pi to d < 0
    # in that order, so a sum that rounds up to 2pi stays 2pi
    np.copyto(ipd, 0.0, where=ipd >= _TWO_PI)
    np.add(ipd, _TWO_PI, out=ipd, where=ipd < 0)
    ipd += 0.0  # -0.0 becomes 0.0, as in np.mod
    np.copyto(ipd, 0.0, where=amp[0] == 0)
    return FeatureStack(out)


def extract_features(clip: AmbisonicClip, cfg: StftConfig = StftConfig()) -> FeatureStack:
    """stft + make_feature_stack in one call."""
    return make_feature_stack(stft(clip, cfg))

