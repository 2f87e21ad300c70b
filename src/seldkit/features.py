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
        # each complaint begins with the field it rejects
        bad = []
        if self.hop * LABEL_FRAME_FACTOR != LABEL_FRAME_SAMPLES:
            bad.append(f"hop {self.hop}: the label grid needs a 10 ms hop, "
                       f"{LABEL_FRAME_SAMPLES // LABEL_FRAME_FACTOR} samples")
        if self.win_len < self.hop:
            bad.append(f"win_len must be >= hop ({self.hop}), got {self.win_len}")
        if self.win_len > self.fft_size:
            bad += [f"win_len must be <= fft_size ({self.fft_size}), got {self.win_len}",
                    f"fft_size must be >= win_len ({self.win_len}), got {self.fft_size}"]
        if bad:
            raise ValueError("; ".join(bad))
        try:
            get_window(self.window, self.win_len, fftbins=True)
        except (ValueError, TypeError) as exc:
            raise ValueError(f"window {self.window!r} is not a scipy window: {exc}") from None

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


def _wrap_ipd(ipd: np.ndarray, amp_w: np.ndarray) -> None:
    """Wrap phase differences d in [-2pi, 2pi] to [0, 2pi] in place, as
    `np.mod(d, 2pi)` wraps them (see the module docstring), and set them
    to 0 where the reference amplitude `amp_w` (T, F) is zero."""
    step = np.empty(amp_w.shape)
    for plane in ipd.reshape((-1,) + amp_w.shape):
        # np.mod maps d = 2pi to 0 and adds 2pi to d < 0 in that order, so a
        # sum that rounds up to 2pi stays 2pi; adding 0.0 to d >= 0 turns
        # -0.0 into 0.0, as np.mod does, and is faster than a masked add
        np.copyto(plane, 0.0, where=plane >= _TWO_PI)
        np.multiply(plane < 0, _TWO_PI, out=step)
        plane += step
    np.copyto(ipd, 0.0, where=amp_w == 0)


def _check_spec(spec) -> np.ndarray:
    spec = np.asarray(spec)
    if spec.ndim != 3 or spec.shape[0] != 4:
        raise ValueError(f"expected (4, T, F) STFT, got {spec.shape}")
    return spec


def make_feature_stack(spec: np.ndarray) -> FeatureStack:
    """Build the (7, T, F) feature stack from a 4-channel complex STFT.

    Phase differences are angle(channel q) - angle(channel 0), wrapped to
    [0, 2pi] as `np.mod(d, 2pi)` wraps them (see the module docstring);
    bins where the reference channel has zero magnitude get 0.
    """
    spec = _check_spec(spec)
    out = np.empty((FEATURE_CHANNELS,) + spec.shape[1:])
    amp, ipd = out[:4], out[4:]
    np.abs(spec, out=amp)
    ref_phase = np.arctan2(spec[0].imag, spec[0].real)
    for q in range(3):
        np.arctan2(spec[q + 1].imag, spec[q + 1].real, out=ipd[q])
        np.subtract(ipd[q], ref_phase, out=ipd[q])
    _wrap_ipd(ipd, amp[0])
    return FeatureStack(out)


def rotated_feature_stacks(spec: np.ndarray, patterns, flipped: np.ndarray | None = None):
    """Yield (pattern, FeatureStack) for each FOA rotation pattern, from one STFT.

    A pattern negates some of Y, Z and X (`pattern.channel_signs`), which
    leaves every amplitude as it is and gives each phase difference one of
    two values: the channel's own, or its negation's.  So the four
    amplitudes (4 `abs`) and the six phase-difference planes (7 `arctan2`)
    are computed once, and each pattern copies only the planes whose sign
    differs from the previous pattern's (11 for `ALL_PATTERNS` in order).  The
    negation's phase is that of `flipped`, the STFT of the clip with Y, Z
    and X negated, when given, and that of the negated spectrum otherwise;
    the two differ only where `augment.zero_signs_matter(spec)`.

    Every stack yielded is one read-only view of a (7, T, F) buffer: the
    next pattern overwrites those of its channels 4-6 whose sign differs,
    so use a stack before asking for the next.
    """
    spec = _check_spec(spec)
    out = np.empty((FEATURE_CHANNELS,) + spec.shape[1:])
    amp = out[:4]
    np.abs(spec, out=amp)
    # planes[0, q] is channel q + 1's own phase difference, planes[1, q] its negation's;
    # out[4:7] serve as scratch until the first pattern fills them
    planes = np.empty((2, 3) + spec.shape[1:])
    ref_phase = np.arctan2(spec[0].imag, spec[0].real, out=out[6])
    re, im = out[4], out[5]
    for q in range(3):
        # contiguous copies of the channel's parts, then negated in place
        np.copyto(re, spec[q + 1].real)
        np.copyto(im, spec[q + 1].imag)
        np.arctan2(im, re, out=planes[0, q])
        if flipped is None:
            np.arctan2(np.negative(im, out=im), np.negative(re, out=re), out=planes[1, q])
        else:
            np.arctan2(flipped[q + 1].imag, flipped[q + 1].real, out=planes[1, q])
        np.subtract(planes[:, q], ref_phase, out=planes[:, q])
    _wrap_ipd(planes, amp[0])
    view = out.view()
    view.flags.writeable = False
    fs = FeatureStack(view)
    held = [None] * 3  # which of planes[:, q] channel 4 + q holds; none hold one yet
    for r in patterns:
        for q, sign in enumerate(r.channel_signs[1:]):
            if held[q] != (sign < 0):
                held[q] = sign < 0
                np.copyto(out[4 + q], planes[int(held[q]), q])
        yield r, fs


def extract_features(clip: AmbisonicClip, cfg: StftConfig = StftConfig()) -> FeatureStack:
    """stft + make_feature_stack in one call."""
    return make_feature_stack(stft(clip, cfg))

