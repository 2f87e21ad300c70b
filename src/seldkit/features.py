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
from .augment import RotationPattern, rotate_foa, zero_signs_matter
from .scene import LABEL_FRAME_SAMPLES, AmbisonicClip

_TWO_PI = 2.0 * np.pi
FEATURE_CHANNELS = 7  # amplitudes of [W, Y, Z, X], then 3 phase differences
FRAME_CHUNK = 256  # STFT frames windowed and transformed at a time, which bounds the spectra held
_FLIP_YZX = RotationPattern(add_pi=True, elevation_sign=-1)  # negates Y, Z and X


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


def stft(clip: AmbisonicClip, cfg: StftConfig = StftConfig(), start: int = 0,
         stop: int | None = None) -> np.ndarray:
    """Complex STFT of all channels over frames [start, stop), all by
    default: shape (4, stop - start, F).

    T = 1 + floor((L - win_len) / hop); frame t covers samples
    [t*hop, t*hop + win_len).  The window is zero-padded to fft_size.
    A range longer than FRAME_CHUNK frames is transformed a chunk at a
    time, so a whole-clip call holds no windowed copy of the clip; a
    frame's spectrum does not depend on the frames transformed with it,
    so any range gives the same bits as the whole clip.
    """
    x = clip.samples
    n_frames = cfg.n_frames(x.shape[1])
    stop = n_frames if stop is None else stop
    if not 0 <= start < stop <= n_frames:
        raise ValueError(f"frames [{start}, {stop}) outside the clip's {n_frames}")
    if stop - start > FRAME_CHUNK:
        out = np.empty((4, stop - start, cfg.n_bins), dtype=complex)
        for lo, hi in _frame_chunks(start, stop):
            out[:, lo - start:hi - start] = stft(clip, cfg, lo, hi)
        return out
    win = get_window(cfg.window, cfg.win_len, fftbins=True)
    frames = np.lib.stride_tricks.sliding_window_view(x, cfg.win_len, axis=1)[:, start * cfg.hop::cfg.hop]
    return np.fft.rfft(frames[:, :stop - start] * win, n=cfg.fft_size, axis=-1)


def _frame_chunks(start: int, stop: int):
    """(lo, hi) of each run of FRAME_CHUNK frames from `start`, the last one
    shorter where it meets `stop`."""
    return ((lo, min(lo + FRAME_CHUNK, stop)) for lo in range(start, stop, FRAME_CHUNK))


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


def extract_features(clip: AmbisonicClip, cfg: StftConfig = StftConfig(), dtype=np.float64) -> FeatureStack:
    """`make_feature_stack(stft(clip, cfg))` in `dtype`, FRAME_CHUNK frames
    at a time: only one chunk's spectrum is held, never the clip's."""
    n_frames = cfg.n_frames(clip.n_samples)
    out = np.empty((FEATURE_CHANNELS, n_frames, cfg.n_bins), dtype)
    for lo, hi in _frame_chunks(0, n_frames):
        out[:, lo:hi] = make_feature_stack(stft(clip, cfg, lo, hi)).data
    return FeatureStack(out)


def _flipped_stft(clip: AmbisonicClip, cfg: StftConfig, lo: int, hi: int) -> np.ndarray:
    """Frames [lo, hi) of the STFT of the clip with Y, Z and X negated,
    from the negated audio those frames cover."""
    span = clip.samples[:, lo * cfg.hop:lo * cfg.hop + cfg.frame_span(hi - lo)]
    return stft(rotate_foa(AmbisonicClip(span), _FLIP_YZX), cfg)


def _rotated_planes(spec: np.ndarray, flipped: np.ndarray | None, out: np.ndarray, alt: np.ndarray) -> None:
    """Write the amplitudes and each of Y, Z and X's own phase difference
    of one chunk's STFT `spec` into `out` (7, n, F), and each negation's
    phase difference into `alt` (3, n, F): from the negated spectrum, or
    from `flipped` when given (see `rotated_feature_stacks`)."""
    amp = out[:4]
    np.abs(spec, out=amp)
    ref_phase = np.arctan2(spec[0].imag, spec[0].real)
    re, im = np.empty(ref_phase.shape), np.empty(ref_phase.shape)
    for q in range(3):
        # contiguous copies of the channel's parts, then negated in place
        np.copyto(re, spec[q + 1].real)
        np.copyto(im, spec[q + 1].imag)
        np.arctan2(im, re, out=out[4 + q])
        if flipped is None:
            np.arctan2(np.negative(im, out=im), np.negative(re, out=re), out=alt[q])
        else:
            np.arctan2(flipped[q + 1].imag, flipped[q + 1].real, out=alt[q])
        np.subtract(out[4 + q], ref_phase, out=out[4 + q])
        np.subtract(alt[q], ref_phase, out=alt[q])
    _wrap_ipd(out[4:], amp[0])
    _wrap_ipd(alt, amp[0])


def rotated_feature_stacks(clip: AmbisonicClip, patterns, cfg: StftConfig = StftConfig()):
    """Yield (pattern, FeatureStack) for each FOA rotation pattern: the
    features of `rotate_foa(clip, pattern)`, bit for bit, from one pass
    over the clip.

    A pattern negates some of Y, Z and X (`pattern.channel_signs`), which
    leaves every amplitude as it is and gives each phase difference one of
    two values: the channel's own, or its negation's.  So the clip is
    transformed FRAME_CHUNK frames at a time, and each chunk's four
    amplitudes (4 `abs`) and six phase-difference planes (7 `arctan2`)
    are written out before its spectrum is dropped: the amplitudes and
    the own phase differences into one (7, T, F) buffer, the negations'
    into a (3, T, F) one.  The negation's phase is that of the negated
    spectrum, except on chunks where `augment.zero_signs_matter`, where it
    is that of the STFT of the chunk's audio with Y, Z and X negated; the
    predicate is bin-local, so deciding it per chunk gives the bits of
    deciding it for the clip.  Each pattern swaps, a chunk at a time, only
    the planes whose sign differs from the previous pattern's between the
    two buffers (8 swaps for `ALL_PATTERNS` in order).

    Every stack yielded is one read-only view of the (7, T, F) buffer:
    the next pattern overwrites those of its channels 4-6 whose sign
    differs, so use a stack before asking for the next.
    """
    n_frames = cfg.n_frames(clip.n_samples)
    out = np.empty((FEATURE_CHANNELS, n_frames, cfg.n_bins))
    alt = np.empty((3, n_frames, cfg.n_bins))
    for lo, hi in _frame_chunks(0, n_frames):
        spec = stft(clip, cfg, lo, hi)
        flipped = _flipped_stft(clip, cfg, lo, hi) if zero_signs_matter(spec) else None
        _rotated_planes(spec, flipped, out[:, lo:hi], alt[:, lo:hi])
    del spec, flipped  # not held while the patterns run
    view = out.view()
    view.flags.writeable = False
    fs = FeatureStack(view)
    swap = np.empty((min(FRAME_CHUNK, n_frames), cfg.n_bins))
    negated = [False] * 3  # whether channel 4 + q holds the negation's phase difference
    for r in patterns:
        for q, sign in enumerate(r.channel_signs[1:]):
            if negated[q] != (sign < 0):
                negated[q] = sign < 0
                for lo, hi in _frame_chunks(0, n_frames):
                    a, b, t = out[4 + q, lo:hi], alt[q, lo:hi], swap[:hi - lo]
                    np.copyto(t, a)
                    np.copyto(a, b)
                    np.copyto(b, t)
        yield r, fs
