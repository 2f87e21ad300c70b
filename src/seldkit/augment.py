"""Training-time augmentation: event mixing, FOA rotation, feature masking.

The eight reflection rotations act on angles as
(az', el') = (s_az * az + add_pi * pi, s_el * el) and on FOA channels and
DOA vectors as sign flips, so rotating audio, labels, or network outputs
are exactly commuting operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy import signal as sps

from .scene import (
    LABEL_FRAME_SAMPLES, SAMPLE_RATE, AmbisonicClip, DoaAngles, Event, EventList, wrap_azimuth,
)

_TWO_PI = 2.0 * math.pi
MAX_SECONDARIES = 2  # secondaries `emda_mix` adds to one primary
_EMDA_MAX_TRIES = 10  # draws per secondary before `emda_mix` drops it


@dataclass(frozen=True)
class RotationPattern:
    """One of the eight azimuth/elevation reflection rotations."""

    azimuth_sign: int = 1
    add_pi: bool = False
    elevation_sign: int = 1

    def __post_init__(self):
        if self.azimuth_sign not in (1, -1) or self.elevation_sign not in (1, -1):
            raise ValueError("signs must be +1 or -1")

    @property
    def vector_signs(self) -> tuple:
        """(fx, fy, fz) sign flips applied to Cartesian DOA components."""
        fx = -1.0 if self.add_pi else 1.0
        return (fx, self.azimuth_sign * fx, float(self.elevation_sign))

    @property
    def channel_signs(self) -> np.ndarray:
        """(1, fy, fz, fx) sign flips applied to the FOA channels [W, Y, Z, X]."""
        fx, fy, fz = self.vector_signs
        return np.array([1.0, fy, fz, fx])


# paper order: (az,el), (-az,el), (az+pi,el), (-az+pi,el), then same with -el
ALL_PATTERNS = tuple(
    RotationPattern(azimuth_sign=s, add_pi=k, elevation_sign=e)
    for e in (1, -1)
    for k in (False, True)
    for s in (1, -1)
)


def rotate_angles(d: DoaAngles, r: RotationPattern) -> DoaAngles:
    """Rotate a DOA; the cached unit vector is sign-flipped exactly."""
    az = wrap_azimuth(r.azimuth_sign * d.azimuth + (math.pi if r.add_pi else 0.0))
    el = r.elevation_sign * d.elevation
    return DoaAngles._with_vec(az, el, np.asarray(r.vector_signs) * d.unit_vec)


def rotate_foa(clip: AmbisonicClip, r: RotationPattern) -> AmbisonicClip:
    """Rotate a FOA clip; W is untouched, Y/Z/X flip sign per pattern."""
    return AmbisonicClip(r.channel_signs[:, None] * clip.samples)


def zero_signs_matter(spec: np.ndarray) -> bool:
    """Whether negating Y, Z or X of the STFT `spec` can give other features
    than the STFT of the negated audio.

    The two differ only in the sign of exact zeros, which reaches the
    features only through the phase of a bin whose imaginary part is zero:
    pi or -pi, or 0 or pi where the bin is zero.  The phase difference to W
    still agrees when W is zero, or when W's phase is 0 or pi as well and
    the bin is not zero.
    """
    w = spec[0]
    im_zero = spec[1:].imag == 0
    return bool(np.any(im_zero & (w.imag != 0))
                or np.any(im_zero & (spec[1:].real == 0) & (w != 0)))


def rotate_accdoa(seq: np.ndarray, r: RotationPattern) -> np.ndarray:
    """Rotate ACCDOA vectors (..., 3) by the pattern's sign flips."""
    return np.asarray(seq) * np.asarray(r.vector_signs)


def rotate_events(events: EventList, r: RotationPattern) -> EventList:
    """Rotate all trajectories of an EventList."""
    out = [
        Event(ev.class_id, ev.onset, ev.offset, [rotate_angles(d, r) for d in ev.trajectory])
        for ev in events.events
    ]
    return EventList(out, events.n_frames)


def _peaking_eq_coeffs(center_hz: float, gain_db: float, q: float):
    """RBJ peaking equalizer biquad at SAMPLE_RATE, normalized so a0 = 1."""
    a = 10.0 ** (gain_db / 40.0)
    w0 = _TWO_PI * center_hz / SAMPLE_RATE
    alpha = math.sin(w0) / (2.0 * q)
    b = np.array([1.0 + alpha * a, -2.0 * math.cos(w0), 1.0 - alpha * a])
    den = np.array([1.0 + alpha / a, -2.0 * math.cos(w0), 1.0 - alpha / a])
    return b / den[0], den / den[0]


def emda_mix(
    primary,
    secondaries,
    rng: np.random.Generator,
    *,
    gain_db_range=(-6.0, 6.0),
    delay_ms_range=(0.0, 200.0),
    eq_center_hz_range=(200.0, 8000.0),
    eq_gain_db_range=(-6.0, 6.0),
    eq_q_range=(0.5, 2.0),
):
    """Equalized mixture augmentation.

    Each secondary (clip, EventList) is gain-scaled, delayed, run through a
    random peaking equalizer, and summed onto the primary.  Labels are the
    union with delays applied; a secondary whose events would collide with
    an already-active instance of the same class is re-randomized up to
    `_EMDA_MAX_TRIES` times and then dropped.  Output length equals the primary.
    """
    clip, events = primary
    if len(secondaries) > MAX_SECONDARIES:
        raise ValueError(f"at most {MAX_SECONDARIES} secondaries are mixed")
    out = clip.samples.copy()
    n_frames = events.n_frames
    total = out.shape[1]
    merged = list(events.events)
    busy = events.activity(1 + max(
        [ev.class_id for ev in merged]
        + [ev.class_id for _, sec_ev in secondaries for ev in sec_ev.events],
        default=0,
    ))

    for sec_clip, sec_events in secondaries:
        accepted = None
        for _try in range(_EMDA_MAX_TRIES):
            gain_db = rng.uniform(*gain_db_range)
            delay_ms = rng.uniform(*delay_ms_range)
            center = math.exp(rng.uniform(math.log(eq_center_hz_range[0]), math.log(eq_center_hz_range[1])))
            eq_gain = rng.uniform(*eq_gain_db_range)
            q = rng.uniform(*eq_q_range)
            delay = int(round(delay_ms * 1e-3 * SAMPLE_RATE))
            shifted = []
            ok = True
            for ev in sec_events.events:
                # nearest label frame keeps labels aligned with the delayed audio
                shift = int(round((ev.onset * LABEL_FRAME_SAMPLES + delay) / LABEL_FRAME_SAMPLES)) - ev.onset
                onset, offset = ev.onset + shift, ev.offset + shift
                lo, hi = max(onset, 0), min(offset, n_frames)
                if hi <= lo:
                    continue
                traj = ev.trajectory[lo - onset: hi - onset]
                if np.any(busy[lo:hi, ev.class_id]):
                    ok = False
                    break
                shifted.append(Event(ev.class_id, lo, hi, traj))
            if ok:
                accepted = (gain_db, delay, center, eq_gain, q, shifted)
                break
        if accepted is None:
            continue
        gain_db, delay, center, eq_gain, q, shifted = accepted
        b, a = _peaking_eq_coeffs(center, eq_gain, q)
        filtered = sps.lfilter(b, a, sec_clip.samples, axis=1)
        gain = 10.0 ** (gain_db / 20.0)
        n = min(sec_clip.n_samples, total - delay)
        if n > 0:
            out[:, delay:delay + n] += gain * filtered[:, :n]
        for ev in shifted:
            busy[ev.onset:ev.offset, ev.class_id] = True
            merged.append(ev)

    merged.sort(key=lambda e: (e.onset, e.class_id))
    return AmbisonicClip(out), EventList(merged, n_frames)


@dataclass(frozen=True)
class SpecAugmentConfig:
    """Mask counts and maximum widths for multichannel SpecAugment."""

    n_time_masks: int = 2
    n_freq_masks: int = 2
    n_chan_masks: int = 1
    max_time_width: int = 64
    max_freq_width: int = 16

    def __post_init__(self):
        bad = [f"{f.name} must be >= 0, got {getattr(self, f.name)}"
               for f in fields(self) if getattr(self, f.name) < 0]
        if bad:
            raise ValueError("; ".join(bad))


def spec_augment(fs, cfg: SpecAugmentConfig, rng: np.random.Generator):
    """Multichannel SpecAugment on a (7, T, F) feature stack.

    Time and frequency masks zero all seven feature channels.  A channel
    mask picks one of the four microphone channels c0: its amplitude
    spectrogram is zeroed, and when c0 is not the phase reference (c0 > 0)
    the corresponding phase-difference channel is replaced with values
    drawn uniformly from [0, 2pi).
    """
    from .features import FeatureStack

    data = np.array(fs.data, copy=True)
    _, n_t, n_f = data.shape
    for _ in range(cfg.n_time_masks):
        w = int(rng.integers(0, min(cfg.max_time_width, n_t) + 1))
        t0 = int(rng.integers(0, n_t - w + 1))
        data[:, t0:t0 + w, :] = 0.0
    for _ in range(cfg.n_freq_masks):
        w = int(rng.integers(0, min(cfg.max_freq_width, n_f) + 1))
        f0 = int(rng.integers(0, n_f - w + 1))
        data[:, :, f0:f0 + w] = 0.0
    for _ in range(cfg.n_chan_masks):
        c0 = int(rng.integers(0, 4))
        data[c0] = 0.0
        if c0 > 0:
            data[4 + (c0 - 1)] = rng.uniform(0.0, _TWO_PI, size=(n_t, n_f))
    return FeatureStack(data)
