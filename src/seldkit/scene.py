"""Synthetic first-order-Ambisonic scene generation.

Renders FOA mixtures of band-limited noise events with analytically known
classes and directions of arrival.  The synthetic scenes stand in for real
recordings so that every downstream stage (features, training, inference,
metrics) can be exercised against exact ground truth.

Conventions: x = front, y = left, z = up; elevation measured from the
horizontal plane.  Channels follow ACN order [W, Y, Z, X] with SN3D
normalization (W gain 1), so the reflection rotations used for augmentation
act on the channels as pure sign flips.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import struct
from dataclasses import dataclass

import numpy as np
from scipy import signal as sps
from scipy.io import wavfile

SAMPLE_RATE = 24000
LABEL_FRAMES_PER_SECOND = 10          # 100 ms label frames
LABEL_FRAME_SAMPLES = SAMPLE_RATE // LABEL_FRAMES_PER_SECOND

_TWO_PI = 2.0 * math.pi
_EVENT_GAIN_RANGE = (0.5, 1.0)          # linear gain drawn per event
_FADE_SAMPLES = SAMPLE_RATE // 100      # 10 ms fade-in and fade-out per event


def wrap_azimuth(phi: float) -> float:
    """Wrap an angle into [-pi, pi)."""
    return float((phi + math.pi) % _TWO_PI - math.pi)


class DoaAngles:
    """Direction of arrival as (azimuth, elevation) in radians.

    Azimuth is wrapped into [-pi, pi) on construction; elevation must lie
    in [-pi/2, pi/2].  The equivalent Cartesian unit vector is computed
    once and cached.  Rotated copies produced by `augment.rotate_angles`
    carry the sign-flipped vector of the source, which keeps the whole
    rotation algebra exact in floating point.
    """

    __slots__ = ("azimuth", "elevation", "_vec")

    def __init__(self, azimuth: float, elevation: float):
        elevation = float(elevation)
        if not (-math.pi / 2 - 1e-12 <= elevation <= math.pi / 2 + 1e-12):
            raise ValueError(f"elevation {elevation} outside [-pi/2, pi/2]")
        object.__setattr__(self, "azimuth", wrap_azimuth(float(azimuth)))
        object.__setattr__(self, "elevation", min(max(elevation, -math.pi / 2), math.pi / 2))
        object.__setattr__(self, "_vec", None)

    def __setattr__(self, name, value):
        raise AttributeError("DoaAngles is immutable")

    @property
    def unit_vec(self) -> np.ndarray:
        """Cartesian unit vector (x, y, z); read-only array."""
        if self._vec is None:
            ce = math.cos(self.elevation)
            v = np.array(
                [
                    math.cos(self.azimuth) * ce,
                    math.sin(self.azimuth) * ce,
                    math.sin(self.elevation),
                ]
            )
            v.flags.writeable = False
            object.__setattr__(self, "_vec", v)
        return self._vec

    @classmethod
    def from_unit_vec(cls, vec: np.ndarray) -> "DoaAngles":
        """Angles of a unit vector; the vector itself is cached verbatim."""
        vec = np.asarray(vec, dtype=float)
        z = min(max(float(vec[2]), -1.0), 1.0)
        d = cls(math.atan2(vec[1], vec[0]), math.asin(z))
        cached = vec.copy()
        cached.flags.writeable = False
        object.__setattr__(d, "_vec", cached)
        return d

    @classmethod
    def _with_vec(cls, azimuth: float, elevation: float, vec: np.ndarray) -> "DoaAngles":
        d = cls(azimuth, elevation)
        vec = np.asarray(vec, dtype=float).copy()
        vec.flags.writeable = False
        object.__setattr__(d, "_vec", vec)
        return d

    def __repr__(self):
        return f"DoaAngles(az={math.degrees(self.azimuth):.1f}deg, el={math.degrees(self.elevation):.1f}deg)"

    def __eq__(self, other):
        if not isinstance(other, DoaAngles):
            return NotImplemented
        return self.azimuth == other.azimuth and self.elevation == other.elevation

    def __hash__(self):
        return hash((self.azimuth, self.elevation))


@dataclass
class AmbisonicClip:
    """4-channel FOA waveform, ACN order [W, Y, Z, X], SN3D gains."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 2 or self.samples.shape[0] != 4:
            raise ValueError(f"expected (4, L) samples, got {self.samples.shape}")
        if not np.all(np.isfinite(self.samples)):
            bad = ~np.isfinite(self.samples)
            sample = int(bad.any(axis=0).argmax())
            channel = int(bad[:, sample].argmax())
            raise ValueError(f"non-finite sample {self.samples[channel, sample]} at channel {channel}, "
                             f"sample {sample}")

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def duration_s(self) -> float:
        return self.n_samples / SAMPLE_RATE


@dataclass
class Event:
    """One sound event: class, active label-frame span, per-frame DOA."""

    class_id: int
    onset: int      # label-frame index, inclusive
    offset: int     # label-frame index, exclusive
    trajectory: list

    def __post_init__(self):
        if self.onset < 0 or self.onset >= self.offset:
            raise ValueError(f"bad event span [{self.onset}, {self.offset})")
        if len(self.trajectory) != self.offset - self.onset:
            raise ValueError("trajectory length must equal offset - onset")
        if self.class_id < 0:
            raise ValueError("class_id must be non-negative")

    @property
    def n_frames(self) -> int:
        return self.offset - self.onset


@dataclass
class EventList:
    """Ground-truth or predicted events on a shared label-frame timeline."""

    events: list
    n_frames: int

    def __post_init__(self):
        for ev in self.events:
            if ev.offset > self.n_frames:
                raise ValueError(f"event [{ev.onset}, {ev.offset}) exceeds timeline {self.n_frames}")

    def activity(self, n_classes: int) -> np.ndarray:
        """Boolean (n_frames, n_classes) activity map."""
        act = np.zeros((self.n_frames, n_classes), dtype=bool)
        for ev in self.events:
            if ev.class_id >= n_classes:
                raise ValueError(f"class_id {ev.class_id} >= n_classes {n_classes}")
            act[ev.onset:ev.offset, ev.class_id] = True
        return act

    def polyphony(self) -> np.ndarray:
        """Number of simultaneously active events per label frame."""
        count = np.zeros(self.n_frames, dtype=int)
        for ev in self.events:
            count[ev.onset:ev.offset] += 1
        return count


@dataclass(frozen=True)
class SceneConfig:
    """Parameters for one synthetic scene."""

    n_classes: int = 14
    duration_s: float = 11.0       # one 1024-frame input at 480/240 needs 10.25 s
    max_polyphony: int = 2
    n_events: int = 3
    rng_seed: int = 0
    min_event_frames: int = 5      # label frames (100 ms each)
    max_event_frames: int = 15
    elevation_range: tuple = (-math.pi / 4, math.pi / 4)

    def __post_init__(self):
        if self.n_classes < 1:
            raise ValueError(f"n_classes must be >= 1, got {self.n_classes}")
        if self.max_polyphony < 1:
            raise ValueError(f"max_polyphony must be >= 1, got {self.max_polyphony}")
        if self.n_events < 0:
            raise ValueError(f"n_events must be >= 0, got {self.n_events}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")
        n = self.duration_s * LABEL_FRAMES_PER_SECOND
        # synth_scene renders at least one label frame
        if not (math.isfinite(n) and round(n) >= 1):
            raise ValueError(f"duration_s must be at least one label frame "
                             f"({1 / LABEL_FRAMES_PER_SECOND} s), got {self.duration_s}")
        if abs(n - round(n)) > 1e-9:
            raise ValueError(f"duration_s must be a multiple of 0.1 s, got {self.duration_s}")

    @property
    def n_label_frames(self) -> int:
        return int(round(self.duration_s * LABEL_FRAMES_PER_SECOND))


def encode_plane_wave(signal: np.ndarray, d: DoaAngles) -> AmbisonicClip:
    """Encode a mono signal as an SN3D plane wave from direction `d`.

    Channel gains: W = 1, Y = sin(az) cos(el), Z = sin(el), X = cos(az) cos(el).
    """
    signal = np.asarray(signal, dtype=float)
    if signal.ndim != 1:
        raise ValueError("signal must be 1-D")
    x, y, z = d.unit_vec
    chans = np.empty((4, signal.shape[0]))
    chans[0] = signal
    chans[1] = signal * y
    chans[2] = signal * z
    chans[3] = signal * x
    return AmbisonicClip(chans)


def class_center_frequencies(n_classes: int) -> np.ndarray:
    """Per-class passband centers, log-spaced over [300, 9000] Hz."""
    if n_classes == 1:
        return np.array([math.sqrt(300.0 * 9000.0)])
    return np.logspace(math.log10(300.0), math.log10(9000.0), n_classes)


@functools.lru_cache()
def _class_bandpass(class_id: int, n_classes: int) -> tuple:
    """Second-order sections of the class's 4th-order Butterworth band-pass,
    as a tuple of rows: designed once per process, and immutable, so no
    caller can change what a later call gets."""
    fc = class_center_frequencies(n_classes)[class_id]
    lo = fc * 2.0 ** (-1.0 / 6.0)
    hi = fc * 2.0 ** (1.0 / 6.0)  # at most 10.1 kHz, below Nyquist at 24 kHz
    sos = sps.butter(4, [lo, hi], btype="bandpass", fs=SAMPLE_RATE, output="sos")
    return tuple(map(tuple, sos.tolist()))


def class_signature(
    class_id: int,
    duration_s: float,
    rng: np.random.Generator,
    n_classes: int = 14,
) -> np.ndarray:
    """Deterministic class-specific mono signal.

    Band-limited noise (1/3-octave passband around the class center
    frequency) with a class-specific amplitude-modulation rate of
    0.5 + class_id * 0.35 Hz.  Peak-normalized to 1.  The band-pass
    depends only on (class_id, n_classes) and is designed once per process.
    """
    if not 0 <= class_id < n_classes:
        raise ValueError(f"class_id {class_id} outside [0, {n_classes})")
    n = int(round(duration_s * SAMPLE_RATE))
    noise = rng.standard_normal(n)
    # sosfiltfilt wants a writeable array, so each call gets its own
    band = sps.sosfiltfilt(np.array(_class_bandpass(class_id, n_classes)), noise)
    am_rate = 0.5 + class_id * 0.35
    phase = rng.uniform(0.0, _TWO_PI)
    t = np.arange(n) / SAMPLE_RATE
    env = 0.6 + 0.4 * np.sin(_TWO_PI * am_rate * t + phase)
    out = band * env
    peak = np.max(np.abs(out))
    if peak > 0:
        out = out / peak
    return out


def _fade_edges(signal: np.ndarray) -> np.ndarray:
    # every event spans whole 100 ms label frames, far longer than two fades
    ramp = np.linspace(0.0, 1.0, _FADE_SAMPLES)
    signal = signal.copy()
    signal[:_FADE_SAMPLES] *= ramp
    signal[-_FADE_SAMPLES:] *= ramp[::-1]
    return signal


def render_events(placed, n_label_frames: int) -> AmbisonicClip:
    """Sum plane-wave encodings of (Event, mono signal) pairs, no normalization."""
    total = n_label_frames * LABEL_FRAME_SAMPLES
    mix = np.zeros((4, total))
    for ev, sig in placed:
        start = ev.onset * LABEL_FRAME_SAMPLES
        stop = ev.offset * LABEL_FRAME_SAMPLES
        if len(sig) != stop - start:
            raise ValueError("event signal length must match its frame span")
        # static-per-frame trajectories: all frames share one DOA in this generator
        clip = encode_plane_wave(sig, ev.trajectory[0])
        mix[:, start:stop] += clip.samples
    return AmbisonicClip(mix)


def place_events(cfg: SceneConfig, rng: np.random.Generator | None = None):
    """Draw one scene's events; returns (placed, EventList).

    Events get random classes, onsets, and static DOAs (azimuth uniform,
    elevation uniform over cfg.elevation_range).  At most
    `cfg.max_polyphony` events are simultaneously active and a class never
    overlaps itself.  `placed` pairs each Event with its mono signal, gain
    and fades applied, as `render_events` takes them.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.rng_seed)
    n_frames = cfg.n_label_frames
    poly = np.zeros(n_frames, dtype=int)
    class_busy = np.zeros((n_frames, cfg.n_classes), dtype=bool)
    placed = []
    for _ in range(cfg.n_events):
        for _attempt in range(20):
            class_id = int(rng.integers(cfg.n_classes))
            dur = int(rng.integers(cfg.min_event_frames, cfg.max_event_frames + 1))
            dur = min(dur, n_frames)
            onset = int(rng.integers(0, n_frames - dur + 1))
            span = slice(onset, onset + dur)
            if np.any(poly[span] >= cfg.max_polyphony) or np.any(class_busy[span, class_id]):
                continue
            az = rng.uniform(-math.pi, math.pi)
            el = rng.uniform(*cfg.elevation_range)
            d = DoaAngles(az, el)
            gain = rng.uniform(*_EVENT_GAIN_RANGE)
            sig = class_signature(class_id, dur * 0.1, rng, cfg.n_classes)
            sig = _fade_edges(sig * gain)
            ev = Event(class_id, onset, onset + dur, [d] * dur)
            placed.append((ev, sig))
            poly[span] += 1
            class_busy[span, class_id] = True
            break
    return placed, EventList([ev for ev, _ in placed], n_frames)


def render_scene(placed, events: EventList):
    """Render placed events into a fresh clip peak-normalized to 0.5;
    returns (AmbisonicClip, events)."""
    clip = render_events(placed, events.n_frames)
    peak = np.max(np.abs(clip.samples))
    if peak > 0:
        clip.samples *= 0.5 / peak
    return clip, events


def synth_scene(cfg: SceneConfig, rng: np.random.Generator | None = None):
    """Synthesize one scene as `place_events` draws it and `render_scene`
    renders it; returns (AmbisonicClip, EventList)."""
    return render_scene(*place_events(cfg, rng))


# ---------------------------------------------------------------------------
# File formats: 4-channel float WAV and DCASE-style label CSV
# ---------------------------------------------------------------------------

def decode_text(raw: bytes, path) -> str:
    """`raw`, the bytes of the file at `path`, as UTF-8 text; a byte that is
    not UTF-8 raises `ValueError("path:line: ...")`."""
    try:
        return raw.decode()
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{line}: not UTF-8 text: byte {raw[exc.start]:#04x}, "
                         f"{exc.reason}") from None


def csv_rows(path):
    """Yield (line, row) for each row of the UTF-8 CSV file at `path`, `line`
    being the line the row ends on.  Bytes that are not UTF-8, and rows the
    `csv` module rejects (such as a field over its size limit), raise
    `ValueError("path:line: ...")`."""
    with open(path, "rb") as f:
        text = decode_text(f.read(), path)
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from None


def write_wav(path, clip: AmbisonicClip) -> None:
    """Write a 32-bit float WAV, channels as columns."""
    wavfile.write(str(path), SAMPLE_RATE, clip.samples.T.astype(np.float32))


def read_wav(path) -> AmbisonicClip:
    """Read a 4-channel 24 kHz WAV; integer PCM is scaled to [-1, 1) by its full scale."""
    try:
        rate, data = wavfile.read(str(path))
    except (ValueError, TypeError, ZeroDivisionError, UnboundLocalError, struct.error) as exc:
        # what scipy's reader raises on malformed or truncated files
        raise ValueError(f"{path}: not a readable WAV file: {exc}") from None
    if rate != SAMPLE_RATE:
        raise ValueError(f"{path}: sample rate {rate} Hz, but seldkit runs at {SAMPLE_RATE} Hz")
    if data.ndim != 2 or data.shape[1] != 4:
        raise ValueError(f"{path}: expected 4-channel WAV")
    samples = data.T.astype(float)
    if data.dtype.kind in "iu":
        info = np.iinfo(data.dtype)
        half = (float(info.max) - float(info.min) + 1.0) / 2.0
        # the midpoint is 0 for signed PCM and 128 for unsigned 8-bit PCM
        samples = (samples - (info.min + half)) / half
    try:
        return AmbisonicClip(samples)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_label_csv(path, events: EventList) -> None:
    """Write `label_frame,class_id,track_id,azimuth_deg,elevation_deg` rows.

    Azimuth is rounded to integer degrees in [-180, 179], elevation to
    [-90, 90].  Track ids count events within each class.
    """
    rows = []
    track_counter: dict = {}
    for ev in events.events:
        track = track_counter.get(ev.class_id, 0)
        track_counter[ev.class_id] = track + 1
        for i, frame in enumerate(range(ev.onset, ev.offset)):
            d = ev.trajectory[i]
            az = int(round(math.degrees(d.azimuth)))
            if az >= 180:
                az -= 360
            el = int(round(math.degrees(d.elevation)))
            el = min(max(el, -90), 90)
            rows.append((frame, ev.class_id, track, az, el))
    rows.sort()
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerows(rows)


def read_label_csv(path, n_frames: int | None = None, n_classes: int | None = None) -> EventList:
    """Read the label CSV back into an EventList.

    Rows of one (class, track) pair are grouped; contiguous label frames
    form one event.  `n_frames` defaults to the highest frame + 1.  Line 1
    may be a header; a malformed or repeated row, or one whose class id is
    not below `n_classes` when given, raises `ValueError("path:line: ...")`.
    """
    per_track: dict = {}
    for line, row in csv_rows(path):
        if not row or (line == 1 and not row[0].strip().lstrip("-").isdigit()):
            continue  # blank line, or a header on line 1
        where = f"{path}:{line}"
        if len(row) != 5:
            raise ValueError(f"{where}: expected 5 fields "
                             f"(frame,class,track,azimuth,elevation), got {len(row)}")
        try:
            frame, class_id, track = (int(v) for v in row[:3])
            az, el = float(row[3]), float(row[4])
            if min(frame, class_id, track) < 0 or not (math.isfinite(az) and math.isfinite(el)):
                raise ValueError("negative frame, class or track, or non-finite angle")
            d = DoaAngles(math.radians(az), math.radians(el))
        except ValueError as exc:
            raise ValueError(f"{where}: bad row {','.join(row)!r}: {exc}") from None
        if n_classes is not None and class_id >= n_classes:
            raise ValueError(f"{where}: class_id {class_id} >= n_classes {n_classes}")
        frames = per_track.setdefault((class_id, track), {})
        if frame in frames:
            raise ValueError(f"{where}: class {class_id} track {track} frame {frame} listed twice")
        frames[frame] = d
    if n_frames is None:
        n_frames = 1 + max((f for track in per_track.values() for f in track), default=-1)
    events = []
    for (class_id, _track), frames in sorted(per_track.items()):
        entries = sorted(frames.items())
        run_start = 0
        for i in range(1, len(entries) + 1):
            if i == len(entries) or entries[i][0] != entries[i - 1][0] + 1:
                chunk = entries[run_start:i]
                events.append(
                    Event(class_id, chunk[0][0], chunk[-1][0] + 1, [d for _, d in chunk])
                )
                run_start = i
    events.sort(key=lambda e: (e.onset, e.class_id))
    return EventList(events, n_frames)
