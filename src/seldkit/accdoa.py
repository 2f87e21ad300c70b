"""Activity-coupled Cartesian DOA sequences.

A sequence is a (T, N, 3) array over label frames and classes: the norm of
each 3-vector is the event activity and its direction the DOA.  Encoding
maps an EventList to unit/zero vectors, decoding thresholds norms and
merges contiguous active frames back into events.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .scene import DoaAngles, Event, EventList

LABEL_FRAME_FACTOR = 10  # 10 ms network frames per 100 ms label frame


def encode_accdoa(events: EventList, n_classes: int, n_frames: int | None = None) -> np.ndarray:
    """Encode ground truth as (n_frames, n_classes, 3) unit/zero vectors.

    Raises ValueError when two events of the same class are active in the
    same frame: that situation is unrepresentable in this format.
    """
    if n_frames is None:
        n_frames = events.n_frames
    out = np.zeros((n_frames, n_classes, 3))
    occupied = np.zeros((n_frames, n_classes), dtype=bool)
    for ev in events.events:
        if ev.class_id >= n_classes:
            raise ValueError(f"class_id {ev.class_id} >= n_classes {n_classes}")
        if ev.offset > n_frames:
            raise ValueError("event extends beyond the timeline")
        if np.any(occupied[ev.onset:ev.offset, ev.class_id]):
            raise ValueError(
                f"overlapping events of class {ev.class_id}: one instance per class per frame"
            )
        occupied[ev.onset:ev.offset, ev.class_id] = True
        for i, frame in enumerate(range(ev.onset, ev.offset)):
            out[frame, ev.class_id] = ev.trajectory[i].unit_vec
    return out


def _direction(vec: np.ndarray, norm: float) -> np.ndarray:
    # unit-norm inputs pass through untouched so encode/decode round-trips
    # are exact in floating point
    if abs(norm - 1.0) <= 1e-12:
        return vec
    return vec / norm


def decode_accdoa(seq: np.ndarray, threshold: float = 0.5) -> EventList:
    """Threshold a (T, N, 3) sequence into an EventList.

    A (frame, class) cell is active iff its vector norm exceeds
    `threshold`; contiguous active frames of one class merge into a single
    event whose per-frame DOAs are the normalized vectors.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    seq = np.asarray(seq)
    if seq.ndim != 3 or seq.shape[2] != 3:
        raise ValueError(f"expected (T, N, 3), got {seq.shape}")
    n_frames, n_classes = seq.shape[:2]
    norms = np.linalg.norm(seq, axis=2)
    active = norms > threshold
    events = []
    for c in range(n_classes):
        frames = np.flatnonzero(active[:, c])
        if frames.size == 0:
            continue
        splits = np.flatnonzero(np.diff(frames) > 1) + 1
        for run in np.split(frames, splits):
            traj = [
                DoaAngles.from_unit_vec(_direction(seq[t, c], norms[t, c]))
                for t in run
            ]
            events.append(Event(c, int(run[0]), int(run[-1]) + 1, traj))
    events.sort(key=lambda e: (e.onset, e.class_id))
    return EventList(events, n_frames)


def angular_distance(v1, v2) -> float:
    """Angle between two nonzero vectors, in degrees [0, 180]."""
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    n1 = np.linalg.norm(v1)
    n2 = np.linalg.norm(v2)
    if n1 == 0.0 or n2 == 0.0:
        raise ValueError("angular distance undefined for zero vectors")
    if np.array_equal(v1, v2):
        return 0.0
    dot = float(np.dot(v1 / n1, v2 / n2))
    return math.degrees(math.acos(min(max(dot, -1.0), 1.0)))


def pairwise_angular_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Degrees between all rows of (n, 3) `a` and (m, 3) `b`; shape (n, m)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ua = a / np.linalg.norm(a, axis=1, keepdims=True)
    ub = b / np.linalg.norm(b, axis=1, keepdims=True)
    dots = np.clip(ua @ ub.T, -1.0, 1.0)
    return np.degrees(np.arccos(dots))


def compose_accdoa(activity: np.ndarray, doa: np.ndarray) -> np.ndarray:
    """Combine an activity map and raw DOA vectors into ACCDOA form.

    DOA vectors are normalized where nonzero, then scaled by activity, so
    vector norms carry the activity as in the single-target format.
    """
    doa = np.asarray(doa, dtype=float)
    norms = np.linalg.norm(doa, axis=-1, keepdims=True)
    unit = np.divide(doa, norms, out=np.zeros_like(doa), where=norms > 1e-30)
    return np.asarray(activity)[..., None] * unit


def expand_to_frame_rate(seq: np.ndarray, n_frames: int) -> np.ndarray:
    """Repeat label-rate values onto the 10 ms frame grid, trimmed to n_frames."""
    out = np.repeat(np.asarray(seq), LABEL_FRAME_FACTOR, axis=0)
    if out.shape[0] < n_frames:
        raise ValueError("label sequence too short for requested frame count")
    return out[:n_frames]


def dump_accdoa(path, seq: np.ndarray) -> None:
    """Binary dump of a (T, N, 3) sequence: three int64 dims, float32 data."""
    data = np.ascontiguousarray(seq, dtype="<f4")
    if data.ndim != 3 or data.shape[2] != 3:
        raise ValueError(f"expected (T, N, 3), got {data.shape}")
    with open(path, "wb") as f:
        f.write(struct.pack("<3q", *data.shape))
        f.write(data.tobytes())


def load_accdoa(path) -> np.ndarray:
    """Read a `dump_accdoa` file as float64.  A file shorter than its
    header, header dims that are not (T, N, 3) with T, N >= 0, a payload
    of another size, or a NaN or infinite value is a ValueError naming the
    path."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 24:
        raise ValueError(f"{path}: {len(raw)} bytes, shorter than the 24-byte header")
    dims = struct.unpack("<3q", raw[:24])
    if min(dims) < 0 or dims[2] != 3:
        raise ValueError(f"{path}: header dims {dims}, expected (T, N, 3) with T, N >= 0")
    need = 4 * dims[0] * dims[1] * 3
    if len(raw) - 24 != need:
        raise ValueError(f"{path}: {len(raw) - 24} data bytes, header dims {dims} need {need}")
    seq = np.frombuffer(raw, dtype="<f4", offset=24).reshape(dims).astype(np.float64)
    bad = ~np.isfinite(seq).all(axis=(1, 2))
    if bad.any():
        raise ValueError(f"{path}: non-finite value at frame {int(bad.argmax())}")
    return seq


def pool_to_label_rate(seq: np.ndarray) -> np.ndarray:
    """Mean-pool 10 ms frames to 100 ms label frames (partial last group kept)."""
    seq = np.asarray(seq)
    n = seq.shape[0]
    factor = LABEL_FRAME_FACTOR
    n_full = n // factor
    full = seq[: n_full * factor].reshape(n_full, factor, *seq.shape[1:]).mean(axis=1)
    if n_full * factor == n:
        return full
    tail = seq[n_full * factor:].mean(axis=0, keepdims=True)
    return np.concatenate([full, tail], axis=0)
