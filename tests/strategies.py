"""Hypothesis strategies for directions, event lists and FOA clips."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from seldkit.scene import AmbisonicClip, DoaAngles, Event, EventList

doas = st.builds(
    DoaAngles,
    st.floats(-math.pi, math.pi),
    st.floats(-math.pi / 2, math.pi / 2),
)


@st.composite
def event_lists(draw, n_classes: int, n_frames: int | None = None,
                min_events: int = 0, max_events: int = 4) -> EventList:
    """Valid EventList with per-frame trajectories: no same-class overlap
    and a gap of at least one frame between same-class events, so
    decoding gives the events back rather than merging them."""
    if n_frames is None:
        n_frames = draw(st.integers(1, 20))
    busy = np.zeros((n_frames, n_classes), dtype=bool)
    events = []
    for _ in range(draw(st.integers(min_events, max_events))):
        c = draw(st.integers(0, n_classes - 1))
        onset = draw(st.integers(0, n_frames - 1))
        offset = draw(st.integers(onset + 1, n_frames))
        if busy[max(onset - 1, 0):offset + 1, c].any():
            continue  # never the first event, so min_events=1 gives at least one
        busy[onset:offset, c] = True
        trajectory = draw(st.lists(doas, min_size=offset - onset, max_size=offset - onset))
        events.append(Event(c, onset, offset, trajectory))
    return EventList(events, n_frames)


@st.composite
def foa_clips(draw, win_len: int = 256, hop: int = 240, max_frames: int = 8) -> AmbisonicClip:
    """Noise clips of 1 to `max_frames` STFT frames, possibly quantized to
    quarters (exact cancellations), with whole frames of every channel and
    of single channels possibly silent."""
    n_frames = draw(st.integers(1, max_frames))
    n = win_len + (n_frames - 1) * hop
    samples = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((4, n))
    if draw(st.booleans()):
        samples = np.round(4.0 * samples) / 4.0

    def silence(channels, min_frames):
        count = draw(st.integers(min_frames, n_frames))
        first = draw(st.integers(0, n_frames - count))
        if count:
            samples[channels, first * hop:(first + count - 1) * hop + win_len] = 0.0

    silence(slice(None), 0)
    for channel in draw(st.lists(st.integers(0, 3), max_size=3, unique=True)):
        silence(channel, 1)
    return AmbisonicClip(samples)
