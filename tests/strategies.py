"""Hypothesis strategies for directions and event lists."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from seldkit.scene import DoaAngles, Event, EventList

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
