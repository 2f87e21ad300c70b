"""Static SVG timeline of an event list: activity, azimuth, elevation.

Hand-rolled SVG so the document structure is predictable: every event
contributes exactly one ``<g class="event">`` group holding its activity
bar and its azimuth/elevation polylines, colored by class.
"""

from __future__ import annotations

import csv
import math

from .scene import EventList

_PANEL_W = 640
_PANEL_H = 120
_MARGIN = 45
_GAP = 25


def _class_color(class_id: int, n_classes: int) -> str:
    hue = int(360 * class_id / n_classes)
    return f"hsl({hue}, 70%, 45%)"


def _axis(x, y, w, h, title):
    return (
        f'<rect x="{x}" y="{y}" width="{w}" height="{h}" fill="none" stroke="#999"/>'
        f'<text x="{x + 4}" y="{y + 14}" font-size="12" fill="#333">{title}</text>'
    )


def _polyline(points, color):
    pts = " ".join(f"{px:.1f},{py:.1f}" for px, py in points)
    return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>'


def render_timeline_svg(events: EventList, n_classes: int) -> str:
    """SVG text with activity / azimuth / elevation panels; the activity
    panel has one row per class, so every class id must be below `n_classes`."""
    if n_classes < 1:
        raise ValueError(f"n_classes must be >= 1, got {n_classes}")
    top = max((ev.class_id for ev in events.events), default=0)
    if top >= n_classes:
        raise ValueError(f"n_classes {n_classes} has no activity row for event class_id {top}")
    n_frames = max(events.n_frames, 1)
    width = _PANEL_W + 2 * _MARGIN
    x0 = _MARGIN
    panels = {
        "activity": _MARGIN,
        "azimuth": _MARGIN + _PANEL_H + _GAP,
        "elevation": _MARGIN + 2 * (_PANEL_H + _GAP),
    }
    height = _MARGIN * 2 + 3 * _PANEL_H + 2 * _GAP

    def fx(frame):
        return x0 + _PANEL_W * frame / n_frames

    def fy_activity(class_id):
        row_h = _PANEL_H / n_classes
        return panels["activity"] + class_id * row_h, max(row_h - 2, 2)

    def fy_angle(panel, value_deg, lo, hi):
        frac = (value_deg - lo) / (hi - lo)
        return panels[panel] + _PANEL_H * (1.0 - frac)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="white"/>',
        _axis(x0, panels["activity"], _PANEL_W, _PANEL_H, "class activity"),
        _axis(x0, panels["azimuth"], _PANEL_W, _PANEL_H, "azimuth [deg]"),
        _axis(x0, panels["elevation"], _PANEL_W, _PANEL_H, "elevation [deg]"),
    ]
    for ev in events.events:
        color = _class_color(ev.class_id, n_classes)
        y_row, row_h = fy_activity(ev.class_id)
        az_pts = []
        el_pts = []
        for i, frame in enumerate(range(ev.onset, ev.offset)):
            d = ev.trajectory[i]
            xm = fx(frame + 0.5)
            az_pts.append((xm, fy_angle("azimuth", math.degrees(d.azimuth), -180, 180)))
            el_pts.append((xm, fy_angle("elevation", math.degrees(d.elevation), -90, 90)))
        if len(az_pts) == 1:
            az_pts.append((az_pts[0][0] + 1, az_pts[0][1]))
            el_pts.append((el_pts[0][0] + 1, el_pts[0][1]))
        parts.append(
            f'<g class="event" data-class="{ev.class_id}">'
            + f'<rect x="{fx(ev.onset):.1f}" y="{y_row:.1f}" '
            + f'width="{fx(ev.offset) - fx(ev.onset):.1f}" height="{row_h:.1f}" '
            + f'fill="{color}" fill-opacity="0.7"/>'
            + _polyline(az_pts, color)
            + _polyline(el_pts, color)
            + "</g>"
        )
    parts.append("</svg>")
    return "\n".join(parts)


def write_timeline(svg_path, csv_path, events: EventList, n_classes: int) -> None:
    """Emit the SVG plus a tidy CSV of the plotted tracks."""
    svg = render_timeline_svg(events, n_classes)
    with open(svg_path, "w") as f:
        f.write(svg)
    with open(csv_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["event_id", "class_id", "label_frame", "azimuth_deg", "elevation_deg"])
        for k, ev in enumerate(events.events):
            for i, frame in enumerate(range(ev.onset, ev.offset)):
                d = ev.trajectory[i]
                writer.writerow(
                    [k, ev.class_id, frame,
                     f"{math.degrees(d.azimuth):.2f}", f"{math.degrees(d.elevation):.2f}"]
                )
