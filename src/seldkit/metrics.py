"""Joint localization/detection scores.

Four scores over a prediction/reference pair of event lists, computed per
100 ms label frame and per class:

* localization error: mean angular distance over matched pairs,
* localization recall: matched pairs / reference count,
* location-aware error rate and F-score, where a matched pair only counts
  as a true positive when its angular distance is below the threshold
  (20 degrees by default).

Within one (frame, class) cell, predictions and references are paired by a
minimum-cost assignment on angular distance.  Aggregation is frame-level;
the official challenge tooling aggregates over one-second segments, so
scores are comparable in spirit but not bit-identical to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .accdoa import pairwise_angular_distance
from .scene import EventList

DEFAULT_THRESHOLD_DEG = 20.0


def match_frame_class(pred_vecs, ref_vecs):
    """Pair prediction and reference DOAs of one class in one frame.

    Returns (pairs, unmatched_pred, unmatched_ref) where pairs are
    (pred_index, ref_index, distance_deg) tuples from a minimum-total-
    distance assignment over the smaller side.
    """
    pred_vecs = np.atleast_2d(np.asarray(pred_vecs, dtype=float)) if len(pred_vecs) else np.zeros((0, 3))
    ref_vecs = np.atleast_2d(np.asarray(ref_vecs, dtype=float)) if len(ref_vecs) else np.zeros((0, 3))
    n, m = pred_vecs.shape[0], ref_vecs.shape[0]
    if n == 0 or m == 0:
        return [], list(range(n)), list(range(m))
    cost = pairwise_angular_distance(pred_vecs, ref_vecs)
    rows, cols = linear_sum_assignment(cost)
    pairs = [(int(i), int(j), float(cost[i, j])) for i, j in zip(rows, cols)]
    unmatched_pred = sorted(set(range(n)) - {i for i, _, _ in pairs})
    unmatched_ref = sorted(set(range(m)) - {j for _, j, _ in pairs})
    return pairs, unmatched_pred, unmatched_ref


@dataclass
class SeldMetrics:
    """The four scores plus the raw counts they were derived from."""

    le_cd: float      # degrees; NaN when nothing was matched
    lr_cd: float      # percent
    er_20: float
    f_20: float       # percent
    counts: dict

    def to_dict(self) -> dict:
        return {
            "LE_CD": self.le_cd,
            "LR_CD": self.lr_cd,
            "ER20": self.er_20,
            "F20": self.f_20,
            "counts": dict(self.counts),
        }


@dataclass
class MetricsAccumulator:
    """Count-wise accumulation across clips; finalize() yields SeldMetrics."""

    n_classes: int
    threshold_deg: float = DEFAULT_THRESHOLD_DEG
    tp: int = 0
    fp: int = 0
    fn: int = 0
    s: int = 0
    d: int = 0
    i: int = 0
    k_matched: int = 0
    d_sum: float = 0.0
    n_ref: int = 0

    def __post_init__(self):
        errors = []
        if self.n_classes < 1:
            errors.append(f"n_classes must be >= 1, got {self.n_classes}")
        # a pair counts when its distance is below the threshold, so above
        # 180 every matched pair counts; at 0 or below (or NaN) none does
        if not self.threshold_deg > 0:
            errors.append(f"threshold_deg must be > 0 degrees, got {self.threshold_deg}")
        if errors:
            raise ValueError("; ".join(errors))

    def update(self, pred: EventList, ref: EventList) -> None:
        if pred.n_frames != ref.n_frames:
            raise ValueError(
                f"timeline mismatch: pred has {pred.n_frames} frames, ref has {ref.n_frames}"
            )
        pred_cells = _frame_class_vectors(pred, self.n_classes)
        ref_cells = _frame_class_vectors(ref, self.n_classes)
        for frame in range(ref.n_frames):
            fp_frame = 0
            fn_frame = 0
            classes = set(pred_cells.get(frame, {})) | set(ref_cells.get(frame, {}))
            for c in classes:
                preds = pred_cells.get(frame, {}).get(c, [])
                refs = ref_cells.get(frame, {}).get(c, [])
                pairs, un_pred, un_ref = match_frame_class(preds, refs)
                self.n_ref += len(refs)
                self.k_matched += len(pairs)
                for _, _, dist in pairs:
                    self.d_sum += dist
                    if dist < self.threshold_deg:
                        self.tp += 1
                    else:
                        # substitution-like: wrong place counts on both sides
                        fp_frame += 1
                        fn_frame += 1
                fp_frame += len(un_pred)
                fn_frame += len(un_ref)
            self.fp += fp_frame
            self.fn += fn_frame
            self.s += min(fp_frame, fn_frame)
            self.d += max(0, fn_frame - fp_frame)
            self.i += max(0, fp_frame - fn_frame)

    def finalize(self) -> SeldMetrics:
        le = self.d_sum / self.k_matched if self.k_matched else float("nan")
        lr = 100.0 * self.k_matched / self.n_ref if self.n_ref else float("nan")
        er = (self.s + self.d + self.i) / self.n_ref if self.n_ref else float("nan")
        denom = 2 * self.tp + self.fp + self.fn
        f = 100.0 * 2 * self.tp / denom if denom else float("nan")
        counts = {
            "TP": self.tp, "FP": self.fp, "FN": self.fn,
            "S": self.s, "D": self.d, "I": self.i,
            "K_matched": self.k_matched, "D_sum": self.d_sum, "N_ref": self.n_ref,
        }
        return SeldMetrics(le_cd=le, lr_cd=lr, er_20=er, f_20=f, counts=counts)


def _frame_class_vectors(events: EventList, n_classes: int) -> dict:
    """frame -> class -> list of unit vectors."""
    cells: dict = {}
    for ev in events.events:
        if ev.class_id >= n_classes:
            raise ValueError(f"class_id {ev.class_id} >= n_classes {n_classes}")
        for idx, frame in enumerate(range(ev.onset, ev.offset)):
            cells.setdefault(frame, {}).setdefault(ev.class_id, []).append(
                ev.trajectory[idx].unit_vec
            )
    return cells


def evaluate(
    pred: EventList,
    ref: EventList,
    n_classes: int,
    threshold_deg: float = DEFAULT_THRESHOLD_DEG,
) -> SeldMetrics:
    """Score one prediction against one reference on a shared timeline."""
    acc = MetricsAccumulator(n_classes=n_classes, threshold_deg=threshold_deg)
    acc.update(pred, ref)
    return acc.finalize()


def metrics_csv_header() -> list:
    return ["name", "LE_CD", "LR_CD", "ER20", "F20", "TP", "FP", "FN", "N_ref"]


def metrics_csv_row(name: str, m: SeldMetrics) -> list:
    fmt = lambda x: f"{x:.4f}" if not math.isnan(x) else "nan"
    return [
        name, fmt(m.le_cd), fmt(m.lr_cd), fmt(m.er_20), fmt(m.f_20),
        m.counts["TP"], m.counts["FP"], m.counts["FN"], m.counts["N_ref"],
    ]
