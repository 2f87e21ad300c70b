"""Independent reference implementations used to check the library.

Everything here is deliberately written from first principles (different
formulas, brute-force enumeration) rather than calling the code under test.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.linalg import get_blas_funcs

from seldkit.scene import DoaAngles, Event, EventList


def great_circle_deg(d1: DoaAngles, d2: DoaAngles) -> float:
    """Spherical law of cosines on (azimuth, elevation) pairs."""
    cos_d = (
        math.sin(d1.elevation) * math.sin(d2.elevation)
        + math.cos(d1.elevation) * math.cos(d2.elevation) * math.cos(abs(d1.azimuth - d2.azimuth))
    )
    return math.degrees(math.acos(min(max(cos_d, -1.0), 1.0)))


def exhaustive_match(preds: list, refs: list):
    """Minimum-total-distance matching by trying every assignment.

    preds/refs are DoaAngles lists; returns (pairs, unmatched_pred,
    unmatched_ref) with pairs as (pred_idx, ref_idx, distance) tuples.
    """
    n, m = len(preds), len(refs)
    if n == 0 or m == 0:
        return [], list(range(n)), list(range(m))
    k = min(n, m)
    best = None
    if n <= m:
        for combo in itertools.permutations(range(m), k):
            pairs = [(i, combo[i], great_circle_deg(preds[i], refs[combo[i]])) for i in range(n)]
            total = sum(p[2] for p in pairs)
            if best is None or total < best[0]:
                best = (total, pairs)
    else:
        for combo in itertools.permutations(range(n), k):
            pairs = [(combo[j], j, great_circle_deg(preds[combo[j]], refs[j])) for j in range(m)]
            total = sum(p[2] for p in pairs)
            if best is None or total < best[0]:
                best = (total, pairs)
    pairs = best[1]
    unmatched_pred = sorted(set(range(n)) - {p for p, _, _ in pairs})
    unmatched_ref = sorted(set(range(m)) - {r for _, r, _ in pairs})
    return pairs, unmatched_pred, unmatched_ref


def exhaustive_metrics(pred: EventList, ref: EventList, n_classes: int, threshold: float = 20.0):
    """Frame-level joint metrics with exhaustive matching; plain dict out."""
    def cells(events):
        table: dict = {}
        for ev in events.events:
            for i, frame in enumerate(range(ev.onset, ev.offset)):
                table.setdefault((frame, ev.class_id), []).append(ev.trajectory[i])
        return table

    pc, rc = cells(pred), cells(ref)
    tp = fp = fn = s = d = i_count = k_matched = 0
    d_sum = 0.0
    n_ref = 0
    for frame in range(ref.n_frames):
        fp_f = fn_f = 0
        for c in range(n_classes):
            preds = pc.get((frame, c), [])
            refs = rc.get((frame, c), [])
            pairs, un_p, un_r = exhaustive_match(preds, refs)
            n_ref += len(refs)
            k_matched += len(pairs)
            for _, _, dist in pairs:
                d_sum += dist
                if dist < threshold:
                    tp += 1
                else:
                    fp_f += 1
                    fn_f += 1
            fp_f += len(un_p)
            fn_f += len(un_r)
        fp += fp_f
        fn += fn_f
        s += min(fp_f, fn_f)
        d += max(0, fn_f - fp_f)
        i_count += max(0, fp_f - fn_f)
    return {
        "TP": tp, "FP": fp, "FN": fn, "S": s, "D": d, "I": i_count,
        "K_matched": k_matched, "D_sum": d_sum, "N_ref": n_ref,
        "LE": d_sum / k_matched if k_matched else float("nan"),
        "LR": 100.0 * k_matched / n_ref if n_ref else float("nan"),
        "ER": (s + d + i_count) / n_ref if n_ref else float("nan"),
        "F": 100.0 * 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else float("nan"),
    }


def random_event_list(
    rng: np.random.Generator,
    n_classes: int,
    n_frames: int,
    max_events: int = 4,
    moving: bool = True,
) -> EventList:
    """Random valid EventList: no same-class overlap and a gap of at least
    one frame between same-class events (so decode round-trips exactly)."""
    events = []
    busy = np.zeros((n_frames, n_classes), dtype=bool)
    n_events = int(rng.integers(0, max_events + 1))
    for _ in range(n_events):
        for _attempt in range(30):
            c = int(rng.integers(n_classes))
            dur = int(rng.integers(1, max(2, n_frames // 2)))
            onset = int(rng.integers(0, n_frames - dur + 1))
            lo = max(onset - 1, 0)
            hi = min(onset + dur + 1, n_frames)
            if busy[lo:hi, c].any():
                continue
            busy[onset:onset + dur, c] = True
            if moving:
                traj = [
                    DoaAngles(rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi / 2, math.pi / 2))
                    for _ in range(dur)
                ]
            else:
                d = DoaAngles(rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi / 2, math.pi / 2))
                traj = [d] * dur
            events.append(Event(c, onset, onset + dur, traj))
            break
    events.sort(key=lambda e: (e.onset, e.class_id))
    return EventList(events, n_frames)


def brute_force_mse(pred: np.ndarray, target: np.ndarray) -> float:
    total = 0.0
    count = 0
    for p, t in zip(pred.ravel(), target.ravel()):
        total += (p - t) ** 2
        count += 1
    return total / count


def brute_force_bce(pred: np.ndarray, target: np.ndarray, clamp: float = 1e-7) -> float:
    total = 0.0
    count = 0
    for p, t in zip(pred.ravel(), target.ravel()):
        p = min(max(p, clamp), 1.0 - clamp)
        total += -(t * math.log(p) + (1.0 - t) * math.log(1.0 - p))
        count += 1
    return total / count


def brute_force_masked_mse(pred, target, mask) -> float:
    pred = np.asarray(pred)
    target = np.asarray(target)
    mask = np.asarray(mask)
    total = 0.0
    count = 0.0
    for idx in np.ndindex(pred.shape):
        m = mask[idx[:-1]]
        total += m * (pred[idx] - target[idx]) ** 2
        count += m
    return total / max(count, 1.0)


def feature_stack_by_mod(spec: np.ndarray) -> np.ndarray:
    """(7, T, F) features the direct way: amplitudes, then each channel's
    `np.angle` minus W's wrapped by `np.mod`, zeroed where W is zero."""
    amp = np.abs(spec)
    phase = np.angle(spec)
    ipd = np.mod(phase[1:] - phase[0], 2.0 * math.pi)
    ipd[:, amp[0] == 0] = 0.0
    return np.concatenate([amp, ipd], axis=0)


def same_bits(a, b) -> bool:
    """Equal shapes, dtypes and bit patterns; unlike ==, tells -0.0 from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def conv2d_by_tap_copies(x: np.ndarray, W: np.ndarray, b: np.ndarray, dilation: int) -> np.ndarray:
    """3x3 same-padded conv of (B, T, F, C) the per-tap-copy way: each
    tap's shifted window copied out of the zero-padded input, then one
    accumulating BLAS GEMM per tap in tap order, onto the bias."""
    B, T, F, C = x.shape
    p = dilation
    xp = np.zeros((B, T + 2 * p, F + 2 * p, C), dtype=x.dtype)
    xp[:, p:p + T, p:p + F] = x
    y = np.empty((B * T * F, W.shape[2]), dtype=x.dtype)
    y[...] = b
    gemm = get_blas_funcs("gemm", (y,))
    for idx, (i, j) in enumerate(itertools.product(range(3), range(3))):
        tap = np.ascontiguousarray(xp[:, i * p:i * p + T, j * p:j * p + F]).reshape(-1, C)
        # y.T = W.T @ tap.T + y.T, in place on the Fortran-ordered transpose
        y = gemm(1.0, W[idx].T, tap.T, 1.0, y.T, overwrite_c=1).T
    return y.reshape(B, T, F, W.shape[2])


def freq_pool_by_mean(x: np.ndarray, factor: int) -> np.ndarray:
    """Mean over each run of `factor` neighbouring frequency bins of (B, T, F, C)."""
    B, T, F, C = x.shape
    return x.reshape(B, T, F // factor, factor, C).mean(axis=3)
