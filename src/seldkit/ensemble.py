"""Class- and model-wise weighted averaging of DOA vector sequences.

Weights form an (n_classes, n_models) array fitted to minimise validation
MSE; classes decouple, so each row is an independent linear least-squares
problem, solved exactly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


@dataclass
class EnsembleWeights:
    """(n_classes, n_models) combination weights; unconstrained."""

    w: np.ndarray

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        if self.w.ndim != 2:
            raise ValueError(f"expected (n_classes, n_models), got {self.w.shape}")
        if not np.all(np.isfinite(self.w)):
            raise ValueError("non-finite weights")

    @property
    def n_classes(self) -> int:
        return self.w.shape[0]

    @property
    def n_models(self) -> int:
        return self.w.shape[1]


def _stack_outputs(outputs) -> np.ndarray:
    arrs = [np.asarray(o, dtype=float) for o in outputs]
    shape = arrs[0].shape
    for a in arrs:
        if a.shape != shape:
            raise ValueError(f"output shapes differ: {a.shape} vs {shape}")
        if a.ndim != 3 or a.shape[2] != 3:
            raise ValueError(f"expected (T, N, 3) outputs, got {a.shape}")
    return np.stack(arrs)


def combine(outputs, weights: EnsembleWeights) -> np.ndarray:
    """result[t, c] = sum_m w[c, m] * outputs[m][t, c]."""
    stacked = _stack_outputs(outputs)
    if stacked.shape[2] != weights.n_classes or stacked.shape[0] != weights.n_models:
        raise ValueError(
            f"weights {weights.w.shape} incompatible with {stacked.shape[0]} models "
            f"x {stacked.shape[2]} classes"
        )
    return np.einsum("mtnc,nm->tnc", stacked, weights.w)


def ensemble_mse(outputs, weights: EnsembleWeights, targets: np.ndarray) -> float:
    diff = combine(outputs, weights) - np.asarray(targets, dtype=float)
    return float(np.mean(diff * diff))


def fit_weights(outputs, targets: np.ndarray) -> EnsembleWeights:
    """The weights of least validation MSE, one exact solve per class.

    Class c's row minimises |A_c w - y_c|^2, with A_c the (T*3, n_models)
    matrix of the members' outputs and y_c the flattened targets.  Where
    that minimum is not unique (identical members, a silent class), the row
    is the minimiser nearest the uniform 1/n_models: the point full-batch
    gradient descent from the uniform start converges to.
    """
    stacked = _stack_outputs(outputs)          # (M, T, N, 3)
    targets = np.asarray(targets, dtype=float)
    if targets.shape != stacked.shape[1:]:
        raise ValueError(f"target shape {targets.shape} != output shape {stacked.shape[1:]}")
    n_models, n_t, n_classes, _ = stacked.shape
    a = stacked.transpose(2, 1, 3, 0).reshape(n_classes, n_t * 3, n_models)
    y = targets.transpose(1, 0, 2).reshape(n_classes, n_t * 3)
    w0 = np.full(n_models, 1.0 / n_models)
    w = [w0 + np.linalg.lstsq(a_c, y_c - a_c @ w0, rcond=None)[0] for a_c, y_c in zip(a, y)]
    return EnsembleWeights(np.reshape(w, (n_classes, n_models)))


def write_weights_csv(path, weights: EnsembleWeights) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["class_id"] + [f"model_{m}" for m in range(weights.n_models)])
        for c in range(weights.n_classes):
            writer.writerow([c] + [repr(float(v)) for v in weights.w[c]])


def read_weights_csv(path) -> EnsembleWeights:
    """Read `write_weights_csv` output: after the header, one row per class
    id 0..N-1, in any order, each holding its id and one finite weight per
    model the header names.  Anything else is a ValueError naming the path
    and line."""
    with open(path, newline="") as f:
        rows = [(lineno, row) for lineno, row in enumerate(csv.reader(f), start=1) if row]
    if not rows or rows[0][1][0] != "class_id" or len(rows[0][1]) < 2:
        raise ValueError(f"{path}:1: not a weights file")
    n_models = len(rows[0][1]) - 1
    n_classes = len(rows) - 1
    if not n_classes:
        raise ValueError(f"{path}: no class rows")
    w = np.empty((n_classes, n_models))
    seen = set()
    for lineno, row in rows[1:]:
        if len(row) != 1 + n_models:
            raise ValueError(
                f"{path}:{lineno}: expected a class id and {n_models} weights, got {len(row)} values"
            )
        try:
            c, values = int(row[0]), [float(v) for v in row[1:]]
        except ValueError:
            raise ValueError(f"{path}:{lineno}: expected an integer class id and numeric weights") from None
        if not 0 <= c < n_classes or c in seen:
            raise ValueError(f"{path}:{lineno}: class id {c}; expected each of 0..{n_classes - 1} once")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{path}:{lineno}: non-finite weight")
        seen.add(c)
        w[c] = values
    return EnsembleWeights(w)
