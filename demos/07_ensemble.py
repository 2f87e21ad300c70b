"""Fit per-class, per-model combination weights on a validation set.

Each class row of the weight matrix is an independent linear
least-squares problem, solved exactly: given one member that tracks the
targets and one that is noise, the fit recovers weights near (1, 0) and
never does worse than the best single member.
"""

import numpy as np

from seldkit.accdoa import encode_accdoa
from seldkit.ensemble import EnsembleWeights, combine, ensemble_mse, fit_weights
from seldkit.scene import SceneConfig, synth_scene

rng = np.random.default_rng(5)
_, events = synth_scene(SceneConfig(n_classes=3, duration_s=6.0, n_events=5, rng_seed=5))
targets = encode_accdoa(events, 3)

good = targets + 0.1 * rng.standard_normal(targets.shape)   # tracks the truth
noise = rng.standard_normal(targets.shape)                  # knows nothing
outputs = [good, noise]

weights = fit_weights(outputs, targets)
print("fitted (classes x models) weights:")
print(np.round(weights.w, 3))

for m, name in enumerate(["good member", "noise member"]):
    solo = np.zeros((3, 2))
    solo[:, m] = 1.0
    print(f"{name} alone: MSE {ensemble_mse(outputs, EnsembleWeights(solo), targets):.5f}")
print(f"fitted ensemble: MSE {ensemble_mse(outputs, weights, targets):.5f}")

combined = combine(outputs, weights)
print(f"\ncombined output shape {combined.shape} feeds the usual decode/eval path")
