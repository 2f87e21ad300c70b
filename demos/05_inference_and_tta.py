"""Clip-level inference: overlapped segments and rotation averaging.

Models are trained on fixed-length windows, so whole clips are processed
as overlapping segments whose outputs are averaged per frame.  Test-time
augmentation runs the eight FOA rotations, maps each prediction back with
the same (self-inverse) pattern, and averages the vectors; for a model
that is exactly equivariant, like the intensity-vector estimator here,
averaging changes nothing.
"""

import numpy as np

from seldkit.accdoa import decode_accdoa, pool_to_label_rate
from seldkit.features import StftConfig
from seldkit.infer import Predictor
from seldkit.intensity import IntensityVectorModel
from seldkit.metrics import evaluate
from seldkit.scene import SceneConfig, synth_scene

stft_cfg = StftConfig(win_len=256, hop=240, fft_size=256)
cfg = SceneConfig(n_classes=3, duration_s=4.0, n_events=3, rng_seed=33)
clip, events = synth_scene(cfg)

model = IntensityVectorModel.for_scene_classes(3, stft_cfg)
predictor = Predictor(model, stft_cfg, seg_len=128, shift=32)

# --- segment coverage ---------------------------------------------------------
n_frames = stft_cfg.n_frames(clip.n_samples)
starts = list(range(0, n_frames - 128 + 1, 32))
if starts[-1] != n_frames - 128:
    starts.append(n_frames - 128)
print(f"{n_frames} feature frames -> {len(starts)} segments of 128 frames every 32")

plain = predictor.predict_clip(clip)
print(f"frame-rate prediction {plain.shape} (10 ms frames)")

# --- rotation averaging is a no-op for an equivariant model -------------------
tta = predictor.predict_clip_tta(clip)
print(f"max |TTA - plain| for the intensity model: {np.abs(tta - plain).max():.2e}")

# --- decode at label rate and score -------------------------------------------
seq = pool_to_label_rate(plain)
pred = decode_accdoa(seq, threshold=0.15)
m = evaluate(pred, events, n_classes=3)
print(f"\nintensity baseline on this scene: localization error {m.le_cd:.4f} deg, "
      f"recall {m.lr_cd:.0f}%, F(20 deg) {m.f_20:.0f}%")
print("(direction is near-exact; detection is limited by its uncalibrated activity)")
