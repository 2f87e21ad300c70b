"""Activity-coupled DOA vectors: one regression target for what/when/where.

Each (label frame, class) cell holds a 3-vector whose norm is the event
activity and whose direction is the source direction.  Encoding ground
truth and decoding a thresholded sequence are exact inverses, and the
detection-then-localization variant reads the same target: its activity
is where the vector norms are nonzero, as the training batch stream
derives it.
"""

import numpy as np

from seldkit.accdoa import angular_distance, decode_accdoa, encode_accdoa
from seldkit.scene import SceneConfig, synth_scene

cfg = SceneConfig(n_classes=3, duration_s=3.0, n_events=3, rng_seed=21)
_, events = synth_scene(cfg)

seq = encode_accdoa(events, cfg.n_classes)
norms = np.linalg.norm(seq, axis=2)
print(f"target sequence {seq.shape}: {int((norms > 0).sum())} active cells, "
      f"norms are exactly 0 or 1: {sorted(set(np.round(norms.ravel(), 12)))}")

decoded = decode_accdoa(seq, threshold=0.5)
print(f"decode(encode(events)) gives back {len(decoded.events)} of {len(events.events)} events")
worst = 0.0
for a, b in zip(
    sorted(events.events, key=lambda e: (e.onset, e.class_id)),
    sorted(decoded.events, key=lambda e: (e.onset, e.class_id)),
):
    assert (a.class_id, a.onset, a.offset) == (b.class_id, b.onset, b.offset)
    for da, db in zip(a.trajectory, b.trajectory):
        worst = max(worst, angular_distance(da.unit_vec, db.unit_vec))
print(f"worst round-trip direction error: {worst} degrees")

# --- thresholding: norm is the activity --------------------------------------
print(f"\nscaled to norm 0.4, threshold 0.5 -> {len(decode_accdoa(0.4 * seq).events)} events")
print(f"scaled to norm 0.8, threshold 0.5 -> {len(decode_accdoa(0.8 * seq).events)} events "
      "(direction is scale-invariant)")

# --- the two-stage factorization ---------------------------------------------
activity = (norms > 0).astype(float)
recomposed = activity[..., None] * seq
print(f"\ntwo-stage targets: activity {activity.shape} from the norms, doa {seq.shape}")
print(f"activity * doa reproduces the coupled target exactly: "
      f"{np.array_equal(recomposed, seq)}")
