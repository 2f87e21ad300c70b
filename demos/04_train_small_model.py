"""Train a small model end to end on synthetic scenes (about a minute).

The network is dense dilated conv blocks with channel-whitening
normalization, a bidirectional GRU bottleneck, and a tanh head emitting
per-class DOA vectors at the 10 ms frame rate.  Training minimizes MSE
against the activity-coupled targets on batches synthesized on the fly;
everything, gradients included, is plain numpy.

This demo uses a deliberately small configuration and a short run.
"""

import time

from seldkit.accdoa import decode_accdoa, pool_to_label_rate
from seldkit.augment import SpecAugmentConfig
from seldkit.features import StftConfig
from seldkit.infer import Predictor
from seldkit.metrics import MetricsAccumulator
from seldkit.net.model import NetConfig, RD3NetLite
from seldkit.net.optim import TrainConfig
from seldkit.net.train import AugmentOptions, SceneBatchStream, train_single_stage
from seldkit.scene import SceneConfig, synth_scene

scene_cfg = SceneConfig(n_classes=3, duration_s=3.0, max_polyphony=2, n_events=3, rng_seed=0)
stft_cfg = StftConfig(win_len=256, hop=240, fft_size=256)
net_cfg = NetConfig(n_classes=3, f_bins=stft_cfg.n_bins, stem_channels=8, growth=4,
                    layers_per_block=2, n_blocks=2, freq_pool=4, gru_hidden=32)
train_cfg = TrainConfig(batch_size=3, input_frames=128, decay_interval=400)

stream = SceneBatchStream(
    scene_cfg, stft_cfg, train_cfg.batch_size, train_cfg.input_frames, seed=1,
    augment=AugmentOptions(spec_cfg=SpecAugmentConfig(max_time_width=16, max_freq_width=12)),
    pool_scenes=32, secondary_bank=16,
)
model = RD3NetLite(net_cfg, seed=0)

t0 = time.time()
log = train_single_stage(model, stream, train_cfg, iters=300)
print(f"trained 300 iterations in {time.time() - t0:.0f} s")
for iteration, loss, _ in log:
    print(f"  iter {iteration:3d}: loss {loss:.4f}")

# --- held-out scenes ----------------------------------------------------------
model.eval()
predictor = Predictor(model, stft_cfg, seg_len=128, shift=20)
acc = MetricsAccumulator(n_classes=3)
for k in range(5):
    clip, events = synth_scene(
        SceneConfig(n_classes=3, duration_s=3.0, max_polyphony=2, n_events=3, rng_seed=900 + k)
    )
    seq = pool_to_label_rate(predictor.predict_clip(clip))
    acc.update(decode_accdoa(seq, threshold=0.5), events)
m = acc.finalize()
print(f"\n5 held-out scenes: LE {m.le_cd:.1f} deg  LR {m.lr_cd:.1f}%  "
      f"ER {m.er_20:.2f}  F {m.f_20:.1f}%")
print("(300 iterations only roughs in detection)")
