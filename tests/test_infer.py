import math

import numpy as np
import pytest

from seldkit.accdoa import compose_accdoa, decode_accdoa, pool_to_label_rate
from seldkit.augment import ALL_PATTERNS, RotationPattern
from seldkit.features import FeatureStack, StftConfig, extract_features
from seldkit.infer import Predictor, rotation_tta, sliding_inference
from seldkit.intensity import IntensityVectorModel
from seldkit.metrics import evaluate
from seldkit.net.model import NetConfig, RD3NetLite, TwoStageNet
from seldkit.scene import SceneConfig, synth_scene

STFT = StftConfig(win_len=256, hop=240, fft_size=256)


def features_with_index(n_t, n_f=8):
    """Feature stack whose frame index is readable from channel 0, bin 0."""
    data = np.zeros((7, n_t, n_f))
    data[0, :, 0] = np.arange(n_t, dtype=float)
    return FeatureStack(data)


def segment_start_model(n_classes=2):
    """Stub: every output frame of a segment carries the segment's first index."""

    def predict_batch(x):
        starts = x[:, 0, 0, 0]
        out = np.zeros((x.shape[0], x.shape[2], n_classes, 3))
        out[...] = starts[:, None, None, None]
        return out

    return predict_batch


class TestSlidingInference:
    def test_no_overlap_is_concatenation(self):
        fs = features_with_index(40)
        out = sliding_inference(segment_start_model(), fs, seg_len=10, shift=10)
        assert out.shape == (40, 2, 3)
        expected = np.repeat([0.0, 10.0, 20.0, 30.0], 10)
        np.testing.assert_allclose(out[:, 0, 0], expected)

    def test_constant_model_unaffected_by_overlap(self):
        def constant(x):
            return np.full((x.shape[0], x.shape[2], 1, 3), 0.7)

        fs = features_with_index(50)
        out = sliding_inference(constant, fs, seg_len=16, shift=4)
        np.testing.assert_allclose(out, 0.7)

    def test_coverage_enumeration(self):
        # T = 1064, seg = 1024, shift = 20 -> segments at 0, 20, 40
        fs = features_with_index(1064, n_f=2)
        out = sliding_inference(segment_start_model(1), fs, seg_len=1024, shift=20)
        # frame 1040 is covered by the segments starting at 20 and 40
        assert out[1040, 0, 0] == pytest.approx((20.0 + 40.0) / 2.0)
        # frame 10 only by the segment starting at 0
        assert out[10, 0, 0] == pytest.approx(0.0)
        # frame 30 by segments 0 and 20
        assert out[30, 0, 0] == pytest.approx(10.0)
        assert out.shape[0] == 1064

    def test_short_clip_zero_padded_and_cropped(self):
        fs = features_with_index(12)
        out = sliding_inference(segment_start_model(), fs, seg_len=32, shift=8)
        assert out.shape == (12, 2, 3)

    def test_frame_count_preserved(self):
        fs = features_with_index(77)
        out = sliding_inference(segment_start_model(), fs, seg_len=16, shift=5)
        assert out.shape[0] == 77


def make_clip(seed=0, n_classes=3):
    cfg = SceneConfig(n_classes=n_classes, duration_s=2.0, n_events=2, rng_seed=seed)
    return synth_scene(cfg)


NET = NetConfig(n_classes=3, f_bins=129, stem_channels=4, growth=3,
                layers_per_block=2, n_blocks=2, freq_pool=2, gru_hidden=4)


def segment_by_segment(forward, data, seg_len, shift):
    """Reference overlap average: each segment through `forward` on its own,
    then every frame averaged over the segments that cover it."""
    n_t = data.shape[1]
    if n_t <= seg_len:
        padded = np.zeros((7, seg_len, data.shape[2]))
        padded[:, :n_t] = data
        return forward(padded[None])[0][:n_t]
    starts = list(range(0, n_t - seg_len + 1, shift))
    if starts[-1] != n_t - seg_len:
        starts.append(n_t - seg_len)
    outs = {s: forward(data[None, :, s:s + seg_len])[0] for s in starts}
    return np.stack([
        np.mean([outs[s][t - s] for s in starts if s <= t < s + seg_len], axis=0)
        for t in range(n_t)
    ])


class TestPredictorNetworks:
    @pytest.mark.parametrize("kind", ["rd3net", "two-stage"])
    @pytest.mark.parametrize("seg_len, shift", [(64, 24), (48, 48), (256, 20)])
    def test_matches_segment_by_segment_average(self, kind, seg_len, shift):
        # 199 frames: (64, 24) and (48, 48) end on a ragged tail segment,
        # and 256 is longer than the whole clip
        if kind == "rd3net":
            model = RD3NetLite(NET, seed=1).eval()
            forward = model.forward
        else:
            model = TwoStageNet(NET, seed=2).eval()
            forward = lambda x: compose_accdoa(model.sed.forward(x), model.doa.forward(x))  # noqa: E731
        clip, _ = make_clip(seed=4)
        predictor = Predictor(model, STFT, seg_len=seg_len, shift=shift)
        out = predictor.predict_clip(clip)
        data = extract_features(clip, STFT).data
        assert out.shape == (data.shape[1], 3, 3)
        np.testing.assert_allclose(out, segment_by_segment(forward, data, seg_len, shift), atol=1e-6)


class TestRotationTta:
    def test_oracle_tta_matches_plain(self):
        clip, _ = make_clip(seed=1)
        model = IntensityVectorModel.for_scene_classes(3, STFT)
        predictor = Predictor(model, STFT, seg_len=64, shift=16)
        plain = predictor.predict_clip(clip)
        tta = rotation_tta(predictor.predict_clip, clip)
        assert np.abs(tta - plain).max() < 1e-9

    def test_constant_model_averages_to_zero(self):
        # the eight back-rotations flip every component's sign equally often
        clip, _ = make_clip(seed=2)

        class Constant:
            def predict_batch(self, x):
                out = np.zeros((x.shape[0], x.shape[2], 1, 3))
                out[...] = [0.3, -0.5, 0.9]
                return out

        predictor = Predictor(Constant(), STFT, seg_len=64, shift=64)
        tta = predictor.predict_clip_tta(clip)
        np.testing.assert_allclose(tta, 0.0, atol=1e-12)

    def test_identity_only_pattern_equals_plain(self):
        clip, _ = make_clip(seed=3)
        model = IntensityVectorModel.for_scene_classes(3, STFT)
        predictor = Predictor(model, STFT, seg_len=64, shift=16)
        plain = predictor.predict_clip(clip)
        tta = rotation_tta(predictor.predict_clip, clip, patterns=(RotationPattern.identity(),))
        np.testing.assert_array_equal(tta, plain)


class TestIntensityOracle:
    def test_recovers_scene_events(self):
        # classical estimator closes the loop: synth -> features -> decode -> score
        clip, events = make_clip(seed=5)
        model = IntensityVectorModel.for_scene_classes(3, STFT)
        predictor = Predictor(model, STFT, seg_len=128, shift=32)
        seq = pool_to_label_rate(predictor.predict_clip(clip))
        assert seq.shape[0] == events.n_frames
        # uncalibrated activity misses modulation troughs, so detection is
        # mediocre, but matched directions are essentially exact
        pred = decode_accdoa(seq, threshold=0.15)
        m = evaluate(pred, events, n_classes=3)
        assert m.lr_cd > 60.0
        assert m.le_cd < 0.01

    def test_direction_exact_for_plane_wave(self):
        from seldkit.scene import DoaAngles, encode_plane_wave

        rng = np.random.default_rng(6)
        d = DoaAngles(0.8, 0.3)
        sig = rng.standard_normal(24000)
        clip = encode_plane_wave(sig, d)
        model = IntensityVectorModel(1, [np.arange(1, 129)])
        out = model.predict_features(extract_features(clip, STFT))
        active = np.linalg.norm(out[:, 0], axis=1) > 0.3
        dirs = out[active, 0] / np.linalg.norm(out[active, 0], axis=1, keepdims=True)
        dots = np.clip(dirs @ d.unit_vec, -1, 1)
        assert np.degrees(np.arccos(dots)).max() < 0.5
