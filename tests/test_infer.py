import math
import tracemalloc

import numpy as np
import pytest

from oracles import feature_stack_by_mod, same_bits
from seldkit.accdoa import compose_accdoa, decode_accdoa, pool_to_label_rate
from seldkit.augment import ALL_PATTERNS, RotationPattern, rotate_accdoa, rotate_foa
from seldkit.features import FeatureStack, StftConfig, extract_features, stft
from seldkit import infer
from seldkit.infer import Predictor, rotation_tta, sliding_inference
from seldkit.intensity import IntensityVectorModel
from seldkit.metrics import evaluate
from seldkit.net.layers import ConvUnit
from seldkit.net.model import NetConfig, RD3NetLite, TwoStageNet
from seldkit.scene import AmbisonicClip, SceneConfig, synth_scene

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

    @pytest.mark.parametrize("seg_len, shift", [(16, 40), (16, 17), (16, 0), (16, -3), (0, 1), (-1, 1)])
    def test_bad_geometry_rejected(self, seg_len, shift):
        # shift > seg_len leaves frames no segment covers; shift 0 never advances
        with pytest.raises(ValueError, match=f"seg_len {seg_len}, shift {shift}"):
            sliding_inference(segment_start_model(), features_with_index(100), seg_len, shift)
        with pytest.raises(ValueError, match=f"seg_len {seg_len}, shift {shift}"):
            Predictor(IntensityVectorModel(1, [np.arange(1, 8)]), STFT, seg_len=seg_len, shift=shift)

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
        model, forward = self.network(kind)
        clip, _ = make_clip(seed=4)
        predictor = Predictor(model, STFT, seg_len=seg_len, shift=shift)
        out = predictor.predict_clip(clip)
        data = extract_features(clip, STFT).data
        assert out.shape == (data.shape[1], 3, 3)
        np.testing.assert_allclose(out, segment_by_segment(forward, data, seg_len, shift), atol=1e-6)

    @pytest.mark.parametrize("kind", ["rd3net", "two-stage"])
    @pytest.mark.parametrize("seg_len, shift, n_t", [
        pytest.param(64, 5, 199, id="shift-below-halo"),
        pytest.param(64, 10, 199, id="shift-between-halo-and-twice"),
        pytest.param(64, 64, 199, id="shift-equals-seg-len"),
        pytest.param(20, 9, 100, id="edge-strips-overlap"),
        pytest.param(14, 6, 100, id="seg-len-twice-halo"),
        pytest.param(10, 3, 100, id="seg-len-below-twice-halo"),
        pytest.param(40, 17, 150, id="ragged-tail"),
        pytest.param(64, 20, 64, id="clip-is-one-segment"),
        pytest.param(64, 20, 65, id="clip-one-frame-longer"),
        pytest.param(64, 20, 40, id="clip-shorter-than-segment"),
    ])
    def test_shared_trunk_matrix(self, kind, seg_len, shift, n_t):
        # NET has a time halo of 7 frames
        model, forward = self.network(kind)
        clip, _ = make_clip(seed=4)
        data = extract_features(clip, STFT).data[:, :n_t]
        out = Predictor(model, STFT, seg_len=seg_len, shift=shift).predict_features(FeatureStack(data))
        assert out.shape == (n_t, 3, 3)
        np.testing.assert_allclose(out, segment_by_segment(forward, data, seg_len, shift), atol=1e-6)

    @pytest.mark.parametrize("kind", ["rd3net", "two-stage"])
    def test_training_mode_rejected(self, kind):
        model, _ = self.network(kind)
        model.train()
        clip, _ = make_clip(seed=4)
        with pytest.raises(ValueError, match=r"\.eval\(\)"):
            Predictor(model, STFT, seg_len=64, shift=24).predict_clip(clip)

    @pytest.mark.parametrize("kind", ["rd3net", "two-stage"])
    def test_networks_go_through_sliding_inference(self, kind, monkeypatch):
        # the segments reach sliding_inference's predict_batch as for any model
        seen = []

        def counting(predict_batch, fs, seg_len, shift):
            def counted(x):
                seen.append(x.shape)
                return predict_batch(x)
            return sliding_inference(counted, fs, seg_len, shift)

        monkeypatch.setattr(infer, "sliding_inference", counting)
        model, _ = self.network(kind)
        data = np.random.default_rng(0).standard_normal((7, 170, NET.f_bins))
        Predictor(model, STFT, seg_len=40, shift=3).predict_features(FeatureStack(data))
        # 44 starts 0, 3, ..., 129 in head batches of 32, then the end segment at 130
        assert infer.MAX_BATCH == 32
        assert [shape[0] for shape in seen] == [32, 12, 1]
        assert all(shape[1:] == (7, 40, NET.f_bins) for shape in seen)

    @pytest.mark.parametrize("seg_len, shift, n_t, segment_frames", [
        pytest.param(40, 4, 300, 0, id="clip-trunk-and-strips"),
        pytest.param(14, 4, 300, 1, id="strips-cover-segments"),
    ])
    def test_trunk_work_and_call_size(self, seg_len, shift, n_t, segment_frames):
        # every trunk call holds at most TRUNK_BATCH segments' frames; with room
        # between the edge strips each frame goes through the trunk about
        # once plus 2 * halo per segment edge, otherwise each segment once
        model, _ = self.network("rd3net")
        calls = []
        trunk = model.branch.forward_trunk

        def recorded(x):
            calls.append(x.shape[0] * x.shape[2])
            return trunk(x)

        model.branch.forward_trunk = recorded
        data = np.random.default_rng(0).standard_normal((7, n_t, NET.f_bins))
        Predictor(model, STFT, seg_len=seg_len, shift=shift).predict_features(FeatureStack(data))
        n_seg = len(range(0, n_t - seg_len + 1, shift)) + ((n_t - seg_len) % shift > 0)
        halo = NET.time_halo
        assert infer.TRUNK_BATCH == 8
        assert max(calls) <= infer.TRUNK_BATCH * seg_len
        if segment_frames:
            assert sum(calls) == n_seg * seg_len
        else:
            windows = math.ceil((n_t - seg_len) / (seg_len - 2 * halo)) + 1
            assert sum(calls) == windows * seg_len + (2 * n_seg - 2) * 2 * halo

    def test_memory_does_not_grow_with_the_clip(self):
        # the clip trunk is kept only around the current segments: four
        # times the clip adds about its output, not its trunk (gru_in floats a frame)
        model, _ = self.network("rd3net")
        rng = np.random.default_rng(0)

        def peak(n_t):
            fs = FeatureStack(rng.standard_normal((7, n_t, NET.f_bins)))
            predictor = Predictor(model, STFT, seg_len=32, shift=8)
            tracemalloc.start()
            predictor.predict_features(fs)
            top = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            return top

        peak(200)  # allocates the layers' workspaces
        growth = peak(1600) - peak(400)
        assert growth < 1200 * NET.gru_in * 4 / 4

    @staticmethod
    def network(kind):
        if kind == "rd3net":
            model = RD3NetLite(NET, seed=1).eval()
            return model, model.forward
        model = TwoStageNet(NET, seed=2).eval()
        return model, lambda x: compose_accdoa(model.sed.forward(x), model.doa.forward(x))


class TestFoldedNetworks:
    """Eval-mode conv units fold NetDeconv into their convs; compared here
    against the conv -> NetDeconv -> ELU chain run as in training."""

    @staticmethod
    def moved_network(kind):
        # a few train-mode forwards move every NetDeconv's running
        # statistics away from (0, I); condition numbers 1.5-1.8 at the stem
        model = RD3NetLite(NET, seed=1) if kind == "rd3net" else TwoStageNet(NET, seed=2)
        rng = np.random.default_rng(7)
        for _ in range(3):
            x = (rng.standard_normal((2, 7, 48, NET.f_bins)) * 2 + 1).astype(np.float32)
            for branch in model.branches:
                branch.forward(x)
        return model.eval()

    @staticmethod
    def unfold(monkeypatch):
        def conv_norm_act(self, x):
            return self.act.forward(self.norm.forward(self.conv.forward(x)))

        monkeypatch.setattr(ConvUnit, "forward", conv_norm_act)

    @pytest.mark.parametrize("kind", ["rd3net", "two-stage"])
    def test_forward_matches_unfolded(self, kind, monkeypatch):
        model = self.moved_network(kind)
        stem_cov = model.branches[0].trunk.stem.norm.buffers["running_cov"]
        assert np.abs(stem_cov - np.eye(len(stem_cov))).max() > 0.1
        x = np.random.default_rng(8).standard_normal((2, 7, 40, NET.f_bins)).astype(np.float32)
        folded = model.predict_batch(x)
        self.unfold(monkeypatch)
        # measured: 2.7e-7 (rd3net) and 6.9e-7 (two-stage)
        np.testing.assert_allclose(folded, model.predict_batch(x), rtol=0, atol=1e-5)

    @pytest.mark.parametrize("kind", ["rd3net", "two-stage"])
    def test_predictor_matches_unfolded_segments(self, kind, monkeypatch):
        model = self.moved_network(kind)
        clip, _ = make_clip(seed=4)
        data = extract_features(clip, STFT).data
        out = Predictor(model, STFT, seg_len=64, shift=24).predict_features(FeatureStack(data))
        self.unfold(monkeypatch)
        expected = segment_by_segment(model.predict_batch, data, 64, 24)
        # measured: 3.3e-7 (rd3net) and 9.9e-7 (two-stage)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-5)


class TestSegmentViews:
    @staticmethod
    def stacked_sliding(predict_batch, data, seg_len, shift):
        """sliding_inference with every segment copied out by np.stack, in
        batches of 8, summed in start order and divided by the count."""
        n_t = data.shape[1]
        starts = list(range(0, n_t - seg_len + 1, shift))
        if starts[-1] != n_t - seg_len:
            starts.append(n_t - seg_len)
        total, count = None, np.zeros(n_t)
        for lo in range(0, len(starts), 8):
            chunk = starts[lo:lo + 8]
            for s, out in zip(chunk, predict_batch(np.stack([data[:, s:s + seg_len] for s in chunk]))):
                if total is None:
                    total = np.zeros((n_t,) + out.shape[1:])
                total[s:s + seg_len] += out
                count[s:s + seg_len] += 1
        return total / count[:, None, None]

    @pytest.mark.parametrize("seg_len, shift", [(64, 16), (64, 5), (40, 40), (37, 11)])
    def test_intensity_outputs_bit_identical(self, seg_len, shift):
        clip, _ = make_clip(seed=1)
        data = extract_features(clip, STFT).data
        model = IntensityVectorModel.for_scene_classes(3, STFT)
        out = sliding_inference(model.predict_batch, FeatureStack(data), seg_len, shift)
        assert same_bits(out, self.stacked_sliding(model.predict_batch, data, seg_len, shift))

    def test_segments_are_read_only_views(self):
        data = np.random.default_rng(0).standard_normal((7, 100, 3))
        seen = []

        def predict_batch(x):
            seen.append(x)
            return np.zeros((x.shape[0], x.shape[2], 1, 3))

        sliding_inference(predict_batch, FeatureStack(data), seg_len=16, shift=5)
        assert [len(x) for x in seen] == [17, 1]  # starts 0, 5, ..., 80, then the end segment at 84
        assert same_bits(seen[1][0], data[:, 84:])
        for x in seen:
            assert np.shares_memory(x, data) and not x.flags.writeable


class TestRotationTta:
    def test_oracle_tta_matches_plain(self):
        clip, _ = make_clip(seed=1)
        model = IntensityVectorModel.for_scene_classes(3, STFT)
        predictor = Predictor(model, STFT, seg_len=64, shift=16)
        plain = predictor.predict_clip(clip)
        tta = rotation_tta(predictor.predict_features, stft(clip, STFT))
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
        tta = rotation_tta(predictor.predict_features, stft(clip, STFT), patterns=(RotationPattern(),))
        np.testing.assert_array_equal(tta, plain)

    @staticmethod
    def audio_rotation_tta(predictor, clip):
        """Rotation averaging the direct way: each pattern's audio through
        its own STFT and the np.mod feature formula."""
        total = None
        for r in ALL_PATTERNS:
            fs = FeatureStack(feature_stack_by_mod(stft(rotate_foa(clip, r), STFT)))
            out = rotate_accdoa(predictor.predict_features(fs), r)
            total = out if total is None else total + out
        return total / len(ALL_PATTERNS)

    @staticmethod
    def predictor(kind):
        if kind == "intensity":
            return Predictor(IntensityVectorModel.for_scene_classes(3, STFT), STFT, seg_len=64, shift=16)
        model, _ = TestPredictorNetworks.network(kind)
        return Predictor(model, STFT, seg_len=64, shift=64)

    @pytest.mark.parametrize("kind", ["intensity", "rd3net", "two-stage"])
    @pytest.mark.parametrize("silent_y", [False, True], ids=["scene", "silent-y"])
    def test_equals_audio_rotation(self, kind, silent_y, monkeypatch):
        samples = make_clip(seed=6)[0].samples[:, :24000].copy()
        if silent_y:
            # W stays active, so the zero signs of Y's bins decide its phases
            samples[1, 4800:16800] = 0.0
        clip = AmbisonicClip(samples)
        predictor = self.predictor(kind)
        expected = self.audio_rotation_tta(predictor, clip)
        calls = []
        monkeypatch.setattr(infer, "stft", lambda *a: calls.append(1) or stft(*a))
        assert same_bits(predictor.predict_clip_tta(clip), expected)
        # a second STFT, of the clip with Y, Z and X negated, only for the silent Y
        assert len(calls) == 1 + silent_y


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
