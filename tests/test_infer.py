import math
import tracemalloc

import numpy as np
import pytest

from oracles import (
    edge_rows_by_batch, feature_stack_by_mod, intensity_by_gathered_union, intensity_over_all_bins,
    rotation_tta_by_rotated_stfts,
    rotation_tta_from_spec, same_bits, stft_whole_clip, trunk_by_layer,
)
from seldkit.accdoa import compose_accdoa, decode_accdoa, pool_to_label_rate
from seldkit.augment import ALL_PATTERNS, RotationPattern, rotate_accdoa, rotate_foa, zero_signs_matter
from seldkit.features import FRAME_CHUNK, FeatureStack, StftConfig, extract_features, stft
from seldkit import features, infer
from seldkit.net import layers
from seldkit.infer import Predictor, rotation_tta, sliding_inference
from seldkit.intensity import IntensityVectorModel
from seldkit.metrics import evaluate
from seldkit.net.layers import Conv2d, ConvUnit
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
# the desk shapes: dilations 1, 2, 4 in each block
DESK = NetConfig(n_classes=3, f_bins=129, stem_channels=12, growth=6, layers_per_block=3, n_blocks=2)


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
    def test_segment_starting_past_the_projected_frames(self, kind, monkeypatch):
        # 580 frames at a budget of 400: a window of 400 frames at 0 and one
        # flush against the end at 180, a call each.  The first projects
        # the clip up to frame 400 - 7 = 393 and completes the segment at
        # 350, which ends where the window does; the next one starts at 400
        monkeypatch.setattr(infer, "TRUNK_FRAMES", 400)
        model, forward = self.network(kind)
        sizes = []
        for branch in model.branches:
            branch.forward_trunk = lambda x, trunk=branch.forward_trunk: sizes.append(x.shape[::2]) or trunk(x)
        data = np.random.default_rng(3).standard_normal((7, 580, NET.f_bins))
        out = Predictor(model, STFT, seg_len=50, shift=50).predict_features(FeatureStack(data))
        assert NET.time_halo == 7
        assert sizes == [(1, 400)] * 2 * len(model.branches)
        # float32 sums on N(0, 1) inputs round apart by up to about 1e-6
        np.testing.assert_allclose(out, segment_by_segment(forward, data, 50, 50), atol=1e-5)

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
        pytest.param(40, 4, 300, 0, id="clip-trunk-and-edges"),
        pytest.param(40, 4, 1400, 0, id="several-calls"),
        pytest.param(14, 4, 300, 1, id="edges-cover-segments"),
    ])
    def test_trunk_work_and_call_size(self, seg_len, shift, n_t, segment_frames, monkeypatch):
        # With room between a segment's edges, each frame goes through the
        # trunk about once, one window of max(seg_len, TRUNK_FRAMES) frames
        # a call (the whole clip if shorter), and each conv unit takes a
        # few rows per segment edge (TestEdgeRows.ROWS); an edge call holds
        # at most TRUNK_FRAMES // seg_len segments' frames a unit.
        # Otherwise each segment goes through the trunk once, in calls of at
        # most that many segments
        model, _ = self.network("rd3net")
        calls, conv_rows, edge_rows = [], [], []
        trunk = model.branch.forward_trunk
        conv_forward, conv_edges = Conv2d.forward, Conv2d.forward_edges

        def recorded(x):
            calls.append(x.shape[0] * x.shape[2])
            return trunk(x)

        def conv(layer, x):
            conv_rows.append(x.shape[0] * x.shape[1])
            return conv_forward(layer, x)

        def edges(layer, x, left):
            edge_rows.append(x.shape[0] * x.shape[1])
            return conv_edges(layer, x, left)

        model.branch.forward_trunk = recorded
        monkeypatch.setattr(Conv2d, "forward", conv)
        monkeypatch.setattr(Conv2d, "forward_edges", edges)
        data = np.random.default_rng(0).standard_normal((7, n_t, NET.f_bins))
        Predictor(model, STFT, seg_len=seg_len, shift=shift).predict_features(FeatureStack(data))
        n_seg = len(range(0, n_t - seg_len + 1, shift)) + ((n_t - seg_len) % shift > 0)
        halo = NET.time_halo
        units = len(TestEdgeRows.ROWS)
        budget = infer.TRUNK_FRAMES // seg_len * seg_len
        if segment_frames:
            assert max(calls + conv_rows) <= budget
            assert sum(calls) == n_seg * seg_len
            assert sum(conv_rows) == units * n_seg * seg_len
            assert not edge_rows
        else:
            L = min(max(seg_len, infer.TRUNK_FRAMES), n_t)
            windows = math.ceil((n_t - L) / (L - 2 * halo)) + 1
            assert calls == [L] * windows
            assert max(conv_rows) <= L and max(edge_rows) <= budget
            assert sum(conv_rows) == units * windows * L
            assert sum(edge_rows) == (2 * n_seg - 2) * sum(TestEdgeRows.ROWS)
            # a conv of an edge reads at most halo + 2 rows (NET's largest dilation)
            assert max(edge_rows) <= budget // (halo + 2) * max(TestEdgeRows.ROWS)

    def test_bench_clip_takes_three_windows(self):
        # the benchmark's 2,999-frame clip at seg_len 256, shift 20 and the
        # desk time halo of 15 frames: windows of 1,024 frames every 994,
        # at 0 and 994, and one flush against the end at 1,975; 3,072 trunk
        # frames, where windows of seg_len frames took 14 and 3,584.  Each
        # window is a view of the features
        cfg = NetConfig(n_classes=1, f_bins=8, stem_channels=1, growth=1, freq_pool=2, gru_hidden=1)
        model = RD3NetLite(cfg).eval(backward=False)
        data = np.random.default_rng(0).standard_normal((7, 2999, cfg.f_bins))
        windows = []

        def start(x):
            assert np.shares_memory(x, data)
            return (x.ctypes.data - data.ctypes.data) // data.strides[1]

        trunk = model.branch.forward_trunk
        model.branch.forward_trunk = lambda x: windows.append((start(x), x.shape[2])) or trunk(x)
        Predictor(model, STFT, seg_len=256, shift=20).predict_features(FeatureStack(data))
        assert infer.TRUNK_FRAMES == 1024 and cfg.time_halo == DESK.time_halo == 15
        assert windows == [(0, 1024), (994, 1024), (1975, 1024)]

    def test_memory_does_not_grow_with_the_clip(self, monkeypatch):
        # the clip trunk is kept only around the current segments: four
        # times the clip adds about its output, not its trunk (gru_in floats
        # a frame).  Windows of 8 * 32 frames, which every clip fills.  Both
        # measured clips run windows while the last head batch's caches
        # (`.eval()` keeps them for backward) are alive; a 400-frame clip
        # runs both its windows before its first head batch
        monkeypatch.setattr(infer, "TRUNK_FRAMES", 8 * 32)
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

        peak(800)  # allocates the layers' workspaces
        growth = peak(3200) - peak(800)
        assert growth < 1200 * NET.gru_in * 4 / 4

    @pytest.mark.parametrize("kind, cfg", [("rd3net", NET), ("two-stage", NET), ("rd3net", DESK)],
                             ids=["rd3net-net", "two-stage-net", "rd3net-desk"])
    @pytest.mark.parametrize("seg_len, shift, n_t", [(64, 7, 250), (128, 20, 500)])
    def test_frame_budget_does_not_move_bits(self, kind, cfg, seg_len, shift, n_t, monkeypatch):
        # windows of 1 or 2 segments' frames, or the whole clip in one, and
        # the edge calls they make: no conv or projection GEMM drops to
        # OpenBLAS's small-matrix kernel, however few windows, edges or
        # frames a call holds
        model = TestFoldedNetworks.moved_network(kind, cfg)
        data = np.random.default_rng(3).standard_normal((7, n_t, cfg.f_bins)).astype(np.float32)
        calls, outs = [], []
        for branch in model.branches:
            branch.forward_trunk = lambda x, trunk=branch.forward_trunk: calls.append(x.shape[2]) or trunk(x)
        for budget in (seg_len, 2 * seg_len, n_t):
            monkeypatch.setattr(infer, "TRUNK_FRAMES", budget)
            calls.clear()
            outs.append(Predictor(model, STFT, seg_len=seg_len, shift=shift).predict_features(FeatureStack(data)))
        assert calls == [n_t] * len(model.branches)
        assert same_bits(outs[0], outs[1]) and same_bits(outs[0], outs[2])

    def test_trunk_grids_hold_one_window_at_seg_len_of_the_budget(self):
        # 2,100 frames at seg_len TRUNK_FRAMES: three windows, one a call
        model, _ = self.network("rd3net")
        seg_len, trunk = infer.TRUNK_FRAMES, model.branch.trunk
        data = np.random.default_rng(0).standard_normal((7, 2100, NET.f_bins))
        Predictor(model, STFT, seg_len=seg_len, shift=20).predict_features(FeatureStack(data))
        F = NET.f_trimmed
        for block, _ in trunk.stages:
            p = block.pad
            assert block._ws_store["grid"].size == block.out_ch * (seg_len + 2 * p) * (F + 2 * p)
            F //= NET.freq_pool
        p = trunk.stages[0][0].pad
        assert trunk._ws_store["features"].size == 7 * (seg_len + 2 * p) * (NET.f_trimmed + 2 * p)

    @pytest.mark.parametrize("kind", ["rd3net", "two-stage"])
    @pytest.mark.parametrize("seg_len, shift", [(64, 20), (10, 3)], ids=["shared-trunk", "per-segment"])
    def test_float32_features_equal_the_float64_cast(self, kind, seg_len, shift, monkeypatch):
        # 2 FRAME_CHUNK + 7 frames: the network's features are made in its
        # float32, which its trunk casts float64 features to anyway
        model, _ = self.network(kind)
        n_frames = 2 * FRAME_CHUNK + 7
        clip = AmbisonicClip(np.random.default_rng(5).standard_normal((4, STFT.frame_span(n_frames))))
        predictor = Predictor(model, STFT, seg_len=seg_len, shift=shift)
        expected = predictor.predict_features(FeatureStack(feature_stack_by_mod(stft_whole_clip(clip, STFT))))
        dtypes = []
        predict_features = predictor.predict_features
        monkeypatch.setattr(predictor, "predict_features",
                            lambda fs: dtypes.append(fs.data.dtype) or predict_features(fs))
        assert same_bits(predictor.predict_clip(clip), expected)
        assert dtypes == [np.float32]

    @staticmethod
    def network(kind):
        if kind == "rd3net":
            model = RD3NetLite(NET, seed=1).eval()
            return model, model.forward
        model = TwoStageNet(NET, seed=2).eval()
        return model, lambda x: compose_accdoa(model.sed.forward(x), model.doa.forward(x))


class TestEdgeRows:
    """`SeldBranch.forward_edges` after a window batch, layer by layer,
    against each segment run alone through the trunk."""

    # NET's stem and block layers have dilations 1 | 1, 2 | 1, 2: out of
    # each conv unit a segment differs from the clip within r = 1, 2, 4, 5,
    # 7 (the time halo) rows of an edge, which read r + d = 2, 3, 6, 6, 9
    # input rows; each unit computes exactly those r rows of every edge
    REACH = (1, 2, 4, 5, 7)
    ROWS = (2, 3, 6, 6, 9)

    @pytest.mark.parametrize("kind", ["rd3net", "two-stage"])
    @pytest.mark.parametrize("left", [True, False], ids=["left", "right"])
    def test_every_layer_matches_the_segment_alone(self, kind, left, monkeypatch):
        model = TestFoldedNetworks.moved_network(kind)
        clip, _ = make_clip(seed=4)
        data = extract_features(clip, STFT).data
        seg_len, halo = 40, NET.time_halo
        step = seg_len - 2 * halo
        windows = np.array([0, step, 2 * step])
        x = np.stack([data[:, w:w + seg_len] for w in windows])
        # every segment with its left edge in window s // step, or its right
        # edge in window ceil(s / step), of these three
        s = np.arange(1, 3 * step) if left else np.arange(0, 2 * step + 1)
        w = s // step if left else -(-s // step)
        at = (s if left else s + seg_len) - windows[w]
        seen = []
        forward_edges = ConvUnit.forward_edges
        monkeypatch.setattr(ConvUnit, "forward_edges",
                            lambda unit, h, left: seen.append(forward_edges(unit, h, left)) or seen[-1])
        for branch in model.branches:
            branch.forward_trunk(x)
            seen.clear()
            out = branch.forward_edges(x, w, at, left)
            edge_layers = list(seen)
            # time-major, and only the rows within reach of the edge
            assert [y.shape[:2] for y in edge_layers] == [(r, len(s)) for r in self.REACH]
            for i, start in enumerate(s):
                expected = trunk_by_layer(branch.trunk, data[:, start:start + seg_len])
                for y, r, e in zip(edge_layers, self.REACH, expected):
                    np.testing.assert_allclose(y[:, i], e[:r] if left else e[-r:], rtol=0, atol=1e-6)
                e = expected[-1][:halo] if left else expected[-1][-halo:]
                np.testing.assert_allclose(out[i], e.reshape(halo, NET.gru_in), rtol=0, atol=1e-6)

    @pytest.mark.parametrize("cfg", [NET, DESK], ids=["net", "desk"])
    @pytest.mark.parametrize("kind", ["rd3net", "two-stage"])
    @pytest.mark.parametrize("left", [True, False], ids=["left", "right"])
    def test_matches_each_edge_run_as_a_batch_item(self, cfg, kind, left):
        # bit for bit: the side-by-side grid multiplies the same values in
        # the same tap order as each edge on the padded grid of its own.
        # Enough edges keep every GEMM of both paths on OpenBLAS's large
        # kernel; its small-product kernel (M·N·K <= 1e6 on AVX-512) can
        # round the sums of K >= 32 terms differently
        model = TestFoldedNetworks.moved_network(kind, cfg)
        rng = np.random.default_rng(9)
        seg_len, halo = 64, cfg.time_halo
        x = rng.standard_normal((3, 7, seg_len, cfg.f_bins)).astype(np.float32)
        # more than two of `_segment_gates`' edge calls take: a conv of an
        # edge reads at most halo + d rows, d the largest dilation
        n_edges = 2 * (infer.TRUNK_FRAMES // (halo + 2 ** (cfg.layers_per_block - 1))) + 5
        window = rng.integers(0, len(x), n_edges)
        at = rng.integers(0, seg_len - 2 * halo + 1, n_edges) + (0 if left else 2 * halo)
        for branch in model.branches:
            branch.forward_trunk(x)
            h = branch._channels_last(x)
            expected = edge_rows_by_batch(branch.trunk, h, window, at, left)
            got = branch.trunk.edge_rows(h, window, at, left)
            assert got.shape == (n_edges, halo, cfg.f_out, cfg.trunk_channels)
            np.testing.assert_array_equal(got, expected)


    @pytest.mark.parametrize("cfg, crossing", [(NET, 107), (DESK, 31)], ids=["net", "desk"])
    @pytest.mark.parametrize("left", [True, False], ids=["left", "right"])
    def test_bits_do_not_depend_on_the_edges_per_call(self, cfg, crossing, left, monkeypatch):
        # calls of 1 ... crossing + 2 edges against the same edges' rows of
        # one call of them all.  A call of fewer than `crossing` edges has a
        # conv GEMM below `least` rows, where OpenBLAS would take its
        # small-matrix kernel and round sums of 32 or more terms apart
        model = TestFoldedNetworks.moved_network("rd3net", cfg)
        rng = np.random.default_rng(11)
        seg_len, halo = 64, cfg.time_halo
        x = rng.standard_normal((3, 7, seg_len, cfg.f_bins)).astype(np.float32)
        trunk = model.branch.trunk
        model.branch.forward_trunk(x)
        h = model.branch._channels_last(x)
        n_edges = 2 * crossing + 5
        window = rng.integers(0, len(x), n_edges)
        at = rng.integers(0, seg_len - 2 * halo + 1, n_edges) + (0 if left else 2 * halo)
        whole = trunk.edge_rows(h, window, at, left)
        gemms = []
        stacked_conv = layers._stacked_conv
        monkeypatch.setattr(layers, "_stacked_conv", lambda x2, y2, W, b, offs, lo, hi, scratch: (
            gemms.append(hi - lo >= layers._least_rows(3 * W.shape[2] * W.shape[1]))
            or stacked_conv(x2, y2, W, b, offs, lo, hi, scratch)))
        for n in range(1, crossing + 3):
            lo = n % (n_edges - n)  # a different run of edges for each size
            gemms.clear()
            got = trunk.edge_rows(h, window[lo:lo + n], at[lo:lo + n], left)
            assert all(gemms) == (n >= crossing), n
            assert same_bits(got, whole[lo:lo + n]), n


def same_or_close(a, b) -> bool:
    """Bit for bit in float32.  In float64 within 1e-13 of the largest
    magnitude: a row of numpy's OpenBLAS dgemm product can round
    differently depending on how many rows the GEMM takes, past its
    small-matrix threshold too (seen for (36, 7) and (18, 12) weights), so
    grids of other sizes differ in the last bits (measured: at most 1.8e-16
    of the largest magnitude here)."""
    if a.dtype == np.float32:
        return same_bits(a, b)
    return a.shape == b.shape and np.abs(a - b).max() <= 1e-13 * np.abs(b).max()


class TestChannelMajorTrunk:
    """The eval trunk on its block grids against the unit-by-unit and
    edge-by-edge references, in both float widths (see `same_or_close`)."""

    # dilations 1, 2, 4; F = 9, 3 and 1 through the blocks
    ODD = NetConfig(n_classes=2, f_bins=9, stem_channels=4, growth=3, layers_per_block=3,
                    n_blocks=2, freq_pool=3, gru_hidden=4)

    @staticmethod
    def network(cfg, dtype):
        model = RD3NetLite(cfg, seed=3, dtype=dtype)
        rng = np.random.default_rng(10)
        for _ in range(2):
            model.forward((rng.standard_normal((2, 7, 24, cfg.f_bins)) * 2 + 1).astype(np.float32))
        return model.eval().branch

    @staticmethod
    def features(rng, n, seg_len, cfg):
        # float32 values, which `trunk_by_layer` keeps in either width
        return rng.standard_normal((n, 7, seg_len, cfg.f_bins)).astype(np.float32).astype(np.float64)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cfg", [ODD, DESK], ids=["odd", "desk"])
    def test_eval_trunk_matches_unit_by_unit(self, cfg, dtype):
        branch = self.network(cfg, dtype)
        x = self.features(np.random.default_rng(11), 2, 40, cfg)
        y = branch.trunk.forward(branch._channels_last(x))
        for i in range(len(x)):
            assert same_or_close(y[i], trunk_by_layer(branch.trunk, x[i])[-1])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cfg", [ODD, DESK], ids=["odd", "desk"])
    def test_windows_and_edges_alternate(self, cfg, dtype):
        # window batches of two sizes, each followed by both edge passes:
        # every pass gives the bits it gives first, and the edges those of
        # each edge run as a batch item of its own
        branch = self.network(cfg, dtype)
        rng = np.random.default_rng(12)
        seg_len, halo = 2 * cfg.time_halo + 6, cfg.time_halo
        batches = [self.features(rng, n, seg_len, cfg) for n in (3, 2)]
        window, at = rng.integers(0, 2, 9), rng.integers(0, seg_len - 2 * halo + 1, 9)
        first = {}
        for k in (0, 1, 0, 1):
            x = batches[k]
            h = branch._channels_last(x)
            out = [np.array(branch.forward_trunk(x))]
            for left in (True, False):
                edge_at = at if left else at + 2 * halo
                out.append(np.array(branch.trunk.edge_rows(h, window, edge_at, left)))
                assert same_or_close(out[-1], edge_rows_by_batch(branch.trunk, h, window, edge_at, left))
            for got, expected in zip(out, first.setdefault(k, out)):
                assert same_bits(got, expected)

    @pytest.mark.parametrize("rows", [1, 3000, 10 ** 6])
    def test_bits_do_not_depend_on_the_piece_size(self, rows, monkeypatch):
        from seldkit.net import layers

        branch = self.network(DESK, np.float32)
        rng = np.random.default_rng(13)
        x = self.features(rng, 2, 64, DESK).astype(np.float32)
        h = branch._channels_last(x)
        window, at = rng.integers(0, 2, 40), rng.integers(0, 64 - 2 * DESK.time_halo + 1, 40)
        expected = [np.array(branch.forward_trunk(x)), np.array(branch.trunk.edge_rows(h, window, at, True))]
        monkeypatch.setattr(layers, "STACK_ROWS", rows)
        assert same_bits(branch.forward_trunk(x), expected[0])
        assert same_bits(branch.trunk.edge_rows(h, window, at, True), expected[1])


class TestFoldedNetworks:
    """Eval-mode conv units fold NetDeconv into their convs; compared here
    against the conv -> NetDeconv -> ELU chain run as in training."""

    @staticmethod
    def moved_network(kind, cfg=NET):
        # a few train-mode forwards move every NetDeconv's running
        # statistics away from (0, I); condition numbers 1.5-1.8 at the stem
        model = RD3NetLite(cfg, seed=1) if kind == "rd3net" else TwoStageNet(cfg, seed=2)
        rng = np.random.default_rng(7)
        for _ in range(3):
            x = (rng.standard_normal((2, 7, 48, cfg.f_bins)) * 2 + 1).astype(np.float32)
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
        tta = rotation_tta(predictor.predict_features, clip, STFT)
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
        tta = rotation_tta(predictor.predict_features, clip, STFT, patterns=(RotationPattern(),))
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
        # 99 frames in chunks of 16, each split into two parts of 8 frames
        # on two threads but the last, (96, 99); Y is silent in frames 20-68
        # (parts 2-8)
        monkeypatch.setattr(features, "FRAME_CHUNK", 16)
        monkeypatch.setattr(features, "feature_workers", lambda: 2)
        flips = []
        flipped_stft = features._flipped_stft
        monkeypatch.setattr(features, "_flipped_stft", lambda *a: flips.append(a[2:]) or flipped_stft(*a))
        assert same_bits(predictor.predict_clip_tta(clip), expected)
        # the STFT of the part's audio with Y, Z and X negated, once on each
        # part where zero signs matter, which only the silent Y has; the two
        # threads of a chunk record theirs in either order
        parts = [(lo, lo + 8) for lo in range(0, 96, 8)] + [(96, 99)]
        matter = [(a, b) for a, b in parts if zero_signs_matter(stft(clip, STFT, a, b))]
        assert sorted(flips) == matter
        assert bool(flips) == silent_y and len(flips) < len(parts)

    @pytest.mark.parametrize("kind", ["intensity", "rd3net", "two-stage"])
    def test_stacks_in_the_models_feature_dtype(self, kind, monkeypatch):
        # a network gets float32 stacks, which its trunk would cast float64
        # stacks to anyway, so its output keeps the bits of float64 stacks
        clip, _ = make_clip(seed=8)
        predictor = self.predictor(kind)
        expected = rotation_tta(predictor.predict_features, clip, STFT)
        dtypes = []
        predict_features = predictor.predict_features
        monkeypatch.setattr(predictor, "predict_features",
                            lambda fs: dtypes.append(fs.data.dtype) or predict_features(fs))
        assert same_bits(predictor.predict_clip_tta(clip), expected)
        assert dtypes == [np.float64 if kind == "intensity" else np.float32] * len(ALL_PATTERNS)

    @pytest.mark.parametrize("kind", ["intensity", "desk-rd3net"])
    @pytest.mark.parametrize("silent_y", [False, True], ids=["scene", "silent-y"])
    def test_equals_per_pattern_stacks(self, kind, silent_y):
        # the path with one rotated STFT and one feature stack per pattern
        samples = make_clip(seed=7)[0].samples.copy()
        if silent_y:
            samples[1, 9600:38400] = 0.0
        clip = AmbisonicClip(samples)
        if kind == "intensity":
            predictor = self.predictor("intensity")
        else:
            desk = NetConfig(n_classes=3, f_bins=STFT.n_bins, stem_channels=12, growth=6)
            predictor = Predictor(RD3NetLite(desk, seed=4).eval(), STFT, seg_len=64, shift=32)
        spec = stft(clip, STFT)
        flipped = stft(rotate_foa(clip, RotationPattern(add_pi=True, elevation_sign=-1)), STFT) if silent_y else None
        assert zero_signs_matter(spec) == silent_y
        expected = rotation_tta_by_rotated_stfts(predictor.predict_features, spec, ALL_PATTERNS, flipped)
        assert same_bits(predictor.predict_clip_tta(clip), expected)

    @pytest.mark.parametrize("kind", ["intensity", "rd3net"])
    @pytest.mark.parametrize("n_frames", [FRAME_CHUNK - 1, FRAME_CHUNK, FRAME_CHUNK + 1, 2 * FRAME_CHUNK + 7])
    def test_equals_whole_clip_stft_at_chunk_edges(self, kind, n_frames):
        # Y is silent from 40 frames before the first chunk edge to 20 after
        # it, or to the clip's end where that comes first
        samples = np.random.default_rng(n_frames).standard_normal((4, STFT.frame_span(n_frames)))
        samples[1, (FRAME_CHUNK - 40) * STFT.hop:(FRAME_CHUNK + 20) * STFT.hop] = 0.0
        clip = AmbisonicClip(samples)
        predictor = self.predictor(kind)
        spec = stft_whole_clip(clip, STFT)
        flipped = stft_whole_clip(rotate_foa(clip, RotationPattern(add_pi=True, elevation_sign=-1)), STFT)
        assert zero_signs_matter(spec)
        expected = rotation_tta_from_spec(predictor.predict_features, spec, ALL_PATTERNS, flipped)
        assert same_bits(predictor.predict_clip_tta(clip), expected)


    @pytest.mark.parametrize("kind", ["intensity", "rd3net", "two-stage"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n_frames", [1, FRAME_CHUNK - 1, FRAME_CHUNK + 1, 2 * FRAME_CHUNK + 7])
    @pytest.mark.parametrize("silent_y", [False, True], ids=["noise", "silent-y"])
    def test_same_bits_at_any_worker_count(self, kind, workers, n_frames, silent_y, monkeypatch):
        # the intensity model takes float64 stacks, the networks float32;
        # Y is silent from 40 frames before the first chunk edge to 20
        # after it, or to the clip's end where that comes first
        samples = np.random.default_rng(n_frames).standard_normal((4, STFT.frame_span(n_frames)))
        if silent_y:
            samples[1, (FRAME_CHUNK - 40) * STFT.hop:(FRAME_CHUNK + 20) * STFT.hop] = 0.0
        clip = AmbisonicClip(samples)
        predictor = self.predictor(kind)
        spec = stft_whole_clip(clip, STFT)
        flipped = stft_whole_clip(rotate_foa(clip, RotationPattern(add_pi=True, elevation_sign=-1)), STFT)
        assert zero_signs_matter(spec) == (silent_y and n_frames > 1)
        expected = rotation_tta_from_spec(predictor.predict_features, spec, ALL_PATTERNS, flipped)
        monkeypatch.setattr(features, "feature_workers", lambda: workers)
        assert same_bits(predictor.predict_clip_tta(clip), expected)


class TestFeatureMemory:
    """Traced peaks on a 30 s clip at the desk STFT, above what the clip holds."""

    N_FRAMES = STFT.n_frames(30 * 24000)
    PLANE = N_FRAMES * STFT.n_bins * 8  # one (T, F) float64 plane
    CHUNK_SPECTRUM = 4 * FRAME_CHUNK * STFT.n_bins * 16  # one chunk's (4, FRAME_CHUNK, F) STFT

    @staticmethod
    def traced_peak(fn, *args):
        tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        try:
            out = fn(*args)
            return tracemalloc.get_traced_memory()[1] - base, out
        finally:
            tracemalloc.stop()

    @staticmethod
    def clip(silent_y):
        samples = np.random.default_rng(0).standard_normal((4, 30 * 24000))
        if silent_y:
            samples[1, 5 * 24000:17 * 24000] = 0.0
        return AmbisonicClip(samples)

    def test_features_hold_one_chunk_spectrum(self):
        # the whole-clip complex STFT alone is 12 of these chunk spectra
        peak, fs = self.traced_peak(extract_features, self.clip(False), STFT)
        assert fs.data.nbytes == 7 * self.PLANE
        assert peak <= fs.data.nbytes + 3 * self.CHUNK_SPECTRUM

    @pytest.mark.parametrize("silent_y", [False, True], ids=["noise", "silent-y"])
    def test_tta_holds_ten_planes(self, silent_y):
        # 4 amplitudes, 3 current and 3 alternate phase-difference planes, plus
        # a chunk's spectra (its flipped STFT too, where Y is silent) and the
        # model's per-pattern work
        clip = self.clip(silent_y)
        predictor = Predictor(IntensityVectorModel.for_scene_classes(3, STFT), STFT, seg_len=256, shift=256)
        predictor.predict_clip_tta(AmbisonicClip(clip.samples[:, :48000]))  # the model's caches
        peak, _ = self.traced_peak(predictor.predict_clip_tta, clip)
        assert peak <= 10 * self.PLANE + 6 * self.CHUNK_SPECTRUM

    def test_network_tta_stacks_hold_ten_float32_planes(self):
        # half the bytes of the float64 planes, plus one chunk's float64
        # planes and the chunk spectra that the float64 stacks hold too
        clip = self.clip(True)
        peak, _ = self.traced_peak(
            lambda: [None for _ in features.rotated_feature_stacks(clip, ALL_PATTERNS, STFT, np.float32)])
        chunk_planes = 10 * FRAME_CHUNK * STFT.n_bins * 8
        assert peak <= 10 * self.PLANE // 2 + chunk_planes + 6 * self.CHUNK_SPECTRUM


class TestFeatureMemoryAtAnyWorkerCount:
    """`TestFeatureMemory`'s float32 TTA bound at one and at three threads:
    the parts of one chunk together hold no more than the chunk."""

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_tta_stacks_hold_ten_planes(self, monkeypatch, workers, dtype):
        clip = TestFeatureMemory.clip(True)
        monkeypatch.setattr(features, "feature_workers", lambda: workers)
        peak, _ = TestFeatureMemory.traced_peak(
            lambda: [None for _ in features.rotated_feature_stacks(clip, ALL_PATTERNS, STFT, dtype)])
        planes = 10 * TestFeatureMemory.PLANE * np.dtype(dtype).itemsize // 8
        chunk_planes = 10 * FRAME_CHUNK * STFT.n_bins * 8 if dtype == np.float32 else 0
        assert peak <= planes + chunk_planes + 6 * TestFeatureMemory.CHUNK_SPECTRUM


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

    @pytest.mark.parametrize("seed", range(4))
    def test_band_bins_equal_all_bins(self, seed):
        # random stacks with zero amplitudes: whole frames, whole bins and
        # single cells, and in one case all of W; bands overlap, repeat a
        # bin, leave bins unsorted, are empty or touch the last bin
        rng = np.random.default_rng(seed)
        n_f = STFT.n_bins
        data = np.empty((7, 40, n_f))
        data[:4] = rng.uniform(0.0, 2.0, (4, 40, n_f)) * (rng.uniform(size=(4, 40, n_f)) > 0.2)
        data[4:] = rng.uniform(0.0, 2 * math.pi, (3, 40, n_f))
        data[:4, rng.integers(40, size=5)] = 0.0
        data[:, :, rng.integers(n_f, size=5)] = 0.0
        if seed == 3:
            data[0] = 0.0
        models = [
            IntensityVectorModel.for_scene_classes(3, STFT),
            IntensityVectorModel(5, [np.arange(1, 9), np.arange(120, n_f), [7, 3, 3, n_f - 1], [], [-1, 2]]),
        ]
        for model in models:
            expected = intensity_over_all_bins(model.band_bins, data)
            assert same_bits(model.predict_features(FeatureStack(data)), expected)
        assert models[0]._bins.size == 33  # of 129 bins at this STFT

    @pytest.mark.parametrize("n_classes, cfg", [(3, STFT), (3, StftConfig()), (14, StftConfig())],
                             ids=["3-desk", "3-default", "14-default"])
    def test_slices_give_the_bits_of_the_gathered_union(self, n_classes, cfg):
        # the 14 default-STFT bands overlap, so their union is shorter
        # than their sum and bins are summed by more than one class
        model = IntensityVectorModel.for_scene_classes(n_classes, cfg)
        overlap = sum(map(len, model.band_bins)) - model._bins.size
        assert (overlap > 0) == (n_classes == 14)
        rng = np.random.default_rng(n_classes)
        data = np.empty((7, 300, cfg.n_bins))
        data[:4] = rng.uniform(0.0, 2.0, (4, 300, cfg.n_bins))
        data[4:] = rng.uniform(0.0, 2 * math.pi, (3, 300, cfg.n_bins))
        data[:4, 10:20] = 0.0
        expected = intensity_by_gathered_union(model.band_bins, data)
        assert same_bits(model.predict_features(FeatureStack(data)), expected)

    def test_runs_of_negative_and_unsorted_bins(self):
        # a run never passes from bin -1 to bin 0; empty bands read nothing
        n_f = STFT.n_bins
        data = np.random.default_rng(9).uniform(0.5, 2.0, (7, 30, n_f))
        bands = [[-1, 0, 1], [-3, -2], [7, 3, 3, n_f - 4], [], [5, 4]]
        model = IntensityVectorModel(len(bands), bands)
        assert [(r.start, r.stop) for r in model._runs] == [(-3, None), (0, 2), (3, 6), (7, 8), (n_f - 4, n_f - 3)]
        assert same_bits(model.predict_features(FeatureStack(data)), intensity_by_gathered_union(bands, data))
        empty = IntensityVectorModel(2, [[], []])
        assert same_bits(empty.predict_features(FeatureStack(data)), intensity_by_gathered_union([[], []], data))

    @pytest.mark.parametrize("bins", [[5, 129], [-130, 5], [200]])
    def test_bins_outside_the_stack_rejected(self, bins):
        model = IntensityVectorModel(1, [bins])
        with pytest.raises(IndexError, match="outside the stack's 129 bins"):
            model.predict_features(FeatureStack(np.ones((7, 4, 129))))
