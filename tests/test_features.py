import math

import numpy as np
import pytest

from oracles import feature_stack_by_mod, rotated_feature_stacks_from_spec, same_bits, stft_whole_clip
from seldkit.augment import ALL_PATTERNS, RotationPattern, rotate_foa, zero_signs_matter
from seldkit.features import (
    FRAME_CHUNK,
    StftConfig,
    extract_features,
    make_feature_stack,
    rotated_feature_stacks,
    stft,
)
from seldkit.scene import AmbisonicClip, SceneConfig, synth_scene

TWO_PI = 2.0 * math.pi


def clip_from(channels):
    return AmbisonicClip(np.asarray(channels, dtype=float))


class TestStft:
    def test_frame_and_bin_counts(self):
        clip = clip_from(np.zeros((4, 24000)))
        spec = stft(clip)
        # T = 1 + floor((24000 - 480) / 240), F = 512/2 + 1
        assert spec.shape == (4, 1 + (24000 - 480) // 240, 257)
        assert spec.shape == (4, 99, 257)

    def test_sine_lands_in_expected_bin(self):
        t = np.arange(24000) / 24000
        chans = np.zeros((4, 24000))
        chans[0] = np.sin(TWO_PI * 1000.0 * t)
        spec = stft(clip_from(chans))
        peak_bin = np.abs(spec[0]).mean(axis=0).argmax()
        assert peak_bin == round(1000 * 512 / 24000) == 21

    def test_zero_clip(self):
        spec = stft(clip_from(np.zeros((4, 5000))))
        assert np.all(spec == 0)

    def test_too_short_clip_raises(self):
        with pytest.raises(ValueError):
            stft(clip_from(np.zeros((4, 200))))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StftConfig(win_len=480, hop=240, fft_size=256)

    @pytest.mark.parametrize("hop", [120, 480])
    def test_hop_must_match_label_grid(self, hop):
        # targets and label-rate outputs assume ten 10 ms frames per 100 ms label
        with pytest.raises(ValueError, match=f"hop {hop}"):
            StftConfig(win_len=480, hop=hop, fft_size=512)


class TestFeatureStack:
    def test_identical_channels_zero_ipd(self):
        rng = np.random.default_rng(0)
        sig = rng.standard_normal(4800)
        chans = np.stack([sig, sig, rng.standard_normal(4800), sig])
        fs = extract_features(clip_from(chans))
        assert np.allclose(fs.data[4], 0.0)

    def test_negated_channel_gives_pi(self):
        rng = np.random.default_rng(1)
        sig = rng.standard_normal(4800)
        chans = np.stack([sig, -sig, sig, sig])
        fs = extract_features(clip_from(chans))
        power = fs.data[0] > 1e-9
        assert np.allclose(fs.data[4][power], math.pi, atol=1e-9)

    def test_one_sample_delay_phase(self):
        # delay-phase relation: a 1-sample lag multiplies bin k by
        # exp(-2i pi k / N), so angle(ch1) - angle(ch0) wraps to
        # 2 pi (1 - k/N) at the sine's bin
        k, n = 21, 512
        freq = k * 24000 / n
        t = np.arange(24001) / 24000
        sig = np.sin(TWO_PI * freq * t)
        chans = np.zeros((4, 24000))
        chans[0] = sig[1:]       # reference
        chans[1] = sig[:-1]      # delayed by one sample
        chans[2] = chans[0]
        chans[3] = chans[0]
        fs = extract_features(clip_from(chans))
        expected = TWO_PI * (1.0 - k / n)
        measured = fs.data[4][:, k]
        assert np.allclose(measured, expected, atol=1e-3)

    def test_amplitude_scales_ipd_invariant(self):
        rng = np.random.default_rng(2)
        chans = rng.standard_normal((4, 4800))
        fs1 = extract_features(clip_from(chans))
        fs2 = extract_features(clip_from(3.0 * chans))
        np.testing.assert_allclose(fs2.data[:4], 3.0 * fs1.data[:4], rtol=1e-12)
        np.testing.assert_allclose(fs2.data[4:], fs1.data[4:], atol=1e-9)

    def test_ipd_wrapped_to_unit_circle(self):
        rng = np.random.default_rng(3)
        fs = extract_features(clip_from(rng.standard_normal((4, 9600))))
        assert fs.data[4:].min() >= 0.0
        assert fs.data[4:].max() < TWO_PI

    def test_zero_reference_gives_zero_ipd(self):
        spec = np.zeros((4, 3, 5), dtype=complex)
        spec[1:] = 1.0 + 1.0j
        fs = make_feature_stack(spec)
        assert np.all(fs.data[4:] == 0.0)

    def test_layout(self):
        fs = extract_features(clip_from(np.random.default_rng(4).standard_normal((4, 4800))))
        assert fs.data.shape[0] == 7
        assert np.all(fs.data[:4] >= 0.0)

    def test_ipd_range_on_a_scene_is_closed(self):
        # a difference a hair below 0 wraps to 2pi + d, which rounds to 2pi
        clip, _ = synth_scene(SceneConfig(n_classes=3, duration_s=2.0, rng_seed=0))
        ipd = extract_features(clip).data[4:]
        assert ipd.min() >= 0.0
        assert ipd.max() <= TWO_PI
        assert np.any(ipd == TWO_PI)


class TestFeatureStackOracle:
    def test_scene_matches_mod_formula(self):
        clip, _ = synth_scene(SceneConfig(n_classes=3, duration_s=2.0, rng_seed=1))
        spec = stft(clip)
        assert same_bits(make_feature_stack(spec).data, feature_stack_by_mod(spec))

    def test_signed_zeros_match_mod_formula(self):
        # every pairing of W and a channel over values whose phase is +-0
        # or +-pi (exact reals with +-0 imaginary parts), 0 or pi for zero
        # bins, or a hair off +-pi, so that differences reach exactly +-2pi,
        # +-0, and sums that round up to 2pi
        parts = [-2.0, -0.5, -0.0, 0.0, 0.5, 2.0]
        values = np.array([complex(re, im) for re in parts for im in (-0.0, 0.0, -1e-17, 1e-17, 1.0)])
        spec = np.empty((4, values.size, values.size), dtype=complex)
        spec[0] = values[:, None]
        spec[1] = values[None, :]
        spec[2] = -values[None, :]
        spec[3] = np.conj(values)[None, :]
        assert same_bits(make_feature_stack(spec).data, feature_stack_by_mod(spec))
        spec[2] = 0.0
        spec[3] = complex(-0.0, -0.0)
        assert same_bits(make_feature_stack(spec).data, feature_stack_by_mod(spec))


CHUNK_EDGES = [FRAME_CHUNK - 1, FRAME_CHUNK, FRAME_CHUNK + 1, 2 * FRAME_CHUNK + 7]
SHAPES = [StftConfig(win_len=256, hop=240, fft_size=256), StftConfig()]


def noise_clip(cfg, n_frames, seed=0, silent_y=None):
    """Noise of exactly `n_frames` frames; `silent_y` = (first, last) frame
    of a span where Y is exactly zero."""
    samples = np.random.default_rng(seed).standard_normal((4, cfg.frame_span(n_frames)))
    if silent_y is not None:
        first, last = silent_y
        samples[1, first * cfg.hop:last * cfg.hop + cfg.win_len] = 0.0
    return AmbisonicClip(samples)


class TestFrameChunks:
    """Chunked STFT, features and TTA stacks against the whole-clip paths,
    byte for byte, at frame counts around the chunk size."""

    @pytest.mark.parametrize("cfg", SHAPES, ids=["256-256", "480-512"])
    @pytest.mark.parametrize("n_frames", CHUNK_EDGES)
    def test_stft_and_features_equal_whole_clip(self, cfg, n_frames):
        clip = noise_clip(cfg, n_frames)
        whole = stft_whole_clip(clip, cfg)
        assert whole.shape[1] == n_frames
        assert same_bits(stft(clip, cfg), whole)
        features = extract_features(clip, cfg).data
        assert same_bits(features, feature_stack_by_mod(whole))
        assert same_bits(extract_features(clip, cfg, np.float32).data, features.astype(np.float32))
        # frame ranges that start and stop inside chunks
        for lo, hi in [(0, 1), (FRAME_CHUNK - 2, n_frames), (3, n_frames - 1), (n_frames - 1, n_frames)]:
            assert same_bits(stft(clip, cfg, lo, hi), whole[:, lo:hi]), (lo, hi)

    @pytest.mark.parametrize("start, stop", [(-1, 5), (5, 5), (6, 5), (0, 11)])
    def test_frame_range_outside_the_clip(self, start, stop):
        cfg = SHAPES[0]
        with pytest.raises(ValueError, match=r"outside the clip's 10"):
            stft(noise_clip(cfg, 10), cfg, start, stop)

    @pytest.mark.parametrize("cfg", SHAPES, ids=["256-256", "480-512"])
    @pytest.mark.parametrize("n_frames", CHUNK_EDGES)
    @pytest.mark.parametrize("silent_y", [None, (FRAME_CHUNK - 40, FRAME_CHUNK + 20)], ids=["noise", "silent-y"])
    def test_rotated_stacks_equal_whole_clip(self, cfg, n_frames, silent_y):
        # Y is silent from 40 frames before the first chunk edge to 20 after
        # it, or to the clip's end where that comes first
        clip = noise_clip(cfg, n_frames, seed=1, silent_y=silent_y)
        spec = stft_whole_clip(clip, cfg)
        assert zero_signs_matter(spec) == (silent_y is not None)
        flip = RotationPattern(add_pi=True, elevation_sign=-1)
        flipped = stft_whole_clip(rotate_foa(clip, flip), cfg) if silent_y else None
        expected = [fs.data.copy() for _, fs in rotated_feature_stacks_from_spec(spec, ALL_PATTERNS, flipped)]
        got = [fs.data.copy() for _, fs in rotated_feature_stacks(clip, ALL_PATTERNS, cfg)]
        assert len(got) == 8
        for r, a, b in zip(ALL_PATTERNS, got, expected):
            assert same_bits(a, b), r
