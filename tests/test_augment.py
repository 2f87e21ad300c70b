import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import random_event_list, rotate_stft, same_bits
from strategies import doas, foa_clips
from seldkit.accdoa import encode_accdoa
from seldkit.augment import (
    ALL_PATTERNS,
    RotationPattern,
    SpecAugmentConfig,
    emda_mix,
    rotate_accdoa,
    rotate_angles,
    rotate_events,
    rotate_foa,
    spec_augment,
    zero_signs_matter,
)
from seldkit.features import StftConfig, extract_features, make_feature_stack, rotated_feature_stacks, stft
from seldkit.scene import AmbisonicClip, DoaAngles, Event, EventList, encode_plane_wave, synth_scene, SceneConfig


def random_doa(rng):
    return DoaAngles(rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi / 2, math.pi / 2))


class TestRotateAngles:
    def test_example(self):
        d = DoaAngles(math.radians(30), math.radians(10))
        r = RotationPattern(azimuth_sign=1, add_pi=True, elevation_sign=-1)
        out = rotate_angles(d, r)
        assert math.degrees(out.azimuth) == pytest.approx(-150.0)
        assert math.degrees(out.elevation) == pytest.approx(-10.0)

    def test_identity(self):
        d = DoaAngles(0.3, -0.2)
        out = rotate_angles(d, RotationPattern())
        assert out.azimuth == d.azimuth and out.elevation == d.elevation
        assert np.array_equal(out.unit_vec, d.unit_vec)

    def test_every_pattern_self_inverse(self):
        rng = np.random.default_rng(0)
        for r in ALL_PATTERNS:
            for _ in range(20):
                d = random_doa(rng)
                dd = rotate_angles(rotate_angles(d, r), r)
                assert np.array_equal(dd.unit_vec, d.unit_vec)

    def test_eight_distinct_patterns(self):
        assert len(set(ALL_PATTERNS)) == 8

    def test_closed_under_composition(self):
        # the patterns' vector signs form a group under elementwise product,
        # in which every element is its own inverse
        signs = {r.vector_signs for r in ALL_PATTERNS}
        assert len(signs) == 8
        for r1 in ALL_PATTERNS:
            assert np.array_equal(np.multiply(r1.vector_signs, r1.vector_signs), [1, 1, 1])
            for r2 in ALL_PATTERNS:
                assert tuple(np.multiply(r1.vector_signs, r2.vector_signs)) in signs

    @given(d=doas, r1=st.sampled_from(ALL_PATTERNS), r2=st.sampled_from(ALL_PATTERNS))
    def test_compose_matches_sequential_application(self, d, r1, r2):
        # r1 then r2 is the pattern whose signs are the product of theirs
        by_signs = {r.vector_signs: r for r in ALL_PATTERNS}
        product = by_signs[tuple(np.multiply(r1.vector_signs, r2.vector_signs))]
        via_seq = rotate_angles(rotate_angles(d, r1), r2)
        assert np.array_equal(via_seq.unit_vec, rotate_angles(d, product).unit_vec)


class TestRotateFoa:
    def test_equivariance_with_plane_wave(self):
        # rotating the audio must equal encoding at the rotated angles
        rng = np.random.default_rng(2)
        for r in ALL_PATTERNS:
            d = random_doa(rng)
            sig = rng.standard_normal(256)
            a = rotate_foa(encode_plane_wave(sig, d), r)
            b = encode_plane_wave(sig, rotate_angles(d, r))
            assert np.array_equal(a.samples, b.samples)

    def test_mirror_pattern_channels(self):
        clip = AmbisonicClip(np.arange(8, dtype=float).reshape(4, 2))
        out = rotate_foa(clip, RotationPattern(azimuth_sign=-1))
        np.testing.assert_array_equal(out.samples, [[0, 1], [-2, -3], [4, 5], [6, 7]])

    def test_add_pi_pattern_channels(self):
        clip = AmbisonicClip(np.arange(8, dtype=float).reshape(4, 2))
        out = rotate_foa(clip, RotationPattern(add_pi=True))
        np.testing.assert_array_equal(out.samples, [[0, 1], [-2, -3], [4, 5], [-6, -7]])

    def test_identity_bit_exact(self):
        rng = np.random.default_rng(3)
        clip = AmbisonicClip(rng.standard_normal((4, 100)))
        assert np.array_equal(rotate_foa(clip, RotationPattern()).samples, clip.samples)

    def test_energy_preserved_exactly(self):
        rng = np.random.default_rng(4)
        clip = AmbisonicClip(rng.standard_normal((4, 50)))
        for r in ALL_PATTERNS:
            out = rotate_foa(clip, r)
            assert np.array_equal((out.samples ** 2).sum(0), (clip.samples ** 2).sum(0))


STFT = StftConfig(win_len=256, hop=240, fft_size=256)
FLIP_YZX = RotationPattern(add_pi=True, elevation_sign=-1)


class TestRotateStft:
    @given(clip=foa_clips())
    def test_features_equal_rotated_audio_features(self, clip):
        # the flipped channels come from `flipped` exactly where zero signs matter
        spec = stft(clip, STFT)
        flipped = stft(rotate_foa(clip, FLIP_YZX), STFT) if zero_signs_matter(spec) else None
        for r in ALL_PATTERNS:
            direct = extract_features(rotate_foa(clip, r), STFT).data
            assert same_bits(make_feature_stack(rotate_stft(spec, r, flipped)).data, direct)

    @given(clip=foa_clips())
    def test_flipped_channels_give_rotated_stft(self, clip):
        spec, flipped = stft(clip, STFT), stft(rotate_foa(clip, FLIP_YZX), STFT)
        for r in ALL_PATTERNS:
            assert same_bits(rotate_stft(spec, r, flipped), stft(rotate_foa(clip, r), STFT))

    def test_channel_signs(self):
        for r in ALL_PATTERNS:
            fx, fy, fz = r.vector_signs
            assert np.array_equal(r.channel_signs, [1.0, fy, fz, fx])

    def test_zero_signs_matter_wherever_they_change_features(self):
        # one bin per (W, Y) pair: whenever -Y with some zero part's sign
        # toggled gives other features than -Y, the predicate must say so
        # (a W phase near pi, where pi - theta and -pi - theta wrap 1 ulp apart)
        values = [complex(re, im) for re in (-1.5, -0.0, 0.0, 2.0) for im in (-1.0, -0.0, 0.0, 0.5)]
        flagged = 0
        for w in values + [complex(-1.5, 1e-5)]:
            for y in values:
                spec = np.array([w, y, 1.0 + 1.0j, 1.0 + 1.0j]).reshape(4, 1, 1)
                features = make_feature_stack(spec * [[[1]], [[-1]], [[1]], [[1]]]).data
                for re_sign in (1.0, -1.0) if y.real == 0 else (1.0,):
                    for im_sign in (1.0, -1.0) if y.imag == 0 else (1.0,):
                        other = spec.copy()
                        other[1] = complex(-re_sign * y.real, -im_sign * y.imag)
                        if not same_bits(make_feature_stack(other).data, features):
                            assert zero_signs_matter(spec), (w, y)
                flagged += zero_signs_matter(spec)
        # bins with no zero part never need the flipped STFT
        assert not zero_signs_matter(np.full((4, 1, 1), 2.0 + 0.5j))
        assert flagged < len(values) ** 2 / 2

    def test_silent_channel_needs_flipped_stft(self):
        # a negated zero bin has phase +-pi where the STFT of the negated
        # (silent) audio mostly has 0, so its phase difference moves by pi
        samples = np.random.default_rng(0).standard_normal((4, 2416))
        spec = stft(AmbisonicClip(samples), STFT)
        assert not zero_signs_matter(spec)
        samples[1] = 0.0
        clip = AmbisonicClip(samples)
        spec = stft(clip, STFT)
        assert zero_signs_matter(spec)
        r = RotationPattern(azimuth_sign=-1)
        direct = extract_features(rotate_foa(clip, r), STFT).data
        plain = make_feature_stack(rotate_stft(spec, r)).data
        assert np.array_equal(plain[:4], direct[:4])
        assert np.abs(plain[4] - direct[4]).max() == pytest.approx(math.pi)


class TestRotatedFeatureStacks:
    """One set of amplitudes and phases for all eight patterns, against one
    rotated STFT and one fresh feature stack per pattern."""

    @staticmethod
    def assert_match_per_pattern_stacks(spec, flipped):
        got = [(r, fs.data.copy()) for r, fs in rotated_feature_stacks(spec, ALL_PATTERNS, flipped)]
        assert [r for r, _ in got] == list(ALL_PATTERNS)
        for r, data in got:
            assert same_bits(data, make_feature_stack(rotate_stft(spec, r, flipped)).data), r

    @given(clip=foa_clips(), always_flipped=st.booleans())
    def test_match_per_pattern_stacks(self, clip, always_flipped):
        spec = stft(clip, STFT)
        needed = always_flipped or zero_signs_matter(spec)
        self.assert_match_per_pattern_stacks(spec, stft(rotate_foa(clip, FLIP_YZX), STFT) if needed else None)

    def test_silent_y_with_flipped_stft(self):
        samples = np.random.default_rng(7).standard_normal((4, 2416))
        samples[1, 480:1700] = 0.0
        clip = AmbisonicClip(samples)
        spec = stft(clip, STFT)
        assert zero_signs_matter(spec)
        self.assert_match_per_pattern_stacks(spec, stft(rotate_foa(clip, FLIP_YZX), STFT))

    @pytest.mark.parametrize("quantized", [False, True])
    def test_zero_w_bins(self, quantized):
        samples = np.random.default_rng(8).standard_normal((4, 2416))
        if quantized:
            samples = np.round(4.0 * samples) / 4.0
        samples[0, :1200] = 0.0
        clip = AmbisonicClip(samples)
        spec = stft(clip, STFT)
        assert np.any(spec[0] == 0)
        flipped = stft(rotate_foa(clip, FLIP_YZX), STFT) if zero_signs_matter(spec) else None
        self.assert_match_per_pattern_stacks(spec, flipped)

    @pytest.mark.parametrize("with_flipped", [False, True])
    def test_seven_phases_per_clip(self, monkeypatch, with_flipped):
        # W's phase, and each of Y, Z and X's own and negated phase
        clip = AmbisonicClip(np.random.default_rng(10).standard_normal((4, 2416)))
        spec = stft(clip, STFT)
        flipped = stft(rotate_foa(clip, FLIP_YZX), STFT) if with_flipped else None
        calls = []
        arctan2 = np.arctan2
        monkeypatch.setattr(np, "arctan2", lambda *a, **k: calls.append(1) or arctan2(*a, **k))
        assert sum(1 for _ in rotated_feature_stacks(spec, ALL_PATTERNS, flipped)) == 8
        assert len(calls) == 7

    @pytest.mark.parametrize("silent_z", [False, True])
    def test_any_pattern_order(self, silent_z):
        # a plane skipped because its sign did not change must still be right
        order = ALL_PATTERNS[::-1] + ALL_PATTERNS[2:3] * 2 + ALL_PATTERNS[:5] + ALL_PATTERNS[6:]
        samples = np.random.default_rng(11).standard_normal((4, 2416))
        if silent_z:
            samples[2, 600:1500] = 0.0
        clip = AmbisonicClip(samples)
        spec = stft(clip, STFT)
        assert zero_signs_matter(spec) == silent_z
        flipped = stft(rotate_foa(clip, FLIP_YZX), STFT) if silent_z else None
        got = [(r, fs.data.copy()) for r, fs in rotated_feature_stacks(spec, order, flipped)]
        assert [r for r, _ in got] == list(order)
        for r, data in got:
            assert same_bits(data, make_feature_stack(rotate_stft(spec, r, flipped)).data), r

    def test_copies_only_the_planes_whose_sign_changes(self, monkeypatch):
        spec = stft(AmbisonicClip(np.random.default_rng(12).standard_normal((4, 2416))), STFT)
        copies = []
        copyto = np.copyto
        monkeypatch.setattr(np, "copyto", lambda *a, **k: copies.append(1) or copyto(*a, **k))
        stacks = rotated_feature_stacks(spec, ALL_PATTERNS)
        next(stacks)
        counts = []
        for previous, r in zip(ALL_PATTERNS, ALL_PATTERNS[1:]):
            copies.clear()
            assert next(stacks)[0] == r
            counts.append(len(copies))
            assert counts[-1] == np.sum(previous.channel_signs != r.channel_signs), r
        assert sum(counts) == 8  # 11 plane copies with the first pattern's 3, where 24 were made

    def test_stacks_are_read_only(self):
        spec = stft(AmbisonicClip(np.random.default_rng(13).standard_normal((4, 2416))), STFT)
        for r, fs in rotated_feature_stacks(spec, ALL_PATTERNS):
            assert not fs.data.flags.writeable, r
            with pytest.raises(ValueError, match="read-only"):
                fs.data[4, 0, 0] = 0.0

    def test_one_buffer_overwritten_by_the_next_pattern(self):
        spec = stft(AmbisonicClip(np.random.default_rng(9).standard_normal((4, 2416))), STFT)
        stacks = rotated_feature_stacks(spec, ALL_PATTERNS[:2])
        _, first = next(stacks)
        ipd_y = first.data[4].copy()
        _, second = next(stacks)
        assert second.data is first.data
        assert not np.array_equal(first.data[4], ipd_y)  # the second pattern negates Y


class TestRotateAccdoa:
    def test_commutes_with_encode(self):
        rng = np.random.default_rng(5)
        for r in ALL_PATTERNS:
            ev = random_event_list(rng, 4, 12)
            a = rotate_accdoa(encode_accdoa(ev, 4), r)
            b = encode_accdoa(rotate_events(ev, r), 4)
            assert np.array_equal(a, b)

    def test_zero_stays_zero(self):
        assert np.all(rotate_accdoa(np.zeros((3, 2, 3)), ALL_PATTERNS[5]) == 0)

    def test_involution(self):
        rng = np.random.default_rng(6)
        seq = rng.standard_normal((5, 3, 3))
        for r in ALL_PATTERNS:
            assert np.array_equal(rotate_accdoa(rotate_accdoa(seq, r), r), seq)


def single_event_scene(seed, class_id=0, n_classes=3):
    rng = np.random.default_rng(seed)
    sig = rng.standard_normal(2400 * 3)
    ev = Event(class_id, 1, 4, [DoaAngles(0.4, 0.1)] * 3)
    clip = AmbisonicClip(np.zeros((4, 2400 * 8)))
    enc = encode_plane_wave(sig, ev.trajectory[0])
    clip.samples[:, 2400:2400 * 4] = enc.samples
    return clip, EventList([ev], 8)


class TestEmda:
    def test_no_secondaries_is_identity(self):
        clip, events = single_event_scene(0)
        out_clip, out_events = emda_mix((clip, events), [], np.random.default_rng(0))
        assert np.array_equal(out_clip.samples, clip.samples)
        assert len(out_events.events) == 1

    def test_minus_six_db_flat_eq(self):
        clip, events = single_event_scene(1, class_id=0)
        sec_clip, sec_events = single_event_scene(2, class_id=1)
        out_clip, out_events = emda_mix(
            (clip, events),
            [(sec_clip, sec_events)],
            np.random.default_rng(3),
            gain_db_range=(-6.0, -6.0),
            delay_ms_range=(0.0, 0.0),
            eq_gain_db_range=(0.0, 0.0),
        )
        gain = 10.0 ** (-6.0 / 20.0)
        assert gain == pytest.approx(0.5011872336)
        np.testing.assert_allclose(
            out_clip.samples, clip.samples + gain * sec_clip.samples, rtol=1e-9, atol=1e-12
        )
        assert len(out_events.events) == 2

    def test_label_bookkeeping(self):
        clip, events = single_event_scene(4, class_id=0)
        secs = [single_event_scene(5, class_id=1), single_event_scene(6, class_id=2)]
        _, out_events = emda_mix((clip, events), secs, np.random.default_rng(7))
        assert len(out_events.events) == 3

    def test_same_class_conflict_dropped(self):
        # secondary occupies the same class and frames as the primary with
        # no delay headroom, so every retry collides and it gets dropped
        clip, events = single_event_scene(8, class_id=0)
        sec = single_event_scene(9, class_id=0)
        out_clip, out_events = emda_mix(
            (clip, events), [sec], np.random.default_rng(10), delay_ms_range=(0.0, 0.0)
        )
        assert len(out_events.events) == 1
        assert np.array_equal(out_clip.samples, clip.samples)

    def test_delay_shifts_labels(self):
        clip, events = single_event_scene(11, class_id=0)
        sec = single_event_scene(12, class_id=1)
        _, out_events = emda_mix(
            (clip, events), [sec], np.random.default_rng(13),
            delay_ms_range=(200.0, 200.0),
        )
        shifted = [ev for ev in out_events.events if ev.class_id == 1][0]
        assert shifted.onset == 3  # 1 + 200 ms / 100 ms

    def test_rejects_three_secondaries(self):
        clip, events = single_event_scene(14)
        sec = single_event_scene(15, class_id=1)
        with pytest.raises(ValueError):
            emda_mix((clip, events), [sec, sec, sec], np.random.default_rng(0))


class TestSpecAugment:
    def make_features(self, seed=0):
        clip, _ = synth_scene(SceneConfig(n_classes=3, duration_s=2.0, n_events=2, rng_seed=seed))
        return extract_features(clip)

    def test_zero_config_identity(self):
        fs = self.make_features()
        cfg = SpecAugmentConfig(n_time_masks=0, n_freq_masks=0, n_chan_masks=0)
        out = spec_augment(fs, cfg, np.random.default_rng(0))
        assert np.array_equal(out.data, fs.data)

    def test_time_mask_zeroes_all_channels(self):
        fs = self.make_features()
        cfg = SpecAugmentConfig(n_time_masks=1, n_freq_masks=0, n_chan_masks=0, max_time_width=5)
        out = spec_augment(fs, cfg, np.random.default_rng(1))
        changed = np.flatnonzero(np.any(out.data != fs.data, axis=(0, 2)))
        assert 0 < len(changed) <= 5
        assert np.array_equal(changed, np.arange(changed[0], changed[-1] + 1))
        # every changed column is fully zeroed across the seven channels
        assert np.all(out.data[:, changed, :] == 0)

    def test_channel_mask_statistics(self):
        fs = self.make_features()
        cfg = SpecAugmentConfig(n_time_masks=0, n_freq_masks=0, n_chan_masks=1)
        rng = np.random.default_rng(12)  # draws c0 = 2 first
        c0_preview = np.random.default_rng(12).integers(0, 4)
        out = spec_augment(fs, cfg, rng)
        c0 = int(c0_preview)
        assert np.all(out.data[c0] == 0)
        if c0 > 0:
            ipd = out.data[4 + c0 - 1]
            assert ipd.min() >= 0.0 and ipd.max() < 2 * math.pi
            # replacement is random, not constant: spread over the range
            assert ipd.min() < 1.0 < ipd.max()
            assert np.unique(ipd).size > 100

    def test_unmasked_cells_untouched(self):
        fs = self.make_features()
        cfg = SpecAugmentConfig(n_time_masks=1, n_freq_masks=1, n_chan_masks=0,
                                max_time_width=4, max_freq_width=4)
        rng = np.random.default_rng(3)
        out = spec_augment(fs, cfg, rng)
        diff = out.data != fs.data
        # differing cells are confined to full time columns or freq rows
        changed_t = np.flatnonzero(np.any(diff, axis=(0, 2)))
        changed_f = np.flatnonzero(np.any(diff, axis=(0, 1)))
        for t in changed_t:
            cols = diff[:, t, :]
            assert np.all(out.data[:, t, :][cols] == 0)
        assert len(changed_t) <= 4 + fs.data.shape[1]
        assert len(changed_f) <= 4 + fs.data.shape[2]

    def test_width_clipped_to_dimension(self):
        fs = self.make_features()
        cfg = SpecAugmentConfig(n_time_masks=1, n_freq_masks=0, n_chan_masks=0,
                                max_time_width=10_000)
        out = spec_augment(fs, cfg, np.random.default_rng(4))
        assert out.data.shape == fs.data.shape

    def test_input_not_mutated(self):
        fs = self.make_features()
        before = fs.data.copy()
        spec_augment(fs, SpecAugmentConfig(), np.random.default_rng(5))
        assert np.array_equal(fs.data, before)
