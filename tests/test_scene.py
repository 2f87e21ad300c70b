import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.io import wavfile

from oracles import class_signature_designed_per_call, synth_scene_in_one_pass
from strategies import event_lists
from seldkit import scene
from seldkit.accdoa import encode_accdoa
from seldkit.features import StftConfig
from seldkit.net.train import SceneBatchStream
from seldkit.scene import (
    AmbisonicClip,
    DoaAngles,
    Event,
    EventList,
    SceneConfig,
    class_signature,
    encode_plane_wave,
    place_events,
    read_label_csv,
    read_wav,
    render_events,
    render_scene,
    synth_scene,
    write_label_csv,
    write_wav,
)


class TestDoaAngles:
    def test_axis_conventions(self):
        np.testing.assert_allclose(DoaAngles(0, 0).unit_vec, [1, 0, 0], atol=1e-15)
        np.testing.assert_allclose(DoaAngles(math.pi / 2, 0).unit_vec, [0, 1, 0], atol=1e-15)
        np.testing.assert_allclose(DoaAngles(0, math.pi / 2).unit_vec, [0, 0, 1], atol=1e-15)

    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = DoaAngles(rng.uniform(-10, 10), rng.uniform(-math.pi / 2, math.pi / 2))
            assert abs(np.linalg.norm(d.unit_vec) - 1.0) < 1e-12

    def test_azimuth_wraps(self):
        d = DoaAngles(3 * math.pi / 2, 0.0)
        assert -math.pi <= d.azimuth < math.pi
        assert d.azimuth == pytest.approx(-math.pi / 2)

    def test_elevation_range_enforced(self):
        with pytest.raises(ValueError):
            DoaAngles(0.0, 2.0)

    def test_immutable(self):
        d = DoaAngles(0.1, 0.2)
        with pytest.raises(AttributeError):
            d.azimuth = 0.3
        assert not d.unit_vec.flags.writeable


class TestEncodePlaneWave:
    def test_front_source(self):
        clip = encode_plane_wave(np.array([1.0]), DoaAngles(0, 0))
        np.testing.assert_allclose(clip.samples[:, 0], [1, 0, 0, 1], atol=1e-15)

    def test_left_source(self):
        clip = encode_plane_wave(np.array([1.0]), DoaAngles(math.pi / 2, 0))
        np.testing.assert_allclose(clip.samples[:, 0], [1, 1, 0, 0], atol=1e-15)

    def test_diagonal_gains(self):
        # independent numeric evaluation of the SN3D gain formulas
        s, az, el = 2.0, math.pi / 4, 0.0
        expected = [
            s,
            s * math.sin(az) * math.cos(el),
            s * math.sin(el),
            s * math.cos(az) * math.cos(el),
        ]
        clip = encode_plane_wave(np.array([s]), DoaAngles(az, el))
        np.testing.assert_allclose(clip.samples[:, 0], expected, rtol=1e-15)
        np.testing.assert_allclose(clip.samples[:, 0], [2, math.sqrt(2), 0, math.sqrt(2)], rtol=1e-12)

    def test_sn3d_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            d = DoaAngles(rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi / 2, math.pi / 2))
            sig = rng.standard_normal(64)
            w, y, z, x = encode_plane_wave(sig, d).samples
            np.testing.assert_allclose(y * y + z * z + x * x, w * w, rtol=1e-9, atol=1e-12)


class TestClassSignature:
    def test_deterministic(self):
        a = class_signature(3, 0.5, np.random.default_rng(42), n_classes=5)
        b = class_signature(3, 0.5, np.random.default_rng(42), n_classes=5)
        assert np.array_equal(a, b)

    def test_length(self):
        sig = class_signature(0, 1.0, np.random.default_rng(0))
        assert sig.shape == (24000,)

    def test_centroids_separated_by_third_octave(self):
        # FFT-based spectral centroids of two adjacent classes
        def centroid(sig):
            spec = np.abs(np.fft.rfft(sig)) ** 2
            freqs = np.fft.rfftfreq(len(sig), 1 / 24000)
            return (freqs * spec).sum() / spec.sum()

        c0 = centroid(class_signature(0, 1.0, np.random.default_rng(5), n_classes=14))
        c1 = centroid(class_signature(1, 1.0, np.random.default_rng(5), n_classes=14))
        assert math.log2(c1 / c0) > 1.0 / 3.0

    def test_class_id_validated(self):
        with pytest.raises(ValueError):
            class_signature(5, 1.0, np.random.default_rng(0), n_classes=5)


class TestClassBandpassDesignedOnce:
    """`class_signature` designs each class's band-pass once per process;
    its output keeps the bits of a filter designed on every call."""

    def test_matches_the_filter_designed_per_call(self):
        for n_classes in range(1, 15):
            for class_id in range(n_classes):
                for duration_s, seed in [(0.1, 0), (0.5, 1), (0.5, 2), (1.5, 3)]:
                    rngs = [np.random.default_rng((seed, class_id, n_classes)) for _ in range(2)]
                    got = class_signature(class_id, duration_s, rngs[0], n_classes)
                    want = class_signature_designed_per_call(class_id, duration_s, rngs[1], n_classes)
                    assert np.array_equal(got, want), (n_classes, class_id, duration_s)
                    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    def test_desk_stream_designs_each_filter_once(self, monkeypatch):
        # the train_desk stream: 3 classes, a pool of 64 and a bank of 32 scenes of 3 s;
        # designing per event made 224 designs
        designs = []
        butter = scene.sps.butter
        monkeypatch.setattr(scene.sps, "butter", lambda *a, **k: designs.append(a) or butter(*a, **k))
        scene._class_bandpass.cache_clear()
        stream = SceneBatchStream(SceneConfig(n_classes=3, duration_s=3.0), StftConfig(), 3, 256,
                                  seed=0, pool_scenes=64, secondary_bank=32)
        n_events = sum(len(events.events) for _placed, events in stream.pool + stream.bank)
        assert n_events > 3 * 20
        assert len(designs) <= 3

    def test_a_caller_cannot_change_what_later_calls_get(self, monkeypatch):
        want = class_signature_designed_per_call(2, 0.5, np.random.default_rng(4), 5)
        sosfiltfilt = scene.sps.sosfiltfilt

        def filter_then_scribble(sos, x):
            out = sosfiltfilt(sos, x)
            sos[...] = 0.0
            return out

        monkeypatch.setattr(scene.sps, "sosfiltfilt", filter_then_scribble)
        first = class_signature(2, 0.5, np.random.default_rng(4), 5)
        first[...] = 0.0
        monkeypatch.undo()
        assert np.array_equal(class_signature(2, 0.5, np.random.default_rng(4), 5), want)


class TestSynthScene:
    def test_polyphony_cap(self):
        cfg = SceneConfig(n_classes=4, duration_s=4.0, max_polyphony=1, n_events=6, rng_seed=9)
        _, events = synth_scene(cfg)
        assert events.polyphony().max() <= 1

    def test_one_instance_per_class(self):
        cfg = SceneConfig(n_classes=2, duration_s=4.0, max_polyphony=2, n_events=8, rng_seed=3)
        _, events = synth_scene(cfg)
        act = np.zeros((events.n_frames, 2), dtype=int)
        for ev in events.events:
            act[ev.onset:ev.offset, ev.class_id] += 1
        assert act.max() <= 1

    def test_intensity_vector_recovers_doa(self):
        # time-domain acoustic intensity oracle: I = mean(W*[X, Y, Z])
        cfg = SceneConfig(n_classes=3, duration_s=2.0, n_events=1, rng_seed=11,
                          min_event_frames=10, max_event_frames=15)
        clip, events = synth_scene(cfg)
        assert len(events.events) == 1
        ev = events.events[0]
        sl = slice(ev.onset * 2400, ev.offset * 2400)
        w, y, z, x = clip.samples[:, sl]
        vec = np.array([(w * x).mean(), (w * y).mean(), (w * z).mean()])
        vec /= np.linalg.norm(vec)
        truth = ev.trajectory[0].unit_vec
        angle = math.degrees(math.acos(min(max(float(vec @ truth), -1.0), 1.0)))
        assert angle < 1.0

    def test_empty_scene(self):
        cfg = SceneConfig(n_classes=3, duration_s=1.0, n_events=0, rng_seed=0)
        clip, events = synth_scene(cfg)
        assert not events.events
        assert np.all(clip.samples == 0)

    def test_peak_normalized(self):
        clip, _ = synth_scene(SceneConfig(n_classes=3, duration_s=2.0, n_events=2, rng_seed=4))
        assert np.abs(clip.samples).max() == pytest.approx(0.5)

    def test_peak_memory_is_about_the_clip(self):
        # no temporary the size of the clip: the peak is the clip, the
        # event signals and one event's encoding (measured 1.33x at 10 s;
        # an np.abs copy for the normalisation peak makes it 2.08x)
        cfg = SceneConfig(n_classes=3, duration_s=10.0, rng_seed=5)
        tracemalloc.start()
        try:
            clip, _ = synth_scene(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * clip.samples.nbytes

    def test_deterministic(self):
        cfg = SceneConfig(n_classes=3, duration_s=2.0, n_events=2, rng_seed=123)
        c1, e1 = synth_scene(cfg)
        c2, e2 = synth_scene(cfg)
        assert np.array_equal(c1.samples, c2.samples)
        assert len(e1.events) == len(e2.events)

    def test_superposition(self):
        # render of two events == sum of the single-event renders
        rng = np.random.default_rng(2)
        sigs = [rng.standard_normal(2400 * 3), rng.standard_normal(2400 * 2)]
        evs = [
            Event(0, 0, 3, [DoaAngles(0.5, 0.1)] * 3),
            Event(1, 4, 6, [DoaAngles(-1.0, -0.2)] * 2),
        ]
        both = render_events(list(zip(evs, sigs)), 8)
        solo = [render_events([(evs[i], sigs[i])], 8) for i in range(2)]
        np.testing.assert_array_equal(both.samples, solo[0].samples + solo[1].samples)


def same_scene(a, b) -> bool:
    (clip_a, ev_a), (clip_b, ev_b) = a, b
    return (np.array_equal(clip_a.samples, clip_b.samples) and ev_a.n_frames == ev_b.n_frames
            and [(e.class_id, e.onset, e.offset, e.trajectory) for e in ev_a.events]
            == [(e.class_id, e.onset, e.offset, e.trajectory) for e in ev_b.events])


class TestPlaceAndRender:
    CONFIGS = [
        pytest.param(SceneConfig(n_classes=3, duration_s=2.0, n_events=2), id="small"),
        pytest.param(SceneConfig(n_classes=3, duration_s=1.0, n_events=0), id="no-events"),
        pytest.param(SceneConfig(n_classes=4, duration_s=4.0, max_polyphony=1, n_events=6), id="polyphony-1"),
        pytest.param(SceneConfig(n_classes=2, duration_s=4.0, n_events=8), id="crowded"),
        pytest.param(SceneConfig(), id="11s-default"),
    ]

    @pytest.mark.parametrize("cfg", CONFIGS)
    @pytest.mark.parametrize("seed", [0, 5])
    def test_render_of_placed_events_is_the_one_pass_scene(self, cfg, seed):
        rngs = [np.random.default_rng(seed) for _ in range(3)]
        split = render_scene(*place_events(cfg, rngs[0]))
        assert same_scene(split, synth_scene(cfg, rngs[1]))
        assert same_scene(split, synth_scene_in_one_pass(cfg, rngs[2]))
        # the split draws the same numbers, so what follows in a shared rng does not move
        assert rngs[0].bit_generator.state == rngs[2].bit_generator.state


class TestFileFormats:
    def test_wav_round_trip(self, tmp_path):
        clip, _ = synth_scene(SceneConfig(n_classes=2, duration_s=1.0, n_events=1, rng_seed=7))
        path = tmp_path / "clip.wav"
        write_wav(path, clip)
        loaded = read_wav(path)
        assert wavfile.read(str(path))[0] == 24000
        np.testing.assert_allclose(loaded.samples, clip.samples, atol=1e-7)

    def test_wav_at_other_rate_rejected(self, tmp_path):
        path = tmp_path / "48k.wav"
        wavfile.write(str(path), 48000, np.zeros((480, 4), dtype=np.float32))
        with pytest.raises(ValueError, match=r"48k\.wav: sample rate 48000 Hz, but seldkit runs at 24000 Hz"):
            read_wav(path)

    @pytest.mark.parametrize("mutate, message", [
        (lambda raw: raw[:-2], "cannot reshape"),
        (lambda raw: raw[:32] + b"\0\0" + raw[34:], "division"),  # block align 0
    ], ids=["truncated", "zero-block-align"])
    def test_unreadable_wav_named(self, tmp_path, mutate, message):
        # scipy's own errors carried no path, and some were not ValueErrors
        path = tmp_path / "clip.wav"
        write_wav(path, AmbisonicClip(np.zeros((4, 2400))))
        path.write_bytes(mutate(path.read_bytes()))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not a readable WAV file: .*{message}"):
            read_wav(path)

    @pytest.mark.parametrize("frames_cut", [1, 1000])
    def test_wav_shorter_than_its_header_rejected(self, tmp_path, frames_cut):
        # scipy reads the frames present and only warns
        path = tmp_path / "clip.wav"
        write_wav(path, AmbisonicClip(np.zeros((4, 2400))))
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) - frames_cut * 4 * 4])  # float32 frames of 4 channels
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: truncated WAV file: Reached EOF prematurely"):
            read_wav(path)

    def test_read_peak_memory_is_the_frames_and_the_clip(self, tmp_path):
        # scipy's float32 frames and the float64 clip, with no finiteness
        # mask the size of the clip (which would add an eighth of it)
        path = tmp_path / "clip.wav"
        write_wav(path, AmbisonicClip(np.random.default_rng(0).standard_normal((4, 240_000))))
        tracemalloc.start()
        try:
            clip = read_wav(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * clip.samples.nbytes + 64 * 1024

    @pytest.mark.parametrize("bad, where", [
        ({(0, 0): np.nan}, "nan at channel 0, sample 0"),
        ({(3, 23_999): -np.inf}, "-inf at channel 3, sample 23999"),
        ({(2, 12_000): np.inf, (1, 12_001): np.nan, (3, 12_000): np.nan}, "inf at channel 2, sample 12000"),
        ({(1, 5): np.nan, (0, 7): np.inf}, "nan at channel 1, sample 5"),
    ], ids=["first", "last", "lowest-channel-of-the-earliest", "nan-before-inf"])
    def test_non_finite_sample_named(self, tmp_path, bad, where):
        # the earliest bad sample, and of its channels the lowest
        data = np.zeros((24_000, 4), dtype=np.float32)
        for (channel, sample), value in bad.items():
            data[sample, channel] = value
        path = tmp_path / "bad.wav"
        wavfile.write(str(path), 24000, data)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: non-finite sample {re.escape(where)}$"):
            read_wav(path)

    def test_empty_clip_accepted(self):
        assert AmbisonicClip(np.zeros((4, 0))).n_samples == 0

    def test_int16_wav_scaled_by_full_scale(self, tmp_path):
        path = tmp_path / "pcm16.wav"
        data = np.array([[16384, -32768, 32767, 0]] * 5, dtype=np.int16)
        wavfile.write(str(path), 24000, data)
        loaded = read_wav(path)
        np.testing.assert_array_equal(loaded.samples[:, 0], [0.5, -1.0, 32767 / 32768, 0.0])

    def test_label_csv_round_trip(self, tmp_path):
        events = EventList(
            [
                Event(1, 2, 5, [DoaAngles(math.radians(30), math.radians(10))] * 3),
                Event(0, 4, 6, [DoaAngles(math.radians(-120), math.radians(-45))] * 2),
            ],
            10,
        )
        path = tmp_path / "labels.csv"
        write_label_csv(path, events)
        loaded = read_label_csv(path, n_frames=10)
        assert loaded.n_frames == 10
        assert len(loaded.events) == 2
        by_class = {ev.class_id: ev for ev in loaded.events}
        assert (by_class[1].onset, by_class[1].offset) == (2, 5)
        assert by_class[1].trajectory[0].azimuth == pytest.approx(math.radians(30))
        assert by_class[0].trajectory[0].elevation == pytest.approx(math.radians(-45))

    def test_azimuth_degrees_stay_in_range(self, tmp_path):
        # azimuth that rounds to +180 must wrap to -180
        events = EventList([Event(0, 0, 1, [DoaAngles(math.radians(179.8), 0.0)])], 1)
        path = tmp_path / "labels.csv"
        write_label_csv(path, events)
        row = path.read_text().strip().split(",")
        assert int(row[3]) == -180

    def test_split_events_merge_on_read(self, tmp_path):
        # a track with a frame gap comes back as two events
        events = EventList(
            [
                Event(0, 0, 2, [DoaAngles(0.1, 0.0)] * 2),
                Event(0, 4, 5, [DoaAngles(0.2, 0.0)]),
            ],
            6,
        )
        path = tmp_path / "labels.csv"
        write_label_csv(path, events)
        loaded = read_label_csv(path, n_frames=6)
        spans = sorted((ev.onset, ev.offset) for ev in loaded.events)
        assert spans == [(0, 2), (4, 5)]


class TestLabelCsvProperties:
    @given(data=st.data(), n_classes=st.integers(1, 4))
    def test_round_trip_keeps_activity_and_directions(self, tmp_path_factory, data, n_classes):
        # integer degrees move a direction by at most about 0.71 degrees
        events = data.draw(event_lists(n_classes))
        path = tmp_path_factory.mktemp("labels") / "labels.csv"
        write_label_csv(path, events)
        expected = encode_accdoa(events, n_classes)
        got = encode_accdoa(read_label_csv(path, n_frames=events.n_frames), n_classes)
        active = np.linalg.norm(expected, axis=-1) > 0
        np.testing.assert_array_equal(np.linalg.norm(got, axis=-1) > 0, active)
        cosines = np.clip(np.sum(got * expected, axis=-1)[active], -1.0, 1.0)
        assert np.degrees(np.arccos(cosines)).max(initial=0.0) <= 1.0


class TestLabelCsvRejects:
    GOOD = "0,1,0,10,0\n1,1,0,10,0\n"

    def read(self, tmp_path, text):
        path = tmp_path / "labels.csv"
        path.write_text(text)
        return read_label_csv(path)

    def test_header_allowed_on_line_one(self, tmp_path):
        loaded = self.read(tmp_path, "frame,class,track,azimuth,elevation\n" + self.GOOD)
        assert [(ev.class_id, ev.onset, ev.offset) for ev in loaded.events] == [(1, 0, 2)]

    @pytest.mark.parametrize("text, line, message", [
        # a mistyped frame between two good rows used to split one event in two
        ("0,1,0,10,0\n1O,1,0,10,0\n2,1,0,10,0\n", 2, "bad row"),
        ("0,1,0,10,0\nframe,class,track,azimuth,elevation\n", 2, "bad row"),
        ("0,1,0,10,0\n1,1,0,10\n", 2, "expected 5 fields"),
        ("0,1,0,10,0,3\n", 1, "expected 5 fields"),
        ("0,1,0,east,0\n", 1, "bad row"),
        ("0,1,0,nan,0\n", 1, "non-finite angle"),
        ("-1,1,0,10,0\n", 1, "negative frame"),
        ("0,1,0,10,95\n", 1, "elevation"),
        ("0,1,0,10,0\n0,1,0,20,0\n", 2, "listed twice"),
    ])
    def test_bad_rows_rejected_with_path_and_line(self, tmp_path, text, line, message):
        with pytest.raises(ValueError, match=f"labels.csv:{line}: .*{message}"):
            self.read(tmp_path, text)

    def test_field_over_the_csv_limit_named(self, tmp_path):
        # csv.Error is no ValueError, so `seldkit eval` printed a traceback
        with pytest.raises(ValueError, match=r"labels.csv:2: field larger than field limit"):
            self.read(tmp_path, self.GOOD[:11] + "1,1,0," + "1" * 200_000 + ",0\n")

    def test_bytes_not_utf8_named(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_bytes(self.GOOD.encode() + b"2,1,0,\xb9,0\n")
        with pytest.raises(ValueError, match=r"labels.csv:3: not UTF-8 text: byte 0xb9"):
            read_label_csv(path)

    def test_same_frame_on_two_tracks_allowed(self, tmp_path):
        loaded = self.read(tmp_path, "0,1,0,10,0\n0,1,1,-90,0\n")
        assert len(loaded.events) == 2
