import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import random_event_list
from strategies import event_lists
from seldkit.accdoa import (
    angular_distance,
    compose_accdoa,
    decode_accdoa,
    dump_accdoa,
    encode_accdoa,
    expand_to_frame_rate,
    load_accdoa,
    pool_to_label_rate,
)
from seldkit.scene import DoaAngles, Event, EventList


def events_equal(a: EventList, b: EventList, tol_deg: float = 0.0) -> bool:
    if a.n_frames != b.n_frames or len(a.events) != len(b.events):
        return False
    key = lambda e: (e.onset, e.class_id)
    for ea, eb in zip(sorted(a.events, key=key), sorted(b.events, key=key)):
        if (ea.class_id, ea.onset, ea.offset) != (eb.class_id, eb.onset, eb.offset):
            return False
        for da, db in zip(ea.trajectory, eb.trajectory):
            if angular_distance(da.unit_vec, db.unit_vec) > tol_deg:
                return False
    return True


class TestEncode:
    def test_single_event(self):
        ev = EventList([Event(2, 3, 6, [DoaAngles(math.pi / 2, 0)] * 3)], 8)
        seq = encode_accdoa(ev, 4)
        assert seq.shape == (8, 4, 3)
        np.testing.assert_allclose(seq[3:6, 2], [[0, 1, 0]] * 3, atol=1e-15)
        mask = np.ones((8, 4), dtype=bool)
        mask[3:6, 2] = False
        assert np.all(seq[mask] == 0)

    def test_empty(self):
        assert np.all(encode_accdoa(EventList([], 5), 3) == 0)

    def test_same_class_overlap_rejected(self):
        ev = EventList(
            [
                Event(1, 0, 4, [DoaAngles(0, 0)] * 4),
                Event(1, 2, 6, [DoaAngles(1, 0)] * 4),
            ],
            8,
        )
        with pytest.raises(ValueError, match="one instance per class"):
            encode_accdoa(ev, 3)

    def test_norms_unit_or_zero(self):
        rng = np.random.default_rng(0)
        ev = random_event_list(rng, 4, 20)
        seq = encode_accdoa(ev, 4)
        norms = np.linalg.norm(seq, axis=2)
        assert np.all((norms == 0) | (np.abs(norms - 1) < 1e-12))


class TestDecode:
    def test_active_above_threshold(self):
        seq = np.zeros((1, 1, 3))
        seq[0, 0] = [0.9, 0, 0]
        events = decode_accdoa(seq, threshold=0.5).events
        assert len(events) == 1
        assert events[0].trajectory[0].azimuth == 0.0
        assert events[0].trajectory[0].elevation == 0.0

    def test_inactive_below_threshold(self):
        seq = np.zeros((1, 1, 3))
        seq[0, 0] = [0.3, 0, 0]
        assert not decode_accdoa(seq, threshold=0.5).events

    def test_round_trip_exact(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            ev = random_event_list(rng, 5, 15)
            decoded = decode_accdoa(encode_accdoa(ev, 5), threshold=0.5)
            assert events_equal(ev, decoded, tol_deg=0.0)

    @given(data=st.data(), n_classes=st.integers(1, 4))
    def test_decode_inverts_encode(self, data, n_classes):
        events = data.draw(event_lists(n_classes))
        decoded = decode_accdoa(encode_accdoa(events, n_classes))
        assert events_equal(events, decoded, tol_deg=0.0)

    def test_round_trip_any_threshold(self):
        rng = np.random.default_rng(43)
        ev = random_event_list(rng, 3, 12, max_events=3)
        for tau in (0.01, 0.25, 0.5, 0.75, 0.99):
            assert events_equal(ev, decode_accdoa(encode_accdoa(ev, 3), threshold=tau))

    def test_scaling_invariance_of_direction(self):
        rng = np.random.default_rng(44)
        ev = random_event_list(rng, 3, 10, max_events=3)
        seq = encode_accdoa(ev, 3)
        scaled = decode_accdoa(0.9 * seq, threshold=0.5)
        assert events_equal(ev, scaled, tol_deg=1e-9)

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            decode_accdoa(np.zeros((1, 1, 3)), threshold=1.5)


class TestAngularDistance:
    def test_axes(self):
        assert angular_distance([1, 0, 0], [1, 0, 0]) == 0.0
        assert angular_distance([1, 0, 0], [0, 1, 0]) == pytest.approx(90.0)
        assert angular_distance([1, 0, 0], [-1, 0, 0]) == pytest.approx(180.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            angular_distance([0, 0, 0], [1, 0, 0])

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            u, v, w = rng.standard_normal((3, 3))
            duv = angular_distance(u, v)
            assert duv == pytest.approx(angular_distance(v, u), abs=1e-9)
            assert duv <= angular_distance(u, w) + angular_distance(w, v) + 1e-9

    def test_scale_invariant(self):
        rng = np.random.default_rng(8)
        u, v = rng.standard_normal((2, 3))
        assert angular_distance(u, v) == pytest.approx(angular_distance(5 * u, 0.1 * v), abs=1e-9)


def activity_of(seq: np.ndarray) -> np.ndarray:
    """Two-stage activity targets as the batch stream derives them."""
    return (np.linalg.norm(seq, axis=-1) > 0).astype(float)


class TestTwoStageTargets:
    def test_single_event(self):
        ev = EventList([Event(2, 3, 6, [DoaAngles(math.pi / 2, 0)] * 3)], 8)
        seq = encode_accdoa(ev, 4)
        activity = activity_of(seq)
        assert activity.shape == (8, 4)
        assert np.all(activity[3:6, 2] == 1)
        assert activity.sum() == 3
        np.testing.assert_allclose(seq[3, 2], [0, 1, 0], atol=1e-15)

    def test_empty(self):
        seq = encode_accdoa(EventList([], 4), 2)
        assert np.all(activity_of(seq) == 0)
        assert np.all(seq == 0)

    def test_activity_times_doa_is_encoding(self):
        rng = np.random.default_rng(9)
        seq = encode_accdoa(random_event_list(rng, 4, 15), 4)
        np.testing.assert_array_equal(activity_of(seq)[..., None] * seq, seq)

    def test_doa_zero_where_inactive(self):
        rng = np.random.default_rng(10)
        seq = encode_accdoa(random_event_list(rng, 3, 12), 3)
        assert np.all(seq[activity_of(seq) == 0] == 0)


class TestCompose:
    def test_compose_matches_encode(self):
        rng = np.random.default_rng(11)
        seq = encode_accdoa(random_event_list(rng, 3, 10), 3)
        np.testing.assert_allclose(compose_accdoa(activity_of(seq), seq), seq, atol=1e-12)

    def test_compose_normalizes_direction(self):
        activity = np.array([[1.0]])
        doa = np.array([[[3.0, 0.0, 0.0]]])
        np.testing.assert_allclose(compose_accdoa(activity, doa), [[[1.0, 0, 0]]])


class TestRateConversion:
    def test_expand_then_pool_is_identity(self):
        rng = np.random.default_rng(12)
        seq = rng.standard_normal((6, 3, 3))
        frames = expand_to_frame_rate(seq, 60)
        assert frames.shape == (60, 3, 3)
        np.testing.assert_allclose(pool_to_label_rate(frames), seq, rtol=1e-12)

    def test_pool_partial_tail(self):
        seq = np.ones((23, 1, 3))
        pooled = pool_to_label_rate(seq)
        assert pooled.shape == (3, 1, 3)
        np.testing.assert_allclose(pooled, 1.0)

    def test_dump_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        seq = rng.standard_normal((7, 2, 3))
        path = tmp_path / "seq.acc"
        dump_accdoa(path, seq)
        np.testing.assert_allclose(load_accdoa(path), seq, atol=1e-6)

    def test_dump_header_is_three_int64(self, tmp_path):
        path = tmp_path / "seq.acc"
        dump_accdoa(path, np.zeros((2, 3, 3)))
        raw = path.read_bytes()
        assert len(raw) == 24 + 2 * 3 * 3 * 4
        assert np.frombuffer(raw[:24], dtype="<i8").tolist() == [2, 3, 3]
