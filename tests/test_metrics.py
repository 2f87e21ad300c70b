import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import exhaustive_metrics, great_circle_deg, random_event_list
from strategies import event_lists
from seldkit.metrics import MetricsAccumulator, evaluate, match_frame_class
from seldkit.augment import ALL_PATTERNS, rotate_events
from seldkit.scene import DoaAngles, Event, EventList


def az_event(class_id, onset, offset, az_deg, el_deg=0.0):
    d = DoaAngles(math.radians(az_deg), math.radians(el_deg))
    return Event(class_id, onset, offset, [d] * (offset - onset))


class TestMatchFrameClass:
    def test_single_pair_always_matched(self):
        pairs, up, ur = match_frame_class(
            [DoaAngles(0, 0).unit_vec], [DoaAngles(math.pi, 0).unit_vec]
        )
        assert len(pairs) == 1 and not up and not ur
        assert pairs[0][2] == pytest.approx(180.0)

    def test_two_by_two_assignment(self):
        preds = [DoaAngles(0, 0).unit_vec, DoaAngles(math.radians(90), 0).unit_vec]
        refs = [DoaAngles(math.radians(85), 0).unit_vec, DoaAngles(math.radians(5), 0).unit_vec]
        pairs, up, ur = match_frame_class(preds, refs)
        assignment = {p: r for p, r, _ in pairs}
        assert assignment == {0: 1, 1: 0}
        assert not up and not ur

    def test_unbalanced(self):
        pairs, up, ur = match_frame_class([], [DoaAngles(0, 0).unit_vec] * 2)
        assert not pairs and not up and ur == [0, 1]

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n, m = rng.integers(0, 4, size=2)
            preds = [DoaAngles(rng.uniform(-math.pi, math.pi), rng.uniform(-1.5, 1.5)) for _ in range(n)]
            refs = [DoaAngles(rng.uniform(-math.pi, math.pi), rng.uniform(-1.5, 1.5)) for _ in range(m)]
            pairs, _, _ = match_frame_class([d.unit_vec for d in preds], [d.unit_vec for d in refs])
            oracle_pairs, _, _ = exhaustive_match_totals(preds, refs)
            assert sum(p[2] for p in pairs) == pytest.approx(oracle_pairs, abs=1e-9)


def exhaustive_match_totals(preds, refs):
    from oracles import exhaustive_match

    pairs, up, ur = exhaustive_match(preds, refs)
    return sum(p[2] for p in pairs), up, ur


class TestEvaluate:
    def test_perfect_prediction(self):
        ev = EventList([az_event(0, 0, 3, 10.0), az_event(1, 1, 4, -50.0, 20.0)], 5)
        m = evaluate(ev, ev, n_classes=2)
        assert m.le_cd == pytest.approx(0.0)
        assert m.lr_cd == pytest.approx(100.0)
        assert m.er_20 == pytest.approx(0.0)
        assert m.f_20 == pytest.approx(100.0)

    def test_ten_degree_offset(self):
        ref = EventList([az_event(0, 0, 1, 0.0)], 1)
        pred = EventList([az_event(0, 0, 1, 10.0)], 1)
        m = evaluate(pred, ref, n_classes=1)
        assert m.le_cd == pytest.approx(10.0)
        assert m.lr_cd == pytest.approx(100.0)
        assert m.counts["TP"] == 1
        assert m.er_20 == pytest.approx(0.0)
        assert m.f_20 == pytest.approx(100.0)

    def test_thirty_degree_offset(self):
        ref = EventList([az_event(0, 0, 1, 0.0)], 1)
        pred = EventList([az_event(0, 0, 1, 30.0)], 1)
        m = evaluate(pred, ref, n_classes=1)
        assert m.le_cd == pytest.approx(30.0)
        assert m.lr_cd == pytest.approx(100.0)
        assert m.counts == {
            "TP": 0, "FP": 1, "FN": 1, "S": 1, "D": 0, "I": 0,
            "K_matched": 1, "D_sum": pytest.approx(30.0), "N_ref": 1,
        }
        assert m.er_20 == pytest.approx(1.0)
        assert m.f_20 == pytest.approx(0.0)

    def test_timeline_mismatch_rejected(self):
        with pytest.raises(ValueError, match="timeline"):
            evaluate(EventList([], 3), EventList([], 4), n_classes=1)

    def test_le_undefined_without_matches(self):
        m = evaluate(EventList([], 2), EventList([az_event(0, 0, 1, 0.0)], 2), n_classes=1)
        assert math.isnan(m.le_cd)
        assert m.counts["FN"] == 1

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            n_classes = int(rng.integers(1, 4))
            n_frames = int(rng.integers(1, 6))
            ref = random_event_list(rng, n_classes, n_frames, max_events=3)
            pred = random_event_list(rng, n_classes, n_frames, max_events=3)
            m = evaluate(pred, ref, n_classes)
            oracle = exhaustive_metrics(pred, ref, n_classes)
            for key in ("TP", "FP", "FN", "S", "D", "I", "K_matched", "N_ref"):
                assert m.counts[key] == oracle[key], key
            assert m.counts["D_sum"] == pytest.approx(oracle["D_sum"], abs=1e-9)

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(2)
        ref = random_event_list(rng, 3, 8, max_events=4)
        pred = random_event_list(rng, 3, 8, max_events=4)
        results = [evaluate(pred, ref, 3, threshold_deg=t) for t in (5, 20, 60, 180.1)]
        for a, b in zip(results, results[1:]):
            if not math.isnan(a.f_20):
                assert b.f_20 >= a.f_20 - 1e-9
                assert b.er_20 <= a.er_20 + 1e-9
            # LE and LR never depend on the threshold
            assert (a.le_cd == b.le_cd) or (math.isnan(a.le_cd) and math.isnan(b.le_cd))
            assert a.lr_cd == b.lr_cd or (math.isnan(a.lr_cd) and math.isnan(b.lr_cd))

    def test_rotation_invariance(self):
        rng = np.random.default_rng(3)
        ref = random_event_list(rng, 3, 10, max_events=4)
        pred = random_event_list(rng, 3, 10, max_events=4)
        base = evaluate(pred, ref, 3)
        for r in ALL_PATTERNS:
            rotated = evaluate(rotate_events(pred, r), rotate_events(ref, r), 3)
            assert rotated.counts["TP"] == base.counts["TP"]
            assert rotated.counts["D_sum"] == pytest.approx(base.counts["D_sum"], abs=1e-9)
            assert rotated.counts == pytest.approx(base.counts)

    def test_accumulator_matches_two_separate_evals(self):
        rng = np.random.default_rng(4)
        acc = MetricsAccumulator(n_classes=2)
        totals = {"TP": 0, "FP": 0, "FN": 0, "N_ref": 0}
        for _ in range(3):
            ref = random_event_list(rng, 2, 6)
            pred = random_event_list(rng, 2, 6)
            acc.update(pred, ref)
            m = evaluate(pred, ref, 2)
            for key in totals:
                totals[key] += m.counts[key]
        final = acc.finalize()
        for key, value in totals.items():
            assert final.counts[key] == value


class TestProperties:
    @given(data=st.data(), n_classes=st.integers(1, 4))
    def test_perfect_prediction_scores(self, data, n_classes):
        ref = data.draw(event_lists(n_classes, min_events=1))
        m = evaluate(ref, ref, n_classes)
        assert m.er_20 == 0.0
        assert m.f_20 == 100.0
        assert m.le_cd == pytest.approx(0.0, abs=1e-5)  # arccos of a rounded unit dot

    @given(data=st.data(), n_classes=st.integers(1, 4))
    def test_scores_do_not_depend_on_event_order(self, data, n_classes):
        ref = data.draw(event_lists(n_classes))
        pred = data.draw(event_lists(n_classes, n_frames=ref.n_frames))
        shuffled = [
            EventList(data.draw(st.permutations(ev.events)), ev.n_frames) for ev in (pred, ref)
        ]
        a = evaluate(pred, ref, n_classes).to_dict()
        b = evaluate(*shuffled, n_classes).to_dict()
        assert a.pop("counts") == pytest.approx(b.pop("counts"))
        assert a == pytest.approx(b, nan_ok=True)


class TestGreatCircleAgreement:
    def test_two_distance_formulas_agree(self):
        from seldkit.accdoa import angular_distance

        rng = np.random.default_rng(5)
        for _ in range(100):
            a = DoaAngles(rng.uniform(-math.pi, math.pi), rng.uniform(-1.5, 1.5))
            b = DoaAngles(rng.uniform(-math.pi, math.pi), rng.uniform(-1.5, 1.5))
            assert angular_distance(a.unit_vec, b.unit_vec) == pytest.approx(
                great_circle_deg(a, b), abs=1e-9
            )
