import re

import numpy as np
import pytest

from oracles import ensemble_weights_by_descent, random_event_list
from seldkit.accdoa import encode_accdoa
from seldkit.ensemble import (
    EnsembleWeights,
    combine,
    ensemble_mse,
    fit_weights,
    read_weights_csv,
    write_weights_csv,
)


def normal_equation_weights(outputs, targets):
    """Per-class least squares via lstsq from zero weights; where the design
    has full column rank this is the unique optimum."""
    stacked = np.stack([np.asarray(o, float) for o in outputs])
    m, t, n, _ = stacked.shape
    w = np.zeros((n, m))
    for c in range(n):
        a = stacked[:, :, c, :].reshape(m, -1).T
        y = np.asarray(targets, float)[:, c, :].reshape(-1)
        w[c] = np.linalg.lstsq(a, y, rcond=None)[0]
    return w


def make_outputs(seed=0, n_t=60, n_classes=3, noise=0.3):
    rng = np.random.default_rng(seed)
    targets = encode_accdoa(random_event_list(rng, n_classes, n_t, max_events=6), n_classes)
    oracle = targets.copy()
    noise_member = rng.standard_normal(targets.shape) * noise
    return [oracle, noise_member], targets


class TestCombine:
    def test_single_model_identity(self):
        rng = np.random.default_rng(1)
        out = rng.standard_normal((5, 2, 3))
        w = EnsembleWeights(np.ones((2, 1)))
        np.testing.assert_allclose(combine([out], w), out)

    def test_equal_weights_of_identical_outputs(self):
        rng = np.random.default_rng(2)
        out = rng.standard_normal((5, 2, 3))
        w = EnsembleWeights(np.full((2, 3), 1.0 / 3.0))
        np.testing.assert_allclose(combine([out, out, out], w), out, rtol=1e-12)

    def test_affine_combination(self):
        rng = np.random.default_rng(3)
        out = rng.standard_normal((4, 1, 3))
        w = EnsembleWeights(np.array([[2.0, -1.0]]))
        np.testing.assert_allclose(combine([out, out], w), out, rtol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            combine([np.zeros((4, 2, 3)), np.zeros((5, 2, 3))], EnsembleWeights(np.ones((2, 2))))

    def test_weight_shape_checked(self):
        with pytest.raises(ValueError):
            combine([np.zeros((4, 2, 3))], EnsembleWeights(np.ones((3, 1))))


class TestFitWeights:
    def test_oracle_plus_noise(self):
        outputs, targets = make_outputs(seed=4)
        w = fit_weights(outputs, targets).w
        np.testing.assert_allclose(w[:, 0], 1.0, atol=0.05)
        np.testing.assert_allclose(w[:, 1], 0.0, atol=0.05)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(5)
        targets = encode_accdoa(random_event_list(rng, 2, 40, max_events=5), 2)
        outputs = [
            targets + 0.2 * rng.standard_normal(targets.shape),
            rng.standard_normal(targets.shape),
        ]
        w = fit_weights(outputs, targets).w
        expected = normal_equation_weights(outputs, targets)
        np.testing.assert_allclose(w, expected, rtol=1e-10)

    def test_beats_every_single_member(self):
        outputs, targets = make_outputs(seed=6, noise=0.5)
        w = fit_weights(outputs, targets)
        fitted = ensemble_mse(outputs, w, targets)
        for m in range(len(outputs)):
            solo = np.zeros((targets.shape[1], len(outputs)))
            solo[:, m] = 1.0
            assert fitted <= ensemble_mse(outputs, EnsembleWeights(solo), targets) + 1e-6

    def test_classes_decouple(self):
        outputs, targets = make_outputs(seed=7)
        w_full = fit_weights(outputs, targets).w
        # permute the data of every class except class 0
        perm = np.random.default_rng(8).permutation(targets.shape[0])
        outputs_p = [o.copy() for o in outputs]
        targets_p = targets.copy()
        for arr in outputs_p + [targets_p]:
            arr[:, 1:, :] = arr[perm][:, 1:, :]
        w_perm = fit_weights(outputs_p, targets_p).w
        np.testing.assert_array_equal(w_perm[0], w_full[0])

    def test_large_member_is_scaled_down(self):
        # a step size fixed in advance diverges on a member this large
        rng = np.random.default_rng(0)
        targets = encode_accdoa(random_event_list(rng, 3, 60, max_events=6), 3)
        assert np.all(np.any(targets, axis=(0, 2)))  # no class is silent
        np.testing.assert_allclose(fit_weights([10 * targets], targets).w, 0.1, rtol=1e-12)

    def test_identical_members_split_the_weight(self):
        (oracle, noise), targets = make_outputs(seed=10)
        member = oracle + noise
        single = normal_equation_weights([member], targets)
        w = fit_weights([member] * 3, targets).w
        np.testing.assert_allclose(w, np.repeat(single / 3, 3, axis=1), rtol=1e-12)
        np.testing.assert_allclose(w, ensemble_weights_by_descent([member] * 3, targets), atol=1e-12)

    def test_silent_class_keeps_uniform_weights(self):
        rng = np.random.default_rng(0)
        targets = encode_accdoa(random_event_list(rng, 3, 60, max_events=6), 3)
        assert np.all(np.any(targets, axis=(0, 2)))
        outputs = [targets + 0.3 * rng.standard_normal(targets.shape) for _ in range(3)]
        for arr in outputs + [targets]:
            arr[:, 1] = 0.0
        w = fit_weights(outputs, targets).w
        np.testing.assert_array_equal(w[1], 1.0 / 3.0)
        np.testing.assert_allclose(w[[0, 2]], normal_equation_weights(outputs, targets)[[0, 2]], rtol=1e-10)
        np.testing.assert_allclose(w, ensemble_weights_by_descent(outputs, targets), atol=1e-12)


class TestWeightsCsv:
    def test_round_trip(self, tmp_path):
        w = EnsembleWeights(np.array([[0.25, 0.75], [1.5, -0.5]]))
        path = tmp_path / "weights.csv"
        write_weights_csv(path, w)
        loaded = read_weights_csv(path)
        np.testing.assert_array_equal(loaded.w, w.w)

    def test_header(self, tmp_path):
        path = tmp_path / "weights.csv"
        write_weights_csv(path, EnsembleWeights(np.ones((2, 3))))
        header = path.read_text().splitlines()[0]
        assert header == "class_id,model_0,model_1,model_2"

    def test_rows_in_any_order(self, tmp_path):
        path = tmp_path / "weights.csv"
        path.write_text("class_id,model_0\n1,2.0\n0,1.0\n")
        np.testing.assert_array_equal(read_weights_csv(path).w, [[1.0], [2.0]])

    @pytest.mark.parametrize("raw, line, message", [
        (b"0,1,2\n1," + b"3" * 200_000 + b",4\n", 3, "field larger than field limit"),
        (b"0,1,2\n1,\xb9,4\n", 3, "not UTF-8 text: byte 0xb9"),
    ], ids=["field-over-limit", "not-utf8"])
    def test_unreadable_rows_named(self, tmp_path, raw, line, message):
        path = tmp_path / "weights.csv"
        path.write_bytes(b"class_id,model_0,model_1\n" + raw)
        with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: {message}")):
            read_weights_csv(path)

    @pytest.mark.parametrize("rows, line, message", [
        pytest.param("0,1,2\n2,3,4\n", 3, "class id 2; expected each of 0..1 once", id="class-id-gap"),
        pytest.param("0,1,2\n0,3,4\n", 3, "class id 0; expected each of 0..1 once", id="class-id-twice"),
        pytest.param("0,1,2\n1,3\n", 3, "expected a class id and 2 weights, got 2 values", id="ragged-row"),
        pytest.param("0,1.0,nan\n", 2, "non-finite weight", id="non-finite"),
    ])
    def test_bad_rows_rejected(self, tmp_path, rows, line, message):
        # classes 0 and 2 used to load as classes 0 and 1, and a repeated class as two classes
        path = tmp_path / "weights.csv"
        path.write_text("class_id,model_0,model_1\n" + rows)
        with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: {message}")):
            read_weights_csv(path)
