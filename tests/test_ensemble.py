import re

import numpy as np
import pytest

from oracles import random_event_list
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
    """Per-class least squares via lstsq; independent of the SGD path."""
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
        w = fit_weights(outputs, targets, lr=0.2, iters=3000).w
        np.testing.assert_allclose(w[:, 0], 1.0, atol=0.05)
        np.testing.assert_allclose(w[:, 1], 0.0, atol=0.05)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(5)
        targets = encode_accdoa(random_event_list(rng, 2, 40, max_events=5), 2)
        outputs = [
            targets + 0.2 * rng.standard_normal(targets.shape),
            rng.standard_normal(targets.shape),
        ]
        w = fit_weights(outputs, targets, lr=0.2, iters=5000).w
        expected = normal_equation_weights(outputs, targets)
        np.testing.assert_allclose(w, expected, atol=1e-3)

    def test_beats_every_single_member(self):
        outputs, targets = make_outputs(seed=6, noise=0.5)
        w = fit_weights(outputs, targets, lr=0.2, iters=3000)
        fitted = ensemble_mse(outputs, w, targets)
        for m in range(len(outputs)):
            solo = np.zeros((targets.shape[1], len(outputs)))
            solo[:, m] = 1.0
            assert fitted <= ensemble_mse(outputs, EnsembleWeights(solo), targets) + 1e-6

    def test_classes_decouple(self):
        outputs, targets = make_outputs(seed=7)
        w_full = fit_weights(outputs, targets, lr=0.1, iters=500).w
        # permute the data of every class except class 0
        perm = np.random.default_rng(8).permutation(targets.shape[0])
        outputs_p = [o.copy() for o in outputs]
        targets_p = targets.copy()
        for arr in outputs_p + [targets_p]:
            arr[:, 1:, :] = arr[perm][:, 1:, :]
        w_perm = fit_weights(outputs_p, targets_p, lr=0.1, iters=500).w
        np.testing.assert_allclose(w_perm[0], w_full[0], atol=1e-12)

    def test_loss_history_non_increasing(self):
        outputs, targets = make_outputs(seed=9)
        losses = [
            ensemble_mse(outputs, fit_weights(outputs, targets, lr=0.05, iters=n), targets)
            for n in range(50, 401, 50)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_minibatch_mode_deterministic(self):
        outputs, targets = make_outputs(seed=10)
        w1 = fit_weights(outputs, targets, lr=0.05, iters=200, batch=16, seed=3).w
        w2 = fit_weights(outputs, targets, lr=0.05, iters=200, batch=16, seed=3).w
        np.testing.assert_array_equal(w1, w2)

    def test_init_is_uniform(self):
        outputs, targets = make_outputs(seed=11)
        w = fit_weights(outputs, targets, lr=0.0, iters=1).w
        np.testing.assert_allclose(w, 0.5)


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
