"""Finite-difference verification of every layer's hand-written backward pass.

All checks run in float64 with central differences (h = 1e-5) against the
relative-error measure |analytic - fd| / (|analytic| + |fd| + 1e-8).
"""

import numpy as np
import pytest

from oracles import (
    brute_force_bce,
    brute_force_masked_mse,
    brute_force_mse,
    conv2d_by_tap_copies,
    freq_pool_by_mean,
    same_bits,
)
from seldkit.net.layers import (
    BiGru,
    Conv2d,
    ConvUnit,
    DenseBlock,
    Elu,
    FreqPool,
    Gru,
    Linear,
    NetDeconv,
    Sigmoid,
    Tanh,
    WHITEN_EPS,
)
from seldkit.net.losses import loss_bce, loss_masked_mse, loss_mse

H = 1e-5
TOL = 1e-4


def rel_err(a, b):
    return abs(a - b) / (abs(a) + abs(b) + 1e-8)


def check_module(module, x, warm_train=False, check_inputs=True, max_per_param=None, seed=0):
    """Project the output onto fixed noise and compare analytic gradients of
    the resulting scalar with central differences."""
    rng = np.random.default_rng(seed)
    if warm_train:
        module.train()
        module.forward(x)
    module.eval()
    y0 = module.forward(x)
    proj = rng.standard_normal(y0.shape)

    def objective():
        return float((module.forward(x) * proj).sum())

    module.forward(x)
    module.zero_grad()
    dx = module.backward(proj)

    worst = 0.0
    for name, p in module.named_parameters():
        g = dict(module.named_grads())[name]
        flat = list(np.ndindex(p.shape))
        if max_per_param and len(flat) > max_per_param:
            flat = [flat[i] for i in rng.choice(len(flat), max_per_param, replace=False)]
        for idx in flat:
            orig = p[idx]
            p[idx] = orig + H
            jp = objective()
            p[idx] = orig - H
            jm = objective()
            p[idx] = orig
            fd = (jp - jm) / (2 * H)
            err = rel_err(g[idx], fd)
            assert err < TOL, f"{name}{idx}: analytic {g[idx]:.6g} vs fd {fd:.6g} (err {err:.2e})"
            worst = max(worst, err)
    if check_inputs:
        flat = list(np.ndindex(x.shape))
        picks = [flat[i] for i in rng.choice(len(flat), min(20, len(flat)), replace=False)]
        for idx in picks:
            orig = x[idx]
            x[idx] = orig + H
            jp = objective()
            x[idx] = orig - H
            jm = objective()
            x[idx] = orig
            fd = (jp - jm) / (2 * H)
            err = rel_err(dx[idx], fd)
            assert err < TOL, f"input{idx}: analytic {dx[idx]:.6g} vs fd {fd:.6g} (err {err:.2e})"
            worst = max(worst, err)
    return worst


class TestConvGradients:
    def test_dilation_1(self):
        rng = np.random.default_rng(1)
        conv = Conv2d(3, 2, dilation=1, rng=rng, dtype=np.float64)
        x = rng.standard_normal((2, 4, 5, 3))
        check_module(conv, x)

    def test_dilation_2(self):
        rng = np.random.default_rng(2)
        conv = Conv2d(2, 3, dilation=2, rng=rng, dtype=np.float64)
        x = rng.standard_normal((1, 6, 7, 2))
        check_module(conv, x)


class TestConvForward:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dilation", [1, 2, 4])
    @pytest.mark.parametrize("shape", [
        (3, 9, 11, 5),
        (2, 3, 6, 4),   # T below dilations 4
        (2, 7, 1, 3),   # F = 1
        (1, 1, 1, 2),
        (4, 30, 32, 18),
    ])
    def test_matches_tap_copies_bit_for_bit(self, dtype, dilation, shape):
        # the padded-grid row slices give the same bits as copying each tap's window
        rng = np.random.default_rng(dilation)
        conv = Conv2d(shape[3], 5, dilation, rng, dtype=dtype)
        conv.params["b"][...] = rng.standard_normal(5)
        x = rng.standard_normal(shape).astype(dtype)
        expected = conv2d_by_tap_copies(x, conv.params["W"], conv.params["b"], dilation)
        for _ in range(2):  # a second call reuses the workspaces
            y = conv.forward(x)
            assert same_bits(np.ascontiguousarray(y), expected)

    def test_folded_weights_replace_the_parameters(self):
        rng = np.random.default_rng(30)
        conv = Conv2d(3, 4, 2, rng, dtype=np.float64)
        W, b = rng.standard_normal((9, 3, 4)), rng.standard_normal(4)
        x = rng.standard_normal((2, 5, 6, 3))
        conv.folded = (W, b)
        assert same_bits(np.ascontiguousarray(conv.forward(x)), conv2d_by_tap_copies(x, W, b, 2))


class TestConvUnitFold:
    @staticmethod
    def moved_unit(dtype, seed=31):
        """A unit whose running statistics were moved away from (0, I) by
        train-mode forwards, and an input, in eval mode."""
        rng = np.random.default_rng(seed)
        unit = ConvUnit(4, 5, dilation=2, rng=rng, dtype=dtype)
        unit.conv.params["b"][...] = rng.standard_normal(5)
        mixing = rng.standard_normal((4, 4))
        for _ in range(5):
            unit.forward((rng.standard_normal((2, 8, 9, 4)) @ mixing + 0.5).astype(dtype))
        unit.eval()
        return unit, rng.standard_normal((2, 8, 9, 4)).astype(dtype)

    @staticmethod
    def unfolded(unit, x):
        return unit.act.forward(unit.norm.forward(unit.conv.forward(x)))

    @pytest.mark.parametrize("dtype, atol", [(np.float64, 1e-12), (np.float32, 2e-6)])
    def test_matches_conv_then_norm(self, dtype, atol):
        unit, x = self.moved_unit(dtype)
        cov = unit.norm.buffers["running_cov"]
        assert np.abs(cov - np.eye(5)).max() > 0.1
        folded = unit.forward(x)
        assert unit.conv.folded is None
        np.testing.assert_allclose(folded, self.unfolded(unit, x), rtol=0, atol=atol)

    def test_follows_in_place_weight_edits(self):
        # nothing is cached: an edited weight shows in the next forward
        unit, x = self.moved_unit(np.float64)
        unit.forward(x)
        unit.conv.params["W"][4, 1, 2] += 0.5
        unit.norm.buffers["running_mean"][0] += 0.5
        np.testing.assert_allclose(unit.forward(x), self.unfolded(unit, x), rtol=0, atol=1e-12)

    def test_skips_the_norm_pass(self, monkeypatch):
        unit, x = self.moved_unit(np.float32)

        def refuse(x):
            raise AssertionError("eval-mode NetDeconv ran its own pass")

        monkeypatch.setattr(unit.norm, "forward", refuse)
        unit.forward(x)


class TestGruSplit:
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_is_recurrence_of_projection(self, reverse, dtype):
        rng = np.random.default_rng(32)
        gru = Gru(6, 4, rng, reverse=reverse, dtype=dtype)
        gru.params["bx"][...] = rng.standard_normal(12)
        x = rng.standard_normal((3, 7, 6)).astype(dtype)
        assert same_bits(gru.forward(x), gru.recur(gru.project(x)))

    def test_bidirectional(self):
        rng = np.random.default_rng(33)
        gru = BiGru(5, 3, rng)
        x = rng.standard_normal((2, 6, 5)).astype(np.float32)
        g = gru.project(x)
        assert g.shape == (2, 6, 18)
        assert same_bits(gru.forward(x), gru.recur(g))


class TestFreqPoolForward:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("factor", [1, 2, 3, 4])
    def test_matches_mean_bit_for_bit(self, dtype, factor):
        rng = np.random.default_rng(34)
        scale = rng.choice([1e-40, 1.0, 1e30], size=(2, 3, 6 * factor, 5))
        x = (rng.standard_normal(scale.shape) * scale).astype(dtype)
        x[0, 0, :factor] = -0.0                  # a run of negative zeros pools to +0.0
        x[0, 1, :factor, 0] = 0.0
        x[0, 1, factor - 1, 0] = -0.0
        x[0, 2, 0, 0], x[0, 2, factor, 1], x[1, 0, 0, 2] = np.inf, -np.inf, np.nan
        assert same_bits(FreqPool(factor).forward(x), freq_pool_by_mean(x, factor))


class TestActivationGradients:
    @pytest.mark.parametrize("layer_cls", [Elu, Tanh, Sigmoid])
    def test_elementwise(self, layer_cls):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 5, 4)) * 2
        check_module(layer_cls(), x)


class TestEluDerivative:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_where_formula(self, dtype):
        rng = np.random.default_rng(3)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-30, -1e-30, 80.0, -80.0]
        x = np.concatenate([3 * rng.standard_normal(4096), special]).astype(dtype)
        elu = Elu()
        elu.forward(x)
        got = elu.backward(np.ones_like(x))
        one = dtype(1)
        expected = np.where(x > 0, one, np.expm1(np.minimum(x, 0)) + one)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected, equal_nan=True)


class TestLinearGradients:
    def test_linear(self):
        rng = np.random.default_rng(4)
        lin = Linear(6, 4, rng, dtype=np.float64)
        x = rng.standard_normal((3, 5, 6))
        check_module(lin, x)


class TestPoolGradients:
    def test_freq_pool(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 8, 2))
        check_module(FreqPool(4), x)


class TestGruGradients:
    def test_forward_direction(self):
        rng = np.random.default_rng(6)
        gru = Gru(4, 3, rng, dtype=np.float64)
        x = rng.standard_normal((2, 6, 4))
        check_module(gru, x)

    def test_reverse_direction(self):
        rng = np.random.default_rng(7)
        gru = Gru(3, 4, rng, reverse=True, dtype=np.float64)
        x = rng.standard_normal((2, 5, 3))
        check_module(gru, x)

    def test_bidirectional(self):
        rng = np.random.default_rng(8)
        gru = BiGru(4, 3, rng, dtype=np.float64)
        x = rng.standard_normal((2, 5, 4))
        check_module(gru, x)


class TestDeconvGradients:
    def test_frozen_statistics_input_gradient(self):
        rng = np.random.default_rng(9)
        layer = NetDeconv(4, dtype=np.float64)
        x = rng.standard_normal((3, 4, 5, 4)) * 1.5 + 0.3
        check_module(layer, x, warm_train=True)


class TestCompositeGradients:
    def test_conv_unit(self):
        rng = np.random.default_rng(10)
        unit = ConvUnit(3, 2, dilation=1, rng=rng, dtype=np.float64)
        x = rng.standard_normal((2, 4, 4, 3))
        check_module(unit, x, warm_train=True)

    def test_dense_block(self):
        rng = np.random.default_rng(11)
        block = DenseBlock(3, 2, n_layers=2, rng=rng, dtype=np.float64)
        x = rng.standard_normal((2, 4, 4, 3))
        check_module(block, x, warm_train=True, max_per_param=30)


class TestDeconvSemantics:
    def test_whitened_covariance_near_identity(self):
        rng = np.random.default_rng(12)
        c = 6
        mixing = rng.standard_normal((c, c))
        x = (rng.standard_normal((8, 16, 32, c)) @ mixing + rng.standard_normal(c)).astype(np.float64)
        layer = NetDeconv(c, dtype=np.float64).train()
        y = layer.forward(x).reshape(-1, c)
        cov = np.cov(y.T, bias=True)
        assert np.linalg.norm(cov - np.eye(c)) < 1e-3

    def test_white_input_fixed_point(self):
        rng = np.random.default_rng(13)
        # exactly zero-mean, identity-covariance input
        x2 = rng.standard_normal((4096, 3))
        x2 -= x2.mean(0)
        cov = (x2.T @ x2) / len(x2)
        w, v = np.linalg.eigh(cov)
        x2 = x2 @ (v * (1.0 / np.sqrt(w))) @ v.T
        layer = NetDeconv(3, dtype=np.float64).train()
        y = layer.forward(x2.reshape(8, 16, 32, 3))
        np.testing.assert_allclose(y.reshape(-1, 3), x2, atol=1e-4)

    def test_single_channel_is_standardization(self):
        rng = np.random.default_rng(14)
        x = (rng.standard_normal((2, 8, 8, 1)) * 3.0 + 1.0).astype(np.float64)
        layer = NetDeconv(1, dtype=np.float64).train()
        y = layer.forward(x)
        flat = x.reshape(-1)
        expected = (flat - flat.mean()) / np.sqrt(flat.var() + WHITEN_EPS)
        np.testing.assert_allclose(y.reshape(-1), expected, rtol=1e-9)

    def test_eval_uses_running_statistics(self):
        rng = np.random.default_rng(15)
        layer = NetDeconv(3, dtype=np.float64)
        x = rng.standard_normal((4, 4, 4, 3)) * 2 + 1
        layer.train()
        for _ in range(200):
            layer.forward(x)
        layer.eval()
        y_eval = layer.forward(x)
        layer.train()
        y_train = layer.forward(x)
        np.testing.assert_allclose(y_eval, y_train, atol=1e-5)
        # statistics do not move in eval mode
        before = layer.buffers["running_cov"].copy()
        layer.eval()
        layer.forward(rng.standard_normal(x.shape))
        np.testing.assert_array_equal(layer.buffers["running_cov"], before)

    def test_non_finite_covariance_rejected(self):
        layer = NetDeconv(2, dtype=np.float64).train()
        x = np.ones((2, 2, 2, 2))
        x[0, 0, 0, 0] = np.inf
        with pytest.raises(FloatingPointError):
            layer.forward(x)


class TestLosses:
    def test_mse_trivial(self):
        pred = np.full((2, 3), 0.4)
        value, _ = loss_mse(pred, pred.copy())
        assert value == 0.0
        value, _ = loss_mse(pred + 0.1, pred)
        assert value == pytest.approx(0.01)

    def test_mse_matches_brute_force(self):
        rng = np.random.default_rng(16)
        pred = rng.standard_normal((2, 2, 3))
        target = rng.standard_normal((2, 2, 3))
        value, _ = loss_mse(pred, target)
        assert value == pytest.approx(brute_force_mse(pred, target), rel=1e-12)

    def test_bce_trivial(self):
        target = np.array([0.0, 1.0, 1.0, 0.0])
        value, _ = loss_bce(target.copy(), target)
        assert value < 1e-5
        value, _ = loss_bce(np.full(4, 0.5), target)
        assert value == pytest.approx(np.log(2.0), rel=1e-9)

    def test_bce_matches_brute_force(self):
        rng = np.random.default_rng(17)
        pred = rng.uniform(0.05, 0.95, size=(3, 4))
        target = rng.integers(0, 2, size=(3, 4)).astype(float)
        value, _ = loss_bce(pred, target)
        assert value == pytest.approx(brute_force_bce(pred, target), rel=1e-12)

    def test_masked_mse_zero_mask(self):
        rng = np.random.default_rng(18)
        pred = rng.standard_normal((4, 2, 3))
        value, grad = loss_masked_mse(pred, np.zeros_like(pred), np.zeros((4, 2)))
        assert value == 0.0
        assert np.all(grad == 0)

    def test_masked_mse_full_mask_equals_mse(self):
        rng = np.random.default_rng(19)
        pred = rng.standard_normal((4, 2, 3))
        target = rng.standard_normal((4, 2, 3))
        full, _ = loss_masked_mse(pred, target, np.ones((4, 2)))
        plain, _ = loss_mse(pred, target)
        assert full == pytest.approx(plain, rel=1e-12)

    def test_masked_mse_matches_brute_force(self):
        rng = np.random.default_rng(20)
        pred = rng.standard_normal((5, 3, 3))
        target = rng.standard_normal((5, 3, 3))
        mask = rng.integers(0, 2, size=(5, 3)).astype(float)
        value, _ = loss_masked_mse(pred, target, mask)
        assert value == pytest.approx(brute_force_masked_mse(pred, target, mask), rel=1e-12)

    @pytest.mark.parametrize("loss_name", ["mse", "bce", "masked"])
    def test_loss_gradients_fd(self, loss_name):
        rng = np.random.default_rng(21)
        shape = (3, 2, 3)
        target = rng.uniform(0.2, 0.8, shape)
        mask = rng.integers(0, 2, size=shape[:2]).astype(float)
        if loss_name == "mse":
            fn = lambda p: loss_mse(p, target)
        elif loss_name == "bce":
            fn = lambda p: loss_bce(p, target)
        else:
            fn = lambda p: loss_masked_mse(p, target, mask)
        pred = rng.uniform(0.2, 0.8, shape)
        _, grad = fn(pred)
        for idx in [tuple(rng.integers(s) for s in shape) for _ in range(10)]:
            orig = pred[idx]
            pred[idx] = orig + H
            jp, _ = fn(pred)
            pred[idx] = orig - H
            jm, _ = fn(pred)
            pred[idx] = orig
            fd = (jp - jm) / (2 * H)
            assert rel_err(grad[idx], fd) < TOL

    def test_gradient_scales_linearly(self):
        rng = np.random.default_rng(22)
        pred = rng.standard_normal((2, 2, 3))
        target = rng.standard_normal((2, 2, 3))
        _, g1 = loss_mse(pred, target)
        # scaling a loss scales its gradient: alpha * L has gradient alpha * dL
        alpha = 3.7
        np.testing.assert_allclose(alpha * g1, g1 * alpha, rtol=1e-15)
        value, _ = loss_mse(pred, pred)
        assert value == 0.0
