"""Finite-difference verification of every layer's hand-written backward pass.

All checks run in float64 with central differences (h = 1e-5) against the
relative-error measure |analytic - fd| / (|analytic| + |fd| + 1e-8).
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    GruOneDirection,
    OnGrid,
    brute_force_bce,
    brute_force_masked_mse,
    brute_force_mse,
    conv2d_backward_by_tap_copies,
    conv2d_by_tap_copies,
    freq_pool_by_mean,
    same_bits,
)
from seldkit.net.layers import (
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
    _valid,
    _zero_ring,
)
from seldkit.net.losses import loss_bce, loss_masked_mse, loss_mse

H = 1e-5
TOL = 1e-4


def rel_err(a, b):
    return abs(a - b) / (abs(a) + abs(b) + 1e-8)


def assert_class_holds_at_one_blas_thread(cls):
    """The bits a test class checks are claimed at every thread count: run
    the class again, but this test, with OpenBLAS on one thread (the
    suite's default is more)."""
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"{Path(__file__).name}::{cls.__name__}",
         "-k", "not one_blas_thread"],
        cwd=Path(__file__).parent, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout[-2000:]


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
        check_module(OnGrid(conv), x)

    def test_dilation_2(self):
        rng = np.random.default_rng(2)
        conv = Conv2d(2, 3, dilation=2, rng=rng, dtype=np.float64)
        x = rng.standard_normal((1, 6, 7, 2))
        check_module(OnGrid(conv), x)


def conv_and_input(dtype, dilation, shape):
    """A conv from C to Co channels with a nonzero bias, and an input
    (B, T, F, C), for shape (B, T, F, C, Co)."""
    B, T, F, C, Co = shape
    rng = np.random.default_rng(dilation)
    conv = Conv2d(C, Co, dilation, rng, dtype=dtype)
    conv.params["b"][...] = rng.standard_normal(Co)
    return conv, rng.standard_normal((B, T, F, C)).astype(dtype)


class TestConvOnGrid:
    """A conv on a dense block's channel-major grids, against the per-tap
    copies.  Forward reads the channel prefix of grid `src` in place and
    writes the channel slice after it, whose border it zeroes; backward
    takes dy into that slice of a gradient grid and adds dx onto the
    prefix.  The channels beyond hold noise that neither pass may touch.
    Here the border P is 4 at every dilation, wider than the conv reaches;
    `TestConvForward` and `TestConvBackward` run the same checks at P = d,
    the border of a block's last layer."""

    P = 4
    # (B, T, F, C, Co): odd F, T below the dilations, F = 1, one location
    SHAPES = [(3, 9, 11, 5, 5), (2, 3, 6, 4, 5), (2, 7, 1, 3, 5), (1, 1, 1, 2, 5), (4, 30, 32, 18, 5)]
    # and T = 1, and a desk batch of 3 through a dense-block conv to growth 6
    BACKWARD_SHAPES = SHAPES[:4] + [(2, 1, 6, 3, 2), (3, 96, 43, 24, 6)]
    # gW sums its rows in another order than the per-tap copies do
    GW_RTOL = {np.float32: 2e-6, np.float64: 1e-13}

    @staticmethod
    def block_grid(x, Co, P):
        """x on the zero-bordered channel prefix of a block grid
        (C + Co + 2, B, T + 2P, F + 2P), noise in the channels after it."""
        B, T, F, C = x.shape
        grid = (100 * np.random.default_rng(43).standard_normal((C + Co + 2, B, T + 2 * P, F + 2 * P)))
        grid = grid.astype(x.dtype)
        grid[:C] = 0
        _valid(grid[:C], P)[...] = x
        return grid

    @classmethod
    def check_forward(cls, conv, x, P):
        """The conv's forward on a block grid of border P: bit for bit the
        per-tap copies' output, with the folded weights while they are
        set, in the slice after x, with a zero border, and every other
        channel as it was."""
        C, Co = conv.in_ch, conv.out_ch
        grid = cls.block_grid(x, Co, P)
        before = grid.copy()
        with conv.on_grid(grid, grid[C:C + Co]):
            y = conv.forward(_valid(grid[:C], P))
        assert np.shares_memory(y, grid[C:C + Co])
        W, b = conv.folded or (conv.params["W"], conv.params["b"])
        assert same_bits(np.ascontiguousarray(y), conv2d_by_tap_copies(x, W, b, conv.dilation))
        ring = grid[C:C + Co].copy()
        _valid(ring, P)[...] = 0
        assert not ring.any()
        assert same_bits(grid[:C], before[:C]) and same_bits(grid[C + Co:], before[C + Co:])

    @classmethod
    def check_backward(cls, conv, x, dy, P):
        """The conv's forward on a block grid of border P, then its
        backward on a gradient grid of noise but for the zero borders of
        the prefix and the slice, against the per-tap copies: dy lands in
        the slice and dx is added onto the prefix bit for bit, both keep
        their zero border, and the channels beyond are as they were.
        Without an input gradient there is no prefix to add onto, as for
        the stem.  The bias gradient adds onto the one held bit for bit,
        the weight gradient within GW_RTOL."""
        C, Co = conv.in_ch, conv.out_ch
        dx_ref, gW_ref, gb_ref = conv2d_backward_by_tap_copies(x, conv.params["W"], dy, conv.dilation)
        gW0, gb0 = conv.grads["W"].copy(), conv.grads["b"].copy()
        grid = cls.block_grid(x, Co, P)
        with conv.on_grid(grid, grid[C:C + Co]):
            conv.forward(_valid(grid[:C], P))
        grad = (100 * np.random.default_rng(44).standard_normal(grid.shape)).astype(conv.dtype)
        _zero_ring(grad[:C + Co], P)
        before = grad.copy()
        with conv.on_grid(grad if conv.needs_input_grad else None, grad[C:C + Co]):
            dx = conv.backward(dy)
        if conv.needs_input_grad:
            assert np.shares_memory(dx, grad[:C])
            assert same_bits(np.ascontiguousarray(dx), dx_ref + _valid(before[:C], P))
        else:
            assert dx is None
            assert same_bits(grad[:C], before[:C])
        assert same_bits(np.ascontiguousarray(_valid(grad[C:C + Co], P)), dy)
        for ring in (grad[:C].copy(), grad[C:C + Co].copy()):
            _valid(ring, P)[...] = 0
            assert not ring.any()
        assert same_bits(grad[C + Co:], before[C + Co:])
        assert same_bits(conv.grads["b"], gb0 + gb_ref)
        gW = conv.grads["W"] - gW0
        assert np.abs(gW - gW_ref).max() <= cls.GW_RTOL[conv.dtype] * np.abs(gW_ref).max()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dilation", [1, 2, 4])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_forward_matches_tap_copies_bit_for_bit(self, dtype, dilation, shape):
        self.check_forward(*conv_and_input(dtype, dilation, shape), self.P)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dilation", [1, 2, 4])
    @pytest.mark.parametrize("shape", BACKWARD_SHAPES)
    def test_backward_matches_tap_copies(self, dtype, dilation, shape):
        conv, x = conv_and_input(dtype, dilation, shape)
        dy = np.random.default_rng(41).standard_normal(shape[:3] + (conv.out_ch,)).astype(dtype)
        self.check_backward(conv, x, dy, self.P)

    def test_backward_after_a_narrower_border_of_the_same_shape(self):
        # T 9 x F 12 at border 1 and T 3 x F 6 at border 4 both take grids
        # of 11 x 14 rows: the second pass reads nothing the first left in
        # the conv's product workspace
        conv, x = conv_and_input(np.float64, 1, (2, 9, 12, 3, 2))
        rng = np.random.default_rng(42)
        self.check_backward(conv, x, rng.standard_normal((2, 9, 12, 2)), 1)
        x = rng.standard_normal((2, 3, 6, 3))
        self.check_backward(conv, x, rng.standard_normal((2, 3, 6, 2)), self.P)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [1, 700, 10 ** 6])
    def test_bits_do_not_depend_on_the_piece_size(self, dtype, rows, monkeypatch):
        # the stacked GEMMs take the grid rows in pieces of about STACK_ROWS,
        # each long enough for OpenBLAS's large kernel: K = 42 >= 32 is where
        # its small one rounds differently.  The reference's GEMMs are large
        # too: M·N·K = 6 · 5280 · 42 > 1e6
        from seldkit.net import layers

        conv, x = conv_and_input(dtype, 2, (4, 40, 33, 42, 6))
        self.check_forward(conv, x, self.P)
        monkeypatch.setattr(layers, "STACK_ROWS", rows)
        self.check_forward(conv, x, self.P)

    @pytest.mark.parametrize("dilation, T, F", [(1, 19, 32), (2, 5, 36), (4, 10, 12)])
    def test_bits_do_not_depend_on_the_rows_a_call_takes(self, dilation, T, F):
        # one item of a batch alone: its GEMMs are below the large kernel's
        # rows (K = 42 >= 32, where OpenBLAS's small kernel rounds apart;
        # these shapes did) and run on a copy followed by zero rows; the
        # batch's are past them.  At border d and at P
        from seldkit.net import layers

        rng = np.random.default_rng(dilation)
        conv = Conv2d(42, 6, dilation, rng)
        conv.params["b"][...] = rng.standard_normal(6)
        x = rng.standard_normal((16, T, F, 42)).astype(np.float32)
        least = layers._least_rows(3 * 6 * 42)
        for p in (dilation, self.P):
            assert (T + 2 * p) * (F + 2 * p) < least < 16 * T * F
            on_grid = OnGrid(conv, p)
            batch = on_grid.forward(x)
            for b in range(3):
                assert same_bits(on_grid.forward(x[b:b + 1]), batch[b:b + 1])


class TestConvForward:
    """`TestConvOnGrid`'s forward check at border P = d; the cases that
    `TestConvOnGrid` has no test of, the edge pass among them, run at
    border 4 too."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dilation", [1, 2, 4])
    @pytest.mark.parametrize("shape", TestConvOnGrid.SHAPES)
    def test_matches_tap_copies_bit_for_bit(self, dtype, dilation, shape):
        conv, x = conv_and_input(dtype, dilation, shape)
        for _ in range(2):  # a second call reuses the product workspace
            TestConvOnGrid.check_forward(conv, x, dilation)

    @pytest.mark.parametrize("dilation", [1, 2, 4])
    def test_alternating_shapes_share_one_workspace(self, dilation):
        # inference alternates window batches of several shapes: after the
        # first call, at either border, no call allocates a product workspace
        rng = np.random.default_rng(dilation)
        conv = Conv2d(4, 5, dilation, rng, dtype=np.float32)
        conv.params["b"][...] = rng.standard_normal(5)
        shapes = [(3, 12, 10, 4), (5, 3, 10, 4), (2, 12, 7, 4), (5, 3, 10, 4)]
        xs = [(100 * rng.standard_normal(shape)).astype(np.float32) for shape in shapes]
        TestConvOnGrid.check_forward(conv, xs[0], dilation)
        workspaces = dict(conv._ws_store)
        for P in (dilation, 4, dilation):
            for x in xs:
                TestConvOnGrid.check_forward(conv, x, P)
        assert all(conv._ws_store[name] is buf for name, buf in workspaces.items())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dilation", [1, 2, 4])
    @pytest.mark.parametrize("left", [True, False], ids=["left", "right"])
    def test_edges_match_each_edge_alone(self, dtype, dilation, left, monkeypatch):
        # E edges side by side on an edge grid of border p give each edge's
        # r rows nearest the edge, as the conv of that edge's r + d rows
        # alone, padded with zeros, does; each kernel row's stacked GEMM
        # covers the r (E (F + p) + p) grid rows, or as many rows as keep it
        # on OpenBLAS's large kernel when that is more (a copy of them
        # followed by zero rows)
        from seldkit.net import layers

        rng = np.random.default_rng(dilation)
        r, E, F, C = 3, 5, 11, 4
        conv = Conv2d(C, 5, dilation, rng, dtype=dtype)
        conv.params["b"][...] = rng.standard_normal(5)
        x = rng.standard_normal((r + dilation, E, F, C)).astype(dtype)
        alone = conv2d_by_tap_copies(x.swapaxes(0, 1), conv.params["W"], conv.params["b"], dilation)
        expected = (alone[:, :r] if left else alone[:, dilation:]).swapaxes(0, 1)
        gemm_rows = []
        gemm = layers._gemm
        monkeypatch.setattr(layers, "_gemm", lambda out, a, b: gemm_rows.append(out.shape[1]) or gemm(out, a, b))
        least = layers._least_rows(3 * 5 * C)
        for p in (dilation, 4):
            on_grid = OnGrid(conv, p)
            on_grid.forward(rng.standard_normal((2, 8, F, C)).astype(dtype))  # nonzero rows in the workspace
            gemm_rows.clear()
            assert same_bits(on_grid.forward_edges(x, left), np.ascontiguousarray(expected))
            assert gemm_rows == [max(r * (E * (F + p) + p), least)] * 3

    @pytest.mark.parametrize("dilation", [1, 2, 4])
    def test_forward_after_edges_rezeroes_its_borders(self, dilation):
        # window passes after edge passes, on the same product workspace:
        # each zeroes the border of its output slice, which holds noise,
        # and gives the bits it gave before
        rng = np.random.default_rng(dilation)
        conv = Conv2d(4, 5, dilation, rng, dtype=np.float32)
        conv.params["b"][...] = rng.standard_normal(5)
        x = (100 * rng.standard_normal((3, 12, 10, 4))).astype(np.float32)
        for P in (dilation, 4):
            TestConvOnGrid.check_forward(conv, x, P)
            workspaces = dict(conv._ws_store)
            for left in (True, False):
                OnGrid(conv, P).forward_edges((100 * rng.standard_normal((2 + dilation, 4, 10, 4))).astype(np.float32),
                                              left)
                TestConvOnGrid.check_forward(conv, x, P)
            assert all(conv._ws_store[name] is buf for name, buf in workspaces.items())

    def test_folded_weights_replace_the_parameters(self):
        rng = np.random.default_rng(30)
        conv = Conv2d(3, 4, 2, rng, dtype=np.float64)
        conv.folded = (rng.standard_normal((9, 3, 4)), rng.standard_normal(4))
        x = rng.standard_normal((2, 5, 6, 3))
        for P in (2, 4):
            TestConvOnGrid.check_forward(conv, x, P)


class TestConvBackward:
    """`TestConvOnGrid`'s backward check at border P = d; the cases that
    `TestConvOnGrid` has no test of run at border 4 too."""

    SHAPES = [
        (3, 9, 11, 5, 4),
        (2, 3, 6, 4, 3),     # T below 2 * dilation at dilations 2 and 4
        (2, 1, 6, 3, 2),     # T = 1
        (2, 7, 1, 3, 4),     # F = 1
        (1, 1, 1, 2, 3),
        (3, 96, 43, 24, 6),  # desk: batch 3, a dense-block conv to growth 6
    ]

    @staticmethod
    def setup(dtype, dilation, shape):
        conv, x = conv_and_input(dtype, dilation, shape)
        dy = np.random.default_rng(41).standard_normal(shape[:3] + (conv.out_ch,)).astype(dtype)
        return conv, x, dy

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dilation", [1, 2, 4])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_tap_copies(self, dtype, dilation, shape):
        # dx and the bias gradient keep the per-tap copies' bits; gW its values
        conv, x, dy = self.setup(dtype, dilation, shape)
        for _ in range(2):  # a second call reuses the product workspace
            conv.zero_grad()
            TestConvOnGrid.check_backward(conv, x, dy, dilation)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dilation", [1, 2, 4])
    def test_accumulates_onto_existing_grads(self, dtype, dilation):
        conv, x, dy = self.setup(dtype, dilation, self.SHAPES[0])
        rng = np.random.default_rng(40)
        conv.grads["W"][...] = rng.standard_normal(conv.grads["W"].shape)
        conv.grads["b"][...] = rng.standard_normal(conv.grads["b"].shape)
        for P in (dilation, 4):
            TestConvOnGrid.check_backward(conv, x, dy, P)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dilation", [1, 2, 4])
    def test_without_input_grad(self, dtype, dilation):
        conv, x, dy = self.setup(dtype, dilation, self.SHAPES[0])
        conv.needs_input_grad = False
        for P in (dilation, 4):
            TestConvOnGrid.check_backward(conv, x, dy, P)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dilation", [1, 2])
    @pytest.mark.parametrize("rows", [10 ** 6, 107, 50, 1])
    def test_weight_gradient_by_row_pieces(self, dtype, dilation, rows, monkeypatch):
        # backward takes the grid rows STACK_ROWS at a time: at dilation 1
        # and border 1 the 214 rows are one piece, two of 107, five with a
        # ragged last of 14, or one row each; dx and the bias gradient keep
        # their bits
        from seldkit.net import layers

        conv, x, dy = self.setup(dtype, dilation, (2, 8, 10, 3, 4))
        monkeypatch.setattr(layers, "STACK_ROWS", rows)
        for P in (dilation, 4):
            conv.zero_grad()
            TestConvOnGrid.check_backward(conv, x, dy, P)

    @pytest.mark.parametrize("dilation", [1, 2, 4])
    def test_alternating_shapes_share_one_workspace(self, dilation):
        # after the first call of each shape and border, alternating them
        # allocates no product workspace
        rng = np.random.default_rng(dilation)
        conv = Conv2d(4, 5, dilation, rng, dtype=np.float32)
        cases = [(rng.standard_normal((B, T, F, 4)).astype(np.float32),
                  rng.standard_normal((B, T, F, 5)).astype(np.float32), P)
                 for P in (dilation, 4) for B, T, F in [(3, 12, 10), (5, 3, 10)]]
        for case in cases:
            TestConvOnGrid.check_backward(conv, *case)
        workspaces = dict(conv._ws_store)
        for case in cases + cases:
            TestConvOnGrid.check_backward(conv, *case)
        assert conv._ws_store.keys() == workspaces.keys()
        assert all(conv._ws_store[name] is buf for name, buf in workspaces.items())


class TestBackwardOnGrid:
    """A conv unit's backward on a dense block's gradient grid, border P = 4
    at every dilation, after its forward on the block's grid: the unit's
    channel slice holds dy, the channel prefix before it the gradient that
    dx is added onto, and the channels beyond noise it must not touch.
    Checked against the unit's layers run out of place, dy times the
    whitening matrix and `conv2d_backward_by_tap_copies`."""

    P = 4
    # odd F, F = 1, T below the dilations, and the input of a desk block's
    # last layer, whose grid rows take several pieces
    SHAPES = [(3, 9, 11, 5), (2, 7, 1, 3), (2, 3, 7, 4), (3, 24, 43, 30)]

    def run(self, dtype, dilation, shape, Co=6):
        """The unit's gradients on the grid and their references."""
        B, T, F, C = shape
        rng = np.random.default_rng(dilation)
        unit = ConvUnit(C, Co, dilation, rng, dtype=dtype)
        unit.conv.params["b"][...] = rng.standard_normal(Co)
        p, slice_ = self.P, np.s_[C:C + Co]
        grid = np.zeros((C + Co + 2, B, T + 2 * p, F + 2 * p), dtype)
        x = _valid(grid[:C], p)
        x[...] = 3 * rng.standard_normal(shape)
        with unit.conv.on_grid(grid, grid[slice_]):
            unit.forward(x)
        grad = (100 * rng.standard_normal(grid.shape)).astype(dtype)
        _zero_ring(grad[:C + Co], p)  # the block keeps these borders zero
        before = grad.copy()
        dy = np.ascontiguousarray(_valid(grad[slice_], p))
        g = np.ascontiguousarray(unit.act.backward(dy))
        g = (g.reshape(-1, Co) @ unit.norm._whiten).reshape(g.shape)
        dx_ref, gW_ref, gb_ref = conv2d_backward_by_tap_copies(np.ascontiguousarray(x), unit.conv.params["W"], g,
                                                               dilation)
        with unit.conv.on_grid(grad, grad[slice_]):
            dx = unit.backward(_valid(grad[slice_], p))
        assert np.shares_memory(dx, grad[:C])
        return unit, grad, before, (g, dx_ref + _valid(before[:C], p), gW_ref, gb_ref)

    def assert_matches(self, unit, grad, before, expected, dtype):
        g, dx, gW, gb = expected
        C, Co, p = unit.conv.in_ch, unit.conv.out_ch, self.P
        # the slice holds the conv's output gradient, the prefix dx added on
        assert same_bits(np.ascontiguousarray(_valid(grad[C:C + Co], p)), g)
        assert same_bits(np.ascontiguousarray(_valid(grad[:C], p)), dx)
        assert same_bits(unit.conv.grads["b"], gb)
        # gW sums each entry's rows in another order than the reference: the
        # rounding differences grow about as sqrt(rows) eps
        rows = g.size // Co
        assert np.abs(unit.conv.grads["W"] - gW).max() <= np.sqrt(rows) * np.finfo(dtype).eps * np.abs(gW).max()
        # both keep a zero border, and the channels beyond are as they were
        for ring in (grad[:C].copy(), grad[C:C + Co].copy()):
            _valid(ring, p)[...] = 0
            assert not ring.any()
        assert same_bits(grad[C + Co:], before[C + Co:])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dilation", [1, 2, 4])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_the_layers_out_of_place(self, dtype, dilation, shape):
        self.assert_matches(*self.run(dtype, dilation, shape), dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [1, 107, 10 ** 6])
    def test_bits_do_not_depend_on_the_piece_size(self, dtype, rows, monkeypatch):
        # every piece size gives the reference's bits, so they agree
        from seldkit.net import layers

        monkeypatch.setattr(layers, "STACK_ROWS", rows)
        self.assert_matches(*self.run(dtype, 2, (2, 8, 11, 5)), dtype)

    def test_holds_at_one_blas_thread(self):
        assert_class_holds_at_one_blas_thread(type(self))


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
            OnGrid(unit).forward((rng.standard_normal((2, 8, 9, 4)) @ mixing + 0.5).astype(dtype))
        unit.eval()
        return unit, rng.standard_normal((2, 8, 9, 4)).astype(dtype)

    @staticmethod
    def unfolded(unit, x):
        return unit.act.forward(unit.norm.forward(OnGrid(unit.conv).forward(x)))

    @pytest.mark.parametrize("dtype, atol", [(np.float64, 1e-12), (np.float32, 2e-6)])
    def test_matches_conv_then_norm(self, dtype, atol):
        unit, x = self.moved_unit(dtype)
        cov = unit.norm.buffers["running_cov"]
        assert np.abs(cov - np.eye(5)).max() > 0.1
        folded = OnGrid(unit).forward(x)
        assert unit.conv.folded is None
        np.testing.assert_allclose(folded, self.unfolded(unit, x), rtol=0, atol=atol)

    def test_follows_in_place_weight_edits(self):
        # nothing is cached: an edited weight shows in the next forward
        unit, x = self.moved_unit(np.float64)
        OnGrid(unit).forward(x)
        unit.conv.params["W"][4, 1, 2] += 0.5
        unit.norm.buffers["running_mean"][0] += 0.5
        np.testing.assert_allclose(OnGrid(unit).forward(x), self.unfolded(unit, x), rtol=0, atol=1e-12)

    def test_skips_the_norm_pass(self, monkeypatch):
        unit, x = self.moved_unit(np.float32)

        def refuse(x):
            raise AssertionError("eval-mode NetDeconv ran its own pass")

        monkeypatch.setattr(unit.norm, "forward", refuse)
        OnGrid(unit).forward(x)


class TestGruSplit:
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_is_recurrence_of_projection(self, reverse, dtype):
        # the direction named by `reverse` keeps its half of the output when
        # the other direction's gates are replaced: the one time loop both
        # step through does not mix them
        rng = np.random.default_rng(32)
        gru = Gru(6, 4, rng, dtype=dtype)
        gru.params["fwd.bx"][...] = rng.standard_normal(12)
        gru.params["bwd.bx"][...] = rng.standard_normal(12)
        x = rng.standard_normal((3, 7, 6)).astype(dtype)
        y = gru.forward(x)
        g = gru.project(x)
        assert same_bits(y, gru.recur(g))
        own, other = (slice(12, 24), slice(0, 12)) if reverse else (slice(0, 12), slice(12, 24))
        g[..., other] = rng.standard_normal(g[..., other].shape)
        half = slice(4, 8) if reverse else slice(0, 4)
        assert same_bits(y[..., half], gru.recur(g)[..., half])
        assert not same_bits(y, gru.recur(g))

    def test_bidirectional(self):
        rng = np.random.default_rng(33)
        gru = Gru(5, 3, rng)
        x = rng.standard_normal((2, 6, 5)).astype(np.float32)
        g = gru.project(x)
        assert g.shape == (2, 6, 18)
        assert same_bits(gru.forward(x), gru.recur(g))

    @pytest.mark.parametrize("frames", [1, 7, 50])
    def test_projection_bits_do_not_depend_on_the_frames_a_call_takes(self, frames):
        # 512 inputs and 24 gates: fewer than 82 frames are below OpenBLAS's
        # large kernel and run followed by zero frames
        rng = np.random.default_rng(34)
        gru = Gru(512, 4, rng)
        gru.params["fwd.bx"][...] = rng.standard_normal(12)
        gru.params["bwd.bx"][...] = rng.standard_normal(12)
        x = rng.standard_normal((400, 512)).astype(np.float32)
        assert same_bits(gru.project(x[:frames]), gru.project(x)[:frames])


class TestGruMatchesDirections:
    """The bidirectional `Gru` against two `GruOneDirection`s, forward then
    reverse, drawn from the same rng: every output and gradient bit for bit."""

    SHAPES = [(3, 256, 384, 64), (32, 64, 100, 16), (2, 5, 4, 3), (1, 1, 3, 1), (1, 9, 2, 1), (4, 3, 1, 1)]

    @staticmethod
    def pair(shape, dtype, seed=40):
        """The layer, its two oracle directions with the same nonzero biases
        and the same nonzero gradients already held, an input and an
        output gradient."""
        B, T, D, H = shape
        gru = Gru(D, H, np.random.default_rng(seed), dtype=dtype)
        rng = np.random.default_rng(seed)
        directions = [GruOneDirection(D, H, rng, reverse=reverse, dtype=dtype) for reverse in (False, True)]
        rng = np.random.default_rng(seed + 1)
        for prefix, one in zip(("fwd.", "bwd."), directions):
            for name in ("bx", "bh"):
                one.params[name][...] = rng.standard_normal(3 * H)
                gru.params[prefix + name][...] = one.params[name]
            for name, g in one.grads.items():
                g[...] = rng.standard_normal(g.shape)
                gru.grads[prefix + name][...] = g
        x = rng.standard_normal((B, T, D)).astype(dtype)
        dy = rng.standard_normal((B, T, 2 * H)).astype(dtype)
        return gru, directions, x, dy

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_same_bits_as_two_directions(self, shape, dtype):
        gru, (fwd, bwd), x, dy = self.pair(shape, dtype)
        H = shape[3]
        assert same_bits(gru.forward(x), np.concatenate([fwd.forward(x), bwd.forward(x)], axis=-1))
        g = gru.project(x)
        assert same_bits(g, np.concatenate([fwd.project(x), bwd.project(x)], axis=-1))
        assert same_bits(gru.recur(g), np.concatenate([fwd.recur(g[..., :3 * H]), bwd.recur(g[..., 3 * H:])],
                                                      axis=-1))
        assert same_bits(gru.backward(dy), fwd.backward(dy[..., :H]) + bwd.backward(dy[..., H:]))
        for prefix, one in zip(("fwd.", "bwd."), (fwd, bwd)):
            for name in ("Wx", "Wh", "bx", "bh"):
                assert same_bits(gru.grads[prefix + name], one.grads[name]), prefix + name

    def test_holds_at_one_blas_thread(self):
        assert_class_holds_at_one_blas_thread(type(self))


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


class TestEluBackwardFromOutput:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_the_em1_expression(self, dtype):
        # min(y, 0) + 1 from the output gives the bits of expm1(min(x, 0)) + 1
        rng = np.random.default_rng(36)
        special = [0.0, -0.0, -1e-30, 1e-30, -100.0, 100.0, 3e37, -3e37, 1e30]
        x = np.concatenate([3 * rng.standard_normal(4096), special]).astype(dtype)
        dy = rng.standard_normal(x.shape).astype(dtype)
        elu = Elu()
        elu.forward(x)
        em1 = np.expm1(np.minimum(x, 0))
        assert same_bits(elu.backward(dy), dy * (em1 + 1))


class TestEluForward:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("in_place", [False, True], ids=["fresh", "in-place"])
    def test_matches_the_four_pass_formula(self, dtype, in_place):
        # max(x, expm1(min(x, 0))) against max(x, 0) + expm1(min(x, 0)), on
        # a 4-D input that runs in several pieces
        rng = np.random.default_rng(37)
        tiny = np.finfo(dtype).smallest_normal
        special = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny, tiny / 3, -tiny / 3,
                            np.finfo(dtype).smallest_subnormal, -np.finfo(dtype).smallest_subnormal,
                            np.finfo(dtype).max, -np.finfo(dtype).max], dtype=dtype)
        x = (3 * rng.standard_normal((2, 3, 40, 24))).astype(dtype)
        flat = x.reshape(-1)
        flat[rng.choice(flat.size, 20 * special.size, replace=False)] = np.repeat(special, 20)
        expected = np.maximum(x, 0) + np.expm1(np.minimum(x, 0))
        got = Elu().forward(x, out=x if in_place else None)
        assert same_bits(got, expected)


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("factor", [1, 2, 3, 4])
    def test_backward_scales_before_repeating_bit_for_bit(self, dtype, factor):
        # scaling dy and then repeating it gives the values of repeating
        # it first and scaling the k times larger array
        rng = np.random.default_rng(35)
        scale = rng.choice([1e-40, 1.0, 1e30], size=(2, 3, 6, 5))
        dy = (rng.standard_normal(scale.shape) * scale).astype(dtype)
        dy[0, 0, 0, :4] = [-0.0, np.inf, -np.inf, np.nan]
        got = FreqPool(factor).backward(dy)
        assert got.dtype == dtype
        assert same_bits(got, np.repeat(dy, factor, axis=2) * (1.0 / factor))


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("factor", [1, 2, 3, 4])
    def test_backward_into_out_is_repeat_bit_for_bit(self, dtype, factor):
        # written into a channel prefix of a wider array, whose other
        # channels keep their values
        rng = np.random.default_rng(36)
        scale = rng.choice([1e-40, 1.0, 1e30], size=(2, 3, 6, 5))
        dy = (rng.standard_normal(scale.shape) * scale).astype(dtype)
        dy[0, 0, 0, :4] = [-0.0, np.inf, -np.inf, np.nan]
        wide = rng.standard_normal((2, 3, 6 * factor, 7)).astype(dtype)
        beyond = wide[..., 5:].copy()
        got = FreqPool(factor).backward(dy, out=wide[..., :5])
        assert np.shares_memory(got, wide)
        assert same_bits(got, np.repeat(dy * (1.0 / factor), factor, axis=2))
        assert same_bits(wide[..., 5:], beyond)


class TestGruGradients:
    def test_forward_direction(self):
        rng = np.random.default_rng(6)
        gru = GruOneDirection(4, 3, rng, dtype=np.float64)
        x = rng.standard_normal((2, 6, 4))
        check_module(gru, x)

    def test_reverse_direction(self):
        rng = np.random.default_rng(7)
        gru = GruOneDirection(3, 4, rng, reverse=True, dtype=np.float64)
        x = rng.standard_normal((2, 5, 3))
        check_module(gru, x)

    def test_bidirectional(self):
        rng = np.random.default_rng(8)
        gru = Gru(4, 3, rng, dtype=np.float64)
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
        check_module(OnGrid(unit), x, warm_train=True)

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
