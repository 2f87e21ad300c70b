"""Numpy layers with hand-written forward/backward passes.

Trunk tensors are channels-last (batch, time, freq, channels): slice copies
stay contiguous, channel statistics reduce to single GEMMs, and the
freq*channel flattening ahead of the recurrent layers is free.  Every layer
caches what its backward pass needs, unless put in eval mode with
`backward` False; workspaces are reused across iterations to avoid
repeated large allocations.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_blas_funcs

WHITEN_EPS = 1e-5          # added to the channel covariance's diagonal before whitening
_RUNNING_MOMENTUM = 0.1    # weight of each training batch in NetDeconv's running statistics


def _gemm_acc(out2d: np.ndarray, a2d: np.ndarray, b2d: np.ndarray) -> np.ndarray:
    """out += a @ b without temporaries.

    Runs BLAS on the transposed problem out.T = b.T @ a.T; the transposes of
    C-contiguous arrays are Fortran-contiguous, so no copies are made and the
    accumulation happens inside the GEMM call.
    """
    gemm = get_blas_funcs("gemm", (out2d,))
    res = gemm(1.0, b2d.T, a2d.T, 1.0, out2d.T, overwrite_c=1)
    return res.T


class Module:
    """Minimal parameter container with recursive naming."""

    def __init__(self):
        self.params: dict = {}
        self.grads: dict = {}
        self.buffers: dict = {}
        self._children: dict = {}
        self.training = True
        self.for_backward = True
        self._ws_store: dict = {}

    # -- registration ------------------------------------------------------
    def register_param(self, name: str, value: np.ndarray) -> np.ndarray:
        self.params[name] = value
        self.grads[name] = np.zeros_like(value)
        return value

    def register_buffer(self, name: str, value: np.ndarray) -> np.ndarray:
        self.buffers[name] = value
        return value

    def register_child(self, name: str, module: "Module") -> "Module":
        self._children[name] = module
        return module

    # -- traversal ---------------------------------------------------------
    def named_parameters(self, prefix: str = ""):
        for name, p in self.params.items():
            yield prefix + name, p
        for cname, child in self._children.items():
            yield from child.named_parameters(prefix + cname + ".")

    def named_grads(self, prefix: str = ""):
        for name, g in self.grads.items():
            yield prefix + name, g
        for cname, child in self._children.items():
            yield from child.named_grads(prefix + cname + ".")

    def named_buffers(self, prefix: str = ""):
        for name, b in self.buffers.items():
            yield prefix + name, b
        for cname, child in self._children.items():
            yield from child.named_buffers(prefix + cname + ".")

    def zero_grad(self):
        for g in self.grads.values():
            g[...] = 0
        for child in self._children.values():
            child.zero_grad()

    def train(self, mode: bool = True, backward: bool = True):
        """Training mode, or eval mode when `mode` is False.  Eval mode
        with `backward` False keeps nothing for a backward pass, for
        inference; training mode always keeps it."""
        self.training = mode
        self.for_backward = mode or backward
        for child in self._children.values():
            child.train(mode, backward)
        return self

    def eval(self, backward: bool = True):
        return self.train(False, backward)

    def state_dict(self) -> dict:
        out = {name: p.copy() for name, p in self.named_parameters()}
        out.update({name: b.copy() for name, b in self.named_buffers()})
        return out

    def load_state_dict(self, state: dict):
        own = dict(self.named_parameters())
        own.update(dict(self.named_buffers()))
        missing, unexpected = sorted(set(own) - set(state)), sorted(set(state) - set(own))
        if missing or unexpected:
            raise ValueError(f"missing tensors {missing}, unexpected tensors {unexpected}")
        for name, arr in own.items():
            src = np.asarray(state[name])
            if src.shape != arr.shape:
                raise ValueError(f"{name}: shape {src.shape} != {arr.shape}")
            arr[...] = src.astype(arr.dtype)

    def _ws(self, name: str, shape, dtype) -> np.ndarray:
        """A reused workspace of `shape`: the front of the largest buffer
        `name` has needed, so calls that alternate between shapes (window
        and edge batches in inference) allocate nothing after the first."""
        n = int(np.prod(shape))
        buf = self._ws_store.get(name)
        if buf is None or buf.size < n or buf.dtype != dtype:
            buf = np.empty(n, dtype=dtype)
            self._ws_store[name] = buf
        return buf[:n].reshape(shape)

    # subclasses implement forward(x) and backward(dy)


class Conv2d(Module):
    """3x3 same-padded convolution over (B, T, F, C), optional dilation.

    forward/backward return views into reused workspaces: consume or copy
    them before the next call on the same instance.  `needs_input_grad`
    False skips the input-gradient half of backward (for the first layer).

    The forward pass works on the padded grid (B, T + 2d, F + 2d) flattened
    to rows: tap (i, j) of every output row reads the input row a fixed
    offset away, so each tap is one GEMM on a contiguous row slice, with no
    copy.  Rows on the padding compute values that are never read; the
    output is a view of the valid region of the padded output.  While
    `folded` holds (W, b), forward uses them in place of the parameters
    (see `ConvUnit`).  Backward runs on the same grid: dy is written once
    into a zero-bordered padded workspace, each tap's gW is one GEMM of a
    transposed row slice of the forward's padded input with dy, and dx, the
    convolution of dy with the flipped kernel, is one GEMM per tap into a
    padded workspace, returned as a strided view of its valid region.
    """

    def __init__(self, in_ch: int, out_ch: int, dilation: int, rng, dtype=np.float32):
        super().__init__()
        self.in_ch = in_ch
        self.out_ch = out_ch
        self.dilation = dilation
        self.needs_input_grad = True
        std = np.sqrt(2.0 / (9 * in_ch))
        self.register_param("W", (rng.standard_normal((9, in_ch, out_ch)) * std).astype(dtype))
        self.register_param("b", np.zeros(out_ch, dtype=dtype))
        self.dtype = dtype
        self.folded = None
        self._border_shapes: dict = {}

    def _grid(self, n_rows: int, F: int):
        """Rows [lo, hi) of the flattened padded grid of n_rows rows, which
        span every valid output and keep each tap inside the grid, and each
        tap's row offset on it, in tap order."""
        p = self.dilation
        Fp = F + 2 * p
        lo = p * Fp + p
        return lo, n_rows - lo, [p * ((i - 1) * Fp + j - 1) for i in range(3) for j in range(3)]

    def _padded(self, name: str, B: int, T: int, F: int, C: int) -> np.ndarray:
        # borders are zeroed when the shape changes and never written otherwise
        p = self.dilation
        shape = (B, T + 2 * p, F + 2 * p, C)
        buf = self._ws(name, shape, self.dtype)
        if self._border_shapes.get(name) != shape:
            buf[:, :p] = buf[:, p + T:] = 0
            buf[:, :, :p] = buf[:, :, p + F:] = 0
            self._border_shapes[name] = shape
        return buf

    def forward(self, x: np.ndarray) -> np.ndarray:
        B, T, F, C = x.shape
        if C != self.in_ch:
            raise ValueError(f"expected {self.in_ch} channels, got {C}")
        W, b = self.folded or (self.params["W"], self.params["b"])
        p = self.dilation
        xp = self._xp = self._padded("xp", B, T, F, C)
        xp[:, p:p + T, p:p + F, :] = x
        yp = self._ws("yp", xp.shape[:3] + (self.out_ch,), self.dtype)
        xf, yf = xp.reshape(-1, C), yp.reshape(-1, self.out_ch)
        lo, hi, offs = self._grid(len(yf), F)
        y = yf[lo:hi]
        y[...] = b
        for idx, off in enumerate(offs):
            _gemm_acc(y, xf[lo + off:hi + off], W[idx])
        self._shape = (B, T, F)
        return yp[:, p:p + T, p:p + F, :]

    def forward_edges(self, x: np.ndarray, left: bool) -> np.ndarray:
        """(r + d, E, F, C) -> (r, E, F, out_ch), time-major: out of the
        r + d input rows flush against each of E segment edges, the r
        output rows nearest the edge, as `forward` gives them for the
        segment, whose zero padding lies beyond the edge (above a left
        edge, below a right one).

        The E edges lie side by side on one grid of r + 2d rows: each is F
        columns wide, with d zero columns before the first and after every
        edge, so the padding columns are shared by neighbours, and d zero
        rows on the segment's outer side.  Each tap is one GEMM over the
        r output rows of that grid, E (F + d) + d columns a row, less the
        first and last d.  The grid and its output occupy the front of the
        `xp` and `yp` workspaces, so the next `forward` re-zeroes its
        borders.  No backward follows this pass.
        """
        n, E, F, C = x.shape
        if C != self.in_ch:
            raise ValueError(f"expected {self.in_ch} channels, got {C}")
        W, b = self.folded or (self.params["W"], self.params["b"])
        p = self.dilation
        r, width = n - p, E * (F + p) + p
        xp = self._ws("xp", (r + 2 * p, width, C), self.dtype)
        self._border_shapes.pop("xp", None)
        rows = xp[p:] if left else xp[:n]
        (xp[:p] if left else xp[n:])[...] = 0
        rows[:, :p] = 0
        edges = rows[:, p:].reshape(n, E, F + p, C)
        edges[:, :, :F] = x
        edges[:, :, F:] = 0
        yp = self._ws("yp", (r, width, self.out_ch), self.dtype)
        xf = xp.reshape(-1, C)
        y = yp.reshape(-1, self.out_ch)[p:r * width - p]
        y[...] = b
        for idx in range(9):
            off = (idx // 3) * p * width + (idx % 3) * p
            _gemm_acc(y, xf[off:off + len(y)], W[idx])
        return yp[:, p:].reshape(r, E, F + p, self.out_ch)[:, :, :F]

    def backward(self, dy: np.ndarray):
        B, T, F = self._shape
        C, Co = self.in_ch, self.out_ch
        p = self.dilation
        dy2 = np.ascontiguousarray(dy, dtype=self.dtype).reshape(-1, Co)
        self.grads["b"] += dy2.sum(axis=0)
        dyp = self._padded("dyp", B, T, F, Co)
        dyp[:, p:p + T, p:p + F, :] = dy2.reshape(B, T, F, Co)
        xf, dyf = self._xp.reshape(-1, C), dyp.reshape(-1, Co)
        lo, hi, offs = self._grid(len(dyf), F)
        gW = self.grads["W"]
        for idx, off in enumerate(offs):
            # dy is zero on the padding, so those rows add nothing; `@` hands
            # the transposed slice to BLAS without a copy
            gW[idx] += xf[lo + off:hi + off].T @ dyf[lo:hi]
        if not self.needs_input_grad:
            return None
        # dx is dy convolved with the flipped kernel: tap idx reads dy -off rows away
        W = self.params["W"]
        dxp = self._ws("dxp", dyp.shape[:3] + (C,), self.dtype)
        dx = dxp.reshape(-1, C)[lo:hi]
        dx[...] = 0
        for idx in range(8, -1, -1):
            _gemm_acc(dx, dyf[lo - offs[idx]:hi - offs[idx]], np.ascontiguousarray(W[idx].T))
        return dxp[:, p:p + T, p:p + F, :]


def _inv_sqrt_psd(cov: np.ndarray) -> np.ndarray:
    """(cov + WHITEN_EPS*I)^(-1/2) via symmetric eigendecomposition (float64)."""
    c = cov.astype(np.float64)
    c[np.diag_indices_from(c)] += WHITEN_EPS
    w, v = np.linalg.eigh(c)
    return (v * (1.0 / np.sqrt(w))) @ v.T


class NetDeconv(Module):
    """Channel-whitening normalization replacing batch norm.

    Training mode subtracts the per-channel mean and multiplies by the
    inverse square root of the (WHITEN_EPS-regularized) channel covariance,
    both computed over all batch/time/freq locations and treated as
    constants in the backward pass.  Running statistics (momentum 0.1) are
    used in eval mode.
    """

    def __init__(self, channels: int, dtype=np.float32):
        super().__init__()
        self.channels = channels
        self.dtype = dtype
        self.register_buffer("running_mean", np.zeros(channels, dtype=dtype))
        self.register_buffer("running_cov", np.eye(channels, dtype=dtype))

    def forward(self, x: np.ndarray) -> np.ndarray:
        shape = x.shape
        c = shape[-1]
        if c != self.channels:
            raise ValueError(f"expected {self.channels} channels, got {c}")
        n = x.size // c
        xc = self._ws("xc", (n, c), self.dtype)
        if self.training:
            if n < 2:
                raise ValueError("need at least 2 locations for batch statistics")
            xc.reshape(shape)[...] = x  # x may be a strided view
            with np.errstate(invalid="ignore", over="ignore"):
                mu = xc.mean(axis=0)
                xc -= mu
                cov = (xc.T @ xc) / n
            if not np.all(np.isfinite(cov)):
                raise FloatingPointError("non-finite channel covariance")
            m = _RUNNING_MOMENTUM
            self.buffers["running_mean"][...] = (1 - m) * self.buffers["running_mean"] + m * mu
            self.buffers["running_cov"][...] = (1 - m) * self.buffers["running_cov"] + m * cov
        else:
            mu = self.buffers["running_mean"]
            cov = self.buffers["running_cov"]
            np.subtract(x, mu, out=xc.reshape(shape))
        self._whiten = _inv_sqrt_psd(cov).astype(self.dtype)
        y = self._ws("y", xc.shape, self.dtype)
        np.matmul(xc, self._whiten, out=y)
        return y.reshape(shape)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        shape = dy.shape
        dy2 = np.ascontiguousarray(dy, dtype=self.dtype).reshape(-1, self.channels)
        # statistics are constants, and the whitening matrix is symmetric
        dx = self._ws("dx", dy2.shape, self.dtype)
        np.matmul(dy2, self._whiten, out=dx)
        return dx.reshape(shape)


class Elu(Module):
    """ELU activation; continuously differentiable, so finite-difference
    gradient checks are meaningful everywhere."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        em1 = np.minimum(x, 0)
        np.expm1(em1, out=em1)
        self._em1 = em1 if self.for_backward else None
        y = np.maximum(x, 0)
        y += em1
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        # d/dx = exp(min(x, 0)) = em1 + 1, which is 1 where x > 0 (em1 is 0 there)
        return dy * (self._em1 + 1)


class Tanh(Module):
    def forward(self, x: np.ndarray) -> np.ndarray:
        self._y = np.tanh(x)
        return self._y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy * (1.0 - self._y * self._y)


class Sigmoid(Module):
    def forward(self, x: np.ndarray) -> np.ndarray:
        self._y = 1.0 / (1.0 + np.exp(-x))
        return self._y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy * self._y * (1.0 - self._y)


class Linear(Module):
    """Affine map over the last axis."""

    def __init__(self, in_dim: int, out_dim: int, rng, dtype=np.float32):
        super().__init__()
        self.in_dim = in_dim
        self.out_dim = out_dim
        bound = np.sqrt(6.0 / (in_dim + out_dim))
        self.register_param("W", rng.uniform(-bound, bound, (in_dim, out_dim)).astype(dtype))
        self.register_param("b", np.zeros(out_dim, dtype=dtype))

    def forward(self, x: np.ndarray) -> np.ndarray:
        x2 = np.ascontiguousarray(x).reshape(-1, self.in_dim)
        self._x2 = x2 if self.for_backward else None
        self._shape = x.shape[:-1]
        return (x2 @ self.params["W"] + self.params["b"]).reshape(*self._shape, self.out_dim)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        dy2 = np.ascontiguousarray(dy).reshape(-1, self.out_dim)
        self.grads["W"] += self._x2.T @ dy2
        self.grads["b"] += dy2.sum(axis=0)
        return (dy2 @ self.params["W"].T).reshape(*self._shape, self.in_dim)


class FreqPool(Module):
    """Mean-pool the frequency axis of (B, T, F, C) by an integer factor."""

    def __init__(self, factor: int):
        super().__init__()
        self.factor = factor

    def forward(self, x: np.ndarray) -> np.ndarray:
        k = self.factor
        if x.shape[2] % k:
            raise ValueError(f"frequency size {x.shape[2]} not divisible by {k}")
        # the k strided views added in order onto 0.0, then divided by k:
        # what reshape(B, T, F // k, k, C).mean(axis=3) computes, bit for bit
        y = x[:, :, ::k] + 0.0
        for j in range(1, k):
            y += x[:, :, j::k]
        y /= k
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return np.repeat(dy * (1.0 / self.factor), self.factor, axis=2)


class Gru(Module):
    """Single-direction GRU over (B, T, D) -> (B, T, H).

    Gate layout along the last parameter axis is [reset, update, candidate];
    the candidate's recurrent contribution is gated by reset including its
    bias, matching the common two-bias formulation.
    """

    def __init__(self, in_dim: int, hidden: int, rng, reverse: bool = False, dtype=np.float32):
        super().__init__()
        self.in_dim = in_dim
        self.hidden = hidden
        self.reverse = reverse
        bx = np.sqrt(6.0 / (in_dim + 3 * hidden))
        bh = np.sqrt(6.0 / (hidden + 3 * hidden))
        self.register_param("Wx", rng.uniform(-bx, bx, (in_dim, 3 * hidden)).astype(dtype))
        self.register_param("Wh", rng.uniform(-bh, bh, (hidden, 3 * hidden)).astype(dtype))
        self.register_param("bx", np.zeros(3 * hidden, dtype=dtype))
        self.register_param("bh", np.zeros(3 * hidden, dtype=dtype))
        self.dtype = dtype

    def forward(self, x: np.ndarray) -> np.ndarray:
        """The recurrence applied to the projection of x."""
        self._shape = x.shape
        x2 = np.ascontiguousarray(x).reshape(-1, x.shape[-1])
        self._x2 = x2 if self.for_backward else None
        return self.recur(self.project(x2.reshape(x.shape)))

    def project(self, x: np.ndarray) -> np.ndarray:
        """(..., D) -> (..., 3H): x @ Wx + bx, the gates' input half, which
        depends on each frame alone."""
        x2 = np.ascontiguousarray(x).reshape(-1, self.in_dim)
        return (x2 @ self.params["Wx"] + self.params["bx"]).reshape(*x.shape[:-1], 3 * self.hidden)

    def recur(self, gx: np.ndarray) -> np.ndarray:
        """(B, T, 3H) projected input -> (B, T, H) hidden states, run in
        this layer's direction; keeps what backward needs, if anything."""
        B, T = gx.shape[:2]
        H = self.hidden
        order = range(T - 1, -1, -1) if self.reverse else range(T)
        h = np.zeros((B, H), dtype=self.dtype)
        out = np.empty((B, T, H), dtype=self.dtype)
        cache = self._cache = [None] * T if self.for_backward else None
        Wh, bh = self.params["Wh"], self.params["bh"]
        for t in order:
            gh = h @ Wh + bh
            r = _sigmoid(gx[:, t, :H] + gh[:, :H])
            z = _sigmoid(gx[:, t, H:2 * H] + gh[:, H:2 * H])
            ghn = gh[:, 2 * H:]
            n = np.tanh(gx[:, t, 2 * H:] + r * ghn)
            if cache is not None:
                cache[t] = (r, z, n, ghn, h)
            h = (1.0 - z) * n + z * h
            out[:, t] = h
        return out

    def backward(self, dy: np.ndarray) -> np.ndarray:
        B, T, D = self._shape
        H = self.hidden
        Wh = self.params["Wh"]
        dgx = np.zeros((B, T, 3 * H), dtype=self.dtype)
        dh = np.zeros((B, H), dtype=self.dtype)
        dWh = self.grads["Wh"]
        dbh = self.grads["bh"]
        order = range(T) if self.reverse else range(T - 1, -1, -1)
        dgh = np.empty((B, 3 * H), dtype=self.dtype)
        for t in order:
            dh = dh + dy[:, t]
            r, z, n, ghn, hprev = self._cache[t]
            dz = dh * (hprev - n)
            dn = dh * (1.0 - z)
            dhprev = dh * z
            dan = dn * (1.0 - n * n)
            dr = dan * ghn
            dgh[:, :H] = dr * r * (1.0 - r)
            dgh[:, H:2 * H] = dz * z * (1.0 - z)
            dgh[:, 2 * H:] = dan * r
            dgx[:, t, :H] = dgh[:, :H]
            dgx[:, t, H:2 * H] = dgh[:, H:2 * H]
            dgx[:, t, 2 * H:] = dan
            dWh += hprev.T @ dgh
            dbh += dgh.sum(axis=0)
            dh = dhprev + dgh @ Wh.T
        dgx2 = dgx.reshape(-1, 3 * H)
        self.grads["Wx"] += self._x2.T @ dgx2
        self.grads["bx"] += dgx2.sum(axis=0)
        return (dgx2 @ self.params["Wx"].T).reshape(B, T, D)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class BiGru(Module):
    """Bidirectional GRU; outputs of both directions are concatenated."""

    def __init__(self, in_dim: int, hidden: int, rng, dtype=np.float32):
        super().__init__()
        self.hidden = hidden
        self.fwd = self.register_child("fwd", Gru(in_dim, hidden, rng, reverse=False, dtype=dtype))
        self.bwd = self.register_child("bwd", Gru(in_dim, hidden, rng, reverse=True, dtype=dtype))

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.concatenate([self.fwd.forward(x), self.bwd.forward(x)], axis=-1)

    def project(self, x: np.ndarray) -> np.ndarray:
        """(..., D) -> (..., 6H): both directions' input projections."""
        return np.concatenate([self.fwd.project(x), self.bwd.project(x)], axis=-1)

    def recur(self, g: np.ndarray) -> np.ndarray:
        """(B, T, 6H) projections -> (B, T, 2H), as forward gives from the input."""
        h3 = 3 * self.hidden
        return np.concatenate([self.fwd.recur(g[..., :h3]), self.bwd.recur(g[..., h3:])], axis=-1)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        H = self.hidden
        return self.fwd.backward(dy[..., :H]) + self.bwd.backward(dy[..., H:])


class ConvUnit(Module):
    """conv -> channel whitening -> ELU.

    In eval mode NetDeconv is the affine map (y - mu) W_h at every
    location, so forward folds it into the conv, as batch norm is folded:
    W'[tap] = W[tap] W_h and b' = (b - mu) W_h, formed in float64 on every
    call.  Nothing is cached, so train(), load_state_dict and in-place
    weight edits need no invalidation.  The norm's own pass is skipped;
    its whitening matrix is still set, so backward stays exact.
    """

    def __init__(self, in_ch: int, out_ch: int, dilation: int, rng, dtype=np.float32):
        super().__init__()
        self.conv = self.register_child("conv", Conv2d(in_ch, out_ch, dilation, rng, dtype))
        self.norm = self.register_child("norm", NetDeconv(out_ch, dtype=dtype))
        self.act = self.register_child("act", Elu())

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.training:
            return self.act.forward(self.norm.forward(self.conv.forward(x)))
        return self.act.forward(self._folded(self.conv.forward, x))

    def forward_edges(self, x: np.ndarray, left: bool) -> np.ndarray:
        """The eval-mode unit on E segment edges at once, time-major (see
        `Conv2d.forward_edges`)."""
        return self.act.forward(self._folded(self.conv.forward_edges, x, left))

    def _folded(self, conv_pass, *args):
        """conv_pass(*args), a pass of the conv, with NetDeconv's eval map
        folded into the conv's weights."""
        conv, norm = self.conv, self.norm
        wh = _inv_sqrt_psd(norm.buffers["running_cov"])
        norm._whiten = wh.astype(norm.dtype)
        W = conv.params["W"].astype(np.float64) @ wh
        b = (conv.params["b"].astype(np.float64) - norm.buffers["running_mean"]) @ wh
        conv.folded = (W.astype(conv.dtype), b.astype(conv.dtype))
        try:
            return conv_pass(*args)
        finally:
            conv.folded = None

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return self.conv.backward(self.norm.backward(self.act.backward(dy)))


class DenseBlock(Module):
    """Densely connected dilated conv units; layer l sees the block input
    plus all previous layer outputs and uses dilation 2**l.

    forward returns a reused workspace: consume or copy it before the next
    call on the same instance.
    """

    def __init__(self, in_ch: int, growth: int, n_layers: int, rng, dtype=np.float32):
        super().__init__()
        self.in_ch = in_ch
        self.growth = growth
        self.n_layers = n_layers
        self.dtype = dtype
        self.units = tuple(
            self.register_child(
                f"layer{layer}", ConvUnit(in_ch + layer * growth, growth, 2 ** layer, rng, dtype)
            )
            for layer in range(n_layers)
        )

    @property
    def out_ch(self) -> int:
        return self.in_ch + self.n_layers * self.growth

    def forward(self, x: np.ndarray) -> np.ndarray:
        B, T, F, C = x.shape
        out = self._ws("cat", (B, T, F, self.out_ch), self.dtype)
        out[..., :C] = x
        for layer, unit in enumerate(self.units):
            lo = self.in_ch + layer * self.growth
            out[..., lo:lo + self.growth] = unit.forward(out[..., :lo])
        return out

    def backward(self, dy: np.ndarray) -> np.ndarray:
        grad = np.array(dy, copy=True)
        for layer in range(self.n_layers - 1, -1, -1):
            lo = self.in_ch + layer * self.growth
            dx = self.units[layer].backward(grad[..., lo:lo + self.growth])
            grad[..., :lo] += dx
        return grad[..., :self.in_ch].copy()
