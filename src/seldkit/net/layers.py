"""Numpy layers with hand-written forward/backward passes.

Layer interfaces take (batch, time, freq, channels) arrays.  A dense
block stores its concatenation channel-major on one zero-bordered grid,
(channels, batch, time + 2P, freq + 2P) with P its largest dilation: every
channel is one contiguous run of grid rows, so a conv reads the block's
channel prefix in place as one (channels, rows) GEMM operand, its taps are
contiguous shifts along the rows, and its output lands in its own channel
slice with no pad, concatenation or transpose copy.  The (B, T, F, C)
arrays the layers hand on are views of the grid's valid region.  Backward
runs on a gradient grid of the same shape: each conv unit works in place
on its own channel slice and adds its input gradient onto the channel
prefix it read, and the pool after a block writes the block's gradient
into its valid region.  The pointwise layers and the norms go through
their rows in pieces, so their temporaries are piece-sized.  Every layer
caches what its backward pass needs, unless put in eval mode with
`backward` False; workspaces are reused across iterations to avoid
repeated large allocations.  Units run one at a time, so inside a conv
trunk the convs and norms keep the workspaces that live only during their
own pass in one shared `scratch` module, sized for the largest unit.
"""

from __future__ import annotations

import contextlib

import numpy as np
from scipy.linalg import get_blas_funcs

WHITEN_EPS = 1e-5          # added to the channel covariance's diagonal before whitening
_RUNNING_MOMENTUM = 0.1    # weight of each training batch in NetDeconv's running statistics
STACK_ROWS = 4096          # output rows per stacked-tap GEMM, which bounds the shared product scratch
# OpenBLAS runs a GEMM with M·N·K at most this on a small-matrix kernel,
# which can round sums of 32 or more terms differently from its large one
_SMALL_GEMM = 1e6


def _least_rows(per_row: int) -> int:
    """The fewest rows that keep a GEMM on OpenBLAS's large kernel, when
    its other two sizes multiply to `per_row`."""
    return int(_SMALL_GEMM // per_row) + 1


def _gemm_acc(out2d: np.ndarray, a2d: np.ndarray, b2d: np.ndarray) -> np.ndarray:
    """out += a @ b without temporaries.

    Runs BLAS on the transposed problem out.T = b.T @ a.T; the transposes of
    C-contiguous arrays are Fortran-contiguous, so no copies are made and the
    accumulation happens inside the GEMM call.
    """
    gemm = get_blas_funcs("gemm", (out2d,))
    res = gemm(1.0, b2d.T, a2d.T, 1.0, out2d.T, overwrite_c=1)
    return res.T


def _gemm(out2d: np.ndarray, a2d: np.ndarray, b2d: np.ndarray) -> np.ndarray:
    """out = a @ b; numpy hands BLAS a row slice of a wider array (its
    leading dimension) without copying it."""
    return np.matmul(a2d, b2d, out=out2d)


def _stacked_conv(x2, y2, W, b, offs, lo: int, hi: int, scratch) -> None:
    """y2[:, lo:hi] = b + the sum over taps t, in tap order, of
    W[t].T @ x2[:, lo + offs[t]:hi + offs[t]].

    x2 (C, N) and y2 (Co, N) hold channels as rows of grid positions, and
    offs ascends.  The three taps of each kernel row are one GEMM of their
    stacked (3 Co, C) weights with the rows all three read, and each tap's
    product is a contiguous row slice of that result, added onto y (tap 0
    onto the bias).  Stacking all nine taps would also multiply the rows
    between the first and the last kernel row's reach.  The rows go in
    pieces of about STACK_ROWS, never so few that a GEMM drops to
    OpenBLAS's small-matrix kernel, and a call of fewer rows than that
    multiplies a copy of them followed by zero rows, so the bits of y
    depend neither on where the pieces end nor on how many rows a call
    takes.  `scratch(size)` gives the flat product buffer.
    """
    C, Co = W.shape[1:]
    stacked = np.ascontiguousarray(W.transpose(0, 2, 1)).reshape(3, 3 * Co, C)
    n = hi - lo
    least = _least_rows(3 * Co * C)
    pieces = max(1, min(-(-n // STACK_ROWS), n // least))
    # sized for the longest piece any call can take, so the buffer never grows
    buf = scratch(3 * Co * (max(STACK_ROWS, 2 * least) + offs[2] - offs[0]))
    wide = None  # the rows of a call too short for the large kernel, then zero rows
    for k in range(pieces):
        s, e = lo + n * k // pieces, lo + n * (k + 1) // pieces
        y = y2[:, s:e]
        for i in range(3):
            a, z = s + offs[3 * i], e + offs[3 * i + 2]
            rows = x2[:, a:z]
            if z - a < least:  # every kernel row reads as many rows, so the zeros stay
                wide = np.zeros((C, least), x2.dtype) if wide is None else wide
                wide[:, :z - a] = rows
                rows = wide
            prod = _gemm(buf[:3 * Co * rows.shape[1]].reshape(3 * Co, -1), stacked[i], rows)
            for j in range(3):
                tap = prod[j * Co:(j + 1) * Co, s + offs[3 * i + j] - a:e + offs[3 * i + j] - a]
                if i or j:
                    y += tap
                else:
                    np.add(tap, b[:, None], out=y)


def _pieces(shape):
    """Index tuples that cut an array of `shape` (..., F, C) in order into
    runs of whole (F, C) lines along axis -3, each about STACK_ROWS rows of
    C and at least one line; arrays of fewer than three axes are one piece."""
    if len(shape) < 3:
        yield ()
        return
    step = max(1, STACK_ROWS // max(1, shape[-2]))
    for lead in np.ndindex(*shape[:-3]):
        for s in range(0, shape[-3], step):
            yield lead + (slice(s, s + step),)


def _zero_ring(a: np.ndarray, p: int) -> None:
    """Zero the p-wide border of axes 2 and 3 of a."""
    for ax in (2, 3):
        lead = (slice(None),) * ax
        a[lead + (slice(None, p),)] = 0
        a[lead + (slice(a.shape[ax] - p, None),)] = 0


def _valid(grid: np.ndarray, p: int) -> np.ndarray:
    """(B, T, F, C) view of the valid region of a channel-major grid
    (C, B, T + 2p, F + 2p)."""
    return grid[:, :, p:grid.shape[2] - p, p:grid.shape[3] - p].transpose(1, 2, 3, 0)


def _edge_columns(grid: np.ndarray, p: int, E: int, F: int) -> np.ndarray:
    """(C, R, E, F) view of the edges of an edge grid (C, R, E (F + p) + p),
    whose rows hold E edges side by side, F columns each, with p zero
    columns before the first and after every edge."""
    return grid[:, :, p:].reshape(grid.shape[0], grid.shape[1], E, F + p)[..., :F]


def _put(dst: np.ndarray, src: np.ndarray) -> None:
    """dst[...] = src, unless src already is that view of the same memory."""
    if src.shape != dst.shape or src.strides != dst.strides or src.ctypes.data != dst.ctypes.data:
        dst[...] = src


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
        self._border_shapes: dict = {}

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

    def _bordered(self, name: str, shape, p: int, dtype) -> np.ndarray:
        """`_ws(name, shape, dtype)` with a zero p-wide border on axes 2
        and 3: zeroed whenever the shape or p changes, so whoever writes
        into the border must zero it again."""
        buf = self._ws(name, shape, dtype)
        if self._border_shapes.get(name) != (shape, p):
            _zero_ring(buf, p)
            self._border_shapes[name] = (shape, p)
        return buf

    # subclasses implement forward(x) and backward(dy)


class Conv2d(Module):
    """3x3 same-padded convolution over (B, T, F, C), optional dilation.

    forward/backward return views of the grids they run on.
    `needs_input_grad` False skips the input-gradient half of backward
    (for the first layer), which then takes no input gradient grid.

    The forward pass runs on a channel-major zero-bordered grid
    (C, B, T + 2P, F + 2P), P >= d, flattened per channel to rows: tap
    (i, j) of every output row reads the input row a fixed offset away, so
    the three taps of a kernel row are one GEMM of their stacked
    (3 Cout, C) weights with the input's rows, and each tap's product is a
    contiguous row slice of it, added onto the bias in tap order
    (`_stacked_conv`).  Every pass runs inside `on_grid`, on grids its
    caller builds (`DenseBlock`, `ConvTrunk`): forward reads its C input
    channels as the prefix of grid `src` in place (x is their valid
    region) and writes its output into grid `dst`, whose border it zeroes.
    While `folded` holds (W, b), forward uses them in place of the
    parameters (see `ConvUnit`).  Backward runs on gradient grids of the
    same shape and border: dy goes into the valid region of `dst`, whose
    border is zero, and dx is added onto the channel prefix of `src`, whose
    border it zeroes again.  The rows go in pieces of STACK_ROWS,
    each copied channels-last once with the rows its taps read.  gW adds
    each tap's GEMM of a row slice of the forward's input grid with the
    piece; dx, the convolution of dy with the flipped kernel, adds one GEMM
    per tap onto a zeroed piece (`_gemm_acc`), which keeps the rows on the
    axis whose edges OpenBLAS rounds like the rest (stacked (3 C, rows)
    products put them on the other, where float64 rounds a call's last
    rows apart).  The bias gradient sums each piece after the running sum,
    so the rows add in order, as numpy sums a contiguous (rows, Co) copy of
    dy for Co > 1; the border's zeros change no sum, except that a channel
    of only -0.0 sums to +0.0.  `scratch`, when set, is the module whose
    workspace holds the stacked products and backward's pieces, so convs
    that run one at a time share it.
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
        self.grid = None
        self.scratch = None

    @contextlib.contextmanager
    def on_grid(self, src: np.ndarray, dst: np.ndarray):
        """Within the `with` block, forward and forward_edges read grid
        `src` and write grid `dst`, and backward takes dy from grid `dst`
        and adds dx onto grid `src`."""
        self.grid = (src, dst)
        try:
            yield
        finally:
            self.grid = None

    def _products(self, size: int) -> np.ndarray:
        """The buffer of the stacked products and of backward's pieces:
        `size` elements of the shared scratch."""
        return (self.scratch or self)._ws("products", (size,), self.dtype)

    def _rows(self, n_rows: int, F: int, p: int):
        """Rows [lo, hi) of a flattened grid of n_rows rows and border p,
        which span every valid output and keep each tap inside the grid,
        and each tap's row offset on it, in tap order."""
        d = self.dilation
        Fp = F + 2 * p
        lo = p * Fp + p
        return lo, n_rows - lo, [d * ((i - 1) * Fp + j - 1) for i in range(3) for j in range(3)]

    def forward(self, x: np.ndarray) -> np.ndarray:
        B, T, F, C = x.shape
        if C != self.in_ch:
            raise ValueError(f"expected {self.in_ch} channels, got {C}")
        W, b = self.folded or (self.params["W"], self.params["b"])
        src, dst = self.grid
        p = (src.shape[2] - T) // 2
        x2, y2 = src.reshape(len(src), -1)[:C], dst.reshape(self.out_ch, -1)
        lo, hi, offs = self._rows(x2.shape[1], F, p)
        _stacked_conv(x2, y2, W, b, offs, lo, hi, self._products)
        _zero_ring(dst, p)
        self._src = src if self.for_backward else None
        self._shape = (B, T, F, p)
        return _valid(dst, p)

    def forward_edges(self, x: np.ndarray, left: bool) -> np.ndarray:
        """(r + d, E, F, C) -> (r, E, F, out_ch), time-major: out of the
        r + d input rows flush against each of E segment edges, the r
        output rows nearest the edge, as `forward` gives them for the
        segment, whose zero padding lies beyond the edge (above a left
        edge, below a right one).

        The E edges lie side by side on one channel-major edge grid
        (C, R, E (F + p) + p), p >= d: each is F columns wide, with p zero
        columns before the first and after every edge, so the padding
        columns are shared by neighbours, and p zero rows on the segment's
        outer side.  `_stacked_conv` runs over the r output rows of that
        grid only, and the zero columns of those rows are zeroed again.
        `grid` holds (src, dst), edge grids of the same rows and columns
        (`ConvTrunk.edge_rows`): x is the edge rows of `src`, and the
        output lands in `dst`.  No backward follows this pass.
        """
        n, E, F, C = x.shape
        if C != self.in_ch:
            raise ValueError(f"expected {self.in_ch} channels, got {C}")
        W, b = self.folded or (self.params["W"], self.params["b"])
        d = self.dilation
        r = n - d
        src, dst = self.grid
        R, width = src.shape[1:]
        p = (width - E * F) // (E + 1)
        first = p if left else R - p - r  # the output's first row
        offs = [d * ((i - 1) * width + j - 1) for i in range(3) for j in range(3)]
        _stacked_conv(src.reshape(len(src), -1)[:C], dst.reshape(self.out_ch, -1), W, b, offs,
                      first * width + p, (first + r) * width - p, self._products)
        rows = dst[:, first:first + r]
        rows[:, :, :E * (F + p)].reshape(self.out_ch, r, E, F + p)[..., :p] = 0
        rows[:, :, E * (F + p):] = 0
        return _edge_columns(rows, p, E, F).transpose(1, 2, 3, 0)

    def backward(self, dy: np.ndarray):
        B, T, F, p = self._shape
        C, Co = self.in_ch, self.out_ch
        src, dst = self.grid
        _put(_valid(dst, p), dy)
        x2, g2 = self._src.reshape(len(self._src), -1)[:C], dst.reshape(Co, -1)
        lo, hi, offs = self._rows(g2.shape[1], F, p)
        dx2 = src[:C].reshape(C, -1) if self.needs_input_grad else None
        flipped = np.ascontiguousarray(self.params["W"][::-1].transpose(0, 2, 1))  # W[8 - t].T
        gW, reach, total = self.grads["W"], offs[8], None
        buf = self._products((STACK_ROWS + 2 * reach) * Co + STACK_ROWS * C)
        for s in range(lo, hi, STACK_ROWS):
            e = min(s + STACK_ROWS, hi)
            # the piece's rows of dy, and every row its taps read, channels-last
            g = buf[:(e - s + 2 * reach) * Co].reshape(-1, Co)
            g[...] = g2[:, s - reach:e + reach].T
            piece = g[reach:reach + e - s]
            for idx, off in enumerate(offs):
                gW[idx] += x2[:, s + off:e + off] @ piece
            if dx2 is not None:
                # dy convolved with the flipped kernel: tap t reads dy
                # offs[t] rows away with W[8 - t], as offs[8 - t] = -offs[t]
                acc = buf[len(buf) - (e - s) * C:].reshape(e - s, C)
                acc[...] = 0
                for t, off in enumerate(offs):
                    _gemm_acc(acc, g[reach + off:reach + off + e - s], flipped[t])
                dx2[:, s:e] += acc.T
            if total is None:
                total = piece.sum(axis=0)
            else:  # the running sum heads the piece, so the rows add in order
                g[reach - 1] = total
                total = g[reach - 1:reach + e - s].sum(axis=0)
        self.grads["b"] += total
        if dx2 is None:
            return None
        _zero_ring(src[:C], p)
        return _valid(src[:C], p)


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
    used in eval mode.  The centred input is whitened piece by piece
    (`_pieces`) through one piece-sized workspace, in place or into `out`.
    `scratch`, when set, is the module whose workspaces hold the centred
    input and the piece, which live only during one pass: consume the
    output before the next call.
    """

    def __init__(self, channels: int, dtype=np.float32):
        super().__init__()
        self.channels = channels
        self.dtype = dtype
        self.register_buffer("running_mean", np.zeros(channels, dtype=dtype))
        self.register_buffer("running_cov", np.eye(channels, dtype=dtype))
        self.scratch = None

    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The whitened x, written into `out` when given, which may be x
        itself; otherwise a view of the centred-input workspace."""
        shape = x.shape
        c = shape[-1]
        if c != self.channels:
            raise ValueError(f"expected {self.channels} channels, got {c}")
        n = x.size // c
        ws = self.scratch or self
        xc = ws._ws("xc", (n, c), self.dtype)
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
        y = xc.reshape(shape)
        out = y if out is None else out
        for idx in _pieces(shape):
            piece = y[idx]
            rows = piece.reshape(-1, c)
            whitened = np.matmul(rows, self._whiten, out=ws._ws("piece", rows.shape, self.dtype))
            out[idx] = whitened.reshape(piece.shape)
        return out

    def backward(self, dy: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """dy times the whitening matrix (the statistics are constants, and
        the matrix is symmetric), written into `out` when given, which may
        be dy itself: in a conv trunk, (rows, channels), the transpose of a
        channel-major grid slice.  The rows go STACK_ROWS at a time, each
        piece `whiten.T @ piece.T` through one piece-sized workspace."""
        if out is None:
            out = np.array(dy, dtype=self.dtype)
        else:
            _put(out, dy)
        rows = out.reshape(-1, self.channels)
        step = max(STACK_ROWS, 2)  # numpy would hand one row to BLAS as a matrix-vector product
        buf = (self.scratch or self)._ws("piece", (self.channels, step), self.dtype)
        for s in range(0, len(rows), step):
            piece = rows[s:s + step].T
            piece[...] = np.matmul(self._whiten.T, piece, out=buf[:, :piece.shape[1]])
        return out


class Elu(Module):
    """ELU activation; continuously differentiable, so finite-difference
    gradient checks are meaningful everywhere.  forward and backward write
    into `out` when given, which may be their input; both run in pieces
    (`_pieces`), so their temporaries are piece-sized."""

    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        y = np.empty_like(x) if out is None else out
        for idx in _pieces(x.shape):
            em1 = np.minimum(x[idx], 0)
            np.expm1(em1, out=em1)
            piece = y[idx]
            np.maximum(x[idx], 0, out=piece)
            piece += em1
        self._y = y if self.for_backward else None
        return y

    def backward(self, dy: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # d/dx = exp(min(x, 0)) = min(y, 0) + 1: y = expm1(x) where x <= 0,
        # and y > 0 where x > 0
        y = self._y
        if out is None:
            out = np.empty_like(dy, dtype=np.result_type(dy, y))
        for idx in _pieces(dy.shape):
            d = np.minimum(y[idx], 0)
            d += 1
            np.multiply(dy[idx], d, out=out[idx])
        return out


class Tanh(Module):
    def forward(self, x: np.ndarray) -> np.ndarray:
        self._y = np.tanh(x)
        return self._y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy * (1.0 - self._y * self._y)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class Sigmoid(Module):
    def forward(self, x: np.ndarray) -> np.ndarray:
        self._y = _sigmoid(x)
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

    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The pooled x, written into `out` when given."""
        k = self.factor
        if x.shape[2] % k:
            raise ValueError(f"frequency size {x.shape[2]} not divisible by {k}")
        # the k strided views added in order onto 0.0, then divided by k:
        # what reshape(B, T, F // k, k, C).mean(axis=3) computes, bit for bit
        y = np.add(x[:, :, ::k], 0.0, out=out)
        for j in range(1, k):
            y += x[:, :, j::k]
        y /= k
        return y

    def backward(self, dy: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """dy / k repeated k times along frequency, with np.repeat's bits,
        written into `out` when given."""
        B, T, F, C = dy.shape
        k = self.factor
        if out is None:
            out = np.empty((B, T, F * k, C), dy.dtype)
        # splitting the frequency axis in two is a view of any out; one
        # multiply per offset keeps frequency in the inner loop on grids
        parts = out.reshape(B, T, F, k, C)
        for j in range(k):
            np.multiply(dy, 1.0 / k, out=parts[:, :, :, j])
        return out


class Gru(Module):
    """Bidirectional GRU over (B, T, D) -> (B, T, 2H): the forward
    direction's hidden states, then those of the backward direction, which
    reads the frames last to first.

    Both directions step through one time loop with the state (2, B, H),
    axis 0 the direction: at step s the forward direction is at frame s
    and the backward one at frame T - 1 - s, and each step's recurrent
    gates are one stacked product.  Each direction has its own `fwd.*` and
    `bwd.*` tensors, views of the stacked Wx (D, 6H), bx (6H,), Wh
    (2, H, 3H) and bh (2, 3H), and so are their gradients; the gate layout
    along their last axis is [reset, update, candidate], and the
    candidate's recurrent contribution is gated by reset including its
    bias, matching the common two-bias formulation.
    """

    def __init__(self, in_dim: int, hidden: int, rng, dtype=np.float32):
        super().__init__()
        self.in_dim = in_dim
        self.hidden = hidden
        self.dtype = dtype
        H = hidden
        bound_x = np.sqrt(6.0 / (in_dim + 3 * H))
        bound_h = np.sqrt(6.0 / (H + 3 * H))
        self.Wx, self.bx = np.empty((in_dim, 6 * H), dtype), np.zeros(6 * H, dtype)
        self.Wh, self.bh = np.empty((2, H, 3 * H), dtype), np.zeros((2, 3 * H), dtype)
        self.dWh, self.dbh = np.zeros_like(self.Wh), np.zeros_like(self.bh)
        dWx, dbx = np.zeros_like(self.Wx), np.zeros_like(self.bx)
        for i, d in enumerate(("fwd.", "bwd.")):
            gates = slice(3 * H * i, 3 * H * (i + 1))
            self.Wx[:, gates] = rng.uniform(-bound_x, bound_x, (in_dim, 3 * H))
            self.Wh[i] = rng.uniform(-bound_h, bound_h, (H, 3 * H))
            for name, value, grad in (("Wx", self.Wx[:, gates], dWx[:, gates]), ("Wh", self.Wh[i], self.dWh[i]),
                                      ("bx", self.bx[gates], dbx[gates]), ("bh", self.bh[i], self.dbh[i])):
                self.register_param(d + name, value)
                self.grads[d + name] = grad

    def forward(self, x: np.ndarray) -> np.ndarray:
        """The recurrence applied to the projection of x."""
        self._shape = x.shape
        x2 = np.ascontiguousarray(x).reshape(-1, x.shape[-1])
        self._x2 = x2 if self.for_backward else None
        return self.recur(self.project(x2.reshape(x.shape)))

    def project(self, x: np.ndarray) -> np.ndarray:
        """(..., D) -> (..., 6H): x @ Wx + bx of the fwd, then the bwd
        direction, the gates' input half, which depends on each frame
        alone.  Too few frames for OpenBLAS's large kernel are multiplied
        followed by zero frames, so a frame's bits do not depend on how
        many frames share the call."""
        x2 = np.ascontiguousarray(x).reshape(-1, self.in_dim)
        n, least = len(x2), _least_rows(self.Wx.size)
        if n < least:
            x2 = np.concatenate([x2, np.zeros((least - n, self.in_dim), x2.dtype)])
        g = x2 @ self.Wx
        g += self.bx
        return g[:n].reshape(*x.shape[:-1], 6 * self.hidden)

    def recur(self, g: np.ndarray) -> np.ndarray:
        """(B, T, 6H) projections -> (B, T, 2H), as forward gives from the
        input; keeps what backward needs, if anything."""
        B, T = g.shape[:2]
        H = self.hidden
        Wh, bh = self.Wh, self.bh[:, None]
        h = np.zeros((2, B, H), dtype=self.dtype)
        gx = np.empty((2, B, 3 * H), dtype=self.dtype)
        out = np.empty((B, T, 2 * H), dtype=self.dtype)
        cache = self._cache = [None] * T if self.for_backward else None
        if cache is None:
            self._x2 = None  # nor the input of an earlier forward
        for s in range(T):
            t = T - 1 - s
            gx[0] = g[:, s, :3 * H]
            gx[1] = g[:, t, 3 * H:]
            gh = np.matmul(h, Wh) + bh
            r = _sigmoid(gx[..., :H] + gh[..., :H])
            z = _sigmoid(gx[..., H:2 * H] + gh[..., H:2 * H])
            ghn = gh[..., 2 * H:]
            n = np.tanh(gx[..., 2 * H:] + r * ghn)
            if cache is not None:
                cache[s] = (r, z, n, ghn, h)
            h = (1.0 - z) * n + z * h
            out[:, s, :H] = h[0]
            out[:, t, H:] = h[1]
        return out

    def backward(self, dy: np.ndarray) -> np.ndarray:
        """The same loop run in reverse, from the last step to the first."""
        B, T, D = self._shape
        H = self.hidden
        WhT, dWh, dbh = self.Wh.transpose(0, 2, 1), self.dWh, self.dbh
        dgx = np.empty((2, B, T, 3 * H), dtype=self.dtype)
        dh = np.zeros((2, B, H), dtype=self.dtype)
        dgh = np.empty((2, B, 3 * H), dtype=self.dtype)
        for s in range(T - 1, -1, -1):
            t = T - 1 - s
            dh[0] += dy[:, s, :H]
            dh[1] += dy[:, t, H:]
            r, z, n, ghn, hprev = self._cache[s]
            dz = dh * (hprev - n)
            dn = dh * (1.0 - z)
            dhprev = dh * z
            dan = dn * (1.0 - n * n)
            dr = dan * ghn
            dgh[..., :H] = dr * r * (1.0 - r)
            dgh[..., H:2 * H] = dz * z * (1.0 - z)
            dgh[..., 2 * H:] = dan * r
            dgx[0, :, s, :2 * H] = dgh[0, :, :2 * H]
            dgx[0, :, s, 2 * H:] = dan[0]
            dgx[1, :, t, :2 * H] = dgh[1, :, :2 * H]
            dgx[1, :, t, 2 * H:] = dan[1]
            dWh += np.matmul(hprev.transpose(0, 2, 1), dgh)
            dbh += dgh.sum(axis=1)
            dh = dhprev + np.matmul(dgh, WhT)
        dgx2 = dgx.reshape(2, -1, 3 * H)
        for i, d in enumerate(("fwd.", "bwd.")):
            self.grads[d + "Wx"] += self._x2.T @ dgx2[i]
            self.grads[d + "bx"] += dgx2[i].sum(axis=0)
        Wx = self.params["fwd.Wx"], self.params["bwd.Wx"]
        return (dgx2[0] @ Wx[0].T + dgx2[1] @ Wx[1].T).reshape(B, T, D)


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
        """On the conv's grids (`Conv2d.on_grid`): the norm and the ELU
        overwrite the conv's output in grid `dst`."""
        y = self.conv.forward(x) if self.training else self._folded(self.conv.forward, x)
        return self.act.forward(self.norm.forward(y, out=y) if self.training else y, out=y)

    def forward_edges(self, x: np.ndarray, left: bool) -> np.ndarray:
        """The eval-mode unit on E segment edges at once, time-major (see
        `Conv2d.forward_edges`)."""
        y = self._folded(self.conv.forward_edges, x, left)
        return self.act.forward(y, out=y)

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
        """On the gradient grids (`Conv2d.on_grid`), dy goes into the valid
        region of grid `dst`, where the ELU's and then the norm's gradient
        replace it in place before the conv's backward."""
        conv = self.conv
        dst = conv.grid[1]
        g = _valid(dst, conv._shape[3])
        _put(g, dy)
        self.act.backward(g, out=g)
        rows = dst.reshape(len(dst), -1).T
        self.norm.backward(rows, out=rows)
        return conv.backward(g)


class DenseBlock(Module):
    """Densely connected dilated conv units; layer l sees the block input
    plus all previous layer outputs and uses dilation 2**l.

    The concatenation lives channel-major on one zero-bordered grid,
    (out_ch, B, T + 2P, F + 2P) with P = 2**(n_layers - 1), the largest
    dilation (`grid`).  It holds the block input and every layer output:
    layer l's conv reads the channel prefix before it in place and writes
    its own channel slice, and its ELU runs over that slice.  forward
    returns the (B, T, F, out_ch) view of the grid's valid region: consume
    or copy it before the next call on the same instance.  Backward runs
    on a gradient grid of the same shape and border (`grad`): each layer
    works on its own channel slice in place and adds its input gradient
    onto the channel prefix it read, and the view of the block input's
    channels there is returned.
    """

    def __init__(self, in_ch: int, growth: int, n_layers: int, rng, dtype=np.float32):
        super().__init__()
        self.in_ch = in_ch
        self.growth = growth
        self.n_layers = n_layers
        self.pad = 2 ** (n_layers - 1)
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

    def grid(self, B: int, T: int, F: int) -> np.ndarray:
        """The block's zero-bordered concatenation grid for (B, T, F) inputs."""
        p = self.pad
        return self._bordered("grid", (self.out_ch, B, T + 2 * p, F + 2 * p), p, self.dtype)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """x may already be the input's view of `grid`, written there by
        the layer before."""
        B, T, F, C = x.shape
        g, p = self.grid(B, T, F), self.pad
        _put(_valid(g[:C], p), x)
        for unit in self.units:
            lo = unit.conv.in_ch
            dst = g[lo:lo + self.growth]
            with unit.conv.on_grid(g, dst):
                _put(_valid(dst, p), unit.forward(_valid(g[:lo], p)))
        return _valid(g, p)

    def grad(self, B: int, T: int, F: int) -> np.ndarray:
        """The block's zero-bordered gradient grid, shaped like `grid`."""
        p = self.pad
        return self._bordered("grad", (self.out_ch, B, T + 2 * p, F + 2 * p), p, self.dtype)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        """dy may already be the valid region of `grad`, written there by
        the layer after."""
        B, T, F, _ = dy.shape
        g, p = self.grad(B, T, F), self.pad
        _put(_valid(g, p), dy)
        for unit in reversed(self.units):
            lo = unit.conv.in_ch
            dst = g[lo:lo + self.growth]
            with unit.conv.on_grid(g, dst):
                unit.backward(_valid(dst, p))
        return _valid(g[:self.in_ch], p)
