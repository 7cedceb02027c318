"""Dense-tensor math with reverse-mode differentiation.

A deliberately small define-by-run engine: every forward op allocates a
new `Tensor` node holding the float64 result and a closure that routes
the incoming gradient to its parents; inside `no_grad()` an op keeps
only the result, so inference builds no graph.  The op catalogue is
fixed to what the collaborative-perception network needs (matmul,
1x1 / strided 3x3 convolution, sigmoid, relu, softmax, add, scale,
concat, reshape, pooling, nearest upsampling, cross-entropy).  All backward passes are
validated against central finite differences (see `grad_check`).

Compute is float64 throughout.  float32 appears at the wire and file-format
boundary and in the samples held in memory.  A float32 input image is held
as it is by a tensor that takes no gradient, and `conv2d`, the one op that
reads it, widens it exactly in the patch copy it makes anyway (`_im2col`);
every other tensor, a loaded checkpoint's included, is float64.
"""

from __future__ import annotations

import functools
import math
import threading
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, InputError, ShapeError

__all__ = [
    "Tensor",
    "no_grad",
    "add",
    "mul",
    "affine",
    "scale_by",
    "sum_all",
    "mean_over",
    "matmul",
    "transpose2d",
    "reshape",
    "concat",
    "take1d",
    "relu",
    "sigmoid",
    "softmax",
    "conv1x1",
    "conv2d",
    "upsample_nearest",
    "cross_entropy",
    "backward",
    "grad_check",
]


class _GradMode(threading.local):
    enabled = True


# per thread, so that one thread's inference never switches off another's training
_grad_mode = _GradMode()


@contextmanager
def no_grad():
    """Ops on this thread build no graph inside the block (also usable as
    a decorator); the previous mode is restored on exit, even on error."""
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


class Tensor:
    """A float64 array (or a float32 input image) plus its place in the computation graph.

    The constructor builds leaf tensors (parameters, inputs), which have
    no parents; ops build interior nodes with `_node`.  Interior nodes
    carry a `_backward` closure that adds d(loss)/d(parent) into each
    parent's `.grad` given d(loss)/d(self).  A tensor built with
    `requires_grad=False` (an input image) keeps `.grad` None, and keeps
    a float32 array as it is: the image's file precision, widened by
    `conv2d`'s patch copy.  An op result built under `no_grad()` has no
    parents or closure and does not require a gradient.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=True):
        if requires_grad or not (isinstance(data, np.ndarray) and data.dtype == np.float32):
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def accumulate(self, g: np.ndarray, fresh: bool = False) -> None:
        """Add `g` into `.grad`.  `fresh` says the op allocated `g` for this
        call and hands it to this tensor alone, so a C-ordered float64 `g`
        becomes `.grad` without a copy."""
        if not self.requires_grad:
            return
        if g.shape != self.data.shape:
            raise ShapeError(f"gradient of shape {g.shape} for a tensor of shape {self.shape}")
        if self.grad is None:
            if fresh and isinstance(g, np.ndarray) and g.flags.c_contiguous and g.dtype == np.float64:
                self.grad = g
            else:
                # an owned copy of `g` (which may be a view, transpose or broadcast),
                # C-ordered so that later products of the gradient take the same BLAS path
                self.grad = np.array(g, dtype=np.float64, order="C")
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={list(self.shape)})"


def _node(data, parents: tuple, bw) -> Tensor:
    """An op's result, with `parents` and backward closure `bw`.

    Op arithmetic on float64 operands already yields a float64 array, or a
    numpy scalar when the operands are 0-d; only the scalar is wrapped back
    into a 0-d array.  Under `no_grad()` the node keeps no parents or closure.
    """
    t = Tensor.__new__(Tensor)
    t.data = data if type(data) is np.ndarray else np.asarray(data, dtype=np.float64)
    t.grad = None
    if _grad_mode.enabled:
        t.requires_grad, t._parents, t._backward = True, parents, bw
    else:
        t.requires_grad, t._parents, t._backward = False, (), None
    return t


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# elementwise and structural ops


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data
    if ad.shape != bd.shape:
        raise ShapeError(f"add: shapes {ad.shape} vs {bd.shape}")

    def bw(g):
        a.accumulate(g)
        b.accumulate(g)

    return _node(ad + bd, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data
    if ad.shape != bd.shape:
        raise ShapeError(f"mul: shapes {ad.shape} vs {bd.shape}")

    def bw(g):
        a.accumulate(g * bd, fresh=True)
        b.accumulate(g * ad, fresh=True)

    return _node(ad * bd, (a, b), bw)


def affine(x: Tensor, scale: float, shift: float) -> Tensor:
    """scale * x + shift with constant coefficients."""

    def bw(g):
        x.accumulate(scale * g, fresh=True)

    return _node(scale * x.data + shift, (x,), bw)


def scale_by(x: Tensor, s: Tensor) -> Tensor:
    """Multiply a tensor by a scalar tensor (the scalar stays in the graph)."""
    if s.size != 1:
        raise ShapeError(f"scale_by: scale has shape {s.shape}, expected scalar")
    sv = float(s.data.reshape(()))

    def bw(g):
        x.accumulate(g * sv, fresh=True)
        s.accumulate(np.sum(g * x.data).reshape(s.shape), fresh=True)

    return _node(x.data * sv, (x, s), bw)


def sum_all(x: Tensor) -> Tensor:
    def bw(g):
        x.accumulate(np.full_like(x.data, float(g)), fresh=True)

    return _node(x.data.sum(), (x,), bw)


def mean_over(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    """Mean over the given axes (used for global average pooling)."""
    xd = x.data
    axes = tuple(sorted([ax % xd.ndim for ax in axes]))
    count = 1
    for ax in axes:
        count *= xd.shape[ax]

    def bw(g):
        x.accumulate(np.broadcast_to(np.expand_dims(g, axes), xd.shape) / count, fresh=True)

    # np.mean's arithmetic for float64, without its Python wrapper
    return _node(np.add.reduce(xd, axis=axes) / count, (x,), bw)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(map(int, shape))
    xd = x.data
    if math.prod(shape) != xd.size:
        raise ShapeError(f"reshape: {xd.shape} -> {shape}")

    def bw(g):
        x.accumulate(g.reshape(xd.shape))

    return _node(xd.reshape(shape), (x,), bw)


def concat(parts: list[Tensor], axis: int) -> Tensor:
    if not parts:
        raise ShapeError("concat: empty input list")

    def bw(g):
        lo = 0
        for p in parts:
            hi = lo + p.shape[axis]
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            p.accumulate(g[tuple(idx)])
            lo = hi

    return _node(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), bw)


def take1d(x: Tensor, i: int) -> Tensor:
    """Scalar view of element i of a 1-D tensor (stays in the graph)."""
    if x.data.ndim != 1:
        raise ShapeError(f"take1d: got shape {x.shape}")

    def bw(g):
        full = np.zeros_like(x.data)
        full[i] = float(g)
        x.accumulate(full)

    return _node(x.data[i].reshape(()), (x,), bw)


def transpose2d(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"transpose2d: got shape {x.shape}")

    def bw(g):
        x.accumulate(g.T)

    return _node(x.data.T, (x,), bw)


# ---------------------------------------------------------------------------
# nonlinearities


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def bw(g):
        x.accumulate(g * mask, fresh=True)

    return _node(np.where(mask, x.data, 0.0), (x,), bw)


def sigmoid(x: Tensor) -> Tensor:
    # 1 / (1 + e) for x >= 0 and e / (1 + e) below, with e = exp(-|x|),
    # which never overflows; a NaN reaches exp unchanged, keeping its sign
    xd = x.data
    pos = xd >= 0
    e = np.exp(np.where(pos, -xd, xd))
    s = np.where(pos, 1.0, e) / (1.0 + e)

    def bw(g):
        x.accumulate(g * s * (1.0 - s), fresh=True)

    return _node(s, (x,), bw)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    xd = x.data
    if xd.ndim == 0:
        raise ShapeError("softmax: scalar input")
    ax = axis % xd.ndim
    e = np.exp(xd - xd.max(axis=ax, keepdims=True))
    p = e / e.sum(axis=ax, keepdims=True)

    def bw(g):
        inner = (g * p).sum(axis=ax, keepdims=True)
        x.accumulate(p * (g - inner), fresh=True)

    return _node(p, (x,), bw)


# ---------------------------------------------------------------------------
# linear maps


def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2:
        raise ShapeError(f"matmul: need 2-D operands, got {ad.shape} and {bd.shape}")
    if ad.shape[1] != bd.shape[0]:
        raise ShapeError(f"matmul: inner dims disagree, {ad.shape} x {bd.shape}")

    def bw(g):
        a.accumulate(g @ bd.T, fresh=True)
        b.accumulate(ad.T @ g, fresh=True)

    return _node(ad @ bd, (a, b), bw)


def _bias_grad(gf: np.ndarray) -> np.ndarray:
    """Column sums of a (rows, cout) gradient, as `gf.sum(axis=0)` computes them.

    On a C-ordered matrix numpy adds whole rows in order, as einsum does
    without numpy's per-row loop.  A single column or another layout is
    summed pairwise by numpy, so those keep the plain sum.
    """
    if gf.flags.c_contiguous and gf.shape[1] >= 2:
        return np.einsum("ij->j", gf)
    return gf.sum(axis=0)


def conv1x1(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Per-pixel linear map on an H x W x C grid: equivalent to a matmul
    on the flattened HW x C matrix."""
    xd, wt, bd = x.data, w.data, b.data
    if xd.ndim != 3 or wt.ndim != 2:
        raise ShapeError(f"conv1x1: got x {xd.shape}, w {wt.shape}")
    h, wd, c = xd.shape
    cin, cout = wt.shape
    if c != cin or bd.shape != (cout,):
        raise ShapeError(f"conv1x1: x {xd.shape}, w {wt.shape}, b {bd.shape}")
    xf = xd.reshape(h * wd, c)

    def bw(g):
        gf = g.reshape(h * wd, cout)
        x.accumulate((gf @ wt.T).reshape(xd.shape), fresh=True)
        w.accumulate(xf.T @ gf, fresh=True)
        b.accumulate(_bias_grad(gf), fresh=True)

    return _node((xf @ wt + bd).reshape(h, wd, cout), (x, w, b), bw)


def _padded_taps(shape, dtype, kh: int, kw: int, stride: int, pad: int):
    """A zero-bordered padded buffer for inputs of `shape`, its strided tap
    view, and whether reshaping that view into the patch matrix is a view
    too (a 1x1 stride-1 kernel, or one window) that must then be copied."""
    h, w, c = shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    xp = np.zeros((h + 2 * pad, w + 2 * pad, c), dtype=dtype)
    s0, s1, s2 = xp.strides
    taps = np.lib.stride_tricks.as_strided(
        xp, (ho, wo, kh, kw, c), (stride * s0, stride * s1, s0, s1, s2), writeable=False
    )
    inner = xp[pad : pad + h, pad : pad + w]
    aliased = np.shares_memory(taps.reshape(ho * wo, kh * kw * c), xp)
    return inner, taps, ho, wo, aliased


class _PadBuffers(threading.local):
    """Per thread, so that two threads' convolutions never share a buffer;
    bounded like `rff._coord_grid`'s cache."""

    def __init__(self):
        self.get = functools.lru_cache(maxsize=8)(_padded_taps)


_pad_buffers = _PadBuffers()
_FLOAT64 = np.dtype(np.float64)  # the padded buffers' dtype, whatever the input's


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int):
    """Patch matrix (ho*wo) x (kh*kw*c): the input is copied into the
    interior of this thread's float64 padded buffer for its shape, whose
    border stays zero (a float32 image is widened by this copy), and one
    strided view over the buffer is copied out by a single reshape.  The
    result never shares memory with the buffer."""
    inner, taps, ho, wo, aliased = _pad_buffers.get(x.shape, _FLOAT64, kh, kw, stride, pad)
    inner[...] = x
    cols = taps.reshape(ho * wo, kh * kw * x.shape[2])
    return (cols.copy() if aliased else cols), ho, wo


def _col2im(dcols: np.ndarray, shape, kh: int, kw: int, stride: int, pad: int, ho: int, wo: int):
    """Scatter-add of d(cols) back onto an input of `shape`.

    Each padded input position sums its taps in (i, j) order, as a slice
    loop over the taps does, but every add is one contiguous block: tap
    (i, j) lands in stride-phase plane (i % stride, j % stride) at a fixed
    flat offset, given taps-major copies laid out on the plane's own grid.
    The zeros of that grid fall on other positions or the slack, and adding
    zero changes no sum that starts from zero.
    """
    h, w, c = shape
    s, taps = stride, kh * kw
    hq, wq = -(-(h + 2 * pad) // s), -(-(w + 2 * pad) // s)
    tapped = np.zeros((taps, hq, wq, c))
    tapped[:, :ho, :wo] = dcols.reshape(ho, wo, taps, c).transpose(2, 0, 1, 3)
    n = hq * wq * c
    planes = np.zeros((s, s, n + ((kh - 1) // s * wq + (kw - 1) // s) * c))
    for t in range(taps):
        i, j = divmod(t, kw)
        at = (i // s * wq + j // s) * c
        planes[i % s, j % s, at : at + n] += tapped[t].reshape(n)
    dxp = planes[:, :, :n].reshape(s, s, hq, wq, c).transpose(2, 0, 3, 1, 4).reshape(s * hq, s * wq, c)
    return dxp[pad : pad + h, pad : pad + w].copy()


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """2-D convolution on H x W x Cin with a kh x kw x Cin x Cout kernel."""
    xd, wt, bd = x.data, w.data, b.data
    if xd.ndim != 3 or wt.ndim != 4:
        raise ShapeError(f"conv2d: got x {xd.shape}, w {wt.shape}")
    kh, kw, cin, cout = wt.shape
    if xd.shape[2] != cin or bd.shape != (cout,):
        raise ShapeError(f"conv2d: x {xd.shape}, w {wt.shape}, b {bd.shape}")
    cols, ho, wo = _im2col(xd, kh, kw, stride, pad)
    wf = wt.reshape(kh * kw * cin, cout)

    def bw(g):
        gf = g.reshape(ho * wo, cout)
        w.accumulate((cols.T @ gf).reshape(wt.shape), fresh=True)
        b.accumulate(_bias_grad(gf), fresh=True)
        if x.requires_grad:
            x.accumulate(_col2im(gf @ wf.T, xd.shape, kh, kw, stride, pad, ho, wo), fresh=True)

    return _node((cols @ wf + bd).reshape(ho, wo, cout), (x, w, b), bw)


def upsample_nearest(x: Tensor, factor: int) -> Tensor:
    """Replicate each pixel of an H x W x C grid into a factor x factor block."""
    if x.data.ndim != 3:
        raise ShapeError(f"upsample_nearest: got shape {x.shape}")
    h, w, c = x.shape

    def bw(g):
        blocks = g.reshape(h, factor, w, factor, c)
        if c > 1:
            # numpy's sum over axes (1, 3) adds each channel vector's factor**2
            # offsets in (i, j) order; a blocks-major copy summed along axis 0
            # adds them in the same order, without the per-row loop.  With one
            # channel numpy reduces j innermost, so that case keeps its formula.
            blocks = blocks.transpose(1, 3, 0, 2, 4).reshape(factor * factor, h, w, c)
            x.accumulate(blocks.sum(axis=0), fresh=True)
        else:
            x.accumulate(blocks.sum(axis=(1, 3)), fresh=True)

    return _node(np.repeat(np.repeat(x.data, factor, axis=0), factor, axis=1), (x,), bw)


def cross_entropy(logits: Tensor, target: np.ndarray) -> Tensor:
    """Mean over pixels of -log softmax(logits)[target class].

    `logits` is H x W x K; `target` an integer H x W class mask.
    """
    if logits.data.ndim != 3:
        raise ShapeError(f"cross_entropy: logits shape {logits.shape}")
    h, w, k = logits.shape
    target = np.asarray(target)
    if target.shape != (h, w):
        raise ShapeError(f"cross_entropy: target shape {target.shape} vs logits {logits.shape}")
    if not np.issubdtype(target.dtype, np.integer):
        raise InputError(f"cross_entropy: class ids must be integers, got dtype {target.dtype}")
    if target.min() < 0 or target.max() >= k:
        raise InputError(f"cross_entropy: class ids outside [0, {k})")
    # on the flat (HW, K) matrix the class max and class sum run over class
    # columns, exact and far cheaper than numpy's loop along a short row
    flat = logits.data.reshape(h * w, k)
    top = flat[:, 0].copy()
    for c in range(1, k):
        np.maximum(top, flat[:, c], out=top)
    z = flat - top[:, None]
    e = np.exp(z)
    if k < 8:
        # numpy sums fewer than 8 terms left to right: the same bits as np.sum
        total = e[:, 0].copy()
        for c in range(1, k):
            total += e[:, c]
    else:
        total = np.sum(e, axis=1)
    lse = np.log(total)
    at = np.arange(h * w) * k + target.reshape(-1)
    picked = z.reshape(-1)[at]

    def bw(g):
        d = z - lse[:, None]
        np.exp(d, out=d)
        d.reshape(-1)[at] -= 1.0   # p - onehot
        d *= float(g)
        d /= h * w
        logits.accumulate(d.reshape(h, w, k), fresh=True)

    # np.mean's arithmetic for float64, without its Python wrapper
    return _node(np.add.reduce(lse - picked) / (h * w), (logits,), bw)


# ---------------------------------------------------------------------------
# reverse pass and verification


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack = [(root, iter(root._parents))]
    seen.add(id(root))
    while stack:
        node, it = stack[-1]
        advanced = False
        for parent in it:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append((parent, iter(parent._parents)))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    return order


def backward(loss: Tensor) -> None:
    """Reverse-topological gradient accumulation from a scalar loss.

    Calling backward twice on the same loss node, or on a loss that does
    not require a gradient (one built under `no_grad()`), raises
    ContractError; rebuild the graph per forward pass instead.
    """
    if loss.size != 1:
        raise ContractError(f"backward: loss has shape {loss.shape}, expected scalar")
    if not loss.requires_grad:
        raise ContractError("backward: the loss does not require a gradient (built under no_grad?)")
    if getattr(loss, "grad", None) is not None:
        raise ContractError("backward: called twice on the same loss node")
    order = _toposort(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def grad_check(f, params: list[Tensor], eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f` maps the parameter list to a scalar Tensor and must rebuild the
    graph on every call.  Relative error per coordinate is
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """
    if eps <= 0:
        raise InputError("grad_check: eps must be positive")
    for p in params:
        p.grad = None
    loss = f(params)
    backward(loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            hi = f(params).item()
            flat[idx] = orig - eps
            lo = f(params).item()
            flat[idx] = orig
            numeric = (hi - lo) / (2.0 * eps)
            an = a.reshape(-1)[idx]
            rel = abs(an - numeric) / max(abs(an), abs(numeric), 1e-8)
            worst = max(worst, rel)
    return worst
