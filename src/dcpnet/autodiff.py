"""Dense-tensor math with reverse-mode differentiation.

A deliberately small define-by-run engine: every forward op allocates a
new `Tensor` node holding the float64 result and a closure that routes
the incoming gradient to its parents; inside `no_grad()` an op keeps
only the result, so inference builds no graph.  The op catalogue is
fixed to what the collaborative-perception network needs (matmul,
1x1 / strided 3x3 convolution, sigmoid, relu, softmax, add, scale,
concat, reshape, pooling, nearest upsampling, cross-entropy).  All backward passes are
validated against central finite differences (see `grad_check`).

Compute is float64 throughout; float32 appears only at the wire /
file-format boundary.
"""

from __future__ import annotations

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
    """A float64 array plus its place in the computation graph.

    Leaf tensors (parameters, inputs) have no parents.  Interior nodes
    carry a `_backward` closure that adds d(loss)/d(parent) into each
    parent's `.grad` given d(loss)/d(self).  A tensor built with
    `requires_grad=False` (an input image) keeps `.grad` None.  An op
    result built under `no_grad()` drops its parents and closure and
    does not require a gradient.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, parents=(), backward_fn=None, requires_grad=True):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        if parents and not _grad_mode.enabled:
            parents, backward_fn, requires_grad = (), None, False
        self.requires_grad = requires_grad
        self._parents = tuple(parents)
        self._backward = backward_fn

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


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# elementwise and structural ops


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} vs {b.shape}")

    def bw(g):
        a.accumulate(g)
        b.accumulate(g)

    return Tensor(a.data + b.data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes {a.shape} vs {b.shape}")

    def bw(g):
        a.accumulate(g * b.data, fresh=True)
        b.accumulate(g * a.data, fresh=True)

    return Tensor(a.data * b.data, (a, b), bw)


def affine(x: Tensor, scale: float, shift: float) -> Tensor:
    """scale * x + shift with constant coefficients."""

    def bw(g):
        x.accumulate(scale * g, fresh=True)

    return Tensor(scale * x.data + shift, (x,), bw)


def scale_by(x: Tensor, s: Tensor) -> Tensor:
    """Multiply a tensor by a scalar tensor (the scalar stays in the graph)."""
    if s.size != 1:
        raise ShapeError(f"scale_by: scale has shape {s.shape}, expected scalar")
    sv = float(s.data.reshape(()))

    def bw(g):
        x.accumulate(g * sv, fresh=True)
        s.accumulate(np.sum(g * x.data).reshape(s.shape), fresh=True)

    return Tensor(x.data * sv, (x, s), bw)


def sum_all(x: Tensor) -> Tensor:
    def bw(g):
        x.accumulate(np.full_like(x.data, float(g)), fresh=True)

    return Tensor(np.sum(x.data).reshape(()), (x,), bw)


def mean_over(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    """Mean over the given axes (used for global average pooling)."""
    axes = tuple(sorted(ax % x.data.ndim for ax in axes))
    count = 1
    for ax in axes:
        count *= x.shape[ax]

    def bw(g):
        x.accumulate(np.broadcast_to(np.expand_dims(g, axes), x.shape) / count, fresh=True)

    return Tensor(np.mean(x.data, axis=axes), (x,), bw)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != x.size:
        raise ShapeError(f"reshape: {x.shape} -> {shape}")

    def bw(g):
        x.accumulate(g.reshape(x.shape))

    return Tensor(x.data.reshape(shape), (x,), bw)


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

    return Tensor(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), bw)


def take1d(x: Tensor, i: int) -> Tensor:
    """Scalar view of element i of a 1-D tensor (stays in the graph)."""
    if x.data.ndim != 1:
        raise ShapeError(f"take1d: got shape {x.shape}")

    def bw(g):
        full = np.zeros_like(x.data)
        full[i] = float(g)
        x.accumulate(full)

    return Tensor(x.data[i].reshape(()), (x,), bw)


def transpose2d(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"transpose2d: got shape {x.shape}")

    def bw(g):
        x.accumulate(g.T)

    return Tensor(x.data.T, (x,), bw)


# ---------------------------------------------------------------------------
# nonlinearities


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def bw(g):
        x.accumulate(g * mask, fresh=True)

    return Tensor(np.where(mask, x.data, 0.0), (x,), bw)


def sigmoid(x: Tensor) -> Tensor:
    # split by sign to avoid overflow in exp
    s = np.empty_like(x.data)
    pos = x.data >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-x.data[pos]))
    ex = np.exp(x.data[~pos])
    s[~pos] = ex / (1.0 + ex)

    def bw(g):
        x.accumulate(g * s * (1.0 - s), fresh=True)

    return Tensor(s, (x,), bw)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    ax = axis % x.data.ndim if x.data.ndim else 0
    if x.data.ndim == 0:
        raise ShapeError("softmax: scalar input")
    shifted = x.data - np.max(x.data, axis=ax, keepdims=True)
    e = np.exp(shifted)
    p = e / np.sum(e, axis=ax, keepdims=True)

    def bw(g):
        inner = np.sum(g * p, axis=ax, keepdims=True)
        x.accumulate(p * (g - inner), fresh=True)

    return Tensor(p, (x,), bw)


# ---------------------------------------------------------------------------
# linear maps


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul: need 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims disagree, {a.shape} x {b.shape}")

    def bw(g):
        a.accumulate(g @ b.data.T, fresh=True)
        b.accumulate(a.data.T @ g, fresh=True)

    return Tensor(a.data @ b.data, (a, b), bw)


def conv1x1(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Per-pixel linear map on an H x W x C grid: equivalent to a matmul
    on the flattened HW x C matrix."""
    if x.data.ndim != 3 or w.data.ndim != 2:
        raise ShapeError(f"conv1x1: got x {x.shape}, w {w.shape}")
    h, wd, c = x.shape
    cin, cout = w.shape
    if c != cin or b.shape != (cout,):
        raise ShapeError(f"conv1x1: x {x.shape}, w {w.shape}, b {b.shape}")

    def bw(g):
        gf = g.reshape(h * wd, cout)
        x.accumulate((gf @ w.data.T).reshape(x.shape), fresh=True)
        w.accumulate(x.data.reshape(h * wd, c).T @ gf, fresh=True)
        b.accumulate(gf.sum(axis=0), fresh=True)

    flat = x.data.reshape(h * wd, c) @ w.data + b.data
    return Tensor(flat.reshape(h, wd, cout), (x, w, b), bw)


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int):
    """Patch matrix (ho*wo) x (kh*kw*c): one strided view over the padded
    input, copied out by a single reshape."""
    h, w, c = x.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    xp = np.zeros((h + 2 * pad, w + 2 * pad, c), dtype=x.dtype)
    xp[pad : pad + h, pad : pad + w, :] = x
    s0, s1, s2 = xp.strides
    taps = np.lib.stride_tricks.as_strided(
        xp, (ho, wo, kh, kw, c), (stride * s0, stride * s1, s0, s1, s2), writeable=False
    )
    return taps.reshape(ho * wo, kh * kw * c), ho, wo


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
    if x.data.ndim != 3 or w.data.ndim != 4:
        raise ShapeError(f"conv2d: got x {x.shape}, w {w.shape}")
    kh, kw, cin, cout = w.shape
    if x.shape[2] != cin or b.shape != (cout,):
        raise ShapeError(f"conv2d: x {x.shape}, w {w.shape}, b {b.shape}")
    cols, ho, wo = _im2col(x.data, kh, kw, stride, pad)
    wf = w.data.reshape(kh * kw * cin, cout)

    def bw(g):
        gf = g.reshape(ho * wo, cout)
        w.accumulate((cols.T @ gf).reshape(w.shape), fresh=True)
        b.accumulate(gf.sum(axis=0), fresh=True)
        if x.requires_grad:
            x.accumulate(_col2im(gf @ wf.T, x.shape, kh, kw, stride, pad, ho, wo), fresh=True)

    return Tensor((cols @ wf + b.data).reshape(ho, wo, cout), (x, w, b), bw)


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

    return Tensor(np.repeat(np.repeat(x.data, factor, axis=0), factor, axis=1), (x,), bw)


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

    return Tensor(np.mean(lse - picked).reshape(()), (logits,), bw)


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
