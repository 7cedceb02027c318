"""Op-level gradient checks and graph-engine contracts."""

import sys
import threading
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcpnet import autodiff as ad
from dcpnet.autodiff import Tensor, backward, grad_check
from dcpnet.errors import ContractError, InputError, ShapeError

RNG = np.random.default_rng(0)


def leaf(*shape):
    return Tensor(RNG.normal(size=shape))


def check(f, params, tol=1e-6, eps=1e-5):
    assert grad_check(f, params, eps=eps) < tol


def test_add_mul_grads():
    a, b = leaf(3, 4), leaf(3, 4)
    check(lambda p: ad.sum_all(ad.mul(ad.add(p[0], p[1]), p[1])), [a, b])


def test_affine_scale_by_grads():
    x, s = leaf(2, 3), Tensor(0.7)
    check(lambda p: ad.sum_all(ad.scale_by(ad.affine(p[0], 2.5, -1.0), p[1])), [x, s])


def test_matmul_transpose_grads():
    a, b = leaf(3, 5), leaf(5, 2)
    check(lambda p: ad.sum_all(ad.matmul(p[0], p[1])), [a, b])
    check(lambda p: ad.sum_all(ad.matmul(ad.transpose2d(p[1]), ad.transpose2d(p[0]))), [a, b])


def test_softmax_sigmoid_grads():
    x = leaf(4, 3)
    w = leaf(4, 3)
    check(lambda p: ad.sum_all(ad.mul(ad.softmax(p[0], axis=1), p[1])), [x, w])
    check(lambda p: ad.sum_all(ad.mul(ad.sigmoid(p[0]), p[1])), [x, w])


def test_relu_grad_off_kink():
    x = Tensor(RNG.normal(size=(3, 3)) + 0.3)   # keep entries away from 0
    w = leaf(3, 3)
    check(lambda p: ad.sum_all(ad.mul(ad.relu(p[0]), p[1])), [x, w])


def test_mean_over_reshape_concat_take1d_grads():
    x, y = leaf(2, 3, 4), leaf(2, 3, 4)

    def f(p):
        pooled = ad.mean_over(ad.concat([p[0], p[1]], axis=2), (0, 1))
        return ad.take1d(ad.reshape(pooled, (8,)), 5)

    check(f, [x, y])


def test_conv1x1_grads():
    x, w, b = leaf(3, 3, 4), leaf(4, 2), leaf(2)
    check(lambda p: ad.sum_all(ad.conv1x1(p[0], p[1], p[2])), [x, w, b])


def test_conv2d_strided_padded_grads():
    x, w, b = leaf(6, 6, 2), leaf(3, 3, 2, 3), leaf(3)
    mix = leaf(3, 3, 3)
    check(lambda p: ad.sum_all(ad.mul(ad.conv2d(p[0], p[1], p[2], stride=2, pad=1), mix)), [x, w, b])


def test_upsample_grads():
    x = leaf(2, 2, 3)
    w = leaf(4, 4, 3)
    check(lambda p: ad.sum_all(ad.mul(ad.upsample_nearest(p[0], 2), w)), [x])


def test_cross_entropy_grads():
    logits = leaf(4, 4, 3)
    target = RNG.integers(0, 3, size=(4, 4))
    check(lambda p: ad.cross_entropy(p[0], target), [logits])


def test_cross_entropy_matches_manual_value():
    logits = leaf(2, 2, 3)
    target = np.array([[0, 1], [2, 0]])
    e = np.exp(logits.data)
    p = e / e.sum(axis=2, keepdims=True)
    manual = -np.mean(np.log(np.take_along_axis(p, target[:, :, None], axis=2)))
    assert ad.cross_entropy(logits, target).item() == pytest.approx(manual, rel=1e-12)


def test_softmax_rows_sum_to_one_under_extreme_logits():
    x = Tensor(np.array([[1e4, 0.0, -1e4], [5.0, 5.0, 5.0]]))
    p = ad.softmax(x, axis=1).data
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(np.isfinite(p))


def test_backward_accumulates_through_shared_nodes():
    x = Tensor(2.0)
    y = ad.add(ad.mul(x, x), ad.mul(x, x))   # d/dx (2x^2) = 4x
    backward(ad.sum_all(y))
    assert x.grad == pytest.approx(8.0)


def test_backward_requires_scalar_and_rejects_reuse():
    x = leaf(2, 2)
    with pytest.raises(ContractError):
        backward(x)
    loss = ad.sum_all(x)
    backward(loss)
    with pytest.raises(ContractError):
        backward(loss)


def test_shape_errors():
    with pytest.raises(ShapeError):
        ad.add(leaf(2, 2), leaf(3, 2))
    with pytest.raises(ShapeError):
        ad.matmul(leaf(2, 3), leaf(2, 3))
    with pytest.raises(ShapeError):
        ad.conv1x1(leaf(2, 2, 3), leaf(4, 2), leaf(2))
    with pytest.raises(ShapeError):
        ad.reshape(leaf(2, 3), (4, 2))
    with pytest.raises(ShapeError):
        ad.take1d(leaf(2, 2), 0)


def test_cross_entropy_input_validation():
    logits = leaf(2, 2, 3)
    with pytest.raises(ShapeError):
        ad.cross_entropy(logits, np.zeros((3, 3), dtype=int))
    with pytest.raises(InputError):
        ad.cross_entropy(logits, np.full((2, 2), 7))
    # float or bool class ids are refused before any gather
    for target in (np.zeros((2, 2)), np.zeros((2, 2), dtype=bool)):
        with pytest.raises(InputError, match="integers"):
            ad.cross_entropy(logits, target)


def test_item_contract():
    with pytest.raises(ContractError):
        leaf(2).item()


def test_grad_check_rejects_bad_eps():
    x = leaf(2)
    with pytest.raises(InputError):
        grad_check(lambda p: ad.sum_all(p[0]), [x], eps=0.0)


def _im2col_loop(x, kh, kw, stride, pad):
    """The kh*kw slice-copy im2col that the strided gather replaced."""
    h, w, c = x.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((pad, pad), (pad, pad), (0, 0)))
    cols = np.empty((ho, wo, kh, kw, c), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j, :] = xp[i : i + stride * ho : stride, j : j + stride * wo : stride, :]
    return cols.reshape(ho * wo, kh * kw * c), ho, wo


@pytest.mark.parametrize("c", [3, 8, 16])
@pytest.mark.parametrize("pad", [0, 1])
@pytest.mark.parametrize("stride", [1, 2])
def test_im2col_matches_the_slice_loop(stride, pad, c):
    x = RNG.normal(size=(9, 8, c))
    cols, ho, wo = ad._im2col(x, 3, 3, stride, pad)
    ref, ref_ho, ref_wo = _im2col_loop(x, 3, 3, stride, pad)
    assert (ho, wo) == (ref_ho, ref_wo)
    assert np.array_equal(cols, ref)
    assert cols.flags.c_contiguous


def _im2col_gather(x, kh, kw, stride, pad):
    """The allocate-and-gather im2col that the per-thread padded buffer
    replaced: a fresh zero-filled padded copy on every call."""
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


# (h, w, c, (kh, kw), stride, pad) with at least one window
conv_geometries = st.tuples(
    st.integers(1, 9), st.integers(1, 9), st.integers(1, 4),
    st.sampled_from([(1, 1), (3, 3), (2, 3), (1, 3)]), st.integers(1, 3), st.integers(0, 2),
).filter(lambda g: g[0] + 2 * g[5] >= g[3][0] and g[1] + 2 * g[5] >= g[3][1])


# up to 10 geometries, so calls also evict from the 8-entry buffer cache
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(conv_geometries, min_size=1, max_size=10),
       st.lists(st.integers(0, 9), min_size=1, max_size=16), st.integers(0, 2**32 - 1))
def test_im2col_buffer_matches_the_gather_and_shares_no_memory(geoms, picks, seed):
    rng = np.random.default_rng(seed)
    made = []
    for k in picks:   # shapes interleave, and a shape recurs with new values
        h, w, c, (kh, kw), stride, pad = geoms[k % len(geoms)]
        x = rng.normal(size=(h, w, c))
        cols, ho, wo = ad._im2col(x, kh, kw, stride, pad)
        ref, ref_ho, ref_wo = _im2col_gather(x, kh, kw, stride, pad)
        assert (ho, wo) == (ref_ho, ref_wo) and cols.shape == ref.shape
        assert cols.tobytes() == ref.tobytes()
        buffer = ad._pad_buffers.get(x.shape, x.dtype, kh, kw, stride, pad)[0].base
        assert not np.shares_memory(cols, buffer)
        made.append((cols, ref))
    # later calls into the same buffers left every earlier patch matrix as it was
    assert all(cols.tobytes() == ref.tobytes() for cols, ref in made)


def test_1x1_convs_on_one_shape_keep_their_own_patch_matrices():
    # both convs take a 4x4x3 input; the first one's backward needs its own cols
    x, w1, b1, w2, b2, mix = leaf(4, 4, 3), leaf(1, 1, 3, 3), leaf(3), leaf(1, 1, 3, 3), leaf(3), leaf(4, 4, 3)

    def f(p):
        return ad.sum_all(ad.mul(ad.conv2d(ad.conv2d(p[0], p[1], p[2]), p[3], p[4]), mix))

    assert grad_check(f, [x, w1, b1, w2, b2]) < 1e-4


def _conv_passes(jobs):
    out = []
    for x, w, b, stride, pad in jobs:
        xt, wt, bt = Tensor(x), Tensor(w), Tensor(b)
        y = ad.conv2d(xt, wt, bt, stride=stride, pad=pad)
        backward(ad.sum_all(ad.mul(y, y)))
        out.append(b"".join(a.tobytes() for a in (y.data, xt.grad, wt.grad, bt.grad)))
    return out


def test_threads_running_interleaved_conv_shapes_match_a_serial_run():
    rng = np.random.default_rng(5)
    geoms = [((9, 9, 3), (3, 3), 2, 1), ((8, 8, 8), (3, 3), 1, 1), ((6, 5, 4), (1, 1), 1, 0)]
    jobs = [
        (rng.normal(size=shape), rng.normal(size=(kh, kw, shape[2], 4)), rng.normal(size=4), stride, pad)
        for shape, (kh, kw), stride, pad in geoms * 300
    ]
    serial = _conv_passes(jobs)
    start, seen = threading.Barrier(2), {}

    def worker(name, order):
        start.wait(timeout=10)
        seen[name] = _conv_passes(order)

    threads = [threading.Thread(target=worker, args=args) for args in (("ahead", jobs), ("behind", jobs[::-1]))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)   # hand the interpreter over between almost any two lines
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert seen["ahead"] == serial and seen["behind"] == serial[::-1]


# 1 column and F order are summed pairwise by numpy: the cases the einsum must not take
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 300), st.integers(1, 40), st.sampled_from(["C", "F", "every other row"]),
       st.integers(0, 2**32 - 1))
@example(rows=1024, cols=8, layout="C", seed=0)
@example(rows=1024, cols=1, layout="C", seed=0)
@example(rows=1024, cols=8, layout="F", seed=0)
def test_bias_gradient_keeps_the_bits_of_the_column_sum(rows, cols, layout, seed):
    gf = np.random.default_rng(seed).normal(size=(2 * rows if layout == "every other row" else rows, cols))
    if layout == "F":
        gf = np.asfortranarray(gf)
    elif layout == "every other row":
        gf = gf[::2]
    assert ad._bias_grad(gf).tobytes() == gf.sum(axis=0).tobytes()


def _cross_entropy_reference(logits, target):
    """Loss and logit gradient with the class max taken by np.max."""
    h, w, _ = logits.shape
    z = logits - np.max(logits, axis=2, keepdims=True)
    lse = np.log(np.sum(np.exp(z), axis=2))
    picked = np.take_along_axis(z, target[:, :, None], axis=2)[:, :, 0]
    onehot = np.zeros_like(z)
    np.put_along_axis(onehot, target[:, :, None], 1.0, axis=2)
    return np.mean(lse - picked), (np.exp(z - lse[:, :, None]) - onehot) / (h * w)


# 2..9 classes cross numpy's switch from a left-to-right to a pairwise class sum at 8
@pytest.mark.parametrize("k", range(2, 10))
def test_cross_entropy_matches_the_np_max_reference(k):
    target = RNG.integers(0, k, size=(8, 8))
    # small integers tie often: several classes share the max in most pixels
    for data in (10 * RNG.normal(size=(8, 8, k)), RNG.integers(-2, 3, size=(8, 8, k)).astype(np.float64)):
        logits = Tensor(data)
        loss = ad.cross_entropy(logits, target)
        backward(loss)
        ref_loss, ref_grad = _cross_entropy_reference(data, target)
        assert loss.data.tobytes() == np.float64(ref_loss).tobytes()
        assert logits.grad.tobytes() == ref_grad.tobytes()


def _col2im_loop(dcols, shape, kh, kw, stride, pad, ho, wo):
    """The kh*kw slice-add scatter that the stride-phase planes replaced."""
    h, w, c = shape
    dcols = dcols.reshape(ho, wo, kh, kw, c)
    dxp = np.zeros((h + 2 * pad, w + 2 * pad, c))
    for i in range(kh):
        for j in range(kw):
            dxp[i : i + stride * ho : stride, j : j + stride * wo : stride, :] += dcols[:, :, i, j, :]
    return dxp[pad : pad + h, pad : pad + w]


@pytest.mark.parametrize("kernel", [(3, 3), (2, 3)])
@pytest.mark.parametrize("pad", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 2, 3])
def test_conv2d_input_gradient_matches_the_slice_loop(stride, pad, kernel):
    kh, kw = kernel
    for h, w, cin, cout in [(9, 7, 3, 4), (11, 12, 1, 5), (32, 32, 8, 16), (16, 16, 16, 32)]:
        x, wt, b = leaf(h, w, cin), leaf(kh, kw, cin, cout), leaf(cout)
        y = ad.conv2d(x, wt, b, stride=stride, pad=pad)
        ho, wo, _ = y.shape
        g = RNG.normal(size=y.shape)
        y._backward(g)
        dcols = g.reshape(ho * wo, cout) @ wt.data.reshape(kh * kw * cin, cout).T
        ref = _col2im_loop(dcols, x.shape, kh, kw, stride, pad, ho, wo)
        assert x.grad.tobytes() == np.ascontiguousarray(ref).tobytes()


@pytest.mark.parametrize("factor", [1, 2, 8])
def test_upsample_gradient_matches_the_reshape_sum(factor):
    for h, w, c in [(8, 8, 6), (3, 5, 2), (7, 3, 1), (1, 1, 3)]:
        x = leaf(h, w, c)
        y = ad.upsample_nearest(x, factor)
        g = RNG.normal(size=y.shape)
        y._backward(g)
        assert x.grad.tobytes() == g.reshape(h, factor, w, factor, c).sum(axis=(1, 3)).tobytes()


def test_input_without_grad_keeps_none_and_leaves_weight_grads_equal():
    image = RNG.normal(size=(8, 8, 3))
    w, b, mix = leaf(3, 3, 3, 4), leaf(4), leaf(4, 4, 4)
    grads = {}
    for requires_grad in (True, False):
        x = Tensor(image, requires_grad=requires_grad)
        w.grad = b.grad = None
        conv = ad.sum_all(ad.mul(ad.conv2d(x, w, b, stride=2, pad=1), mix))
        backward(ad.add(conv, ad.sum_all(ad.mul(x, x))))
        assert (x.grad is None) == (not requires_grad)
        grads[requires_grad] = (w.grad, b.grad)
    assert all(np.array_equal(a, b) for a, b in zip(grads[True], grads[False]))


def test_a_float32_input_image_is_held_as_it_is_and_widened_by_the_patch_copy():
    image = RNG.normal(size=(8, 8, 3)).astype(np.float32)
    assert Tensor(image, requires_grad=False).data is image
    assert Tensor(image).data.dtype == np.float64   # a tensor that takes a gradient is float64
    w, b = leaf(3, 3, 3, 4), leaf(4)
    runs = []
    for data in (image, image.astype(np.float64)):
        w.grad = b.grad = None
        y = ad.conv2d(Tensor(data, requires_grad=False), w, b, stride=2, pad=1)
        backward(ad.sum_all(ad.mul(y, y)))
        runs.append((y.data.dtype, y.data.tobytes(), w.grad.tobytes(), b.grad.tobytes()))
    assert runs[0] == runs[1] and runs[0][0] == np.float64


def test_first_gradient_is_an_owned_c_ordered_copy():
    x = leaf(3, 5)
    g = RNG.normal(size=(5, 3))
    x.accumulate(g.T)
    assert x.grad.flags.c_contiguous and not np.shares_memory(x.grad, g)
    first = x.grad.copy()
    g[...] = 0.0
    assert np.array_equal(x.grad, first)
    with pytest.raises(ShapeError):
        x.accumulate(g)


def _assert_no_shared_gradients(*tensors):
    """No two gradients share memory, so an in-place add on one leaves the others."""
    grads = [t.grad for t in tensors]
    for i, gi in enumerate(grads):
        for gj in grads[i + 1 :]:
            assert not np.shares_memory(gi, gj)
    before = [g.copy() for g in grads]
    for i, g in enumerate(grads):
        g += 1.0
        assert all(np.array_equal(other, old) for j, (other, old) in enumerate(zip(grads, before)) if j != i)
        g[...] = before[i]


def test_gradients_handed_over_without_a_copy_alias_nothing():
    a = leaf(3, 4)
    out = ad.mul(a, a)
    backward(ad.sum_all(out))
    assert np.array_equal(a.grad, 2.0 * a.data)
    _assert_no_shared_gradients(a, out)

    a.grad = None
    out = ad.add(a, a)
    backward(ad.sum_all(out))
    assert np.array_equal(a.grad, np.full((3, 4), 2.0))
    _assert_no_shared_gradients(a, out)

    # one gradient handed to two parents
    a.grad = None
    b = leaf(3, 4)
    out = ad.add(a, b)
    backward(ad.sum_all(ad.mul(out, Tensor(np.full((3, 4), 3.0)))))
    assert np.array_equal(a.grad, np.full((3, 4), 3.0)) and np.array_equal(b.grad, a.grad)
    _assert_no_shared_gradients(a, b, out)

    # a scalar's gradient is reduced to a numpy scalar, which is copied into an array
    a.grad = None
    s = Tensor(0.7)
    backward(ad.sum_all(ad.scale_by(a, s)))
    assert isinstance(s.grad, np.ndarray) and s.grad.shape == ()

    # one parent, two consumers: the second gradient adds into the first
    a.grad = None
    w = Tensor(np.ones((3, 4)))
    shared = ad.relu(a)
    backward(ad.add(ad.sum_all(ad.mul(shared, w)), ad.sum_all(ad.affine(shared, 3.0, 0.0))))
    assert np.array_equal(a.grad, np.where(a.data > 0, 4.0, 0.0))
    _assert_no_shared_gradients(a, w, shared)

    # a reshape chain passes the same numbers back without sharing them
    a.grad = None
    r1 = ad.reshape(a, (4, 3))
    r2 = ad.reshape(r1, (12,))
    out = ad.mul(r2, Tensor(np.arange(12.0)))
    backward(ad.sum_all(out))
    assert np.array_equal(a.grad, np.arange(12.0).reshape(3, 4))
    _assert_no_shared_gradients(a, r1, r2, out)


# every op, applied to the leaves of `_op_leaves`
_OPS = {
    "add": lambda t: ad.add(t.a, t.a),
    "mul": lambda t: ad.mul(t.a, t.a),
    "affine": lambda t: ad.affine(t.a, 2.5, -1.0),
    "scale_by": lambda t: ad.scale_by(t.a, t.s),
    "sum_all": lambda t: ad.sum_all(t.a),
    "mean_over": lambda t: ad.mean_over(t.img, (0, 1)),
    "matmul": lambda t: ad.matmul(t.a, t.m),
    "transpose2d": lambda t: ad.transpose2d(t.a),
    "reshape": lambda t: ad.reshape(t.a, (4, 3)),
    "concat": lambda t: ad.concat([t.a, t.a], axis=1),
    "take1d": lambda t: ad.take1d(t.b, 1),
    "relu": lambda t: ad.relu(t.a),
    "sigmoid": lambda t: ad.sigmoid(t.a),
    "softmax": lambda t: ad.softmax(t.a, axis=1),
    "conv1x1": lambda t: ad.conv1x1(t.img, t.m, t.b),
    "conv2d": lambda t: ad.conv2d(t.img, t.w, t.b, stride=2, pad=1),
    "upsample_nearest": lambda t: ad.upsample_nearest(t.img, 2),
    "cross_entropy": lambda t: ad.cross_entropy(t.img, t.classes),
    # 0-d operands, whose numpy arithmetic returns scalars, not arrays
    "add_0d": lambda t: ad.add(t.s, t.s),
    "mul_0d": lambda t: ad.mul(t.s, t.s),
    "affine_0d": lambda t: ad.affine(t.s, 2.5, -1.0),
    "scale_by_0d": lambda t: ad.scale_by(t.s, t.s),
    "sum_all_0d": lambda t: ad.sum_all(t.s),
    "relu_0d": lambda t: ad.relu(t.s),
    "sigmoid_0d": lambda t: ad.sigmoid(t.s),
    "reshape_0d": lambda t: ad.reshape(t.s, (1,)),
}


def _op_leaves():
    return SimpleNamespace(a=leaf(3, 4), m=leaf(4, 2), s=Tensor(0.7), img=leaf(4, 4, 4), w=leaf(3, 3, 4, 2),
                           b=leaf(2), classes=RNG.integers(0, 4, size=(4, 4)))


@pytest.mark.parametrize("name", sorted(_OPS))
def test_ops_under_no_grad_keep_values_and_build_no_graph(name):
    leaves = _op_leaves()
    with_graph = _OPS[name](leaves)
    with ad.no_grad():
        bare = _OPS[name](leaves)
        loss = ad.sum_all(bare)
    assert np.array_equal(bare.data, with_graph.data)
    for out in (with_graph, bare):
        assert type(out.data) is np.ndarray and out.data.dtype == np.float64
    assert with_graph._parents and with_graph._backward is not None
    assert bare._parents == () and bare._backward is None and not bare.requires_grad
    with pytest.raises(ContractError, match="require a gradient"):
        backward(loss)


def test_no_grad_nests_and_is_restored_after_an_exception():
    a = leaf(2, 2)
    with ad.no_grad():
        with ad.no_grad():
            assert ad.add(a, a)._parents == ()
        assert ad.add(a, a)._parents == ()
    assert ad.add(a, a)._parents == (a, a)
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            raise RuntimeError("inside the block")
    assert ad.add(a, a)._parents == (a, a)


def test_no_grad_on_another_thread_leaves_this_thread_recording():
    a = leaf(2, 2)
    entered, release = threading.Event(), threading.Event()
    seen = {}

    def worker():
        with ad.no_grad():
            entered.set()
            release.wait(timeout=10)
            seen["worker"] = ad.add(a, a)._parents

    t = threading.Thread(target=worker)
    t.start()
    try:
        assert entered.wait(timeout=10)
        out = ad.add(a, a)        # built while the worker sits inside no_grad
    finally:
        release.set()
        t.join(timeout=10)
    assert not t.is_alive()
    assert out._parents == (a, a) and out._backward is not None
    assert seen["worker"] == ()
    backward(ad.sum_all(out))
    assert np.array_equal(a.grad, np.full((2, 2), 2.0))


def _sigmoid_split_by_sign(x):
    """sigmoid as computed before the branch-free form: each sign in its own boolean-indexed pass."""
    s = np.empty_like(x)
    pos = x >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    s[~pos] = ex / (1.0 + ex)
    return s


_SIGMOID_EDGES = [0.0, -0.0, 745.0, -745.0, 746.0, -746.0, 1e308, -1e308, 5e-324, -5e-324,
                  2.2e-308, -2.2e-308, np.inf, -np.inf, np.nan, -np.nan, 1.0, -1.0, 36.7, -36.7]


@pytest.mark.parametrize("shape", [(), (20,), (4, 5), (2, 2, 5)])
def test_sigmoid_keeps_the_bits_of_the_split_by_sign_formula(shape):
    edges = np.array(_SIGMOID_EDGES)
    inputs = [np.array(v) for v in edges] if shape == () else [
        edges.reshape(shape), RNG.normal(scale=40.0, size=shape), RNG.permutation(edges).reshape(shape)
    ]
    for x in inputs:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ad.sigmoid(Tensor(x)).data
        assert type(got) is np.ndarray and got.shape == x.shape and got.dtype == np.float64
        assert got.tobytes() == _sigmoid_split_by_sign(x).tobytes()
