"""Gradient, optimizer, and container tests for the autodiff engine.

Derived expectations come from independent oracles: explicit exp/sum
evaluation for softmax, central differences for every gradient, and an
inline re-statement of the Adam recurrences for the optimizer trajectory.
"""

import ast
import ctypes
import gc
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import bemopt
from bemopt import autodiff as ad
from bemopt.seeding import stream
from tests.conftest import grad_check, parameter, softmax


class TestForwardValues:
    def test_softmax_constant_row_is_uniform(self):
        y = softmax(ad.constant(np.full((4, 6), 3.7)))
        np.testing.assert_allclose(y.data, 1.0 / 6.0, rtol=1e-15)

    def test_softmax_reference_values(self):
        # exp(1,2,3)/sum: (0.09003057, 0.24472847, 0.66524096)
        y = softmax(ad.constant([[1.0, 2.0, 3.0]]))
        np.testing.assert_allclose(
            y.data[0], [0.09003057, 0.24472847, 0.66524096], atol=1e-5)

    def test_softmax_rows_sum_to_one_with_mask(self):
        rng = stream(10, "sm")
        x = rng.normal(size=(3, 8, 8))
        mask = np.where(np.triu(np.ones((8, 8))) > 0, 0.0, -1e30)
        y = softmax(ad.constant(x), mask=mask)
        np.testing.assert_allclose(y.data.sum(axis=-1), 1.0, atol=1e-12)
        assert y.data[:, 3, 0].max() == 0.0  # below-diagonal positions are banned

    def test_relu_backward_sign(self):
        x = parameter([-1.0, 2.0])
        y = ad.mean(ad.relu(x))
        y.backward()
        np.testing.assert_array_equal(x.grad, [0.0, 0.5])

    def test_matmul_shape_mismatch_reports_both(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 5\)"):
            ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((4, 5))))

    def test_add_shape_mismatch_reports_both(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(3, 2\)"):
            ad.add(ad.constant(np.ones((2, 3))), ad.constant(np.ones((3, 2))))

    def test_constant_graph_builds_no_parents(self):
        y = ad.mul(ad.constant([1.0, 2.0]), ad.constant([3.0, 4.0]))
        assert not y.requires_grad and y._node is None


class TestGradCheck:
    def test_sum_of_squares_is_exact(self):
        x = parameter([1.0, -2.0, 3.0])
        err = grad_check(lambda: ad.mean(ad.square(x)), x)
        assert err < 1e-9
        # analytic gradient of mean(x^2) is 2x/n
        x.grad = None
        ad.mean(ad.square(x)).backward()
        np.testing.assert_allclose(x.grad, 2.0 * x.data / 3.0, rtol=1e-12)

    def test_frozen_parameter_excluded(self):
        x = parameter([1.0, 2.0])
        c = ad.constant([5.0, 7.0])
        err = grad_check(lambda: ad.mean(ad.mul(x, c)), [x, c])
        assert err < 1e-9
        assert c.grad is None

    def test_nonfinite_objective_rejected(self):
        x = parameter([1.0])
        with pytest.raises(ValueError, match="finite"):
            grad_check(lambda: ad.mul(x, ad.constant([np.inf])), x)

    @pytest.mark.parametrize("trial", range(100))
    def test_primitive_ops_random_small_shapes(self, trial):
        """Every primitive op differentiates to < 1e-6 on random inputs."""
        rng = stream(1234, f"gc{trial}")
        n, m, k = (int(v) for v in rng.integers(2, 6, size=3))
        # keep relu inputs away from the kink and sqrt inputs positive
        a = parameter(rng.normal(size=(n, m)) + np.where(rng.random((n, m)) < 0.5, -0.2, 0.2))
        b = parameter(rng.normal(size=(n, m)) + np.where(rng.random((n, m)) < 0.5, -0.2, 0.2))
        w = parameter(rng.normal(size=(m, k)))
        wt = parameter(rng.normal(size=(k, m)))
        row = parameter(rng.normal(size=(m,)))
        builders = {
            "matmul": lambda: ad.mean(ad.matmul(a, w)),
            "matmul_t": lambda: ad.mean(ad.matmul(a, wt, transpose_b=True)),
            "add_row": lambda: ad.mean(ad.add(a, row)),
            "sub": lambda: ad.mean(ad.sub(a, b)),
            "mul": lambda: ad.mean(ad.mul(a, b)),
            "relu": lambda: ad.mean(ad.relu(a)),
            "softmax": lambda: ad.mean(ad.mul(softmax(a), b)),
            "log1p": lambda: ad.mean(ad.log1p(ad.square(a))),
            "sqrt": lambda: ad.sqrt(ad.add(ad.mean(ad.square(a)), 0.1)),
            "square": lambda: ad.mean(ad.square(b)),
            "slice": lambda: ad.mean(ad.slice_last(a, 0, max(1, m - 1))),
        }
        name = list(builders)[trial % len(builders)]
        params = [a, b, w, wt, row]
        err = grad_check(builders[name], params)
        assert err < 1e-6, f"{name}: {err:.3e}"

    def test_batched_matmul_3d(self):
        rng = stream(5, "b3")
        a = parameter(rng.normal(size=(3, 4, 5)))
        w = parameter(rng.normal(size=(5, 2)))
        b3 = parameter(rng.normal(size=(3, 2, 5)))
        err = grad_check(lambda: ad.mean(ad.matmul(ad.matmul(a, w),
                                                      ad.matmul(b3, w), transpose_b=True)),
                            [a, w, b3])
        assert err < 1e-6

    def test_layer_norm_forward_matches_plain_numpy(self):
        rng = stream(21, "lnf")
        x = rng.normal(size=(4, 5))
        gamma = 1.0 + 0.1 * rng.normal(size=5)
        beta = 0.1 * rng.normal(size=5)
        y = ad.layer_norm(ad.constant(x), ad.constant(gamma), ad.constant(beta))
        mu = x.mean(axis=1, keepdims=True)
        sd = np.sqrt(x.var(axis=1, keepdims=True) + 1e-5)
        np.testing.assert_allclose(y.data, (x - mu) / sd * gamma + beta, rtol=1e-12)

    def test_layer_norm_gradient_complex_step(self):
        """Validate the fused backward against complex-step differentiation.

        The complex-step derivative imag(f(x + ih))/h is exact to machine
        precision (no subtractive cancellation), which central differences
        cannot reach near the zero modes of the normalization.
        """
        rng = stream(22, "lnc")
        x = parameter(rng.normal(size=(3, 4)))
        gamma = parameter(1.0 + 0.1 * rng.normal(size=4))
        beta = parameter(0.1 * rng.normal(size=4))
        c = rng.normal(size=(3, 4))

        ad.mean(ad.mul(ad.layer_norm(x, gamma, beta), ad.constant(c))).backward()

        def loss_complex(xv, gv, bv):
            mu = xv.mean(axis=1, keepdims=True)
            var = ((xv - mu) ** 2).mean(axis=1, keepdims=True)
            y = (xv - mu) / np.sqrt(var + 1e-5) * gv + bv
            return (y * c).mean()

        h = 1e-30
        for leaf, args in ((x, 0), (gamma, 1), (beta, 2)):
            base = [x.data.astype(complex), gamma.data.astype(complex), beta.data.astype(complex)]
            numeric = np.zeros_like(leaf.data)
            for idx in np.ndindex(leaf.data.shape):
                probe = [b.copy() for b in base]
                probe[args][idx] += 1j * h
                numeric[idx] = loss_complex(*probe).imag / h
            np.testing.assert_allclose(leaf.grad, numeric, rtol=1e-10, atol=1e-14)

    def test_backward_linearity(self):
        """Gradient of a sum of graphs equals the sum of separate gradients."""
        rng = stream(6, "lin")
        x = parameter(rng.normal(size=(4, 4)))
        c1 = ad.constant(rng.normal(size=(4, 4)))
        c2 = ad.constant(rng.normal(size=(4, 4)))

        def f1():
            return ad.mean(ad.square(ad.mul(x, c1)))

        def f2():
            return ad.mean(ad.log1p(ad.square(ad.mul(x, c2))))

        x.grad = None
        ad.add(f1(), f2()).backward()
        g_sum = x.grad.copy()
        x.grad = None
        f1().backward()
        g1 = x.grad.copy()
        x.grad = None
        f2().backward()
        g2 = x.grad.copy()
        np.testing.assert_allclose(g_sum, g1 + g2, rtol=1e-12)

    def test_shared_leaf_accumulates(self):
        x = parameter([2.0])
        y = ad.add(ad.square(x), ad.square(x))  # d/dx = 8
        ad.mean(y).backward()
        np.testing.assert_allclose(x.grad, [8.0], rtol=1e-12)

    def test_backward_consumes_the_graph(self):
        """Interior nodes, the attention node's cached sweep included, keep
        no grad, parents or VJP closures; the leaves keep their grads."""
        rng = stream(7, "consume")
        q, k, v = (parameter(rng.normal(size=(2, 6, 3))) for _ in range(3))
        att = ad.windowed_attention(q, k, v, delta=2)
        sq = ad.square(att)
        root = ad.mean(sq)
        root.backward()
        for t in (att, sq, root):
            node = t._node
            assert t.grad is None and node.grad is None
            assert node._parents == () and node._vjps == ()
        for leaf in (q, k, v):
            assert leaf.grad.shape == leaf.shape and np.abs(leaf.grad).sum() > 0

    def test_second_backward_on_a_consumed_root_changes_no_leaf_grad(self):
        # d/dx mean((2x)^2) = 8x/n; summing the first pass's interior grads
        # again used to leave x.grad at 4x that
        x = parameter([1.0, -2.0, 3.0])
        root = ad.mean(ad.square(ad.mul(x, 2.0)))
        root.backward()
        first = x.grad.copy()
        np.testing.assert_allclose(first, 8.0 * x.data / 3.0, rtol=1e-15)
        root.backward()
        np.testing.assert_array_equal(x.grad, first)

    def test_a_seeded_root_gives_its_exact_vector_jacobian_product(self):
        """backward(g) on a shared-weight matmul's [B, n, m] output leaves
        the weight gradient g2^T a2 (B*n rows), the one GEMM of its VJP."""
        rng = stream(8, "seeded")
        a = rng.normal(size=(3, 4, 5))
        w = parameter(rng.normal(size=(2, 5)))
        g = rng.normal(size=(3, 4, 2))
        ad.matmul(ad.constant(a), w, transpose_b=True).backward(g)
        assert np.array_equal(w.grad, g.reshape(12, 2).T @ a.reshape(12, 5))

    def test_a_seed_of_another_shape_is_rejected_and_sweeps_nothing(self):
        rng = stream(8, "bad-seed")
        w = parameter(rng.normal(size=(2, 5)))
        y = ad.matmul(ad.constant(rng.normal(size=(3, 4, 5))), w, transpose_b=True)
        for bad in (np.ones((3, 4)), np.ones((4, 3, 2)), np.ones((3, 4, 2, 1)), 1.0):
            with pytest.raises(ValueError, match=r"seed shape .* does not match the root's \(3, 4, 2\)"):
                y.backward(bad)
        assert w.grad is None
        y.backward(np.ones((3, 4, 2)))  # the graph is still whole
        assert w.grad is not None

    def test_an_unseeded_root_must_be_a_scalar_and_starts_from_one(self):
        """Without a seed the root is a loss, as before seeds existed: a
        non-scalar root is rejected, and mean's sweep equals the matmul
        output seeded with 1/n everywhere, bit for bit."""
        rng = stream(8, "unseeded")
        a = ad.constant(rng.normal(size=(3, 4, 5)))
        w = parameter(rng.normal(size=(2, 5)))
        with pytest.raises(ValueError, match="needs a scalar root, got shape"):
            ad.matmul(a, w, transpose_b=True).backward()
        assert w.grad is None
        ad.mean(ad.matmul(a, w, transpose_b=True)).backward()
        from_loss = w.grad
        w.grad = None
        ad.matmul(a, w, transpose_b=True).backward(np.full((3, 4, 2), 1.0 / 24))
        assert np.array_equal(w.grad, from_loss)


def _captured(obj, seen=None):
    """Everything reachable from obj through closure cells, nested
    functions and containers: what a VJP closure keeps alive."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    yield obj
    if callable(obj) and getattr(obj, "__closure__", None):
        inner = [cell.cell_contents for cell in obj.__closure__]
    elif isinstance(obj, dict):
        inner = list(obj.values())
    elif isinstance(obj, (tuple, list)):
        inner = list(obj)
    else:
        inner = []
    for item in inner:
        yield from _captured(item, seen)


def _tape_ops(dtype=np.float64, leaves=None):
    """One builder per op on fresh grad-requiring leaves of dtype; each leaf
    a builder makes is appended to leaves when given."""
    rng = stream(8, "tape")

    def leaf(a):
        t = ad.Tensor(a.astype(dtype), requires_grad=True)
        if leaves is not None:
            leaves.append(t)
        return t

    def p(*shape):
        return leaf(rng.normal(size=shape))

    return {
        "add": lambda: ad.add(p(2, 3, 4), p(4)),
        "sub": lambda: ad.sub(p(3, 4), p(3, 4)),
        "mul": lambda: ad.mul(p(3, 4), p(3, 4)),
        "matmul_2d": lambda: ad.matmul(p(3, 4), p(5, 4), transpose_b=True),
        "matmul_3d_by_2d": lambda: ad.matmul(p(2, 3, 4), p(4, 5)),
        "matmul_3d": lambda: ad.matmul(p(2, 3, 4), p(2, 4, 5)),
        "relu": lambda: ad.relu(p(3, 4)),
        "softmax": lambda: softmax(p(3, 4)),
        "log1p": lambda: ad.log1p(leaf(rng.random((3, 4)))),
        "sqrt": lambda: ad.sqrt(leaf(rng.random((3, 4)) + 0.5)),
        "square": lambda: ad.square(p(3, 4)),
        "mean": lambda: ad.mean(p(3, 4)),
        "slice_last": lambda: ad.slice_last(p(2, 3, 4), 1, 3),
        "split_heads": lambda: ad.split_heads(p(2, 3, 4), 2),
        "merge_heads": lambda: ad.merge_heads(p(4, 3, 2), 2),
        "windowed_attention": lambda: ad.windowed_attention(p(2, 6, 3), p(2, 6, 3), p(2, 6, 2), 2),
        "layer_norm": lambda: ad.layer_norm(p(2, 3, 4), p(4), p(4)),
    }


class TestTape:
    """The graph keeps the arrays the VJPs read, never a Tensor."""

    @pytest.mark.parametrize("op", list(_tape_ops()))
    def test_vjp_closures_capture_no_tensor(self, op):
        out = _tape_ops()[op]()
        vjps = out._node._vjps
        assert vjps and all(callable(f) for f in vjps)
        held = [type(obj).__name__ for f in vjps for obj in _captured(f)
                if isinstance(obj, ad.Tensor)]
        assert held == [], f"{op} closures hold {held}"

    def test_constant_operand_gets_no_vjp(self):
        # mul(q, scale) keeps the scale for q's gradient, and nothing of q
        q = parameter(stream(9, "scale").normal(size=(3, 4)))
        scale = ad.constant(0.5)
        y = ad.mul(q, scale)
        assert y._node._parents == (q._node,) and len(y._node._vjps) == 1
        arrays = [obj for obj in _captured(y._node._vjps[0]) if isinstance(obj, np.ndarray)]
        assert any(a is scale.data for a in arrays)
        assert not any(a is q.data for a in arrays)

    def test_attention_tape_keeps_no_slot_major_array(self):
        """The softmax's [W, B, T] working array is freed in the forward:
        no array the VJPs keep is it or a view of it."""
        B, T, delta = 3, 7, 2
        W = 2 * delta + 1
        rng = stream(11, "slot-major")
        q, k, v = (parameter(rng.normal(size=(B, T, n))) for n in (4, 4, 2))
        y = ad.windowed_attention(q, k, v, delta)
        arrays = [obj for f in y._node._vjps for obj in _captured(f)
                  if isinstance(obj, np.ndarray)]
        assert arrays

        def chain(a):
            while a is not None:
                yield a
                a = a.base

        shapes = {b.shape for a in arrays for b in chain(a) if isinstance(b, np.ndarray)}
        assert (W, B, T) not in shapes, shapes

    def test_unread_forward_result_is_freed_before_backward(self):
        """relu(add(matmul(x, W), b)) reads nothing of the matmul output in
        its backward, so dropping the Tensor frees the array."""
        rng = stream(10, "free")
        x = ad.constant(rng.normal(size=(2, 5, 3)))
        W = parameter(rng.normal(size=(3, 4)))
        b = parameter(rng.normal(size=(4,)))
        h = ad.matmul(x, W)
        h_data = weakref.ref(h.data)
        root = ad.mean(ad.relu(ad.add(h, b)))
        del h
        gc.collect()
        assert h_data() is None
        root.backward()
        z = x.data.reshape(10, 3) @ W.data + b.data
        dz = (z > 0.0) / z.size
        np.testing.assert_allclose(W.grad, x.data.reshape(10, 3).T @ dz, rtol=1e-12)
        np.testing.assert_allclose(b.grad, dz.sum(axis=0), rtol=1e-12)


class TestDtype:
    """float32 flows through every op and its backward; float64 stays the
    default, and nothing upcasts a float32 computation silently."""

    @pytest.mark.parametrize("op", list(_tape_ops()))
    def test_float32_flows_through_every_op_and_its_backward(self, op):
        leaves = []
        out = _tape_ops(np.float32, leaves)[op]()
        assert out.data.dtype == np.float32
        out.backward(np.ones_like(out.data))
        assert leaves and all(t.grad.dtype == np.float32 for t in leaves)

    def test_float64_is_the_default(self):
        assert ad.constant([1, 2]).data.dtype == np.float64
        assert ad.constant(np.arange(3, dtype=np.int32)).data.dtype == np.float64
        assert parameter(np.ones(2, dtype=np.float32)).data.dtype == np.float64
        x = np.ones(3, dtype=np.float32)
        assert ad.constant(x).data is x

    def test_a_float64_constant_beside_float32_is_cast_to_float32(self):
        """The attention scale 1/sqrt(r) is an np.float64, which numpy
        would let upcast a float32 array; so would a float64 position
        signal, taped or tape-free (both operands constant)."""
        q32 = np.ones((2, 3), dtype=np.float32)
        q = ad.Tensor(q32, requires_grad=True)
        scaled = ad.mul(q, 1.0 / np.sqrt(8))
        for y in (scaled, ad.add(q, ad.constant(np.ones((2, 3)))),
                  ad.mul(ad.constant(q32), 1.0 / np.sqrt(8)),
                  ad.add(ad.constant(q32), np.ones(3)),
                  ad.matmul(ad.constant(q32), np.ones((4, 3)), transpose_b=True)):
            assert y.data.dtype == np.float32
        scaled.backward(np.ones((2, 3), dtype=np.float32))
        assert q.grad.dtype == np.float32
        # a float64 operand that requires a gradient is never cast down
        assert ad.add(parameter(np.ones(3)), q32[0]).data.dtype == np.float64

    def test_operands_that_require_a_gradient_must_share_a_dtype(self):
        f32 = ad.Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        f64 = parameter(np.ones((2, 3)))
        for name, build in (
                ("add", lambda: ad.add(f32, f64)),
                ("mul", lambda: ad.mul(f64, f32)),
                ("matmul", lambda: ad.matmul(f32, f64, transpose_b=True)),
                ("layer_norm", lambda: ad.layer_norm(f32, parameter(np.ones(3)),
                                                     parameter(np.zeros(3))))):
            with pytest.raises(ValueError, match=f"{name}: operands that require a gradient "
                                                 f"differ in dtype"):
                build()

    def test_a_seed_of_another_dtype_is_rejected_and_sweeps_nothing(self):
        w = ad.Tensor(np.ones((2, 5), dtype=np.float32), requires_grad=True)
        y = ad.matmul(ad.constant(np.ones((3, 5), dtype=np.float32)), w, transpose_b=True)
        with pytest.raises(ValueError, match="seed dtype float64 does not match the root's float32"):
            y.backward(np.ones((3, 2)))
        assert w.grad is None
        y.backward(np.ones((3, 2), dtype=np.float32))
        assert w.grad.dtype == np.float32


class TestSlotSum:
    """The softmax's slot-major sum has the bits of numpy's own last-axis
    sum, so pi is the same whichever layout the softmax runs in."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("W", list(range(1, 41)) + [129, 300])
    def test_bits_equal_a_last_axis_sum(self, W, dtype):
        rng = stream(37, f"slot-sum-{W}")
        x = rng.normal(size=(W, 6, 9)) * 10.0 ** rng.uniform(-3, 3, size=(W, 6, 9))
        x[:, 0, :] = rng.choice([0.0, -0.0], size=(W, 9))  # mixed signed zeros
        x[:, 1, :2] = -0.0  # all negative zeros: numpy's sum is +0.0
        x = x.astype(dtype)
        want = np.ascontiguousarray(np.moveaxis(x, 0, -1)).sum(axis=-1)
        got = ad._slot_sum(x)
        assert got.dtype == dtype and got.shape == (6, 9)
        assert got.tobytes() == want.tobytes()
        assert not np.signbit(got[1, :2]).any()
        if W >= 8:
            # the data tells summation orders apart: a plain in-order sum
            # over the slots gives other bits
            assert x.sum(axis=0).tobytes() != want.tobytes()

    def test_leaves_its_input_alone(self):
        x = stream(38, "slot-sum-input").normal(size=(25, 3, 4)).astype(np.float32)
        before = x.copy()
        ad._slot_sum(x)
        assert x.tobytes() == before.tobytes()


def dense_window_reference(q, k, v, delta):
    """Band-masked dense attention from the already-verified primitives."""
    T = q.shape[1]
    idx = np.arange(T)
    mask = np.where(np.abs(idx[:, None] - idx[None, :]) <= delta, 0.0, -1e30)
    pi = softmax(ad.matmul(q, k, transpose_b=True), mask=mask)
    return ad.matmul(pi, v)


class TestWindowedAttention:
    def test_matches_dense_masked_reference(self):
        rng = stream(30, "wa")
        q = ad.constant(rng.normal(size=(2, 20, 4)))
        k = ad.constant(rng.normal(size=(2, 20, 4)))
        v = ad.constant(rng.normal(size=(2, 20, 3)))
        banded = ad.windowed_attention(q, k, v, delta=3)
        dense = dense_window_reference(q, k, v, delta=3)
        np.testing.assert_allclose(banded.data, dense.data, atol=1e-12)

    def test_gradients_match_dense_reference(self):
        rng = stream(31, "wg")
        weight = ad.constant(rng.normal(size=(1, 12, 3)))
        q = parameter(rng.normal(size=(1, 12, 4)))
        k = parameter(rng.normal(size=(1, 12, 4)))
        v = parameter(rng.normal(size=(1, 12, 3)))

        ad.mean(ad.mul(ad.windowed_attention(q, k, v, delta=2), weight)).backward()
        got = [q.grad.copy(), k.grad.copy(), v.grad.copy()]
        for p in (q, k, v):
            p.grad = None
        ad.mean(ad.mul(dense_window_reference(q, k, v, delta=2), weight)).backward()
        for g, ref in zip(got, [q.grad, k.grad, v.grad]):
            np.testing.assert_allclose(g, ref, atol=1e-12)

    def test_grad_check(self):
        rng = stream(32, "wc")
        q = parameter(rng.normal(size=(1, 7, 3)))
        k = parameter(rng.normal(size=(1, 7, 3)))
        v = parameter(rng.normal(size=(1, 7, 2)))
        c = ad.constant(rng.normal(size=(1, 7, 2)))
        err = grad_check(
            lambda: ad.mean(ad.mul(ad.windowed_attention(q, k, v, delta=2), c)),
            [q, k, v])
        assert err < 1e-6

    def test_equal_keys_give_window_mean(self):
        # uniform scores: output is the plain mean of the visible values
        T, delta = 9, 2
        q = ad.constant(np.ones((1, T, 2)))
        k = ad.constant(np.ones((1, T, 2)))
        vals = np.arange(T, dtype=float).reshape(1, T, 1)
        out = ad.windowed_attention(q, k, ad.constant(vals), delta)
        for t in range(T):
            lo, hi = max(0, t - delta), min(T, t + delta + 1)
            assert abs(out.data[0, t, 0] - vals[0, lo:hi, 0].mean()) < 1e-12

    def test_saturated_score_selects_one_position(self):
        # a score gap of 50 concentrates the softmax on a single slot
        T, delta = 5, 2
        q = np.zeros((1, T, 1))
        k = np.zeros((1, T, 1))
        q[0, 2, 0] = 50.0
        k[0, 4, 0] = 1.0
        vals = np.arange(T, dtype=float).reshape(1, T, 1)
        out = ad.windowed_attention(ad.constant(q), ad.constant(k), ad.constant(vals), delta)
        assert abs(out.data[0, 2, 0] - 4.0) < 1e-10

    def test_three_term_hand_softmax(self):
        # delta=1, scalar q/kappa/v: middle position sees all three terms
        q = np.array([[[1.0], [2.0], [0.5]]])
        k = np.array([[[0.3], [-0.7], [1.1]]])
        v = np.array([[[10.0], [20.0], [30.0]]])
        out = ad.windowed_attention(ad.constant(q), ad.constant(k), ad.constant(v), delta=1)
        s = np.array([2 * 0.3, 2 * -0.7, 2 * 1.1])
        e = np.exp(s - s.max())
        pi = e / e.sum()
        expect = pi[0] * 10 + pi[1] * 20 + pi[2] * 30
        assert abs(out.data[0, 1, 0] - expect) < 1e-12

    def test_weights_sum_to_one_and_respect_band(self):
        # with one-hot values v[b, s] = e_s, out[b, t, s] is the weight of
        # query t on position s
        B, T, delta = 2, 15, 4
        rng = stream(33, "ws")
        q = ad.constant(rng.normal(size=(B, T, 3)))
        k = ad.constant(rng.normal(size=(B, T, 3)))
        v = ad.constant(np.broadcast_to(np.eye(T), (B, T, T)))
        pi = ad.windowed_attention(q, k, v, delta=delta).data
        np.testing.assert_allclose(pi.sum(axis=-1), 1.0, atol=1e-12)
        t, s = np.indices((T, T))
        outside = np.abs(s - t) > delta
        assert np.all(pi[:, outside] == 0.0)
        assert np.all(pi[:, ~outside] > 0.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_nan_query_spoils_exactly_its_row_and_boundary_slots_stay_zero(self, dtype):
        """predict's one finiteness check relies on a NaN query reaching
        its output row, and on no other row; a slot outside the sequence
        gets weight exactly 0, and the visible slots' weights sum to 1."""
        B, T, delta = 2, 15, 4
        W = 2 * delta + 1
        rng = stream(36, "nan")
        q = (30.0 * rng.normal(size=(B, T, 3))).astype(dtype)
        q[1, 6, 0] = np.nan
        k = rng.normal(size=(B, T, 3)).astype(dtype)
        # one-hot values: out[b, t, s] is the weight of query t on position s
        v = np.broadcast_to(np.eye(T, dtype=dtype), (B, T, T))
        y = ad.windowed_attention(ad.Tensor(q, requires_grad=True), ad.constant(k),
                                  ad.constant(v), delta=delta)
        out = y.data
        assert out.dtype == dtype
        spoiled = np.zeros((B, T), dtype=bool)
        spoiled[1, 6] = True
        assert np.isnan(out[1, 6]).all()
        assert np.isfinite(out[~spoiled]).all()
        np.testing.assert_allclose(out[~spoiled].sum(axis=-1), 1.0,
                                   atol=1e-6 if dtype == np.float32 else 1e-12)
        # the per-slot weights the backward keeps, [B, T + 2*delta, W] padded
        pi_pad, = [a for a in _captured(y._node._vjps[0])
                   if isinstance(a, np.ndarray) and a.shape == (B, T + 2 * delta, W)]
        pi = pi_pad[:, delta:delta + T]
        pos = np.arange(T)[:, None] + np.arange(W)[None, :] - delta
        banned = (pos < 0) | (pos >= T)
        assert banned.any()
        for b, t in zip(*np.nonzero(~spoiled)):
            assert np.all(pi[b, t, banned[t]] == 0.0)
            assert np.array_equal(pi[b, t, ~banned[t]], out[b, t, pos[t, ~banned[t]]])

    def test_shape_errors(self):
        q = ad.constant(np.ones((1, 5, 2)))
        bad = ad.constant(np.ones((1, 6, 2)))
        with pytest.raises(ValueError, match="incompatible"):
            ad.windowed_attention(q, bad, q, delta=1)

    def test_split_merge_heads_round_trip(self):
        rng = stream(34, "sh")
        x = parameter(rng.normal(size=(3, 6, 8)))
        back = ad.merge_heads(ad.split_heads(x, heads=4), heads=4)
        np.testing.assert_array_equal(back.data, x.data)
        c = ad.constant(rng.normal(size=(3, 6, 8)))
        err = grad_check(
            lambda: ad.mean(ad.mul(ad.merge_heads(ad.split_heads(x, 4), 4), c)), x)
        assert err < 1e-9

    def test_split_heads_isolates_each_head(self):
        # head i of the folded batch must see exactly channels [i*w, (i+1)*w)
        x = np.zeros((2, 3, 6))
        x[1, 2, 4] = 7.0  # batch 1, time 2, head 2 (w=2), channel 0
        s = ad.split_heads(ad.constant(x), heads=3)
        assert s.shape == (6, 3, 2)
        assert s.data[1 * 3 + 2, 2, 0] == 7.0
        assert np.count_nonzero(s.data) == 1

    def test_folded_heads_match_per_head_attention(self):
        rng = stream(35, "fh")
        B, T, h, r = 2, 10, 3, 4
        q = rng.normal(size=(B, T, h * r))
        k = rng.normal(size=(B, T, h * r))
        v = rng.normal(size=(B, T, h * r))
        folded = ad.merge_heads(
            ad.windowed_attention(
                ad.split_heads(ad.constant(q), h),
                ad.split_heads(ad.constant(k), h),
                ad.split_heads(ad.constant(v), h), delta=2), h)
        for i in range(h):
            sl = slice(i * r, (i + 1) * r)
            single = ad.windowed_attention(
                ad.constant(q[:, :, sl]), ad.constant(k[:, :, sl]),
                ad.constant(v[:, :, sl]), delta=2)
            np.testing.assert_allclose(folded.data[:, :, sl], single.data, atol=1e-13)


def reference_adam(theta0, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook Adam recurrence, written independently of the module."""
    theta = float(theta0)
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mh = m / (1 - beta1 ** t)
        vh = v / (1 - beta2 ** t)
        theta -= lr * mh / (np.sqrt(vh) + eps)
    return theta


class TestAdam:
    def test_zero_gradient_no_motion(self):
        p = np.array([1.0, 2.0])
        st = ad.AdamState([p], lr=0.1)
        ad.adam_step([p], [np.zeros(2)], st)
        np.testing.assert_array_equal(p, [1.0, 2.0])
        assert st.step == 1

    def test_first_step_is_minus_lr(self):
        # bias correction makes the first update lr*sign(g) up to eps
        p = np.array([0.0])
        st = ad.AdamState([p], lr=0.1)
        ad.adam_step([p], [np.array([1.0])], st)
        np.testing.assert_allclose(p, [-0.1], atol=1e-8)

    def test_trajectory_matches_reference(self):
        rng = stream(77, "adam")
        gs = rng.normal(size=20)
        p = np.array([0.3])
        st = ad.AdamState([p], lr=0.05)
        for g in gs:
            ad.adam_step([p], [np.array([g])], st)
        expect = reference_adam(0.3, gs, lr=0.05)
        np.testing.assert_allclose(p, [expect], rtol=1e-12)

    def test_nonfinite_gradient_skips_whole_step(self):
        p = np.array([1.0])
        q = np.array([2.0])
        st = ad.AdamState([p, q], lr=0.1)
        ad.adam_step([p, q], [np.array([np.nan]), np.array([1.0])], st)
        np.testing.assert_array_equal(p, [1.0])
        np.testing.assert_array_equal(q, [2.0])
        assert st.skipped == 1 and st.step == 0

    def test_determinism(self):
        def run():
            rng = stream(9, "det")
            p = parameter(rng.normal(size=(3, 3)))
            st = ad.AdamState([p.data], lr=0.01)
            for _ in range(50):
                p.grad = None
                loss = ad.mean(ad.square(p))
                loss.backward()
                ad.adam_step([p.data], [p.grad], st)
            return p.data.copy()

        np.testing.assert_array_equal(run(), run())

    def test_converges_on_quadratic(self):
        p = parameter([5.0, -3.0])
        st = ad.AdamState([p.data], lr=0.1)
        for _ in range(500):
            p.grad = None
            ad.mean(ad.square(p)).backward()
            ad.adam_step([p.data], [p.grad], st)
        assert np.abs(p.data).max() < 1e-3

    def test_shape_mismatch_rejected(self):
        p = np.array([1.0, 2.0])
        st = ad.AdamState([p], lr=0.1)
        with pytest.raises(ValueError, match="shape"):
            ad.adam_step([p], [np.zeros(3)], st)


def _unloadable(name):
    raise OSError(f"cannot load {name!r}")


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


# A 48-row `predict` at the acceptance config after two warm-up calls; prints
# the minor page faults of the third call.
_FAULT_PROBE = """
import resource
import bemopt.model as mdl
import bemopt.training as tr
from bemopt.schema import DEFAULT_SCHEMA
from bemopt.seeding import stream
from bemopt.weather import generate_pool

cfg = mdl.MetamodelConfig(d_in=DEFAULT_SCHEMA.d_in, d_emb=32, r=4, v_width=4, h=4,
                          n_layers=3, delta=12)
ds = tr.sample_dataset(generate_pool(3, 2), 48, seed=5)
model = mdl.FrozenModel(mdl.init_transformer(cfg, stream(1, "transformer-init")), cfg,
                        "transformer", ds.norm)
for _ in range(2):
    tr.predict(model, inputs=ds.inputs)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
tr.predict(model, inputs=ds.inputs)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestHeapPolicy:
    @pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
    def test_warm_predict_reuses_heap_pages(self):
        """Without the policy glibc trims the heap between batches and the
        third call faults ~8k pages in again. Runs in a fresh process, so
        the heap history of earlier tests cannot hide that."""
        src = os.path.dirname(os.path.dirname(bemopt.__file__))
        proc = subprocess.run([sys.executable, "-c", _FAULT_PROBE],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 500

    @pytest.mark.parametrize("cdll", [lambda name: object(), _unloadable],
                             ids=["no-mallopt", "no-libc"])
    def test_policy_is_a_no_op_without_mallopt(self, monkeypatch, cdll):
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert bemopt._set_heap_policy() is None


class TestContainer:
    def test_round_trip_values_and_order(self, tmp_path):
        rng = stream(4, "ntc")
        tensors = {
            "w1": rng.normal(size=(3, 4)),
            "b1": rng.normal(size=(4,)),
            "scalar": np.array(2.5),
        }
        path = tmp_path / "model.bin"
        ad.save_tensors(path, tensors, meta={"kind": "test", "n": 3})
        back, meta = ad.load_tensors(path)
        assert list(back) == ["w1", "b1", "scalar"]
        assert meta == {"kind": "test", "n": 3}
        for k in tensors:
            np.testing.assert_array_equal(back[k], tensors[k])

    def test_layout_is_little_endian_float64(self, tmp_path):
        path = tmp_path / "t.bin"
        ad.save_tensors(path, {"x": np.array([1.0, 2.0])})
        raw = path.read_bytes()
        assert raw[:4] == b"NTC1"
        hlen = int.from_bytes(raw[4:8], "little")
        header = raw[8:8 + hlen].decode()
        assert '"x"' in header
        payload = raw[8 + hlen:]
        np.testing.assert_array_equal(np.frombuffer(payload, "<f8"), [1.0, 2.0])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            ad.load_tensors(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.bin"
        ad.save_tensors(path, {"x": np.zeros(8)})
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(ValueError, match="truncated"):
            ad.load_tensors(path)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda raw, h: raw[:6], "truncated header length field (2 of 4 bytes)"),
        (lambda raw, h: raw[:8 + h] + raw[8 + h + 8:], "truncated payload (72 of 80 bytes)"),
        (lambda raw, h: raw + b"\0" * 8, "8 trailing bytes after the payload"),
        (lambda raw, h: raw.replace(b'"offset": 48', b'"offset": 40'),
         "tensor 'b' at offset 40, want 48"),
        (lambda raw, h: raw.replace(b'"meta"', b'"mota"'),
         "header is not a tensor index (KeyError: 'meta')"),
        # a 4 GiB header length on a small file: read what is there, allocate no more
        (lambda raw, h: raw[:4] + b"\xff\xff\xff\xff" + raw[8:8 + h],
         "truncated payload (0 of 80 bytes)"),
    ], ids=["length-field", "truncated", "trailing", "offset", "header", "header-length"])
    def test_malformed_container_message(self, tmp_path, corrupt, message):
        path = tmp_path / "t.bin"
        ad.save_tensors(path, {"a": np.zeros((2, 3)), "b": np.ones(4)}, meta={"k": 1})
        raw = path.read_bytes()
        path.write_bytes(corrupt(raw, int.from_bytes(raw[4:8], "little")))
        with pytest.raises(ValueError) as info:
            ad.load_tensors(path)
        assert str(info.value) == f"{path}: {message}"

    def test_load_holds_the_payload_once(self, tmp_path):
        """Each tensor is read into its own array, with no whole-file copy
        beside the arrays (reading the file, then converting, held 2x)."""
        rng = stream(5, "ntc-peak")
        tensors = {"w": rng.normal(size=(256, 1024)), "b": rng.normal(size=(1024,)),
                   "x": rng.normal(size=(3, 128, 512))}
        payload = sum(a.nbytes for a in tensors.values())
        path = tmp_path / "big.bin"
        ad.save_tensors(path, tensors)
        del tensors
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            back, _ = ad.load_tensors(path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert sum(a.nbytes for a in back.values()) == payload
        assert peak <= 1.25 * payload, f"load peak {peak / payload:.2f}x the payload"

    def test_save_is_deterministic(self, tmp_path):
        t = {"a": np.arange(6.0).reshape(2, 3), "b": np.ones(2)}
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        ad.save_tensors(p1, t, meta={"v": 1})
        ad.save_tensors(p2, t, meta={"v": 1})
        assert p1.read_bytes() == p2.read_bytes()


def test_autodiff_imports_only_what_whole_array_ops_need():
    """autodiff starts no thread, calls no native library and keeps no
    context state: the core split lives in training.  These are exactly its
    top-level imports."""
    with open(ad.__file__) as f:
        tree = ast.parse(f.read())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"__future__", "json", "math", "os", "struct", "numpy", ".schema"}
