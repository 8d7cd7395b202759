"""Dense float32 or float64 tensors with reverse-mode automatic differentiation.

Small define-by-run engine: every operation returns a new Tensor holding the
numpy result and, when an operand needs a gradient, a graph node whose
closures push gradients back to the operands' nodes.  The op set is
deliberately tiny (matmul, elementwise arithmetic, relu, log1p, sqrt,
square, mean, slice, layer_norm) but each op supports the batched 3-D
layouts the sequence model needs, so a training step is a few hundred large
array operations instead of thousands of small ones.  Every op is plain
whole-array code on the calling thread.

The graph holds no Tensor and no forward result that no backward reads.  A
node keeps its grad, its parents' nodes and one VJP closure per parent that
requires a gradient, and each closure captures only the arrays and shapes
its backward formula reads (mul keeps the other operand, log1p and square
their input, layer_norm its normalized input, inverse scale and gamma).  So
once the forward drops an interior Tensor, its array is freed unless a VJP
needs it.

Broadcasting is restricted to scalars and trailing row vectors (bias adds,
per-channel scale/shift).

A Tensor holds float32 or float64 (any other input becomes float64, so
float64 is the default), and each op computes, and its backward
differentiates, in its operands' dtype.  Operands that require a gradient
must share one dtype, or the op raises ValueError; a float64 constant next
to a float32 operand (a scale, a position signal) is cast to float32, so
nothing upcasts a float32 forward.  In float64, gradient checks against
central differences are expected to pass at 1e-6, not 1e-2.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .schema import SchemaError

__all__ = [
    "Tensor", "constant",
    "matmul", "add", "sub", "mul", "relu", "log1p", "sqrt",
    "square", "mean", "slice_last", "layer_norm",
    "windowed_attention", "split_heads", "merge_heads",
    "AdamState", "adam_step",
    "save_tensors", "load_tensors",
]

_EPS_LN = 1e-5  # layer_norm variance floor


def _as_array(x) -> np.ndarray:
    """x as a float32 or float64 array, shared when it already is one;
    every other dtype becomes float64."""
    a = np.asarray(x)
    if a.dtype != np.float32 and a.dtype != np.float64:
        a = a.astype(np.float64)
    return a


class _Node:
    """The backward bookkeeping of one grad-requiring Tensor, and no array.

    _parents are the nodes of the operands that require a gradient and
    _vjps their VJP closures, in operand order; a leaf has neither.
    """

    __slots__ = ("grad", "_parents", "_vjps")

    def __init__(self, parents=(), vjps=()):
        self.grad = None
        self._parents = parents
        self._vjps = vjps


class Tensor:
    """A float32 or float64 array plus, if it requires a gradient, its graph
    node.

    Leaves are made by constant() or Tensor(data, requires_grad=True), interior
    Tensors by the ops below.  A constant has no node.  The node holds .grad
    and the links to the operands' nodes, never a Tensor, so the graph
    keeps a forward result alive only where a VJP closure captured it.
    grad is only populated on leaves reachable from the backward() root
    that require gradients: backward() consumes the graph, so interior
    nodes hold no grad and no parents once it returns.
    """

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self._node = _Node() if requires_grad else None

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self):
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value):
        if self._node is not None:
            self._node.grad = value
        elif value is not None:
            raise ValueError("a constant Tensor holds no gradient")

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def backward(self, grad=None) -> None:
        """Accumulate d(self)/d(leaf) into .grad over the whole graph.

        Without grad, self must be scalar-valued (the usual loss root) and
        the sweep starts from 1.  With grad, an array of exactly self's
        shape and dtype, the root may have any shape and each leaf
        accumulates the vector-Jacobian product grad . d(self)/d(leaf); a
        part of a larger graph is swept this way with its rows of the whole
        gradient.
        Single use: the sweep consumes the graph.  Once a node's VJPs have
        run, its .grad is dropped and its parents and VJPs are cut, so each
        array a VJP kept is freed as soon as nothing upstream needs it; only
        leaves keep their accumulated .grad.  A second call on the same root
        finds no graph behind it and changes no leaf grad.  A constant root
        has no graph and nothing to do.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(f"backward() needs a scalar root, got shape {self.data.shape}")
            seed = np.ones_like(self.data)
        else:
            seed = _as_array(grad)
            if seed.shape != self.data.shape:
                raise ValueError(f"backward(): seed shape {seed.shape} does not match "
                                 f"the root's {self.data.shape}")
            if seed.dtype != self.data.dtype:
                raise ValueError(f"backward(): seed dtype {seed.dtype} does not match "
                                 f"the root's {self.data.dtype}")
        if self._node is None:
            return
        order = []
        seen = set()
        stack = [(self._node, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._node.grad = seed
        # pop rather than iterate, so the list holds no node already swept
        while order:
            node = order.pop()
            g = node.grad
            for p, vjp in zip(node._parents, node._vjps):
                contrib = vjp(g)
                if p.grad is None:
                    p.grad = contrib
                else:
                    p.grad = p.grad + contrib
            if node._parents:
                node.grad = None
                node._parents = node._vjps = ()


def constant(data) -> Tensor:
    """Non-trainable leaf; shares the input buffer when already float32 or
    float64, and holds any other input as float64."""
    return Tensor(data, requires_grad=False)


def _coerce(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _result(data, parents, vjps) -> Tensor:
    """A Tensor over data whose node links only the parents that require a
    gradient; the VJPs of the others are dropped with what they captured."""
    out = Tensor(data)
    links = [(p._node, vjp) for p, vjp in zip(parents, vjps) if p._node is not None]
    if links:
        nodes, kept = zip(*links)
        out._node = _Node(nodes, kept)
    return out


# ---------------------------------------------------------------------------
# broadcast helpers (scalars and trailing row vectors only)

def _broadcast_ok(sa, sb) -> bool:
    if sa == sb:
        return True
    # row vector over the trailing axis, e.g. (B, n, d) + (d,)
    if len(sb) == 1 and len(sa) >= 1 and sa[-1] == sb[0]:
        return True
    if sb == () or sb == (1,):
        return True
    return False


def _reduce_to(g: np.ndarray, shape) -> np.ndarray:
    """Sum g down to the given operand shape (inverse of the broadcast)."""
    if g.shape == tuple(shape):
        return g
    if shape == () or shape == (1,):
        return np.sum(g).reshape(shape)
    # trailing row vector
    axes = tuple(range(g.ndim - 1))
    return np.sum(g, axis=axes).reshape(shape)


def _one_dtype(name: str, *operands):
    """One op's operands, with their dtypes checked and aligned.

    Operands that require a gradient must share a dtype. Where float32 and
    float64 meet, a float64 constant is cast to float32, so a float64 scale
    or signal never upcasts a float32 computation.
    """
    if len({t.data.dtype for t in operands}) == 1:
        return operands
    if len({t.data.dtype for t in operands if t._node is not None}) > 1:
        raise ValueError(f"{name}: operands that require a gradient differ in dtype "
                         f"({', '.join(str(t.data.dtype) for t in operands)})")
    return tuple(Tensor(t.data.astype(np.float32))
                 if t._node is None and t.data.dtype == np.float64 else t
                 for t in operands)


def _operands(a, b, name: str):
    a, b = _coerce(a), _coerce(b)
    if not (_broadcast_ok(a.shape, b.shape) or _broadcast_ok(b.shape, a.shape)):
        raise ValueError(f"{name}: incompatible shapes {a.shape} and {b.shape}")
    return _one_dtype(name, a, b)


def add(a, b) -> Tensor:
    a, b = _operands(a, b, "add")
    sa, sb = a.shape, b.shape
    return _result(a.data + b.data, (a, b),
                   (lambda g: _reduce_to(g, sa), lambda g: _reduce_to(g, sb)))


def sub(a, b) -> Tensor:
    a, b = _operands(a, b, "sub")
    sa, sb = a.shape, b.shape
    return _result(a.data - b.data, (a, b),
                   (lambda g: _reduce_to(g, sa), lambda g: _reduce_to(-g, sb)))


def mul(a, b) -> Tensor:
    a, b = _operands(a, b, "mul")
    x, y = a.data, b.data
    sa, sb = a.shape, b.shape
    return _result(x * y, (a, b),
                   (lambda g: _reduce_to(g * y, sa), lambda g: _reduce_to(g * x, sb)))


# ---------------------------------------------------------------------------
# matmul, 2-D or batched 3-D, optionally with the second operand transposed

def matmul(a, b, transpose_b: bool = False) -> Tensor:
    a, b = _one_dtype("matmul", _coerce(a), _coerce(b))
    ad, bd = a.data, b.data
    if ad.ndim not in (2, 3) or bd.ndim not in (2, 3):
        raise ValueError(f"matmul: unsupported ranks {ad.shape} and {bd.shape}")
    be = bd.swapaxes(-1, -2) if transpose_b else bd
    ka, kb = ad.shape[-1], be.shape[-2]
    if ka != kb or (ad.ndim == 3 and be.ndim == 3 and ad.shape[0] != be.shape[0]):
        raise ValueError(f"matmul: incompatible shapes {ad.shape} and {bd.shape}"
                         f"{' (transpose_b)' if transpose_b else ''}")
    if ad.ndim == 2 and be.ndim == 3:
        raise ValueError(f"matmul: 2-D by 3-D not supported, {ad.shape} and {bd.shape}")

    if ad.ndim == 3 and bd.ndim == 2:
        # shared weight across the batch: one large GEMM instead of numpy's
        # per-batch loop
        B, n, k = ad.shape
        a2 = ad.reshape(B * n, k)
        out = (a2 @ be).reshape(B, n, -1)

        def grad_a(g):
            w = bd if transpose_b else bd.T
            return (g.reshape(B * n, -1) @ w).reshape(B, n, k)

        def grad_b(g):
            g2 = g.reshape(B * n, -1)
            return g2.T @ a2 if transpose_b else a2.T @ g2

        return _result(out, (a, b), (grad_a, grad_b))

    out = ad @ be

    def grad_a(g):
        if transpose_b:
            return g @ bd
        return g @ bd.swapaxes(-1, -2)

    def grad_b(g):
        if transpose_b:
            return g.swapaxes(-1, -2) @ ad
        return ad.swapaxes(-1, -2) @ g

    return _result(out, (a, b), (grad_a, grad_b))


def relu(x) -> Tensor:
    x = _coerce(x)
    out = np.maximum(x.data, 0.0)
    mask = x.data > 0.0
    return _result(out, (x,), (lambda g: g * mask,))


def log1p(x) -> Tensor:
    x = _coerce(x)
    xd = x.data
    return _result(np.log1p(xd), (x,), (lambda g: g / (1.0 + xd),))


def sqrt(x) -> Tensor:
    x = _coerce(x)
    out = np.sqrt(x.data)
    return _result(out, (x,), (lambda g: g * 0.5 / out,))


def square(x) -> Tensor:
    x = _coerce(x)
    xd = x.data
    return _result(xd * xd, (x,), (lambda g: g * 2.0 * xd,))


def mean(x) -> Tensor:
    """Mean over every element, a scalar."""
    x = _coerce(x)
    out = np.mean(x.data, axis=tuple(range(x.data.ndim)))
    shape, n = x.data.shape, x.data.size

    def grad_x(g):
        return np.broadcast_to(g, shape) / n

    return _result(out, (x,), (grad_x,))


def slice_last(x, start: int, stop: int) -> Tensor:
    """x[..., start:stop] with a zero-padding backward."""
    x = _coerce(x)
    w = x.data.shape[-1]
    if not (0 <= start < stop <= w):
        raise ValueError(f"slice_last: [{start}:{stop}] out of range for width {w}")
    out = x.data[..., start:stop]
    shape, dtype = x.data.shape, x.data.dtype

    def grad_x(g):
        full = np.zeros(shape, dtype=dtype)
        full[..., start:stop] = g
        return full

    return _result(out, (x,), (grad_x,))


def split_heads(x, heads: int) -> Tensor:
    """[B, T, heads*w] -> [B*heads, T, w]: fold heads into the batch axis.

    Lets one windowed_attention call cover every head of a layer at once.
    """
    x = _coerce(x)
    if x.data.ndim != 3 or x.data.shape[2] % heads != 0:
        raise ValueError(f"split_heads: cannot split {x.shape} into {heads} heads")
    B, T, hw = x.data.shape
    w = hw // heads
    out = x.data.reshape(B, T, heads, w).transpose(0, 2, 1, 3).reshape(B * heads, T, w)

    def grad_x(g):
        return g.reshape(B, heads, T, w).transpose(0, 2, 1, 3).reshape(B, T, hw)

    return _result(out, (x,), (grad_x,))


def merge_heads(x, heads: int) -> Tensor:
    """[B*heads, T, w] -> [B, T, heads*w]: inverse of split_heads."""
    x = _coerce(x)
    if x.data.ndim != 3 or x.data.shape[0] % heads != 0:
        raise ValueError(f"merge_heads: cannot regroup {x.shape} from {heads} heads")
    Bh, T, w = x.data.shape
    B = Bh // heads
    out = x.data.reshape(B, heads, T, w).transpose(0, 2, 1, 3).reshape(B, T, heads * w)

    def grad_x(g):
        return g.reshape(B, T, heads, w).transpose(0, 2, 1, 3).reshape(Bh, T, w)

    return _result(out, (x,), (grad_x,))


def _slot_sum(x: np.ndarray) -> np.ndarray:
    """x.sum(axis=0) with the bits of np.moveaxis(x, 0, -1).sum(axis=-1) on a
    contiguous copy: the slots are added in numpy's pairwise order, fewer
    than 8 in sequence from +0.0, up to 128 in eight running lanes joined as
    ((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7)), then the tail, then +0.0, more
    split in two at a multiple of 8.  So an all-zero column sums to +0.0,
    as numpy's does."""
    n = x.shape[0]
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _slot_sum(x[:half]) + _slot_sum(x[half:])
    if n < 8:
        res = x[0] + 0.0
        for i in range(1, n):
            res += x[i]
        return res
    lanes = x[:8].copy()
    body = n - n % 8
    for i in range(8, body, 8):
        lanes += x[i:i + 8]
    np.add(lanes[0::2], lanes[1::2], out=lanes[0::2])
    np.add(lanes[0::4], lanes[2::4], out=lanes[0::4])
    res = lanes[0]
    res += lanes[4]
    for i in range(body, n):
        res += x[i]
    res += 0.0
    return res


def windowed_attention(q, k, v, delta: int):
    """Scaled-window attention: position t attends to t-delta .. t+delta.

    q, k are [B, T, r]; v is [B, T, c]; the result is [B, T, c].  Scores are
    raw dot products (scale q beforehand if needed); the softmax runs over
    the 2*delta+1 window slots and is truncated (renormalized) at the
    sequence boundaries.  Equivalent to dense attention under a band mask
    but costs O(T * delta) instead of O(T^2), and positions outside the
    band are unreachable by construction.
    """
    q, k, v = _one_dtype("windowed_attention", _coerce(q), _coerce(k), _coerce(v))
    qd, kd, vd = q.data, k.data, v.data
    if qd.ndim != 3 or kd.ndim != 3 or vd.ndim != 3:
        raise ValueError(f"windowed_attention: need 3-D operands, got "
                         f"{qd.shape}, {kd.shape}, {vd.shape}")
    if qd.shape != kd.shape or qd.shape[:2] != vd.shape[:2]:
        raise ValueError(f"windowed_attention: incompatible shapes "
                         f"{qd.shape}, {kd.shape}, {vd.shape}")
    if delta < 1:
        raise ValueError(f"windowed_attention: delta must be >= 1, got {delta}")
    B, T, r = qd.shape
    c = vd.shape[2]
    W = 2 * delta + 1

    def fwd_window(x):
        """[b, T+2*delta, w] zero-padded -> strided view [b, T, W, w]
        where view[i, t, s] = x_padded[i, t+s] = x[i, t+s-delta]."""
        s0, s1, s2 = x.strides
        return np.lib.stride_tricks.as_strided(
            x, (x.shape[0], T, W, x.shape[2]), (s0, s1, s1, s2), writeable=False)

    def rev_window(x):
        """view[i, t, s] = x_padded[i, t+s, W-1-s]: for target position t,
        slot s gathers the (query row, slot) pairs that referenced t."""
        s0, s1, s2 = x.strides
        return np.lib.stride_tricks.as_strided(
            x[:, :, W - 1:], (x.shape[0], T, W, 1), (s0, s1, s1 - s2, s2), writeable=False)

    def zero_padded(b, w):
        """Zero [b, T+2*delta, w] buffer and its [b, T, w] interior view."""
        buf = np.zeros((b, T + 2 * delta, w), dtype=qd.dtype)
        return buf, buf[:, delta:delta + T]

    def pad(x):
        buf, inner = zero_padded(x.shape[0], x.shape[2])
        inner[...] = x
        return buf

    # slots whose absolute position falls outside the sequence are banned;
    # the mask is [W, 1, T], in the softmax's slot-major layout
    pos = np.arange(W)[:, None, None] + np.arange(T)[None, None, :] - delta
    boundary = np.where((pos >= 0) & (pos < T), 0.0, -1e30).astype(qd.dtype)

    # k, v and the per-slot factors pi (ds in the backward) live in
    # zero-padded buffers: the backward reads them back through the windows
    # (scatter-free gathers) without a padded copy
    k_pad, v_pad = pad(kd), pad(vd)
    pi_pad, pi = zero_padded(B, W)
    # the softmax runs slot-major, [W, B, T], so its max and sum over the
    # slots are lane-wise ops over whole [B, T] planes; _slot_sum keeps
    # numpy's summation order, so pi has the bits of a last-axis softmax
    e = np.add((fwd_window(k_pad) @ qd[:, :, :, None])[..., 0].transpose(2, 0, 1), boundary,
               order="C")
    e -= e.max(axis=0)
    np.exp(e, out=e)
    np.divide(e, _slot_sum(e), out=e)
    pi[...] = e.transpose(1, 2, 0)  # a transposing copy beats a strided divide
    del e  # freed before the output product allocates; the tape keeps pi
    out = (pi[:, :, None, :] @ fwd_window(v_pad))[:, :, 0, :]

    def grad_all(g):
        dpi = (fwd_window(v_pad) @ g[:, :, :, None])[..., 0]
        ds_pad, ds = zero_padded(B, W)
        np.multiply(pi, dpi - np.sum(pi * dpi, axis=-1, keepdims=True), out=ds)
        dq = (ds[:, :, None, :] @ fwd_window(k_pad))[:, :, 0, :]
        dk = (rev_window(ds_pad).swapaxes(2, 3) @ fwd_window(pad(qd)))[:, :, 0, :]
        dv = (rev_window(pi_pad).swapaxes(2, 3) @ fwd_window(pad(g)))[:, :, 0, :]
        return dq, dk, dv

    # the three vjps share one sweep; backward hands all three the same
    # upstream array, so cache the sweep keyed by object identity
    cache = {"g": None, "val": None}

    def part(i):
        def vjp(g):
            if cache["g"] is not g:
                cache["g"] = g
                cache["val"] = grad_all(g)
            return cache["val"][i]
        return vjp

    return _result(out, (q, k, v), (part(0), part(1), part(2)))


def layer_norm(x, gamma, beta) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale-shift."""
    x, gamma, beta = _one_dtype("layer_norm", _coerce(x), _coerce(gamma), _coerce(beta))
    d = x.data.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ValueError(f"layer_norm: scale/shift {gamma.shape}/{beta.shape} "
                         f"do not match feature width {x.shape}")
    gd, bd = gamma.data, beta.data
    shape = x.data.shape
    rows = x.data.reshape(-1, d)
    xc = rows - rows.mean(axis=-1, keepdims=True)
    # np.var's own arithmetic, on the centred input it would recompute
    var = np.sum(xc * xc, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + _EPS_LN)
    xhat = xc * inv
    out = (xhat * gd + bd).reshape(shape)

    def grad_x(g):
        gg = g.reshape(-1, d) * gd
        m1 = gg.mean(axis=-1, keepdims=True)
        m2 = (gg * xhat).mean(axis=-1, keepdims=True)
        return (inv * (gg - m1 - xhat * m2)).reshape(shape)

    def grad_gamma(g):
        return np.sum(g * xhat.reshape(shape), axis=tuple(range(g.ndim - 1)))

    def grad_beta(g):
        return np.sum(g, axis=tuple(range(g.ndim - 1)))

    return _result(out, (x, gamma, beta), (grad_x, grad_gamma, grad_beta))


# ---------------------------------------------------------------------------
# Adam

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    """Per-parameter first/second moments plus the step counter, and the
    learning rate the next step uses (a schedule sets it between steps)."""

    def __init__(self, params, lr: float = 1e-3):
        self.lr = float(lr)
        self.step = 0
        self.skipped = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]


def adam_step(params, grads, state: AdamState) -> None:
    """One bias-corrected Adam update, in place on the parameter arrays.

    A non-finite gradient anywhere skips the whole step (moments untouched)
    and increments state.skipped, so one bad batch cannot poison the moments.
    """
    if len(params) != len(state.m) or len(grads) != len(params):
        raise ValueError(f"adam_step: {len(params)} params, {len(grads)} grads, "
                         f"state holds {len(state.m)}")
    for p, g in zip(params, grads):
        if g.shape != p.shape:
            raise ValueError(f"adam_step: gradient shape {g.shape} "
                             f"does not match parameter {p.shape}")
    if not all(np.isfinite(g).all() for g in grads):
        state.skipped += 1
        return
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p -= state.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# named-tensor container: magic, uint32 header length, JSON index, raw
# little-endian float64 payload

_MAGIC = b"NTC1"


def save_tensors(path, tensors: dict, meta: dict | None = None) -> None:
    index = []
    payload = bytearray()
    for name, arr in tensors.items():
        a = np.ascontiguousarray(arr, dtype="<f8")
        index.append({"name": name, "shape": list(a.shape), "offset": len(payload)})
        payload += a.tobytes()
    header = json.dumps({"meta": meta or {}, "tensors": index}).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        f.write(bytes(payload))


def load_tensors(path):
    """Returns (ordered name->array dict, meta dict).

    A malformed container raises one SchemaError naming the path: a wrong
    magic, a short header length field, a header that is not the JSON
    index, or a payload whose size differs from the sum of the tensor sizes
    (truncated, or followed by trailing bytes).  Each tensor is read
    straight from the file into its own array, so loading holds the
    payload once.
    """
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != _MAGIC:
            raise SchemaError(f"{path}: not a tensor container (magic {magic!r})")
        field = f.read(4)
        if len(field) < 4:
            raise SchemaError(f"{path}: truncated header length field ({len(field)} of 4 bytes)")
        (hlen,) = struct.unpack("<I", field)
        size = os.fstat(f.fileno()).st_size
        try:
            header = json.loads(f.read(min(hlen, max(size - 8, 0))).decode("utf-8"))
            meta = header["meta"]
            entries = [(e["name"], tuple(int(d) for d in e["shape"]), int(e["offset"]))
                       for e in header["tensors"]]
            if any(d < 0 for _, shape, _ in entries for d in shape):
                raise ValueError("negative dimension")
        except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
            raise SchemaError(f"{path}: header is not a tensor index ({type(e).__name__}: {e})") from None
        have = max(size - 8 - hlen, 0)
        want = 8 * sum(math.prod(shape) for _, shape, _ in entries)
        if have < want:
            raise SchemaError(f"{path}: truncated payload ({have} of {want} bytes)")
        if have > want:
            raise SchemaError(f"{path}: {have - want} trailing bytes after the payload")
        out = {}
        end = 0
        for name, shape, off in entries:
            if off != end:
                raise SchemaError(f"{path}: tensor {name!r} at offset {off}, want {end}")
            arr = np.empty(shape, dtype="<f8")
            got = f.readinto(arr.reshape(-1).view(np.uint8))
            end = off + arr.nbytes
            if got != arr.nbytes:
                raise SchemaError(f"{path}: truncated payload ({off + got} of {want} bytes)")
            out[name] = arr.astype(np.float64, copy=False)
    return out, meta
