"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation stores a backward closure on its output, so a computation
builds an implicit graph that ``Tensor.backward()`` walks in reverse
topological order. There is no global tape or session state, which makes
independent graphs safe to build and differentiate concurrently.

The walk owns its gradient buffers. A backward closure may hand ``out.grad``,
or a view of it, to a parent as is, so it must never write into ``out.grad``
or into an array it has passed on; a tensor's first gradient is adopted
without a copy, and later ones are summed out of place. Leaves (tensors with
no backward closure, such as parameters) keep ``.grad`` as their own copy;
interior nodes drop theirs as soon as their closure has run.

Every op but ``attention`` builds its node with ``custom_op``: it gives its
output and one ``(parent, grad_map)`` pair per parent, in parent order. A
grad map takes ``out.grad`` and returns that parent's gradient, at the
parent's shape or at a shape it broadcasts to; the builder alone skips
parents that need no gradient, sums each gradient back down to its parent's
shape and accumulates it. ``attention`` is the one node with a hand-written
backward closure, because its q and k gradients share one buffer. It keeps
its ``(..., n, m)`` probabilities for the backward, which walks the batch
axes one ``(n, m)`` block at a time: its working set beyond the kept
probabilities is that one block plus the q, k and v gradients.
Elementwise ops broadcast like numpy, and ``matmul`` follows numpy's
stacked-matrix rules. Only what the detector needs is implemented.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible."""


class MaskError(ValueError):
    """An attention mask leaves a query row with nothing to attend to."""


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[Tensor], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        """Backpropagate from a scalar output through the recorded graph.

        Leaves accumulate into their ``.grad``, so two calls give twice the
        gradient of one. Every interior node except ``self`` has ``.grad``
        set to None once its closure has run; ``_parents`` and the closures
        stay, so the graph can be walked and differentiated again.
        """
        if self.data.ndim != 0:
            raise ShapeError(f"backward() requires a 0-d scalar, got shape {self.shape}")
        self.grad = np.ones_like(self.data)
        for node in reversed(_toposort(self)):
            if node._backward is not None:
                node._backward(node)
                if node is not self:
                    node.grad = None

    # arithmetic ------------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __pow__(self, p):
        return power(self, p)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return take(self, key)

    def sum(self, axis=None):
        return tsum(self, axis=axis)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def swapaxes(self, a: int, b: int):
        return swapaxes(self, a, b)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into ``t.grad`` without writing into ``g`` or the old ``.grad``.

    An interior node adopts its first ``g`` as is, so ``g`` may be the
    caller's ``out.grad`` or a view of it; a leaf stores a C-ordered float64
    copy, so its ``.grad`` shares memory with no other array and is an array
    even when ``g`` is a numpy scalar. Later contributions are summed out of
    place.
    """
    if t.grad is not None:
        t.grad = t.grad + g
    elif t._backward is None:
        t.grad = np.array(g, dtype=np.float64, order="C")
    else:
        t.grad = g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to the shape it was broadcast from."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _link(data: np.ndarray, parents: tuple[Tensor, ...], backward: Callable[[Tensor], None]) -> Tensor:
    """The output tensor of an op, holding ``parents`` and ``backward`` if any
    parent requires gradients.

    ``backward`` is stored as is, not bound to the output, so nodes only point
    at their parents: a graph holds no reference cycle and is freed as soon as
    it is dropped.
    """
    out = Tensor(data, any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = parents
        out._backward = backward
    return out


def custom_op(y: np.ndarray, *operands: tuple[Tensor, Callable[[np.ndarray], np.ndarray]]) -> Tensor:
    """Build an op node from its output ``y`` and one ``(parent, grad_map)``
    pair per parent, in parent order.

    ``grad_map`` takes ``out.grad`` and returns the gradient for its parent, at
    the parent's shape or one it broadcasts to; the result is summed back to
    the parent's shape and accumulated. It is only called for parents that
    require gradients, in parent order, and may return ``out.grad`` or a view
    of it, but must never write into either.
    """

    def backward(out):
        for t, grad_map in operands:
            if t.requires_grad:
                _accum(t, _unbroadcast(grad_map(out.grad), t.shape))

    return _link(y, tuple(t for t, _ in operands), backward)


def _identity(g: np.ndarray) -> np.ndarray:
    return g


def np_sigmoid(x) -> np.ndarray:
    """Logistic sigmoid of a numpy array, without overflow for large ``|x|``."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


# primitive ops --------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return custom_op(a.data + b.data, (a, _identity), (b, _identity))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return custom_op(a.data * b.data, (a, lambda g: g * b.data), (b, lambda g: g * a.data))


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return custom_op(a.data / b.data, (a, lambda g: g / b.data),
                     (b, lambda g: -g * a.data / (b.data * b.data)))


def power(a, p: float) -> Tensor:
    """Elementwise a**p for a scalar exponent; grad is 0 at a == 0."""
    a = as_tensor(a)
    p = float(p)

    def grad_map(g):
        with np.errstate(divide="ignore", invalid="ignore"):
            return g * np.where(a.data != 0.0, p * a.data ** (p - 1.0), 0.0)

    return custom_op(a.data**p, (a, grad_map))


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul operands must have ndim >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")

    return custom_op(a.data @ b.data, (a, lambda g: g @ np.swapaxes(b.data, -1, -2)),
                     (b, lambda g: np.swapaxes(a.data, -1, -2) @ g))


def linear(x, w, b) -> Tensor:
    """``x @ w + b`` as one node with parents ``(x, w, b)``: ``x (..., n_in)``,
    ``w (n_in, n_out)``, ``b (n_out,)``, gradients as in ``matmul`` and ``add``."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.ndim < 2 or w.ndim < 2:
        raise ShapeError("linear operands must have ndim >= 2")
    if x.shape[-1] != w.shape[-2]:
        raise ShapeError(f"linear inner dims differ: {x.shape} @ {w.shape}")
    y = x.data @ w.data
    y += b.data
    return custom_op(y, (x, lambda g: g @ np.swapaxes(w.data, -1, -2)),
                     (w, lambda g: np.swapaxes(x.data, -1, -2) @ g), (b, _identity))


def relu(a) -> Tensor:
    a = as_tensor(a)
    return custom_op(np.maximum(a.data, 0.0), (a, lambda g: g * (a.data > 0)))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    y = np_sigmoid(a.data)
    return custom_op(y, (a, lambda g: g * y * (1.0 - y)))


def log(a) -> Tensor:
    """Natural log; inputs must be positive (clamp first)."""
    a = as_tensor(a)
    return custom_op(np.log(a.data), (a, lambda g: g / a.data))


def absolute(a) -> Tensor:
    a = as_tensor(a)
    return custom_op(np.abs(a.data), (a, lambda g: g * np.sign(a.data)))


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes through strictly inside the range."""
    a = as_tensor(a)
    return custom_op(np.clip(a.data, lo, hi), (a, lambda g: g * ((a.data > lo) & (a.data < hi))))


def _select(a: Tensor, b: Tensor, take_a: np.ndarray) -> Tensor:
    """``a`` where ``take_a``, else ``b``; each operand's gradient is masked to
    the elements it supplied."""
    return custom_op(np.where(take_a, a.data, b.data), (a, lambda g: g * take_a), (b, lambda g: g * ~take_a))


def minimum(a, b) -> Tensor:
    """Elementwise min; ties route the gradient to the first operand."""
    a, b = as_tensor(a), as_tensor(b)
    return _select(a, b, a.data <= b.data)


def maximum(a, b) -> Tensor:
    """Elementwise max; ties route the gradient to the first operand."""
    a, b = as_tensor(a), as_tensor(b)
    return _select(a, b, a.data >= b.data)


def tsum(a, axis=None) -> Tensor:
    a = as_tensor(a)

    def grad_map(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, a.shape).copy()

    return custom_op(a.data.sum(axis=axis), (a, grad_map))


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return custom_op(a.data.reshape(shape), (a, lambda g: g.reshape(a.shape)))


def swapaxes(a, ax0: int, ax1: int) -> Tensor:
    a = as_tensor(a)
    return custom_op(np.swapaxes(a.data, ax0, ax1), (a, lambda g: np.swapaxes(g, ax0, ax1)))


def take(a, key) -> Tensor:
    """Index/slice a tensor; the backward pass scatter-adds into place."""
    a = as_tensor(a)

    def grad_map(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, key, g)
        return buf

    return custom_op(a.data[key], (a, grad_map))


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    bounds = np.cumsum([0] + [t.shape[axis] for t in ts]).tolist()
    lead = (slice(None),) * (axis % ts[0].ndim)

    def piece(i):  # the slice of out.grad that parent i supplied
        key = lead + (slice(bounds[i], bounds[i + 1]),)
        return lambda g: g[key]

    return custom_op(np.concatenate([t.data for t in ts], axis=axis), *((t, piece(i)) for i, t in enumerate(ts)))


LN_EPS = 1e-5  # added to the variance in layer_norm


def layer_norm(a, gamma, beta) -> Tensor:
    """Layer normalization over the last axis with affine parameters."""
    a, gamma, beta = as_tensor(a), as_tensor(gamma), as_tensor(beta)
    mu = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    s = np.sqrt(var + LN_EPS)
    xn = (a.data - mu) / s
    y = xn * gamma.data + beta.data

    def a_grad(g):
        gxn = g * gamma.data
        return (gxn - gxn.mean(axis=-1, keepdims=True) - xn * (gxn * xn).mean(axis=-1, keepdims=True)) / s

    return custom_op(y, (a, a_grad), (gamma, lambda g: g * xn), (beta, _identity))


def attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Scaled dot-product attention: ``q (..., n, d)``, ``k (..., m, d)``,
    ``v (..., m, dv)``, with the same leading batch axes.

    ``mask`` is an optional boolean ``(n, m)`` array (True = may attend) that
    broadcasts over the batch axes. Masked logits are set to ``-inf`` before
    the softmax, so masked keys get exactly zero weight however large their
    logits are, and the gradient of a masked logit is exactly zero. A mask
    whose shape is not ``(n, m)`` raises ShapeError; a row with no allowed key
    raises MaskError, signalling a malformed isolation mask, and so do query
    rows when k has no rows. q with no rows gives a ``(..., 0, dv)`` output.
    NaN or inf in q, k or v raise FloatingPointError.

    Operands that are not ``(..., n, d)``, ``(..., m, d)`` and ``(..., m, dv)``
    with equal batch axes raise ShapeError.

    The whole call is one graph node with parents ``(q, k, v)``. The forward
    builds one ``(..., n, m)`` buffer and does the scale, the ``-inf`` fill
    and the softmax in it in place; the node keeps only that buffer of
    probabilities ``p``, and a repeated backward reads it again. The backward
    uses rowsum(dp * p) = rowsum(dout * out), so the softmax gradient needs no
    extra pass over the logits, and masked entries need no mask because ``p``
    is exactly 0 there. It walks the batch axes (the heads) one at a time and
    reuses one ``(n, m)`` block for the logit gradient, writing each head's
    q, k and v gradients into arrays allocated once: on top of ``p``, its
    working set is that block, not a second ``(..., n, m)`` buffer. Each head
    runs the matmuls that a whole-batch matmul runs for it, so the gradients
    are bitwise those of the whole-batch form.
    """
    if (min(q.ndim, k.ndim, v.ndim) < 2 or q.shape[-1] != k.shape[-1] or k.shape[-2] != v.shape[-2]
            or not q.shape[:-2] == k.shape[:-2] == v.shape[:-2]):
        raise ShapeError(f"attention needs q (..., n, d), k (..., m, d), v (..., m, dv); "
                         f"got {q.shape}, {k.shape}, {v.shape}")
    if not (np.isfinite(q.data).all() and np.isfinite(k.data).all() and np.isfinite(v.data).all()):
        raise FloatingPointError("attention: q, k or v hold NaN or inf")
    if k.shape[-2] == 0 < q.shape[-2]:
        raise MaskError(f"attention: {q.shape[-2]} query rows and no key to attend to")
    scale = 1.0 / math.sqrt(q.shape[-1])
    p = q.data @ np.swapaxes(k.data, -1, -2)
    p *= scale
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != p.shape[-2:]:
            raise ShapeError(f"mask shape {mask.shape} does not match {p.shape[-2:]}")
        empty = ~mask.any(axis=1)
        if empty.any():
            raise MaskError(f"query rows {np.flatnonzero(empty).tolist()} have no unmasked key")
        np.copyto(p, -np.inf, where=~mask)
    p -= p.max(axis=-1, keepdims=True, initial=-np.inf)  # initial: a (0, 0) block (no query, no key) reduces too
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)

    def backward(out):
        g = out.grad
        dv, dq, ds = np.empty(v.shape), np.empty(q.shape), np.empty(p.shape[-2:])
        # dk is filled transposed, as q^T @ ds, so it reaches k's parents with
        # the same memory layout (and the same rounding downstream) as a
        # batched q^T @ ds would give
        dkt = np.empty(k.shape[:-2] + (k.shape[-1], k.shape[-2]))
        rowsum = (g * out.data).sum(axis=-1, keepdims=True)
        for i in np.ndindex(p.shape[:-2]):
            np.matmul(p[i].T, g[i], out=dv[i])
            np.matmul(g[i], v.data[i].T, out=ds)
            ds -= rowsum[i]
            ds *= p[i]
            ds *= scale
            np.matmul(ds, k.data[i], out=dq[i])
            np.matmul(q.data[i].T, ds, out=dkt[i])
        for t, grad in ((v, dv), (q, dq), (k, np.swapaxes(dkt, -1, -2))):
            if t.requires_grad:
                _accum(t, grad)

    return _link(p @ v.data, (q, k, v), backward)


GRAD_CHECK_EPS = 1e-5  # the step of grad_check's central differences


def grad_check(f: Callable[[], Tensor], wrt: Tensor | Sequence[Tensor]) -> float:
    """Compare reverse-mode gradients of ``f`` with central differences.

    ``f`` is a zero-argument callable returning a scalar Tensor; it must be a
    pure, deterministic function of the tensors in ``wrt`` (it is re-invoked
    with perturbed data for every coordinate). The tensors in ``wrt`` must be
    leaves, since interior nodes keep no ``.grad`` after ``backward()``.
    Returns the max over all coordinates of ``|ad - fd| / max(1, |fd|)``.
    """
    tensors = [wrt] if isinstance(wrt, Tensor) else list(wrt)
    for t in tensors:
        t.grad = None
    out = f()
    out.backward()
    grads = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in tensors]
    for t in tensors:
        t.grad = None

    worst = 0.0
    for t, g in zip(tensors, grads):
        flat = t.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + GRAD_CHECK_EPS
            f_plus = float(f().data)
            flat[i] = old - GRAD_CHECK_EPS
            f_minus = float(f().data)
            flat[i] = old
            fd = (f_plus - f_minus) / (2.0 * GRAD_CHECK_EPS)
            worst = max(worst, abs(gflat[i] - fd) / max(1.0, abs(fd)))
    return worst
