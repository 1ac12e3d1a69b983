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

Elementwise ops (``add``, ``mul``, ``div``, ``power``, ``relu``, ``sigmoid``,
``log``, ``absolute``, ``clip``, ``minimum``, ``maximum``) broadcast like
numpy and share one node builder: each gives a gradient map per operand,
from ``out.grad`` to that operand's gradient at the broadcast shape, and the
builder sums the result back down to the operand's shape. ``matmul`` follows
numpy's stacked-matrix rules. Only what the detector needs is implemented.
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

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        """Backpropagate from a scalar output through the recorded graph.

        Leaves accumulate into their ``.grad``, so two calls give twice the
        gradient of one. Every interior node except ``self`` has ``.grad``
        set to None once its closure has run; ``_parents`` and the closures
        stay, so the graph can be walked and differentiated again.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar, got shape {self.shape}")
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

    def sum(self, axis=None, keepdims: bool = False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        n = self.size if axis is None else _axis_size(self.shape, axis)
        return tsum(self, axis=axis, keepdims=keepdims) * (1.0 / n)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def swapaxes(self, a: int, b: int):
        return swapaxes(self, a, b)

    @property
    def T(self):
        if self.ndim != 2:
            raise ShapeError(".T is for 2-d tensors; use swapaxes")
        return swapaxes(self, 0, 1)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _axis_size(shape, axis) -> int:
    if isinstance(axis, int):
        return shape[axis]
    return int(np.prod([shape[a] for a in axis]))


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


def custom_op(data: np.ndarray, parents: Sequence[Tensor], backward: Callable[[Tensor], None]) -> Tensor:
    """Build an op node from precomputed forward data and a backward closure.

    ``backward`` receives the output tensor and is responsible for calling
    ``accumulate_grad`` on whichever parents require gradients. It may pass
    ``out.grad`` or a view of it on unchanged, and must never write into
    ``out.grad`` or into an array it has passed on. It is stored
    as is, not bound to the output, so nodes only point at their parents: a
    graph holds no reference cycle and is freed as soon as it is dropped.
    """
    parents = tuple(parents)
    out = Tensor(data, any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = parents
        out._backward = backward
    return out


# Public alias used by fused ops in other modules.
accumulate_grad = _accum


def _elementwise(y: np.ndarray, *operands: tuple[Tensor, Callable[[np.ndarray], np.ndarray]]) -> Tensor:
    """Build an elementwise op node from its output ``y`` and one
    ``(tensor, grad_map)`` pair per operand.

    ``grad_map`` takes ``out.grad`` and returns the gradient for its tensor at
    the broadcast shape, which is then summed back to the tensor's shape.
    It is only called for tensors that require gradients.
    """

    def backward(out):
        for t, grad_map in operands:
            if t.requires_grad:
                _accum(t, _unbroadcast(grad_map(out.grad), t.shape))

    return custom_op(y, [t for t, _ in operands], backward)


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
    return _elementwise(a.data + b.data, (a, _identity), (b, _identity))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _elementwise(a.data * b.data, (a, lambda g: g * b.data), (b, lambda g: g * a.data))


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _elementwise(a.data / b.data, (a, lambda g: g / b.data),
                        (b, lambda g: -g * a.data / (b.data * b.data)))


def power(a, p: float) -> Tensor:
    """Elementwise a**p for a scalar exponent; grad is 0 at a == 0."""
    a = as_tensor(a)
    p = float(p)

    def grad_map(g):
        with np.errstate(divide="ignore", invalid="ignore"):
            return g * np.where(a.data != 0.0, p * a.data ** (p - 1.0), 0.0)

    return _elementwise(a.data**p, (a, grad_map))


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul operands must have ndim >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")

    def backward(out):
        g = out.grad
        if a.requires_grad:
            _accum(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return custom_op(a.data @ b.data, (a, b), backward)


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

    def backward(out):
        g = out.grad
        if x.requires_grad:
            _accum(x, _unbroadcast(g @ np.swapaxes(w.data, -1, -2), x.shape))
        if w.requires_grad:
            _accum(w, _unbroadcast(np.swapaxes(x.data, -1, -2) @ g, w.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.shape))

    return custom_op(y, (x, w, b), backward)


def relu(a) -> Tensor:
    a = as_tensor(a)
    return _elementwise(np.maximum(a.data, 0.0), (a, lambda g: g * (a.data > 0)))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    y = np_sigmoid(a.data)
    return _elementwise(y, (a, lambda g: g * y * (1.0 - y)))


def log(a) -> Tensor:
    """Natural log; inputs must be positive (clamp first)."""
    a = as_tensor(a)
    return _elementwise(np.log(a.data), (a, lambda g: g / a.data))


def absolute(a) -> Tensor:
    a = as_tensor(a)
    return _elementwise(np.abs(a.data), (a, lambda g: g * np.sign(a.data)))


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes through strictly inside the range."""
    a = as_tensor(a)
    return _elementwise(np.clip(a.data, lo, hi), (a, lambda g: g * ((a.data > lo) & (a.data < hi))))


def _select(a: Tensor, b: Tensor, take_a: np.ndarray) -> Tensor:
    """``a`` where ``take_a``, else ``b``; each operand's gradient is masked to
    the elements it supplied."""
    return _elementwise(np.where(take_a, a.data, b.data), (a, lambda g: g * take_a), (b, lambda g: g * ~take_a))


def minimum(a, b) -> Tensor:
    """Elementwise min; ties route the gradient to the first operand."""
    a, b = as_tensor(a), as_tensor(b)
    return _select(a, b, a.data <= b.data)


def maximum(a, b) -> Tensor:
    """Elementwise max; ties route the gradient to the first operand."""
    a, b = as_tensor(a), as_tensor(b)
    return _select(a, b, a.data >= b.data)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)

    def backward(out):
        if not a.requires_grad:
            return
        g = out.grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.shape).copy())

    return custom_op(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)

    def backward(out):
        if a.requires_grad:
            _accum(a, out.grad.reshape(a.shape))

    return custom_op(a.data.reshape(shape), (a,), backward)


def swapaxes(a, ax0: int, ax1: int) -> Tensor:
    a = as_tensor(a)

    def backward(out):
        if a.requires_grad:
            _accum(a, np.swapaxes(out.grad, ax0, ax1))

    return custom_op(np.swapaxes(a.data, ax0, ax1), (a,), backward)


def take(a, key) -> Tensor:
    """Index/slice a tensor; the backward pass scatter-adds into place."""
    a = as_tensor(a)

    def backward(out):
        if a.requires_grad:
            buf = np.zeros_like(a.data)
            np.add.at(buf, key, out.grad)
            _accum(a, buf)

    return custom_op(a.data[key], (a,), backward)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def backward(out):
        pieces = np.split(out.grad, splits, axis=axis)
        for t, g in zip(ts, pieces):
            if t.requires_grad:
                _accum(t, g)

    return custom_op(np.concatenate([t.data for t in ts], axis=axis), ts, backward)


def layer_norm(a, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis with affine parameters."""
    a, gamma, beta = as_tensor(a), as_tensor(gamma), as_tensor(beta)
    mu = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    s = np.sqrt(var + eps)
    xn = (a.data - mu) / s
    y = xn * gamma.data + beta.data

    def backward(out):
        g = out.grad
        if gamma.requires_grad:
            _accum(gamma, _unbroadcast(g * xn, gamma.shape))
        if beta.requires_grad:
            _accum(beta, _unbroadcast(g, beta.shape))
        if a.requires_grad:
            gxn = g * gamma.data
            _accum(a, (gxn - gxn.mean(axis=-1, keepdims=True) - xn * (gxn * xn).mean(axis=-1, keepdims=True)) / s)

    return custom_op(y, (a, gamma, beta), backward)


def attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Scaled dot-product attention: ``q (..., n, d)``, ``k (..., m, d)``,
    ``v (..., m, dv)``, with leading batch axes broadcast as in ``matmul``.

    ``mask`` is an optional boolean ``(n, m)`` array (True = may attend) that
    broadcasts over the batch axes. Masked logits are set to ``-inf`` before
    the softmax, so masked keys get exactly zero weight however large their
    logits are, and the gradient of a masked logit is exactly zero. A mask
    whose shape is not ``(n, m)`` raises ShapeError; a row with no allowed key
    raises MaskError, signalling a malformed isolation mask. NaN or inf in q,
    k or v raise FloatingPointError.

    The whole call is one graph node with parents ``(q, k, v)``. The forward
    builds one ``(..., n, m)`` buffer and does the scale, the ``-inf`` fill
    and the softmax in it in place; the backward keeps only that buffer of
    probabilities ``p``. It uses rowsum(dp * p) = rowsum(dout * out), so the
    softmax gradient needs no extra pass over the logits, and masked entries
    need no mask because ``p`` is exactly 0 there.
    """
    if not (np.isfinite(q.data).all() and np.isfinite(k.data).all() and np.isfinite(v.data).all()):
        raise FloatingPointError("attention: q, k or v hold NaN or inf")
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
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)

    def backward(out):
        g = out.grad
        if v.requires_grad:
            _accum(v, _unbroadcast(np.swapaxes(p, -1, -2) @ g, v.shape))
        if q.requires_grad or k.requires_grad:
            ds = g @ np.swapaxes(v.data, -1, -2)
            ds -= (g * out.data).sum(axis=-1, keepdims=True)
            ds *= p
            ds *= scale
            if q.requires_grad:
                _accum(q, _unbroadcast(ds @ k.data, q.shape))
            if k.requires_grad:
                dk = np.swapaxes(np.swapaxes(q.data, -1, -2) @ ds, -1, -2)
                _accum(k, _unbroadcast(dk, k.shape))

    return custom_op(p @ v.data, (q, k, v), backward)


def grad_check(
    f: Callable[[], Tensor],
    wrt: Tensor | Sequence[Tensor],
    eps: float = 1e-5,
    max_coords_per_tensor: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Compare reverse-mode gradients of ``f`` with central differences.

    ``f`` is a zero-argument callable returning a scalar Tensor; it must be a
    pure, deterministic function of the tensors in ``wrt`` (it is re-invoked
    with perturbed data for every probed coordinate). The tensors in ``wrt``
    must be leaves, since interior nodes keep no ``.grad`` after
    ``backward()``. Returns the max over probed coordinates of
    ``|ad - fd| / max(1, |fd|)``. By default every
    coordinate is probed; ``max_coords_per_tensor`` limits the probes per
    tensor to a random subset, for large parameter sets.
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
        idxs = np.arange(flat.size)
        if max_coords_per_tensor is not None and flat.size > max_coords_per_tensor:
            idxs = (rng or np.random.default_rng(0)).choice(flat.size, size=max_coords_per_tensor, replace=False)
        for i in idxs:
            old = flat[i]
            flat[i] = old + eps
            f_plus = float(f().data)
            flat[i] = old - eps
            f_minus = float(f().data)
            flat[i] = old
            fd = (f_plus - f_minus) / (2.0 * eps)
            worst = max(worst, abs(gflat[i] - fd) / max(1.0, abs(fd)))
    return worst
