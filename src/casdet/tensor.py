"""Dense float64 tensors with reverse-mode automatic differentiation.

Every op builds its output with ``custom_op(y, parents, backward)``, so a
computation builds an implicit graph that ``Tensor.backward()`` walks once,
in reverse topological order. There is no global tape or session state, which
makes independent graphs safe to build and differentiate concurrently.

A node's ``backward`` maps its output's gradient to a tuple with one gradient
per parent, in parent order: None for no gradient, or an array at the
parent's shape or at a shape that broadcasts to it. It never writes into the
gradient it received, and may return that gradient itself, views of it
(read-only broadcasts included) or one array for several parents. The walk
alone skips parents that need no gradient and sums or broadcasts each
gradient to exactly its parent's shape. A leaf (a tensor with no backward,
such as a parameter) owns its ``.grad``: it copies its first gradient into a
C-ordered float64 array and adds later ones into it in place, so a leaf's
``.grad`` shares memory with no other array. An interior node adopts its
first gradient and sums later ones out of place, since its ``.grad`` may be
another node's array; the walk releases it once its backward has run. A
backward may instead add a leaf parent's gradient into ``leaf_grad(parent)``
in place and return None for it, so no second parameter-sized array is built.
These return None for an operand that needs no gradient, rather than
compute one the walk would drop: ``linear`` and ``features.ffn`` for x,
``mul`` and ``div`` for either operand, ``features.multi_head_attention``
for each input and ``features.roi_pool_batch`` for the grid.

Backwards read their parents' ``.data`` rather than keep copies, and a node
rebuilds from it any transient its backward needs (recompute over store, as
in gradient checkpointing, Chen et al., 2016), as ``attention``,
``layer_norm`` and every node in ``features`` do; so a parent's ``.data``
must not change between the forward and the backward. A residual sum is
formed inside the ``layer_norm`` that reads it, so it is never held.

``attention`` takes 2-D operands with its heads side by side in the columns,
as in FlashAttention's ``(tokens, heads, head_dim)``, and keeps no
probabilities: it walks each head in blocks of query rows small enough to
stay in a core's L2 cache, works in contiguous per-head buffers, and its
backward recomputes each block from the operands' unchanged ``.data``. Its
kernel is one call on arrays, ``attention_forward(q, k, v, mask, heads)``:
it checks the operands and the mask, runs the forward and returns the
output with a ``backward(g, q, k, v)`` that alone holds the row max, row
sum and inverted mask. ``features.multi_head_attention`` calls it too, from
one node that rebuilds its q, k and v projections in its backward.

``attention`` and ``layer_norm`` take their row statistics from the matmuls
beside them, not from separate passes over a block: attention's row sums
are the last column of each block's product with ``[v_h | 1]``; its
backward gets ``logit - row max`` from one matmul of ``[q_h * scale | -row
max]`` with ``[k_h^T; 1]``, and ``gn v_h^T - r`` from one of ``[gn | -r]``
with ``[v_h^T; 1]``. Only the forward's row max is a reduction, and its
shift a subtraction. Layer norm's row means, forward and backward, are
matmuls with a ``(d, 1)`` column of ``1/d``. The ones columns live only
while their head or call runs, so each node holds the arrays it would hold
without them: attention's output, row max, row sum and inverted mask, and
layer norm's row mean and ``1/s`` (its backward rebuilds the normalized
input from them).

Elementwise ops broadcast like numpy, and ``matmul`` follows numpy's
stacked-matrix rules. Only what the detector needs is implemented.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .geom import require_integer


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
        self._backward: Callable[[np.ndarray], tuple[np.ndarray | None, ...]] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        """Backpropagate from a scalar output through the recorded graph, once.

        Gradients are held as the module docstring states. Once a node's
        backward has run, or it got no gradient, the walk drops its
        ``_parents``, backward and (but on ``self``) ``.grad``, so reference
        counting frees what the rest of the walk no longer needs, as
        PyTorch's default ``retain_graph=False`` does. Leaves and constants
        are not touched. Walking a released node again (a second call, or a
        new graph that passes it a gradient) raises RuntimeError.
        """
        if self.data.ndim != 0:
            raise ShapeError(f"backward() requires a 0-d scalar, got shape {self.shape}")
        self.grad = np.ones_like(self.data)
        order = _toposort(self)
        while order:
            node = order.pop()
            if node._backward is None:
                continue
            for p, g in zip(node._parents, () if node.grad is None else node._backward(node.grad)):
                if g is None or not p.requires_grad:
                    continue
                g = _unbroadcast(g, p.shape)
                if p._backward is not None:
                    p.grad = g if p.grad is None else p.grad + g
                elif p.grad is None:
                    p.grad = np.array(g, dtype=np.float64, order="C")
                else:
                    p.grad += g
            node._parents, node._backward = (), _released
            if node is not self:
                node.grad = None
            p = g = None  # hold no gradient while the next node's backward runs

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


def _released(g: np.ndarray) -> tuple:
    """The backward of a node that ``Tensor.backward`` has walked and released."""
    raise RuntimeError("backward: the graph was already walked and released; build it again")


def leaf_grad(t: Tensor) -> np.ndarray:
    """The gradient buffer of a leaf ``t``: its ``.grad``, created zero-filled
    when None. A tensor with a backward raises ValueError: its ``.grad`` may
    be another node's array, which adding into in place would corrupt."""
    if t._backward is not None:
        raise ValueError(f"leaf_grad: a tensor of shape {t.shape} has a backward, so it owns no gradient buffer")
    if t.grad is None:
        t.grad = np.zeros(t.shape)
    return t.grad


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A gradient at exactly ``shape``: summed down over the axes ``shape``
    was broadcast along, and broadcast up (a read-only view) along the axes
    where ``g`` is the one broadcast. A ``g`` of lower rank is read with
    unit axes in front, as numpy broadcasting reads it."""
    if g.shape == shape:
        return g
    g = g.reshape((1,) * (len(shape) - g.ndim) + g.shape)
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g if g.shape == shape else np.broadcast_to(g, shape)


def custom_op(y: np.ndarray, parents: tuple[Tensor, ...],
              backward: Callable[[np.ndarray], tuple[np.ndarray | None, ...]]) -> Tensor:
    """The output tensor of an op: ``y``, holding ``parents`` and ``backward``
    if any parent requires gradients.

    ``backward`` follows the module docstring's rule. It is stored as is, not
    bound to the output, so nodes only point at their parents: a graph holds
    no reference cycle and is freed as soon as it is dropped.
    """
    out = Tensor(y, any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = parents
        out._backward = backward
    return out


def np_sigmoid(x) -> np.ndarray:
    """Logistic sigmoid of a numpy array, without overflow for large ``|x|``."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


# primitive ops --------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return custom_op(a.data + b.data, (a, b), lambda g: (g, g))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return custom_op(a.data * b.data, (a, b), lambda g: (g * b.data if a.requires_grad else None,
                                                          g * a.data if b.requires_grad else None))


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return custom_op(a.data / b.data, (a, b), lambda g: (g / b.data if a.requires_grad else None,
                                                          -g * a.data / (b.data * b.data) if b.requires_grad else None))


def power(a, p: float) -> Tensor:
    """Elementwise a**p for a scalar exponent. The gradient is ``p a**(p-1)``;
    for ``p < 1`` it is not finite at a == 0, and is 0 there."""
    a = as_tensor(a)
    p = float(p)

    def backward(g):
        with np.errstate(divide="ignore", invalid="ignore"):
            d = p * a.data ** (p - 1.0)
        return (g * (d if p >= 1.0 else np.where(a.data != 0.0, d, 0.0)),)

    return custom_op(a.data**p, (a,), backward)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul operands must have ndim >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")

    return custom_op(a.data @ b.data, (a, b), lambda g: (g @ np.swapaxes(b.data, -1, -2),
                                                         np.swapaxes(a.data, -1, -2) @ g))


def linear(x, w, b) -> Tensor:
    """``x @ w + b`` as one node with parents ``(x, w, b)``: ``x (..., n_in)``,
    ``w (n_in, n_out)``, ``b (n_out,)``, gradients as in ``matmul`` and ``add``;
    other shapes raise ShapeError."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.ndim < 2 or w.ndim != 2 or b.shape != w.shape[1:]:
        raise ShapeError(f"linear needs x (..., n_in), w (n_in, n_out) and b (n_out,); "
                         f"got {x.shape}, {w.shape}, {b.shape}")
    if x.shape[-1] != w.shape[-2]:
        raise ShapeError(f"linear inner dims differ: {x.shape} @ {w.shape}")
    y = x.data @ w.data
    y += b.data

    def backward(g):
        return (g @ np.swapaxes(w.data, -1, -2) if x.requires_grad else None,
                np.swapaxes(x.data, -1, -2) @ g, g)

    return custom_op(y, (x, w, b), backward)


def relu(a) -> Tensor:
    a = as_tensor(a)
    return custom_op(np.maximum(a.data, 0.0), (a,), lambda g: (g * (a.data > 0),))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    y = np_sigmoid(a.data)
    return custom_op(y, (a,), lambda g: (g * y * (1.0 - y),))


def log(a) -> Tensor:
    """Natural log; inputs must be positive (clamp first)."""
    a = as_tensor(a)
    return custom_op(np.log(a.data), (a,), lambda g: (g / a.data,))


def absolute(a) -> Tensor:
    a = as_tensor(a)
    return custom_op(np.abs(a.data), (a,), lambda g: (g * np.sign(a.data),))


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes through strictly inside the range."""
    a = as_tensor(a)
    return custom_op(np.clip(a.data, lo, hi), (a,), lambda g: (g * ((a.data > lo) & (a.data < hi)),))


def _select(a: Tensor, b: Tensor, take_a: np.ndarray) -> Tensor:
    """``a`` where ``take_a``, else ``b``; each operand's gradient is masked to
    the elements it supplied."""
    return custom_op(np.where(take_a, a.data, b.data), (a, b), lambda g: (g * take_a, g * ~take_a))


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

    def backward(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape),)

    return custom_op(a.data.sum(axis=axis), (a,), backward)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return custom_op(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def _may_repeat(key) -> bool:
    """Whether an index key holds an integer array, and so may name one
    element twice; slices, ints, None, Ellipsis and boolean masks cannot."""
    parts = key if isinstance(key, tuple) else (key,)
    return any(not isinstance(k, (slice, int, np.integer, type(None), type(Ellipsis)))
               and np.asarray(k).dtype != bool for k in parts)


def take(a, key) -> Tensor:
    """Index/slice a tensor; the backward pass adds into place, with
    ``np.add.at`` only for a key that may name an element twice (both forms
    compute ``0.0 + g``, so they agree bitwise where neither repeats)."""
    a = as_tensor(a)
    repeats = _may_repeat(key)

    def backward(g):
        buf = np.zeros_like(a.data)
        if repeats:
            np.add.at(buf, key, g)
        else:
            buf[key] += g
        return (buf,)

    return custom_op(a.data[key], (a,), backward)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    ts = tuple(as_tensor(t) for t in tensors)
    bounds = np.cumsum([0] + [t.shape[axis] for t in ts]).tolist()
    lead = (slice(None),) * (axis % ts[0].ndim)
    keys = [lead + (slice(lo, hi),) for lo, hi in zip(bounds, bounds[1:])]  # the slice each parent supplied
    return custom_op(np.concatenate([t.data for t in ts], axis=axis), ts, lambda g: tuple(g[key] for key in keys))


LN_EPS = 1e-5  # added to the variance in layer_norm


def layer_norm(a, gamma, beta, residual=None) -> Tensor:
    """Layer normalization over the last axis with affine parameters, of
    ``a`` or of ``a + residual`` (Add & Norm), parents ``(a, gamma, beta[,
    residual])``. The sum is a transient of each pass, and ``a`` and
    ``residual`` get one gradient array: values and gradients are bitwise
    those of ``layer_norm(add(a, residual), gamma, beta)``.

    Each row statistic is a matmul with a ``(d, 1)`` column of ``1/d``: the
    row mean of the input, then the mean square of the centred rows (two
    passes, never ``E[x^2] - mean^2``, which cancels when rows sit far from
    0), and in the backward the row means of ``g * gamma`` and of ``g * gamma
    * xn``. The node keeps two columns, the row mean and ``1/s``, ``s`` being
    each row's standard deviation with ``LN_EPS`` added to the variance; the
    backward rebuilds the normalized input ``xn`` from them with the
    forward's own ops, so the operands' ``.data`` must not change between
    the forward and the backward. The backward holds the rebuilt ``xn``,
    ``g * gamma`` and the input gradient at once. An input whose last axis is
    empty, a gamma or beta that is not ``(d,)``, or a residual that is not
    exactly ``a``'s shape (it does not broadcast) raise ShapeError.
    """
    a, gamma, beta = as_tensor(a), as_tensor(gamma), as_tensor(beta)
    d = a.shape[-1] if a.ndim else 0
    if d == 0 or gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm needs a (..., d) input with d >= 1 and (d,) gamma and beta; "
                         f"got {a.shape}, {gamma.shape}, {beta.shape}")
    parents = (a, gamma, beta)
    if residual is not None:
        residual = as_tensor(residual)
        if residual.shape != a.shape:
            raise ShapeError(f"layer_norm: residual must be the input's shape {a.shape}, got {residual.shape}")
        parents += (residual,)
    mean_col = np.full((d, 1), 1.0 / d)

    def centred(mean: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """``a`` (or ``a + residual``, centred in place) minus its row mean, and the mean, taken if not given."""
        x = a.data if residual is None else a.data + residual.data
        mean = x @ mean_col if mean is None else mean
        return (x - mean if residual is None else np.subtract(x, mean, out=x)), mean

    xn, mean = centred()
    inv_s = 1.0 / np.sqrt((xn * xn) @ mean_col + LN_EPS)
    xn *= inv_s
    y = xn * gamma.data + beta.data

    def backward(g):
        xn = centred(mean)[0]  # the forward's own ops, so bitwise its xn
        xn *= inv_s
        gxn = g * gamma.data
        dx = gxn - gxn @ mean_col
        dx -= xn * ((gxn * xn) @ mean_col)
        dx *= inv_s
        return (dx, g * xn, g, dx)[:len(parents)]

    return custom_op(y, parents, backward)


_ATTN_BLOCK = 32768  # float64 logits per block of query rows in attention (256 KiB, within a core's L2)


def _row_blocks(n: int, m: int) -> tuple[list[tuple[int, int]], int]:
    """Spans of ``max(1, _ATTN_BLOCK // m)`` of ``n`` query rows, and the longest span's length."""
    rows = max(1, _ATTN_BLOCK // max(m, 1))
    return [(lo, min(lo + rows, n)) for lo in range(0, n, rows)], min(rows, n)


def _head_operands(k: np.ndarray, v: np.ndarray, qc: slice, vc: slice) -> tuple[np.ndarray, np.ndarray]:
    """``[k_h^T; 1]`` and ``[v_h^T; 1]`` of the head in columns ``qc`` of k and ``vc`` of v, contiguous."""
    kt, vt = k[:, qc].T, v[:, vc].T
    kt1, vt1 = np.empty((kt.shape[0] + 1, kt.shape[1])), np.empty((vt.shape[0] + 1, vt.shape[1]))
    kt1[:-1], kt1[-1] = kt, 1.0
    vt1[:-1], vt1[-1] = vt, 1.0
    return kt1, vt1


def attention_forward(q: np.ndarray, k: np.ndarray, v: np.ndarray, mask: np.ndarray | None,
                      heads: int) -> tuple[np.ndarray, Callable[..., tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Attention's kernel on arrays: the output of ``q``, ``k``, ``v`` and
    ``mask`` as ``attention`` states them, and its ``backward(g, q, k, v) ->
    (dq, dk, dv)``.

    The operands are checked first, then the mask, each raising as
    ``attention`` states. Each head walks its query rows in blocks
    (``_row_blocks``), each block's ``e = exp(logit - row max)`` built in
    one ``(rows, m)`` buffer from q's rows scaled before the matmul. Its
    product with ``[v_h | 1]`` is ``[e v_h | row sum]``, whose last column
    divides the others straight into the output's columns: the output is
    normalised after the value matmul, as in FlashAttention (Dao et al.,
    2022). ``backward`` holds the output, the inverted mask and one
    ``(heads, n, 2)`` array of each head's row max and row sum, and takes the
    operands again, which must hold the forward's values: a caller may
    rebuild them rather than keep them."""
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2 or q.shape[1] != k.shape[1] or k.shape[0] != v.shape[0]:
        raise ShapeError(f"attention needs q (n, heads*d), k (m, heads*d), v (m, heads*dv); "
                         f"got {q.shape}, {k.shape}, {v.shape}")
    require_integer("attention: heads", heads)
    if heads < 1 or q.shape[1] < heads or q.shape[1] % heads or v.shape[1] % heads:
        raise ShapeError(f"attention: {heads} heads do not divide the widths {q.shape[1]} and {v.shape[1]} "
                         f"with at least one q column per head")
    if not (np.isfinite(q).all() and np.isfinite(k).all() and np.isfinite(v).all()):
        raise FloatingPointError("attention: q, k or v hold NaN or inf")
    n, m = q.shape[0], k.shape[0]
    if m == 0 < n:
        raise MaskError(f"attention: {n} query rows and no key to attend to")
    hidden = None  # True where a logit is masked out
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (n, m):
            raise ShapeError(f"mask shape {mask.shape} does not match {(n, m)}")
        empty = ~mask.any(axis=1)
        if empty.any():
            raise MaskError(f"query rows {np.flatnonzero(empty).tolist()} have no unmasked key")
        hidden = ~mask
    hd, hv = q.shape[1] // heads, v.shape[1] // heads
    scale = 1.0 / math.sqrt(hd)
    spans, rows = _row_blocks(n, m)
    stats, out = np.empty((heads, n, 2)), np.empty((n, v.shape[1]))  # each head's row max and row sum
    row_max, row_sum = stats[..., :1], stats[..., 1:]
    e_block, y_block = np.empty((rows, m)), np.empty((rows, hv + 1))
    for i in range(heads):
        qc, vc = slice(i * hd, (i + 1) * hd), slice(i * hv, (i + 1) * hv)  # head i's columns
        kt1, vt1 = _head_operands(k, v, qc, vc)
        for lo, hi in spans:
            e, y = e_block[:hi - lo], y_block[:hi - lo]
            np.matmul(q[lo:hi, qc] * scale, kt1[:-1], out=e)
            if hidden is not None:
                np.copyto(e, -np.inf, where=hidden[lo:hi])
            # initial: a (rows, 0) block (no key) reduces too
            np.max(e, axis=-1, keepdims=True, initial=-np.inf, out=row_max[i, lo:hi])
            e -= row_max[i, lo:hi]
            np.exp(e, out=e)
            np.matmul(e, vt1.T, out=y)  # [e v_h | row sum]
            row_sum[i, lo:hi] = y[:, hv:]
            np.divide(y[:, :hv], row_sum[i, lo:hi], out=out[lo:hi, vc])

    def backward(g: np.ndarray, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, ...]:
        return _attention_backward(g, q, k, v, hidden, out, stats[..., :1], stats[..., 1:])

    return out, backward


def _attention_backward(g: np.ndarray, q: np.ndarray, k: np.ndarray, v: np.ndarray, hidden: np.ndarray | None,
                        out: np.ndarray, row_max: np.ndarray, row_sum: np.ndarray) -> tuple[np.ndarray, ...]:
    """``dq``, ``dk`` and ``dv`` for the output gradient ``g``, from the
    operands, the inverted mask ``hidden`` and what ``attention_forward``
    computed.

    The gradients are allocated once, in the ``(rows, heads*width)`` layout
    returned, and each head builds its own in contiguous ``dq_h``, ``dk_h``
    and ``dv_h``, copied into its columns when the head is done; besides the
    three gradients it holds those, two blocks, the head's operands and its
    ``[gn | -r]``, one ``(n, dv + 1)`` buffer that each head refills. Each
    block is recomputed from the row max: ``[q_h * scale | -row max] @
    [k_h^T; 1]`` is ``logit - row max``, then the ``-inf`` fill and ``exp``
    give ``e``. With ``gn = g / row sum`` and ``r = rowsum(gn * out)``,
    ``[gn | -r] @ [v_h^T; 1]`` is ``gn @ v_h^T - r``, and ``e`` times it is
    the block's logit gradient, which needs no mask since ``e`` is 0 where
    masked."""
    n, m, heads = q.shape[0], k.shape[0], row_max.shape[0]
    hd, hv = q.shape[1] // heads, v.shape[1] // heads
    scale = 1.0 / math.sqrt(hd)
    spans, rows = _row_blocks(n, m)
    gn = np.empty((n, hv + 1))  # one head's [g / row sum | -r], r = rowsum(g / row sum * out)
    dq, dk, dv = np.empty(q.shape), np.empty(k.shape), np.empty(v.shape)
    dq_h, dk_h, dv_h = np.empty((n, hd)), np.empty((m, hd)), np.empty((m, hv))  # one head's, contiguous
    e_block, ds_block, q1_block = np.empty((rows, m)), np.empty((rows, m)), np.empty((rows, hd + 1))
    for i in range(heads):
        qc, vc = slice(i * hd, (i + 1) * hd), slice(i * hv, (i + 1) * hv)
        np.divide(g[:, vc], row_sum[i], out=gn[:, :hv])
        np.negative((gn[:, :hv] * out[:, vc]).sum(axis=-1), out=gn[:, hv])
        kt1, vt1 = _head_operands(k, v, qc, vc)
        dk_h.fill(0.0)
        dv_h.fill(0.0)
        for lo, hi in spans:
            e, ds, q1 = e_block[:hi - lo], ds_block[:hi - lo], q1_block[:hi - lo]
            np.multiply(q[lo:hi, qc], scale, out=q1[:, :hd])
            np.negative(row_max[i, lo:hi], out=q1[:, hd:])
            np.matmul(q1, kt1, out=e)  # [q_h * scale | -row max] [k_h^T; 1] = logit - row max
            if hidden is not None:
                np.copyto(e, -np.inf, where=hidden[lo:hi])
            np.exp(e, out=e)
            dv_h += e.T @ gn[lo:hi, :hv]
            np.matmul(gn[lo:hi], vt1, out=ds)  # [gn | -r] [v_h^T; 1] = gn v_h^T - r
            ds *= e
            np.matmul(ds, k[:, qc], out=dq_h[lo:hi])
            dk_h += ds.T @ q[lo:hi, qc]
        np.multiply(dq_h, scale, out=dq[:, qc])
        np.multiply(dk_h, scale, out=dk[:, qc])
        dv[:, vc] = dv_h
    return dq, dk, dv


def attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None = None, *, heads: int = 1) -> Tensor:
    """Scaled dot-product attention, ``heads`` heads side by side in the columns.

    ``q (n, heads*d)``, ``k (m, heads*d)`` and ``v (m, heads*dv)`` give an
    ``(n, heads*dv)`` output; head i reads columns ``i*d:(i+1)*d`` of q and k,
    and ``i*dv:(i+1)*dv`` of v and the output. ``mask`` is an optional boolean
    ``(n, m)`` array (True = may attend) shared by the heads: masked logits are
    ``-inf`` before the softmax, so masked keys get exactly zero weight and
    gradient however large their logits are. Operands that are not 2-D with
    matching widths and key counts, a ``heads`` that is not a positive divisor
    of both widths or that leaves a head no q column, or a mask that is not
    ``(n, m)`` raise ShapeError; a ``heads`` that is not an integer (a bool
    or a float is refused) raises ValueError; a query row with no allowed key
    (a malformed isolation mask, or no k rows) raises MaskError; NaN or inf
    in q, k or v raise FloatingPointError.

    The call is one ``attention_forward`` and one ``custom_op`` node with
    parents ``(q, k, v)``. It keeps the output, each row's softmax max and
    sum per head and the inverted mask, all held by the kernel's backward,
    and no probabilities: the kernel walks each head in blocks of ``max(1,
    _ATTN_BLOCK // m)`` query rows, so each pass over a block's logits stays
    in L2, and its backward recomputes each block from the row max and the
    operands' ``.data``, which must not change in between. Values and
    gradients are within 1e-12 relative (about 1e-15 in practice) of the
    form that keeps whole ``(n, m)`` probabilities.
    """
    out, backward = attention_forward(q.data, k.data, v.data, mask, heads)
    return custom_op(out, (q, k, v), lambda g: backward(g, q.data, k.data, v.data))


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
        for i in np.ndindex(t.shape):  # writes into t.data whatever its memory layout
            old = t.data[i]
            t.data[i] = old + GRAD_CHECK_EPS
            f_plus = float(f().data)
            t.data[i] = old - GRAD_CHECK_EPS
            f_minus = float(f().data)
            t.data[i] = old
            fd = (f_plus - f_minus) / (2.0 * GRAD_CHECK_EPS)
            worst = max(worst, abs(g[i] - fd) / max(1.0, abs(fd)))
    return worst
