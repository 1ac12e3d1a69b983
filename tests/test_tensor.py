import functools
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from casdet import tensor as T
from casdet.queries import attention_mask
from casdet.tensor import MaskError, ShapeError, Tensor


def softmax(a, axis: int = -1) -> Tensor:
    """Shift-invariant softmax along one axis: the op the attention oracle
    composes, kept here since ``attention`` does its softmax in place."""
    a = T.as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    return T.custom_op(y, (a,), lambda g: (y * (g - (g * y).sum(axis=axis, keepdims=True)),))


def swap_last(a) -> Tensor:
    """``a`` with its last two axes swapped, as one graph node."""
    return T.custom_op(np.swapaxes(a.data, -1, -2), (a,), lambda g: (np.swapaxes(g, -1, -2),))


def composed_attention(q, k, v, mask=None):
    """``attention`` as a chain of graph nodes over batched ``(..., n, d)``
    operands, as it was before the fused node: transpose, matmul, scale,
    ``-inf`` fill, softmax, matmul."""
    logits = T.matmul(q, swap_last(k)) * (1.0 / np.sqrt(q.shape[-1]))
    if mask is not None:
        logits = T.custom_op(np.where(mask, logits.data, -np.inf), (logits,), lambda g: (g * mask,))
    return T.matmul(softmax(logits, axis=-1), v)


def columns(a: np.ndarray) -> np.ndarray:
    """A batched ``(..., rows, width)`` array in ``attention``'s column layout
    ``(rows, heads*width)``, one head per batch index in order; a 2-D array
    is one head and comes back as it is."""
    a = np.asarray(a).reshape((n_heads(a),) + a.shape[-2:])
    return a.transpose(1, 0, 2).reshape(a.shape[1], a.shape[0] * a.shape[2])


def n_heads(a: np.ndarray) -> int:
    """The head count of a batched array: the product of its batch axes."""
    return math.prod(a.shape[:-2])


def rand_t(rng, shape, away_from_zero=False):
    x = rng.uniform(0.1, 2.0, size=shape) * rng.choice([-1.0, 1.0], size=shape)
    if away_from_zero:
        x = np.abs(x) + 0.1
    return Tensor(x, requires_grad=True)


def test_matmul_hand_example():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    np.testing.assert_array_equal((a @ b).data, [[19, 22], [43, 50]])


def test_matmul_identity():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(4, 4)))
    np.testing.assert_array_equal((Tensor(np.eye(4)) @ x).data, x.data)


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))


def test_matmul_grad_of_sum_is_ones_times_bt():
    rng = np.random.default_rng(1)
    a = rand_t(rng, (3, 4))
    b = Tensor(rng.normal(size=(4, 5)))
    (a @ b).sum().backward()
    np.testing.assert_allclose(a.grad, np.ones((3, 5)) @ b.data.T, atol=1e-12)
    err = T.grad_check(lambda: (a @ b).sum(), a)
    assert err < 1e-6


@pytest.mark.parametrize("x_shape", [(5, 4), (2, 5, 4)])
@pytest.mark.parametrize("needs", [(rx, rw, rb) for rx in (0, 1) for rw in (0, 1) for rb in (0, 1)])
def test_linear_matches_matmul_add_oracle(x_shape, needs):
    rng = np.random.default_rng(len(x_shape))
    x, w, b = (Tensor(rng.normal(size=shape), requires_grad=bool(r))
               for shape, r in zip((x_shape, (4, 3), (3,)), needs))
    proj = rng.normal(size=x_shape[:-1] + (3,))
    out = T.linear(x, w, b)
    ref = T.add(T.matmul(x, w), b)
    assert np.array_equal(out.data, ref.data)
    assert out._parents == ((x, w, b) if any(needs) else ())
    if not any(needs):
        return
    grads = []
    for f in (lambda: T.linear(x, w, b), lambda: T.add(T.matmul(x, w), b)):
        for t in (x, w, b):
            t.grad = None
        (f() * proj).sum().backward()
        grads.append([t.grad for t in (x, w, b)])
    for t, got, want in zip((x, w, b), *grads):
        if not t.requires_grad:
            assert got is None and want is None
            continue
        assert got.shape == t.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_linear_shape_errors():
    with pytest.raises(ShapeError):
        T.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))), Tensor(np.ones(5)))
    with pytest.raises(ShapeError):
        T.linear(Tensor(np.ones(3)), Tensor(np.ones((3, 5))), Tensor(np.ones(5)))


@pytest.mark.parametrize("w_shape, b_shape", [((3, 4), (2, 4)), ((3, 4), ()), ((3, 4), (1,)), ((3, 4), (5,)),
                                              ((2, 3, 4), (4,))])
def test_linear_takes_a_matrix_weight_and_a_vector_bias(w_shape, b_shape):
    """``w`` is ``(n_in, n_out)`` and ``b`` is ``(n_out,)``. A ``(2, 4)`` bias
    used to be added per row, a 0-d or ``(1,)`` one broadcast, and a ``(2, 3,
    4)`` weight taken as a stack of weights."""
    x = Tensor(np.ones((2, 3)))
    with pytest.raises(ShapeError, match=re.escape(f"got {x.shape}, {w_shape}, {b_shape}")):
        T.linear(x, Tensor(np.ones(w_shape)), Tensor(np.ones(b_shape)))


def test_softmax_uniform_and_shift_invariance():
    y = softmax(Tensor([3.0, 3.0, 3.0, 3.0])).data
    np.testing.assert_allclose(y, 0.25)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(5,))
    a = softmax(Tensor(x)).data
    b = softmax(Tensor(x + 17.3)).data
    np.testing.assert_allclose(a, b, atol=1e-12)
    assert np.all(a > 0) and abs(a.sum() - 1) < 1e-12


def test_softmax_grad():
    rng = np.random.default_rng(3)
    x = rand_t(rng, (4, 6))
    w = rng.normal(size=(4, 6))
    err = T.grad_check(lambda: (softmax(x, axis=-1) * w).sum(), x)
    assert err < 1e-6


@pytest.mark.parametrize("seed", range(10))
def test_primitives_pass_grad_check(seed):
    rng = np.random.default_rng(seed)
    x = rand_t(rng, (3, 5))
    pos = rand_t(rng, (3, 5), away_from_zero=True)
    y = rand_t(rng, (3, 5))
    m = rand_t(rng, (5, 4))
    gamma = rand_t(rng, (5,))
    beta = rand_t(rng, (5,))
    w = rng.normal(size=(3, 5))
    w2 = rng.normal(size=(3, 4))
    w10 = rng.normal(size=(3, 10))

    cases = [
        (lambda: (x + y).sum(), [x, y]),
        (lambda: (x * y).sum(), [x, y]),
        (lambda: (x / pos).sum(), [x, pos]),
        (lambda: (pos**2.7).sum(), [pos]),
        (lambda: ((x @ m) * w2).sum(), [x, m]),
        (lambda: (T.relu(x) * w).sum(), [x]),
        (lambda: (T.sigmoid(x) * w).sum(), [x]),
        (lambda: T.log(pos).sum(), [pos]),
        (lambda: (T.absolute(x) * w).sum(), [x]),
        (lambda: (T.minimum(x, y) * w).sum(), [x, y]),
        (lambda: (T.maximum(x, y) * w).sum(), [x, y]),
        (lambda: (T.layer_norm(x, gamma, beta) * w).sum(), [x, gamma, beta]),
        (lambda: (x[1:, ::2] ** 2).sum(), [x]),
        (lambda: (T.concat([x, y], axis=1) * w10).sum(), [x, y]),
        (lambda: (T.concat([y, x, y], axis=-1) * np.tile(w, (1, 3))).sum(), [x, y]),
        (lambda: (x.reshape(5, 3) * w.reshape(5, 3)).sum(), [x]),
        (lambda: (x.sum(axis=0) ** 2).sum(), [x]),
        (lambda: (T.clip(x, -0.9, 0.9) * w).sum(), [x]),
    ]
    for f, wrt in cases:
        for t in wrt:
            t.grad = None
        assert T.grad_check(f, wrt) < 1e-5


def test_grad_check_examples():
    rng = np.random.default_rng(11)
    x = rand_t(rng, (7,))
    assert T.grad_check(lambda: (x**2).sum(), x) < 1e-8
    (x**2).sum().backward()
    np.testing.assert_allclose(x.grad, 2 * x.data, atol=1e-12)

    c = rand_t(rng, (4,))
    assert T.grad_check(lambda: Tensor(3.0) + (c * 0.0).sum(), c) == 0.0
    (Tensor(3.0) + (c * 0.0).sum()).backward()
    np.testing.assert_array_equal(c.grad, np.zeros(4))


def test_grad_check_perturbs_a_leaf_that_is_not_c_contiguous():
    """A transposed leaf's ``.data.reshape(-1)`` is a copy: perturbing the copy
    never reached ``f``, and every finite difference read 0."""
    x = Tensor(np.arange(12.0).reshape(4, 3).T, requires_grad=True)
    assert not x.data.flags.c_contiguous
    assert T.grad_check(lambda: (x * x).sum(), x) < 1e-8
    assert T.grad_check(lambda: (x * Tensor(np.arange(4.0))).sum(), x) < 1e-8


def test_backward_requires_scalar():
    for shape in ((3,), (1,), (1, 1)):
        with pytest.raises(ShapeError):
            Tensor(np.ones(shape), requires_grad=True).backward()
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):  # grad_check would then fail in float() of a (1,) output
        (x * x).sum().reshape(1).backward()


def test_grad_accumulates_over_reuse():
    x = Tensor(2.0, requires_grad=True)
    (x * x).backward()
    assert x.grad == pytest.approx(4.0)


def test_repeated_backward_accumulates_each_pass_once():
    """A graph is walked once, so each pass builds a fresh graph from the
    same leaves, which add its gradients into theirs."""
    x = Tensor(np.ones(3), requires_grad=True)
    for _ in range(2):
        ((x * 2.0) * 3.0).sum().backward()
    np.testing.assert_array_equal(x.grad, np.full(3, 12.0))
    # attention's node keeps no probabilities, and each pass recomputes them
    rng = np.random.default_rng(3)
    q, k, v = (Tensor(columns(rand_t(rng, s).data), requires_grad=True) for s in ((2, 4, 6), (2, 5, 6), (2, 5, 3)))
    mask, w = random_mask(rng, 4, 5), columns(rng.normal(size=(2, 4, 3)))
    (T.attention(q, k, v, mask, heads=2) * w).sum().backward()
    once = [t.grad.copy() for t in (q, k, v)]
    (T.attention(q, k, v, mask, heads=2) * w).sum().backward()
    for t, g in zip((q, k, v), once):
        np.testing.assert_array_equal(t.grad, 2.0 * g)


def test_a_none_gradient_reaches_no_ancestor():
    """A backward may return None for a parent that requires grad: that parent
    gets no gradient and passes none on, while its sibling gets its own."""
    x, y = Tensor(np.ones(3), requires_grad=True), Tensor(np.ones(3), requires_grad=True)
    h = x * 2.0
    T.custom_op(h.data + y.data, (h, y), lambda g: (None, g)).sum().backward()
    assert x.grad is None and h.grad is None
    np.testing.assert_array_equal(y.grad, np.ones(3))


def test_backward_keeps_leaf_grads_and_releases_interior_ones():
    rng = np.random.default_rng(4)
    a, b = rand_t(rng, (3, 4)), rand_t(rng, (3, 4))
    c = a * b
    d = T.relu(c) + a
    loss = d.sum()
    loss.backward()
    assert c.grad is None and d.grad is None
    assert loss.grad is not None and loss.item() == d.data.sum()
    np.testing.assert_array_equal(a.grad, b.data * (c.data > 0) + 1.0)
    np.testing.assert_array_equal(b.grad, a.data * (c.data > 0))
    assert all(t._parents == () and t._backward is T._released for t in (c, d, loss))
    assert all(t._parents == () and t._backward is None for t in (a, b))


def test_backward_frees_each_node_during_the_walk():
    """Once a node's backward has run, the walk drops the graph's references
    to it, so a node that nothing else holds is gone before its parents'
    backwards run. A Tensor has ``__slots__`` and takes no weakref; the test
    watches the downstream node's output array, which only that node holds."""
    x = Tensor(np.ones(3), requires_grad=True)
    seen = []

    def backward(g):
        seen.append(downstream())
        return (2.0 * g,)

    h = T.custom_op(2.0 * x.data, (x,), backward)
    y = h * 3.0
    downstream = weakref.ref(y.data)
    loss = y.sum()
    del y
    loss.backward()
    assert len(seen) == 1 and seen[0] is None
    np.testing.assert_array_equal(x.grad, np.full(3, 6.0))


def test_a_walked_graph_refuses_a_second_walk():
    """A second ``backward()`` on the root raises, and so does a new graph
    that passes a gradient to a released node; neither adds to any leaf. The
    nodes the failed walk reached before the released one stay released."""
    x = Tensor(np.ones(3), requires_grad=True)
    h = x * 2.0
    loss = h.sum()
    loss.backward()
    with pytest.raises(RuntimeError, match="backward"):
        loss.backward()
    again = h * 3.0
    with pytest.raises(RuntimeError, match="backward"):
        again.sum().backward()
    assert again._parents == () and again._backward is T._released
    np.testing.assert_array_equal(x.grad, np.full(3, 2.0))
    with pytest.raises(ValueError, match="leaf_grad"):
        T.leaf_grad(h)


def test_a_leaf_adds_later_gradients_into_its_own_array():
    """A leaf copies the weight gradient ``linear``'s backward built into a
    buffer of its own once, and a second pass adds into that same array
    rather than summing out of place."""
    rng = np.random.default_rng(25)
    x, w, b = (Tensor(rng.normal(size=s), requires_grad=True) for s in ((5, 4), (4, 3), (3,)))
    proj = rng.normal(size=(5, 3))
    (T.linear(x, w, b) * proj).sum().backward()
    first, once = w.grad, w.grad.copy()
    (T.linear(x, w, b) * proj).sum().backward()
    assert w.grad is first
    np.testing.assert_array_equal(w.grad, 2.0 * once)


def zero_fill_grads(root, leaves) -> list:
    """Each leaf's gradient from a walk written here: reverse topological
    order over ``_parents``, an interior node summing its gradients out of
    place and a leaf starting from ``np.zeros`` and adding each in place."""
    order, seen = [], set()

    def visit(t):
        if id(t) not in seen:
            seen.add(id(t))
            for p in t._parents:
                visit(p)
            order.append(t)

    visit(root)
    grads = {id(root): np.ones_like(root.data)}
    for node in reversed(order):
        if node._backward is None or id(node) not in grads:
            continue
        for p, g in zip(node._parents, node._backward(grads[id(node)])):
            if g is None or not p.requires_grad:
                continue
            g = T._unbroadcast(g, p.shape)
            if p._backward is None:
                grads.setdefault(id(p), np.zeros_like(p.data))
                grads[id(p)] += g
            else:
                grads[id(p)] = grads[id(p)] + g if id(p) in grads else g
    return [grads[id(t)] for t in leaves]


OWNERSHIP_CASES = {
    "a+s": lambda a, s: (a + s).sum(),
    "add(a,a)": lambda a, s: (T.add(a, a) * s).sum(),
    "reshape(a)+s": lambda a, s: ((a.reshape(4, 3) + s.reshape(4, 3)) * 2.0).sum(),
    "interior reuse": lambda a, s: interior_reuse(a * s),
    "linear": lambda a, s: (T.linear(a.reshape(4, 3), s, np.ones(4)) ** 2).sum(),  # s copies a built gradient
}


def interior_reuse(y):
    """One interior node that receives three gradients, two of them one array."""
    return (T.add(y, y) + swap_last(swap_last(y))).sum()


@pytest.mark.parametrize("kind", sorted(OWNERSHIP_CASES))
def test_leaf_grads_are_private_and_match_zero_fill_oracle(kind):
    rng = np.random.default_rng(5)
    a, s = rand_t(rng, (3, 4)), rand_t(rng, (3, 4))
    f = OWNERSHIP_CASES[kind]
    f(a, s).backward()
    leaves = [a, s]
    grads = [t.grad.copy() for t in leaves]
    for i, t in enumerate(leaves):
        for u in leaves[i + 1:]:
            assert not np.shares_memory(t.grad, u.grad)
        t.grad *= 2.0
        for u, g in zip(leaves, grads):
            if u is not t:
                np.testing.assert_array_equal(u.grad, g)
        t.grad /= 2.0
    for want, g in zip(zero_fill_grads(f(a, s), leaves), grads):
        np.testing.assert_array_equal(want, g)


def test_one_array_returned_for_two_leaf_parents_gives_each_its_own_gradient():
    """A backward may return one built array for two leaf parents: each leaf
    copies it into a buffer of its own, so a later gradient added into one
    leaf leaves the other's as it was."""
    a, b = (Tensor(np.zeros(3), requires_grad=True) for _ in range(2))

    def backward(g):
        h = g * np.array([1.0, 2.0, 3.0])
        return h, h

    T.custom_op(a.data + b.data, (a, b), backward).sum().backward()
    (a * 10.0).sum().backward()
    np.testing.assert_array_equal(a.grad, [11.0, 12.0, 13.0])
    np.testing.assert_array_equal(b.grad, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("walked", [False, True])
def test_leaf_grad_refuses_a_tensor_with_a_backward(walked):
    """An interior node adopts its first gradient, which may be another
    node's array, so ``leaf_grad`` refuses any tensor with a backward, one
    that holds a gradient (the root after ``backward()``) or not; a leaf gets
    its own buffer, zero-filled when it held none, and the same one again."""
    x = Tensor(np.arange(6.0), requires_grad=True)
    h = x * 2.0
    loss = h.sum()
    if walked:
        loss.backward()
    for t in (h, loss):
        with pytest.raises(ValueError, match="leaf_grad"):
            T.leaf_grad(t)
    buf = T.leaf_grad(x)
    assert buf is x.grad and buf is T.leaf_grad(x)
    np.testing.assert_array_equal(buf, np.full(6, 2.0 if walked else 0.0))


@pytest.mark.parametrize("p, at_zero", [(1.0, 1.0), (2.0, 0.0), (0.5, 0.0)])
def test_power_gradient_at_zero(p, at_zero):
    """``p a**(p-1)`` is finite at 0 for ``p >= 1`` and is the gradient there
    (1 for ``p = 1``, where it read 0); for ``p < 1`` it is not, and the
    gradient at 0 is 0. Elsewhere it is bitwise ``g p a**(p-1)``."""
    x = Tensor(np.array([0.0, 0.5, 2.0]), requires_grad=True)
    g = np.array([3.0, 1.5, -2.0])
    (T.power(x, p) * g).sum().backward()
    assert x.grad.tobytes() == (g * np.array([at_zero, p * 0.5 ** (p - 1.0), p * 2.0 ** (p - 1.0)])).tobytes()


def test_sum_backward_returns_a_view_of_its_gradient():
    """``tsum``'s backward broadcasts its gradient without a copy; the walk
    gives the leaf a private copy of that view."""
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    for axis in (None, 0):
        out = x.sum(axis=axis)
        g = np.ones(out.shape)
        assert np.shares_memory(out._backward(g)[0], g)
    x.sum().backward()
    x.grad += 1.0
    np.testing.assert_array_equal(x.grad, np.full((2, 3), 2.0))


CONSTANT_OPERAND_CASES = {  # op: operand shapes, and the positions whose gradient its backward skips
    "linear": (T.linear, [(2, 5, 4), (4, 3), (3,)], {0}),
    "mul": (T.mul, [(5, 3), (3,)], {0, 1}),
    "div": (T.div, [(5, 3), (5, 1)], {0, 1}),
    "attention": (functools.partial(T.attention, heads=2), [(4, 12), (5, 12), (5, 6)], set()),
}


@pytest.mark.parametrize("kind", sorted(CONSTANT_OPERAND_CASES))
def test_a_constant_operand_gets_no_gradient(kind):
    """In each operand position, a parent with requires_grad off gets no
    ``.grad`` while the others get theirs. Where that gradient costs more
    than a view (``linear``'s x, either operand of ``mul`` and ``div``), the
    op's backward does not compute it."""
    op, shapes, skips = CONSTANT_OPERAND_CASES[kind]
    rng = np.random.default_rng(19)
    arrays = [rng.uniform(0.5, 1.5, size=s) for s in shapes]
    for const in range(len(shapes)):
        leaves = [Tensor(a, requires_grad=i != const) for i, a in enumerate(arrays)]
        out = op(*leaves)
        backward = out._backward  # the walk releases it
        (out * rng.normal(size=out.shape)).sum().backward()
        assert leaves[const].grad is None
        assert all(t.grad.shape == t.shape for t in leaves if t.requires_grad)
        grads = backward(np.ones(out.shape))
        assert len(grads) == len(leaves) and (grads[const] is None) == (const in skips)


def test_attention_forced_position():
    rng = np.random.default_rng(4)
    q = Tensor(rng.normal(size=(2, 8)))
    k = Tensor(rng.normal(size=(5, 8)))
    v = Tensor(rng.normal(size=(5, 8)))
    mask = np.zeros((2, 5), dtype=bool)
    mask[0, 3] = True
    mask[1, 1] = True
    out = T.attention(q, k, v, mask).data
    np.testing.assert_allclose(out[0], v.data[3], atol=1e-12)
    np.testing.assert_allclose(out[1], v.data[1], atol=1e-12)


def test_attention_identical_keys_average():
    rng = np.random.default_rng(5)
    q = Tensor(rng.normal(size=(3, 4)))
    k = Tensor(np.tile(rng.normal(size=(1, 4)), (6, 1)))
    v = Tensor(rng.normal(size=(6, 4)))
    out = T.attention(q, k, v).data
    np.testing.assert_allclose(out, np.tile(v.data.mean(axis=0), (3, 1)), atol=1e-12)


def dense_masked_attention_oracle(q, k, v, mask):
    scale = 1.0 / np.sqrt(q.shape[-1])
    logits = q @ k.T * scale
    out = np.zeros((q.shape[0], v.shape[1]))
    for i in range(q.shape[0]):
        cols = np.flatnonzero(mask[i])
        w = np.exp(logits[i, cols] - logits[i, cols].max())
        w = w / w.sum()
        out[i] = w @ v[cols]
    return out


def test_attention_masked_matches_renormalized_oracle():
    rng = np.random.default_rng(6)
    q = rng.normal(size=(6, 8))
    k = rng.normal(size=(9, 8))
    v = rng.normal(size=(9, 5))
    mask = rng.random((6, 9)) > 0.4
    mask[~mask.any(axis=1), 0] = True
    out = T.attention(Tensor(q), Tensor(k), Tensor(v), mask).data
    np.testing.assert_allclose(out, dense_masked_attention_oracle(q, k, v, mask), atol=1e-12)


def test_attention_masked_logits_never_influence_output():
    rng = np.random.default_rng(7)
    q = rng.normal(size=(4, 8))
    k = rng.normal(size=(7, 8))
    v = rng.normal(size=(7, 8))
    mask = rng.random((4, 7)) > 0.5
    mask[:, 0] = True
    mask[:, -1] = False  # a key no row may see
    base = T.attention(Tensor(q), Tensor(k), Tensor(v), mask).data
    unseen = ~mask.any(axis=0)
    k2 = k.copy()
    k2[unseen] = 1e6  # blow up the keys no row may see
    k2 = Tensor(k2, requires_grad=True)
    out = T.attention(Tensor(q), k2, Tensor(v), mask)
    np.testing.assert_array_equal(out.data, base)
    (out * rng.normal(size=out.shape)).sum().backward()
    np.testing.assert_array_equal(k2.grad[unseen], 0.0)
    assert np.all(k2.grad[~unseen] != 0.0)
    for i in range(4):
        kk = k.copy()
        kk[~mask[i]] += 1e6
        out = T.attention(Tensor(q), Tensor(kk), Tensor(v), mask).data
        np.testing.assert_array_equal(out[i], base[i])


def test_attention_fully_masked_row_raises():
    q = Tensor(np.ones((2, 4)))
    k = Tensor(np.ones((3, 4)))
    v = Tensor(np.ones((3, 4)))
    mask = np.ones((2, 3), dtype=bool)
    mask[1] = False
    with pytest.raises(MaskError):
        T.attention(q, k, v, mask)


def test_attention_grad_flows_through_mask_path():
    rng = np.random.default_rng(8)
    q = rand_t(rng, (4, 6))
    k = rand_t(rng, (5, 6))
    v = rand_t(rng, (5, 6))
    mask = rng.random((4, 5)) > 0.3
    mask[~mask.any(axis=1), 0] = True
    assert T.grad_check(lambda: (T.attention(q, k, v, mask) ** 2).sum(), [q, k, v]) < 1e-5


def test_attention_batched_matches_loop():
    rng = np.random.default_rng(9)
    q = rng.normal(size=(3, 4, 8))
    k = rng.normal(size=(3, 6, 8))
    v = rng.normal(size=(3, 6, 8))
    mask = rng.random((4, 6)) > 0.5
    mask[~mask.any(axis=1), 0] = True
    for m in (None, mask):  # the heads share the (n, m) mask
        batched = T.attention(Tensor(columns(q)), Tensor(columns(k)), Tensor(columns(v)), m, heads=3).data
        for i in range(3):
            single = T.attention(Tensor(q[i]), Tensor(k[i]), Tensor(v[i]), m).data
            np.testing.assert_allclose(batched[:, 8 * i:8 * (i + 1)], single, atol=1e-12)


def random_mask(rng, n, m):
    mask = rng.random((n, m)) > 0.4
    mask[~mask.any(axis=1), 0] = True
    return mask


def oracle_case(kind, rng):
    """(q, k, v, mask) arrays for one seeded oracle case, batched over heads."""
    if kind == "2d":
        return rng.normal(size=(6, 8)), rng.normal(size=(9, 8)), rng.normal(size=(9, 5)), random_mask(rng, 6, 9)
    if kind == "heads":
        return (rng.normal(size=(3, 6, 8)), rng.normal(size=(3, 9, 8)), rng.normal(size=(3, 9, 5)),
                random_mask(rng, 6, 9))
    if kind == "heads-unmasked":
        return rng.normal(size=(2, 3, 5, 4)), rng.normal(size=(2, 3, 7, 4)), rng.normal(size=(2, 3, 7, 6)), None
    if kind == "block-diagonal":  # a 1-key DN group, and a 1-key row inside the matching block
        mask = attention_mask(3, [4, 1])
        mask[1] = False
        mask[1, 1] = True
        return rng.normal(size=(2, 8, 4)), rng.normal(size=(2, 8, 4)), rng.normal(size=(2, 8, 3)), mask
    # logits +-1e3 + O(1) (d = 4, scale 1/2): exp overflows unless the row max
    # is subtracted, and each row's softmax still spreads over several keys
    q, k = rng.normal(size=(5, 4)), rng.normal(size=(7, 4))
    q[:, 0] = 40.0 * rng.choice([-1.0, 1.0], size=5)
    k[:, 0] = 50.0
    return q, k, rng.normal(size=(7, 3)), random_mask(rng, 5, 7)


ORACLE_KINDS = {"2d": 0, "heads": 1, "heads-unmasked": 2, "block-diagonal": 4, "large-logits": 5}  # kind: seed offset
GRAD_SUBSETS = [(q, k, v) for q in (0, 1) for k in (0, 1) for v in (0, 1) if q or k or v]


@pytest.mark.parametrize("kind", ORACLE_KINDS)
@pytest.mark.parametrize("seed", range(3))
def test_attention_matches_composed_oracle(kind, seed):
    """The fused node, on the batched oracle's operands in the column layout,
    gives the composed graph's values and gradients to 1e-12 of the oracle's
    largest magnitude, for every subset of operands needing grad; the same
    call twice gives bitwise the same values."""
    rng = np.random.default_rng(100 * seed + ORACLE_KINDS[kind])
    q, k, v, mask = oracle_case(kind, rng)
    if kind == "large-logits":
        logits = np.abs(q @ k.T / 2.0)
        assert 990.0 < logits.min() and logits.max() < 1010.0
    fused = T.attention(Tensor(columns(q)), Tensor(columns(k)), Tensor(columns(v)), mask, heads=n_heads(q))
    assert not fused.requires_grad and fused._parents == ()
    oracle = columns(composed_attention(Tensor(q), Tensor(k), Tensor(v), mask).data)
    assert np.abs(fused.data - oracle).max() <= 1e-12 * np.abs(oracle).max()
    w = rng.normal(size=q.shape[:-1] + v.shape[-1:])
    for flags in GRAD_SUBSETS:
        leaves = [Tensor(columns(a), requires_grad=f) for a, f in zip((q, k, v), flags)]
        out = T.attention(*leaves, mask, heads=n_heads(q))
        assert out._parents == tuple(leaves)
        np.testing.assert_array_equal(out.data, fused.data)
        (out * columns(w)).sum().backward()
        oracle_leaves = [Tensor(a, requires_grad=f) for a, f in zip((q, k, v), flags)]
        (composed_attention(*oracle_leaves, mask) * w).sum().backward()
        grads = [[t.grad for t in leaves], [None if t.grad is None else columns(t.grad) for t in oracle_leaves]]
        for t_fused, t_oracle, f in zip(*grads, flags):
            if not f:
                assert t_fused is None and t_oracle is None
                continue
            assert t_fused.shape == t_oracle.shape
            assert np.abs(t_fused - t_oracle).max() <= 1e-12 * np.abs(t_oracle).max()


def test_attention_rejects_non_finite_inputs():
    rng = np.random.default_rng(13)
    arrays = [rng.normal(size=(4, 6)), rng.normal(size=(5, 6)), rng.normal(size=(5, 3))]
    for which in range(3):
        for bad in (np.nan, np.inf, -np.inf):
            args = [a.copy() for a in arrays]
            args[which][1, 2] = bad
            with pytest.raises(FloatingPointError, match="attention"):
                T.attention(*(Tensor(a, requires_grad=True) for a in args))


def test_attention_mask_of_wrong_shape_raises():
    q = Tensor(columns(np.ones((2, 3, 4))))
    k = Tensor(columns(np.ones((2, 5, 4))))
    for shape in ((5, 3), (3, 4), (2, 3, 5)):
        with pytest.raises(ShapeError):
            T.attention(q, k, k, np.ones(shape, dtype=bool), heads=2)


def test_attention_operands_of_wrong_shape_raise():
    rng = np.random.default_rng(14)
    cases = [((3, 4), (5, 6), (5, 2)),        # q and k differ in their last axis
             ((3, 4), (5, 4), (6, 2)),        # k and v differ in length
             ((4,), (5, 4), (5, 2)),          # a q with no query axis
             ((3, 4), (5, 4), (5,)),          # a v with no width axis
             # batch axes, whatever their sizes: heads go side by side in the columns
             ((2, 3, 4), (5, 4), (5, 2)),
             ((3, 4), (2, 5, 4), (2, 5, 2)),
             ((2, 3, 4), (2, 5, 4), (2, 5, 2)),
             ((2, 3, 4), (2, 5, 4), (3, 5, 2)),
             ((2, 1, 3, 4), (1, 2, 5, 4), (1, 2, 5, 2))]
    for shapes in cases:
        with pytest.raises(ShapeError, match=re.escape(", ".join(map(str, shapes)))):
            T.attention(*(Tensor(rng.normal(size=s), requires_grad=True) for s in shapes))


@pytest.mark.parametrize("heads, widths", [(0, (8, 6)), (-2, (8, 6)), (3, (8, 6)), (4, (8, 6)), (2, (7, 6)),
                                           (5, (10, 4)), (5, (0, 5)), (1, (0, 5))])
def test_attention_rejects_a_head_count_that_does_not_divide_the_widths(heads, widths):
    """``heads`` must be a positive divisor of q and k's width and of v's,
    and leave each head at least one q column: zero-width q and k used to
    raise ZeroDivisionError from the 1/sqrt(d) scale."""
    rng = np.random.default_rng(20)
    d, dv = widths
    q, k, v = (Tensor(rng.normal(size=s)) for s in ((3, d), (5, d), (5, dv)))
    with pytest.raises(ShapeError, match=f"{heads} heads"):
        T.attention(q, k, v, heads=heads)


@pytest.mark.parametrize("batch", [(), (3,)], ids=["2d", "batched"])
@pytest.mark.parametrize("m", [0, 5], ids=["no-key", "keys"])
@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
def test_attention_with_no_query_rows(batch, m, masked):
    """A scene with no proposals and no GT has no decoder rows: self-attention
    is a (0, 0) block and cross-attention a (0, m) one. The output is
    (0, heads*dv), for one head or a batch of three in the columns; every
    operand gets a finite gradient of its own shape, zero for k and v, which
    no query reads."""
    rng = np.random.default_rng(16)
    heads = math.prod(batch)
    q, k, v = (Tensor(columns(rng.normal(size=batch + s)), requires_grad=True) for s in ((0, 4), (m, 4), (m, 2)))
    out = T.attention(q, k, v, np.ones((0, m), dtype=bool) if masked else None, heads=heads)
    assert out.shape == (0, 2 * heads)
    (out * rng.normal(size=out.shape)).sum().backward()
    for t in (q, k, v):
        assert t.grad.shape == t.shape and np.isfinite(t.grad).all()
    assert not k.grad.any() and not v.grad.any()


@pytest.mark.parametrize("batch", [(), (3,)], ids=["2d", "batched"])
@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
def test_attention_query_rows_with_no_key_raise(batch, masked):
    """k and v with no rows leave every query row nothing to attend to."""
    rng = np.random.default_rng(17)
    q, k, v = (Tensor(columns(rng.normal(size=batch + s))) for s in ((3, 4), (0, 4), (0, 2)))
    with pytest.raises(MaskError, match="no key"):
        T.attention(q, k, v, np.ones((3, 0), dtype=bool) if masked else None, heads=math.prod(batch))


def kernel_error_case(case, rng):
    """(q, k, v, mask, heads) arrays for one case the kernel refuses."""
    q, k, v = rng.normal(size=(3, 4)), rng.normal(size=(5, 4)), rng.normal(size=(5, 2))
    mask = np.ones((3, 5), dtype=bool)
    if case == "widths":
        k = rng.normal(size=(5, 6))
    elif case == "no-key":
        k, v, mask = k[:0], v[:0], mask[:, :0]
    elif case == "mask-shape":
        mask = mask.T
    elif case == "empty-row":
        mask[1] = False
    elif case == "operands-first":  # NaN in q and a mask of the wrong shape: the operands are checked first
        q[0, 0], mask = np.nan, mask.T
    return q, k, v, mask, {"heads": 3, "float-heads": 2.0}.get(case, 2)


@pytest.mark.parametrize("case, error, message", [
    ("widths", ShapeError, "attention needs q (n, heads*d), k (m, heads*d), v (m, heads*dv); "
                           "got (3, 4), (5, 6), (5, 2)"),
    ("heads", ShapeError, "attention: 3 heads do not divide the widths 4 and 2 with at least one q column per head"),
    ("float-heads", ValueError, "attention: heads must be an integer"),
    ("operands-first", FloatingPointError, "attention: q, k or v hold NaN or inf"),
    ("no-key", MaskError, "attention: 3 query rows and no key to attend to"),
    ("mask-shape", ShapeError, "mask shape (5, 3) does not match (3, 5)"),
    ("empty-row", MaskError, "query rows [1] have no unmasked key"),
])
def test_attention_forward_checks_its_operands_then_its_mask(case, error, message):
    """The kernel's one entry raises what ``attention`` raises, with the same
    messages: the operands' errors first, then the mask's."""
    q, k, v, mask, heads = kernel_error_case(case, np.random.default_rng(41))
    for call in (lambda: T.attention_forward(q, k, v, mask, heads),
                 lambda: T.attention(Tensor(q), Tensor(k), Tensor(v), mask, heads=heads)):
        with pytest.raises(error, match=re.escape(message)):
            call()


@pytest.mark.parametrize("heads", [1, 4])
@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
def test_attention_forward_returns_the_nodes_backward(heads, masked):
    """``attention_forward`` on arrays gives an ``attention`` node's output,
    and its ``backward(g, q, k, v)``, given the operands again, gives the
    node's three gradients bitwise, over two blocks of query rows."""
    rng = np.random.default_rng(42)
    n, m = 130, 300  # 109-row blocks
    q, k, v = rng.normal(size=(n, 8)), rng.normal(size=(m, 8)), rng.normal(size=(m, 12))
    mask = random_mask(rng, n, m) if masked else None
    g = rng.normal(size=(n, 12))
    out, backward = T.attention_forward(q, k, v, mask, heads)
    node = T.attention(*(Tensor(a, requires_grad=True) for a in (q, k, v)), mask, heads=heads)
    assert out.tobytes() == node.data.tobytes()
    grads, want = backward(g, q, k, v), node._backward(g)
    assert len(grads) == 3 and all(a.tobytes() == b.tobytes() for a, b in zip(grads, want))


def kept_probability_attention(q, k, v, mask=None):
    """``attention`` as it was when its node kept the whole ``(..., n, m)``
    probabilities for the backward: the oracle of the node that walks row
    blocks and recomputes them. Operand checks are left out; callers pass
    valid operands."""
    scale = 1.0 / np.sqrt(q.shape[-1])
    p = q.data @ np.swapaxes(k.data, -1, -2)
    p *= scale
    if mask is not None:
        np.copyto(p, -np.inf, where=~mask)
    p -= p.max(axis=-1, keepdims=True, initial=-np.inf)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)

    y = p @ v.data

    def backward(g):
        dv, dq, ds = np.empty(v.shape), np.empty(q.shape), np.empty(p.shape[-2:])
        dkt = np.empty(k.shape[:-2] + (k.shape[-1], k.shape[-2]))
        rowsum = (g * y).sum(axis=-1, keepdims=True)
        for i in np.ndindex(p.shape[:-2]):
            np.matmul(p[i].T, g[i], out=dv[i])
            np.matmul(g[i], v.data[i].T, out=ds)
            ds -= rowsum[i]
            ds *= p[i]
            ds *= scale
            np.matmul(ds, k.data[i], out=dq[i])
            np.matmul(q.data[i].T, ds, out=dkt[i])
        return dq, np.swapaxes(dkt, -1, -2), dv

    return T.custom_op(y, (q, k, v), backward)


def held_arrays(fn):
    """Every array that ``fn``'s closure holds, directly or through the
    closures of the functions it holds."""
    found = []
    for cell in fn.__closure__ or ():
        x = cell.cell_contents
        if isinstance(x, np.ndarray):
            found.append(x)
        elif callable(x) and hasattr(x, "__closure__"):
            found += held_arrays(x)
    return found


def wide_logits_case(rng):
    """Two heads of integer q and k, whose logits are exact: query row r's
    logit on key r is 700 +- 8, its other unmasked logits are within 28 of 0,
    and keys 8-11, at 800 +- 8, are masked for every row, as is key 12 + r
    for row r. So ``exp(logit - row max)`` is exactly 1 on key r, below 1e-280
    on every other key, and would overflow on the masked keys."""
    n, m, d = 8, 20, 16  # 16 columns per head: the 1/sqrt(d) scale is exact
    q = rng.integers(-2, 3, size=(2, n, d)).astype(float)
    k = rng.integers(-2, 3, size=(2, m, d)).astype(float)
    q[:, :, :n] = 0.0
    rows = np.arange(n)
    q[:, rows, rows], k[:, rows, rows] = 40.0, 70.0
    k[:, 8:12, :n] = 80.0
    mask = np.ones((n, m), dtype=bool)
    mask[:, 8:12] = False
    mask[rows, rows + 12] = False
    return q, k, rng.integers(-3, 3, size=(2, m, 5)) + 0.5, mask  # v exact, and never 0


def recompute_case(kind, rng):
    """(q, k, v, mask) arrays for one case of the kept-probability oracle,
    batched over heads."""
    if kind == "ragged-blocks":  # 54-row blocks of 600 keys: 54 + 54 + 22 query rows
        return rng.normal(size=(4, 130, 16)), rng.normal(size=(4, 600, 16)), rng.normal(size=(4, 600, 16)), None
    if kind == "dn-inside-a-block":  # 109-row blocks: rows 109-217 hold the last matching and the first DN rows
        return (rng.normal(size=(300, 8)), rng.normal(size=(300, 8)), rng.normal(size=(300, 6)),
                attention_mask(200, [20] * 5))
    if kind == "one-row-blocks":
        m = T._ATTN_BLOCK + 5
        return rng.normal(size=(3, 4)), rng.normal(size=(m, 4)), rng.normal(size=(m, 2)), None
    if kind == "encoder":
        return tuple(rng.normal(size=(4, 64, 16)) for _ in range(3)) + (None,)
    if kind == "cross":  # decoder rows against a memory grid
        return rng.normal(size=(4, 10, 16)), rng.normal(size=(4, 49, 16)), rng.normal(size=(4, 49, 16)), None
    if kind == "masked-2d":  # matching rows and three DN groups, one of them empty
        mask = attention_mask(5, [3, 0, 2])
        return rng.normal(size=(10, 8)), rng.normal(size=(10, 8)), rng.normal(size=(10, 6)), mask
    if kind == "wide-logits":
        return wide_logits_case(rng)
    return rng.normal(size=(3, 0, 8)), rng.normal(size=(3, 7, 8)), rng.normal(size=(3, 7, 5)), None


@pytest.mark.parametrize("kind", ["encoder", "cross", "masked-2d", "no-query-rows", "ragged-blocks",
                                  "dn-inside-a-block", "one-row-blocks", "wide-logits"])
def test_attention_matches_the_kept_probability_node(kind):
    """Walking row blocks and recomputing them in the backward gives the kept-
    probability node's values and gradients to 1e-12 of the oracle's largest
    magnitude, for every subset of operands needing grad. The node holds
    under half of one (n, m) float block besides its output, and a second
    pass, on a fresh graph from the same leaves, gives exactly twice the
    gradients.

    With wide logits the backward's ``logit - row max``, one matmul of
    ``[q * scale | -row max]`` with ``[k^T; 1]``, is exactly 0 on each row's
    key, as the forward's subtraction is: each output row is that key's v
    row, and that key's v gradient is the row's output gradient, bit for
    bit. Every other unmasked weight vanishes (below 1e-250), and the masked
    keys, whose logits are larger still, get no gradient at all."""
    rng = np.random.default_rng(18)
    q, k, v, mask = recompute_case(kind, rng)
    n, m = q.shape[-2], k.shape[-2]
    rows = max(1, T._ATTN_BLOCK // max(m, 1))  # query rows per block
    if kind in ("ragged-blocks", "dn-inside-a-block", "one-row-blocks"):
        assert rows < n
    assert (kind != "ragged-blocks" or n % rows) and (kind != "one-row-blocks" or rows == 1)
    w = rng.normal(size=q.shape[:-1] + v.shape[-1:])
    if kind == "wide-logits":
        w = np.floor(4.0 * w) + 0.5  # exact, and never 0
    for flags in GRAD_SUBSETS:
        leaves = [Tensor(columns(a), requires_grad=f) for a, f in zip((q, k, v), flags)]
        out = T.attention(*leaves, mask, heads=n_heads(q))
        backward = out._backward  # the walk releases it
        (out * columns(w)).sum().backward()
        if kind == "wide-logits":
            np.testing.assert_array_equal(out.data, columns(v[:, :n]))
            if flags[2]:
                dv = v.shape[-1]
                grad = leaves[2].grad.reshape(m, -1, dv).transpose(1, 0, 2)
                np.testing.assert_array_equal(grad[:, :n], w)
                assert not grad[:, 8:12].any() and np.abs(grad[:, 12:]).max() < 1e-250
        oracle_leaves = [Tensor(a, requires_grad=f) for a, f in zip((q, k, v), flags)]
        oracle = kept_probability_attention(*oracle_leaves, mask)
        (oracle * w).sum().backward()
        want = columns(oracle.data)
        assert np.abs(out.data - want).max(initial=0.0) <= 1e-12 * np.abs(want).max(initial=0.0)
        for t, t_oracle, f in zip(leaves, oracle_leaves, flags):
            if f:
                want = columns(t_oracle.grad)
                assert t.grad.shape == want.shape
                assert np.abs(t.grad - want).max(initial=0.0) <= 1e-12 * np.abs(want).max(initial=0.0)
            else:
                assert t.grad is None and t_oracle.grad is None
        held = sum(a.nbytes for a in held_arrays(backward) if a is not out.data)  # r needs the output
        assert held < 0.5 * n * m * 8 or n == 0
        needs = [t for t, f in zip(leaves, flags) if f]
        once = [t.grad.copy() for t in needs]
        (T.attention(*leaves, mask, heads=n_heads(q)) * columns(w)).sum().backward()  # a fresh graph
        for t, g in zip(needs, once):
            np.testing.assert_array_equal(t.grad, 2.0 * g)


def test_attention_backward_works_one_block_at_a_time():
    """The node keeps no (heads, n, m) probabilities: after the forward it holds
    under half of one (n, m) block, and the forward and backward together
    peak under three blocks (the backward's recomputed block, its logit
    gradient and the q, k and v gradients)."""
    rng = np.random.default_rng(15)
    q, k, v = (Tensor(columns(rng.normal(size=(4, 256, 4))), requires_grad=True) for _ in range(3))
    w = columns(rng.normal(size=(4, 256, 4)))
    block_nbytes = 256 * 256 * 8
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = T.attention(q, k, v, heads=4)
        held = tracemalloc.get_traced_memory()[0] - start
        (out * w).sum().backward()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert all(t.grad is not None for t in (q, k, v))
    assert held < 0.5 * block_nbytes
    assert peak < 3 * block_nbytes


def test_attention_peaks_under_half_a_block_when_rows_split_into_blocks():
    """At 512 keys a block holds 64 query rows, so the forward and backward
    together peak under half of one (n, m) float block: the backward's
    recomputed rows, their logit gradient, the operands' gradients and the
    output."""
    rng = np.random.default_rng(19)
    q, k, v = (Tensor(columns(rng.normal(size=(1, 512, 4))), requires_grad=True) for _ in range(3))
    w = columns(rng.normal(size=(1, 512, 4)))
    assert T._ATTN_BLOCK // 512 < 512
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        (T.attention(q, k, v) * w).sum().backward()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert all(t.grad is not None for t in (q, k, v))
    assert peak < 0.5 * 512 * 512 * 8


def test_attention_backward_peaks_under_1_6_mb_beside_its_gradients():
    """At q, k and v of (576, 64) with 4 heads, the backward builds one head's
    gradients at a time, in contiguous buffers it copies into the returned
    columns, and holds no (heads, rows, width) stacks of them: beyond the
    three gradients it returns it peaks at about 1.37 MB, and at 1.88 MB with
    the stacks."""
    rng = np.random.default_rng(26)
    q, k, v = (Tensor(rng.normal(size=(576, 64)), requires_grad=True) for _ in range(3))
    out = T.attention(q, k, v, heads=4)
    g = rng.normal(size=out.shape)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        grads = out._backward(g)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert [a.shape for a in grads] == [(576, 64)] * 3
    assert peak - sum(a.nbytes for a in grads) < 1.6e6


def test_attention_backward_peaks_under_1_3_mb_beside_its_gradients():
    """The backward builds ``[g / row sum | -r]`` for one head at a time, an
    ``(n, dv + 1)`` buffer it reuses: at q, k and v of (576, 64) with 4
    heads it peaks at about 1.19 MB beyond the three gradients, and at 1.37
    MB with the ``(heads, n, dv + 1)`` buffer of all heads at once."""
    rng = np.random.default_rng(26)
    q, k, v = (Tensor(rng.normal(size=(576, 64)), requires_grad=True) for _ in range(3))
    out = T.attention(q, k, v, heads=4)
    g = rng.normal(size=out.shape)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        grads = out._backward(g)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert [a.shape for a in grads] == [(576, 64)] * 3
    assert peak - sum(a.nbytes for a in grads) < 1.3e6


@pytest.mark.parametrize("heads", [True, 2.0])
def test_attention_takes_an_integer_head_count(heads):
    """``heads`` is refused with ValueError unless it is a Python or numpy
    integer, as the configs' count fields are; a bool or a whole float used
    to reach numpy and fail there with a TypeError."""
    q = Tensor(np.ones((3, 4)))
    with pytest.raises(ValueError, match="attention: heads must be an integer"):
        T.attention(q, q, q, heads=heads)
    assert np.array_equal(T.attention(q, q, q, heads=np.int64(2)).data, T.attention(q, q, q, heads=2).data)


def kept_xn_layer_norm(a, gamma, beta):
    """``layer_norm`` as it was when the node kept the normalized input: the
    oracle, bit for bit, of the node that keeps the row mean and rebuilds it."""
    mean_col = np.full((a.shape[-1], 1), 1.0 / a.shape[-1])
    xn = a.data - a.data @ mean_col
    inv_s = 1.0 / np.sqrt((xn * xn) @ mean_col + T.LN_EPS)
    xn *= inv_s

    def backward(g):
        gxn = g * gamma.data
        dx = gxn - gxn @ mean_col
        dx -= xn * ((gxn * xn) @ mean_col)
        dx *= inv_s
        return dx, g * xn, g

    return T.custom_op(xn * gamma.data + beta.data, (a, gamma, beta), backward)


def textbook_layer_norm(a, gamma, beta):
    """``layer_norm`` as it was with ``np.mean`` and ``np.var``: the oracle of
    the node that takes its row means from matmuls."""
    mu = a.data.mean(axis=-1, keepdims=True)
    s = np.sqrt(a.data.var(axis=-1, keepdims=True) + T.LN_EPS)
    xn = (a.data - mu) / s

    def backward(g):
        gxn = g * gamma.data
        return ((gxn - gxn.mean(axis=-1, keepdims=True) - xn * (gxn * xn).mean(axis=-1, keepdims=True)) / s,
                g * xn, g)

    return T.custom_op(xn * gamma.data + beta.data, (a, gamma, beta), backward)


def layer_norm_case(kind, rng):
    if kind == "offset":  # 1000 standard deviations off 0: E[x^2] - mean^2 loses about 1e-10
        return 1e6 + 1e3 * rng.normal(size=(8, 64))
    if kind == "constant-row":  # variance 0: only LN_EPS keeps the row finite
        x = rng.normal(size=(5, 16))
        x[2] = 0.3
        return x
    return rng.normal(size={"d6": (7, 6), "3d": (2, 5, 6), "no-rows": (0, 6)}[kind])


@pytest.mark.parametrize("kind", ["offset", "constant-row", "d6", "3d", "no-rows"])
def test_layer_norm_matches_the_textbook_form(kind):
    """Row means from matmuls with a column of 1/d, and the variance as the
    mean square of the centred rows, give the np.mean and np.var form's
    values and gradients of x, gamma and beta to 1e-12 of the oracle's
    largest magnitude: with a common offset of 1e6, with a constant row, at
    d = 6, where 1/d is inexact, on a (2, 5, 6) input and on no rows."""
    rng = np.random.default_rng(23)
    x = layer_norm_case(kind, rng)
    d = x.shape[-1]
    gamma, beta, w = rng.normal(size=d), rng.normal(size=d), rng.normal(size=x.shape)
    got, want = [], []
    for op, found in ((T.layer_norm, got), (textbook_layer_norm, want)):
        leaves = [Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
        out = op(*leaves)
        (out * w).sum().backward()
        found += [out.data] + [t.grad for t in leaves]
    for g, o in zip(got, want):
        assert g.shape == o.shape
        assert np.abs(g - o).max(initial=0.0) <= 1e-12 * np.abs(o).max(initial=0.0)


def layer_norm_results(op, x, gamma, beta, w) -> list:
    """The output and the gradients of x, gamma and beta of ``(op(x, gamma,
    beta) * w).sum()``."""
    leaves = [Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
    out = op(*leaves)
    (out * w).sum().backward()
    return [out.data] + [t.grad for t in leaves]


def test_layer_norm_keeps_two_columns_and_matches_the_kept_xn_node():
    """At (576, 64) the node holds under a tenth of its output's bytes beside
    the output: the row mean and ``1/s``, not the normalized input (301.5 KB
    beside a 295 KB output when it kept it), and with a residual no sum
    either. On every input of the textbook test, its values and its
    gradients of x, gamma and beta are byte-equal to the node that kept the
    normalized input."""
    rng = np.random.default_rng(27)
    x, gamma, beta = (Tensor(rng.normal(size=s), requires_grad=True) for s in ((576, 64), (64,), (64,)))
    for residual in (None, Tensor(rng.normal(size=(576, 64)), requires_grad=True)):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = T.layer_norm(x, gamma, beta, residual)
            held = tracemalloc.get_traced_memory()[0] - start - out.data.nbytes
        finally:
            tracemalloc.stop()
        assert held < 0.1 * out.data.nbytes
    for kind in ("offset", "constant-row", "d6", "3d", "no-rows"):
        x = layer_norm_case(kind, np.random.default_rng(23))
        d = x.shape[-1]
        args = (x, rng.normal(size=d), rng.normal(size=d), rng.normal(size=x.shape))
        got, want = layer_norm_results(T.layer_norm, *args), layer_norm_results(kept_xn_layer_norm, *args)
        for g, o in zip(got, want):
            assert g.shape == o.shape and g.tobytes() == o.tobytes(), kind


@pytest.mark.parametrize("x_shape, gamma_shape, beta_shape", [((3, 4), (3, 4), (4,)), ((3, 4), (4,), (3, 4)),
                                                              ((3, 4), (5,), (4,)), ((3, 4), (4,), ()),
                                                              ((3, 0), (0,), (0,)), ((), (1,), (1,))])
def test_layer_norm_takes_affine_parameters_over_a_nonempty_last_axis(x_shape, gamma_shape, beta_shape):
    """gamma and beta are ``(d,)`` over a last axis of ``d >= 1``. A ``(3, 4)``
    gamma or beta used to be taken per element, a 0-d beta broadcast, and an
    empty last axis raised ZeroDivisionError."""
    with pytest.raises(ShapeError, match=re.escape(f"got {x_shape}, {gamma_shape}, {beta_shape}")):
        T.layer_norm(Tensor(np.ones(x_shape)), Tensor(np.ones(gamma_shape)), Tensor(np.ones(beta_shape)))


@pytest.mark.parametrize("stack", [(), (2,)], ids=["2d", "stacked"])
@pytest.mark.parametrize("x_needs_grad", [True, False], ids=["x-grad", "x-const"])
def test_layer_norm_residual_is_bitwise_add_and_layer_norm(stack, x_needs_grad):
    """``layer_norm(a, gamma, beta, r)`` is one node with parents ``(a, gamma,
    beta, r)`` whose value and gradients are byte for byte those of
    ``layer_norm(add(a, r), gamma, beta)``: the sum is formed in the forward
    and again in the backward, and ``a`` and ``r`` get the same gradient."""
    rng = np.random.default_rng(30)
    a = Tensor(rng.normal(size=stack + (5, 4)), requires_grad=x_needs_grad)
    gamma, beta, r = (Tensor(rng.normal(size=s), requires_grad=True) for s in ((4,), (4,), stack + (5, 4)))
    proj = rng.normal(size=stack + (5, 4))
    results = []
    for f in (lambda: T.layer_norm(a, gamma, beta, r), lambda: T.layer_norm(T.add(a, r), gamma, beta)):
        for t in (a, gamma, beta, r):
            t.grad = None
        out = f()
        (out * proj).sum().backward()
        results.append([out.data] + [t.grad for t in (a, gamma, beta, r)])
    for got, want in zip(*results):
        assert (got is None and want is None) or (got.shape == want.shape and got.tobytes() == want.tobytes())
    assert T.layer_norm(a, gamma, beta, r)._parents == (a, gamma, beta, r)
    assert T.layer_norm(a, gamma, beta)._parents == (a, gamma, beta)


def test_layer_norm_residual_grad_check():
    rng = np.random.default_rng(31)
    a, gamma, beta, r = (Tensor(rng.normal(size=s), requires_grad=True) for s in ((2, 5, 4), (4,), (4,), (2, 5, 4)))
    proj = rng.normal(size=(2, 5, 4))
    assert T.grad_check(lambda: (T.layer_norm(a, gamma, beta, r) ** 2 * proj).sum(), [a, gamma, beta, r]) < 1e-6


@pytest.mark.parametrize("a_shape, r_shape, message", [
    ((5, 4), (5, 3), "layer_norm: residual must be the input's shape (5, 4), got (5, 3)"),
    ((5, 4), (4,), "layer_norm: residual must be the input's shape (5, 4), got (4,)"),
    ((5, 3), (5, 4), "layer_norm: residual must be the input's shape (5, 3), got (5, 4)"),
], ids=["width", "row", "sublayer-width"])
def test_layer_norm_takes_a_residual_at_exactly_the_input_shape(a_shape, r_shape, message):
    """The residual does not broadcast, and a sublayer that changes the
    width (narrowing ``x`` to its output here) has no residual to add."""
    d = a_shape[-1]
    a, gamma, beta = Tensor(np.ones(a_shape)), Tensor(np.ones(d)), Tensor(np.zeros(d))
    with pytest.raises(ShapeError, match=re.escape(message)):
        T.layer_norm(a, gamma, beta, Tensor(np.ones(r_shape)))


def test_forward_deterministic_and_finite_on_bounded_inputs():
    rng = np.random.default_rng(10)
    x = rng.uniform(-1e3, 1e3, size=(6, 6))
    ops = [
        lambda t: softmax(t),
        lambda t: T.sigmoid(t),
        lambda t: T.relu(t),
        lambda t: t @ Tensor(np.eye(6)),
        lambda t: T.layer_norm(t, Tensor(np.ones(6)), Tensor(np.zeros(6))),
        lambda t: T.absolute(t),
    ]
    for op in ops:
        a = op(Tensor(x)).data
        b = op(Tensor(x)).data
        assert np.all(np.isfinite(a))
        np.testing.assert_array_equal(a, b)
    assert np.all(np.isfinite(T.log(Tensor(np.abs(x) + 1e-6)).data))


def test_unbroadcast_gradients():
    rng = np.random.default_rng(12)
    x = rand_t(rng, (4, 5))
    b = rand_t(rng, (5,))
    s = rand_t(rng, (1, 5))
    assert T.grad_check(lambda: ((x + b) * 2).sum(), [x, b]) < 1e-6
    assert T.grad_check(lambda: ((x * s) ** 2).sum(), [x, s]) < 1e-6
    # Positive operands, so div has no pole; a row, a column and a 0-d operand.
    x = rand_t(rng, (4, 5), away_from_zero=True)
    row = rand_t(rng, (5,), away_from_zero=True)
    col = rand_t(rng, (4, 1), away_from_zero=True)
    s0 = Tensor(rng.uniform(0.5, 1.5), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 5)))  # so each broadcast copy gets its own weight
    for op in (T.div, T.minimum, T.maximum):
        for a, c in ((x, row), (row, x), (x, col), (col, row), (x, s0), (s0, x)):
            assert T.grad_check(lambda: (op(a, c) * w).sum(), [a, c]) < 1e-6, (op.__name__, a.shape, c.shape)


UNBROADCAST_CASES = {  # a backward's gradient shape, its parent's shape, and the gradient the parent must get
    "(5,)->(1,5)": ((5,), (1, 5), lambda g: g[None]),
    "(5,)->(3,1,5)": ((5,), (3, 1, 5), lambda g: np.broadcast_to(g, (3, 1, 5))),
    "(3,5)->(1,5)": ((3, 5), (1, 5), lambda g: g.sum(axis=0, keepdims=True)),
    "(2,3,5)->(3,5)": ((2, 3, 5), (3, 5), lambda g: g.sum(axis=0)),
}


@pytest.mark.parametrize("case", UNBROADCAST_CASES.values(), ids=UNBROADCAST_CASES.keys())
def test_the_walk_brings_a_gradient_to_exactly_its_parents_shape(case):
    """A backward may return a gradient at any shape that broadcasts with its
    parent's. The walk sums it over the axes the parent was broadcast along
    and reads one of lower rank with unit axes in front, as numpy does.
    ``(5,)`` into ``(1, 5)`` used to give a ``(1,)`` gradient, and into ``(3,
    1, 5)`` a ``(5,)`` one."""
    g_shape, shape, expected = case
    g = np.arange(1.0, 1.0 + math.prod(g_shape)).reshape(g_shape)
    assert T._unbroadcast(g, shape).shape == shape
    assert np.array_equal(T._unbroadcast(g, shape), expected(g))
    leaf = Tensor(np.zeros(shape), requires_grad=True)
    T.custom_op(np.array(0.0), (leaf,), lambda _: (g.copy(),)).backward()
    assert leaf.grad.shape == shape and np.array_equal(leaf.grad, expected(g))


TAKE_KEYS = {  # a key into a (276, 64) buffer, and whether it may name an element twice
    "slice": (np.s_[80:160], False),
    "int": (3, False),
    "tuple": ((slice(2, 9), 5), False),
    "mask": (np.arange(276) % 3 == 1, False),
    "repeats": (np.array([4, 0, 4, 4, 275, 0]), True),
}


@pytest.mark.parametrize("case", TAKE_KEYS.values(), ids=TAKE_KEYS.keys())
def test_take_backward_adds_in_place_unless_the_key_may_repeat(case):
    """``take``'s backward uses ``np.add.at`` only for a key holding an integer
    array, and ``buf[key] += g`` for the rest; either way its gradient is
    byte for byte the ``np.add.at`` scatter."""
    key, may_repeat = case
    rng = np.random.default_rng(41)
    a = Tensor(rng.normal(size=(276, 64)), requires_grad=True)
    out = T.take(a, key)
    g = rng.normal(size=out.shape)
    (out * g).sum().backward()
    want = np.zeros((276, 64))
    np.add.at(want, key, g)
    assert T._may_repeat(key) == may_repeat
    assert a.grad.tobytes() == want.tobytes()
