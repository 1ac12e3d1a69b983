import re
import tracemalloc

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
    return T.custom_op(y, (a, lambda g: y * (g - (g * y).sum(axis=axis, keepdims=True))))


def composed_attention(q, k, v, mask=None):
    """``attention`` as a chain of graph nodes, as it was before the fused
    node: swapaxes, matmul, scale, ``-inf`` fill, softmax, matmul."""
    logits = T.matmul(q, T.swapaxes(k, -1, -2)) * (1.0 / np.sqrt(q.shape[-1]))
    if mask is not None:
        logits = T.custom_op(np.where(mask, logits.data, -np.inf), (logits, lambda g: g * mask))
    return T.matmul(softmax(logits, axis=-1), v)


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
        (lambda: (x.reshape(5, 3).swapaxes(0, 1) * w).sum(), [x]),
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
    x = Tensor(np.ones(3), requires_grad=True)
    loss = ((x * 2.0) * 3.0).sum()
    loss.backward()
    loss.backward()
    np.testing.assert_array_equal(x.grad, np.full(3, 12.0))
    # attention's node keeps its probabilities, and a second walk reads them again
    rng = np.random.default_rng(3)
    q, k, v = rand_t(rng, (2, 4, 6)), rand_t(rng, (2, 5, 6)), rand_t(rng, (2, 5, 3))
    loss = (T.attention(q, k, v, random_mask(rng, 4, 5)) * rng.normal(size=(2, 4, 3))).sum()
    loss.backward()
    once = [t.grad.copy() for t in (q, k, v)]
    loss.backward()
    for t, g in zip((q, k, v), once):
        np.testing.assert_array_equal(t.grad, 2.0 * g)


def test_backward_keeps_leaf_grads_and_releases_interior_ones():
    rng = np.random.default_rng(4)
    a, b = rand_t(rng, (3, 4)), rand_t(rng, (3, 4))
    c = a * b
    d = T.relu(c) + a
    loss = d.sum()
    parents = {id(t): t._parents for t in (c, d, loss)}
    loss.backward()
    assert c.grad is None and d.grad is None
    assert loss.grad is not None
    np.testing.assert_array_equal(a.grad, b.data * (c.data > 0) + 1.0)
    np.testing.assert_array_equal(b.grad, a.data * (c.data > 0))
    assert {id(t): t._parents for t in (c, d, loss)} == parents


def zero_fill_accum(t, g):
    """``_accum`` as it was before the walk owned its buffers."""
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


OWNERSHIP_CASES = {
    "a+s": lambda a, s: (a + s).sum(),
    "add(a,a)": lambda a, s: (T.add(a, a) * s).sum(),
    "reshape(a)+s": lambda a, s: ((a.reshape(4, 3) + s.reshape(4, 3)) * 2.0).sum(),
    "interior reuse": lambda a, s: interior_reuse(a * s),
}


def interior_reuse(y):
    """One interior node that receives three gradients, two of them one array."""
    return (T.add(y, y) + y.swapaxes(0, 1).swapaxes(0, 1)).sum()


@pytest.mark.parametrize("kind", sorted(OWNERSHIP_CASES))
def test_leaf_grads_are_private_and_match_zero_fill_oracle(kind, monkeypatch):
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
    monkeypatch.setattr(T, "_accum", zero_fill_accum)
    for t in leaves:
        t.grad = None
    f(a, s).backward()
    for t, g in zip(leaves, grads):
        np.testing.assert_array_equal(t.grad, g)


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
    for m in (None, mask):  # an (n, m) mask broadcasts over the head axis
        batched = T.attention(Tensor(q), Tensor(k), Tensor(v), m).data
        for i in range(3):
            single = T.attention(Tensor(q[i]), Tensor(k[i]), Tensor(v[i]), m).data
            np.testing.assert_allclose(batched[i], single, atol=1e-12)


def random_mask(rng, n, m):
    mask = rng.random((n, m)) > 0.4
    mask[~mask.any(axis=1), 0] = True
    return mask


def oracle_case(kind, rng):
    """(q, k, v, mask) arrays for one seeded oracle case."""
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
    """The fused node gives the composed graph's values bitwise and its
    gradients to 1e-12 relative, for every subset of operands needing grad."""
    rng = np.random.default_rng(100 * seed + ORACLE_KINDS[kind])
    q, k, v, mask = oracle_case(kind, rng)
    if kind == "large-logits":
        logits = np.abs(q @ k.T / 2.0)
        assert 990.0 < logits.min() and logits.max() < 1010.0
    fused = T.attention(Tensor(q), Tensor(k), Tensor(v), mask)
    assert not fused.requires_grad and fused._parents == ()
    np.testing.assert_array_equal(fused.data, composed_attention(Tensor(q), Tensor(k), Tensor(v), mask).data)
    w = rng.normal(size=fused.shape)
    for flags in GRAD_SUBSETS:
        grads = []
        for fn in (T.attention, composed_attention):
            leaves = [Tensor(a, requires_grad=f) for a, f in zip((q, k, v), flags)]
            out = fn(*leaves, mask)
            if fn is T.attention:
                assert out._parents == tuple(leaves)
                np.testing.assert_array_equal(out.data, fused.data)
            (out * w).sum().backward()
            grads.append([t.grad for t in leaves])
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
    q = Tensor(np.ones((2, 3, 4)))
    k = Tensor(np.ones((2, 5, 4)))
    for shape in ((5, 3), (3, 4), (2, 3, 5)):
        with pytest.raises(ShapeError):
            T.attention(q, k, k, np.ones(shape, dtype=bool))


def test_attention_operands_of_wrong_shape_raise():
    rng = np.random.default_rng(14)
    cases = [((3, 4), (5, 6), (5, 2)),        # q and k differ in their last axis
             ((3, 4), (5, 4), (6, 2)),        # k and v differ in length
             ((4,), (5, 4), (5, 2)),          # a q with no query axis
             ((2, 3, 4), (5, 4), (5, 2)),     # k and v lack q's batch axis
             ((3, 4), (2, 5, 4), (2, 5, 2)),  # q lacks k and v's batch axis
             ((2, 3, 4), (2, 5, 4), (3, 5, 2)),  # v's batch axis differs
             ((2, 1, 3, 4), (1, 2, 5, 4), (1, 2, 5, 2))]  # batch axes that would broadcast
    for shapes in cases:
        with pytest.raises(ShapeError, match=re.escape(", ".join(map(str, shapes)))):
            T.attention(*(Tensor(rng.normal(size=s), requires_grad=True) for s in shapes))


@pytest.mark.parametrize("batch", [(), (3,)], ids=["2d", "batched"])
@pytest.mark.parametrize("m", [0, 5], ids=["no-key", "keys"])
@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
def test_attention_with_no_query_rows(batch, m, masked):
    """A scene with no proposals and no GT has no decoder rows: self-attention
    is a (0, 0) block and cross-attention a (0, m) one. The output is
    (..., 0, dv); every operand gets a finite gradient of its own shape, zero
    for k and v, which no query reads."""
    rng = np.random.default_rng(16)
    q, k, v = (Tensor(rng.normal(size=batch + s), requires_grad=True) for s in ((0, 4), (m, 4), (m, 2)))
    out = T.attention(q, k, v, np.ones((0, m), dtype=bool) if masked else None)
    assert out.shape == batch + (0, 2)
    (out * rng.normal(size=out.shape)).sum().backward()
    for t in (q, k, v):
        assert t.grad.shape == t.shape and np.isfinite(t.grad).all()
    assert not k.grad.any() and not v.grad.any()


@pytest.mark.parametrize("batch", [(), (3,)], ids=["2d", "batched"])
@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
def test_attention_query_rows_with_no_key_raise(batch, masked):
    """k and v with no rows leave every query row nothing to attend to."""
    rng = np.random.default_rng(17)
    q, k, v = (Tensor(rng.normal(size=batch + s)) for s in ((3, 4), (0, 4), (0, 2)))
    with pytest.raises(MaskError, match="no key"):
        T.attention(q, k, v, np.ones((3, 0), dtype=bool) if masked else None)


def test_attention_backward_works_one_block_at_a_time():
    """The backward's transient memory is one (n, m) block, not a second
    (..., n, m) buffer beside the kept probabilities."""
    rng = np.random.default_rng(15)
    q, k, v = (Tensor(rng.normal(size=(4, 256, 4)), requires_grad=True) for _ in range(3))
    out = T.attention(q, k, v)
    loss = (out * rng.normal(size=out.shape)).sum()
    p_nbytes = 4 * 256 * 256 * 8
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(t.grad is not None for t in (q, k, v))
    assert peak - start < p_nbytes / 2


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
