import re
import tracemalloc

import numpy as np
import pytest

from casdet import tensor as T
from casdet.encode import grid_pe
from casdet.features import (
    apply_layer_norm,
    dense_fusion,
    encode_features,
    init_layer_norm,
    init_linear,
    init_mha,
    init_ffn,
    ffn,
    linear,
    _window_max,
    multi_head_attention,
    neck,
    patch_embed,
    roi_pool_batch,
    _ROI_CHUNK,
)
from casdet.geom import box_cxcywh_to_xyxy
from casdet.tensor import ShapeError, Tensor
from test_tensor import held_arrays


def make_patch_params(rng, patch=8, c=16):
    params = {}
    init_linear(params, rng, "patch", patch * patch * 3, c)
    return params


def make_encoder_params(rng, d, layers=1, ffn_dim=32):
    params = {}
    for i in range(layers):
        init_mha(params, rng, f"enc{i}.attn", d)
        init_ffn(params, rng, f"enc{i}.ffn", d, ffn_dim)
        init_layer_norm(params, f"enc{i}.ln1", d)
        init_layer_norm(params, f"enc{i}.ln2", d)
    return params


def test_patch_embed_shape():
    rng = np.random.default_rng(0)
    params = make_patch_params(rng, patch=8, c=16)
    out = patch_embed(rng.random((32, 32, 3)), 8, params)
    assert out.shape == (4, 4, 16)


def test_patch_embed_pads_odd_sizes():
    rng = np.random.default_rng(1)
    params = make_patch_params(rng, patch=8, c=16)
    out = patch_embed(rng.random((33, 40, 3)), 8, params)
    assert out.shape == (5, 5, 16)


def test_patch_embed_zero_image_zero_bias():
    rng = np.random.default_rng(2)
    params = make_patch_params(rng, patch=4, c=8)
    out = patch_embed(np.zeros((16, 16, 3)), 4, params)
    np.testing.assert_array_equal(out.data, 0.0)


def test_patch_embed_grad_check():
    rng = np.random.default_rng(3)
    params = make_patch_params(rng, patch=4, c=6)
    img = rng.random((8, 8, 3))
    wrt = list(params.values())
    err = T.grad_check(lambda: (patch_embed(img, 4, params) ** 2).sum(), wrt)
    assert err < 1e-6


def tiles_linear_patch_embed(image, patch, params):
    """``patch_embed`` as it was before it became one node: the tiles as a
    constant, a ``linear`` node and a reshape node; the bitwise oracle."""
    h, w, c = image.shape
    image = np.pad(image, ((0, -h % patch), (0, -w % patch), (0, 0))) if h % patch or w % patch else image
    gh, gw = image.shape[0] // patch, image.shape[1] // patch
    tiles = image.reshape(gh, patch, gw, patch, c).transpose(0, 2, 1, 3, 4).reshape(gh * gw, patch * patch * c)
    out = linear(Tensor(tiles), params, "patch")
    return out.reshape(gh, gw, out.shape[-1])


@pytest.mark.parametrize("hw, patch", [((32, 32), 8), ((33, 40), 8), ((7, 9), 4)])
def test_patch_embed_is_one_node_bitwise_equal_to_tiles_linear_reshape(hw, patch):
    """Parents ``(patch.w, patch.b)``, no tiles kept: the value and both
    gradients are byte for byte those of the tiles through ``linear``,
    padded images included."""
    rng = np.random.default_rng(30)
    params = make_patch_params(rng, patch=patch, c=16)
    image = rng.random(hw + (3,))
    proj = rng.normal(size=(-(-hw[0] // patch), -(-hw[1] // patch), 16))
    results = []
    for f in (patch_embed, tiles_linear_patch_embed):
        for t in params.values():
            t.grad = None
        out = f(image, patch, params)
        (out * proj).sum().backward()
        results.append([out.data] + [t.grad for t in params.values()])
    for got, want in zip(*results):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert patch_embed(image, patch, params)._parents == (params["patch.w"], params["patch.b"])


def test_patch_embed_grad_check_on_a_padded_image():
    rng = np.random.default_rng(31)
    params = make_patch_params(rng, patch=4, c=5)
    img = rng.random((7, 9, 3))
    proj = rng.normal(size=(2, 3, 5))
    err = T.grad_check(lambda: (patch_embed(img, 4, params) * proj).sum(), [params["patch.w"], params["patch.b"]])
    assert err < 1e-6


def nan_image(shape):
    img = np.zeros(shape)
    img[1, 2, 0] = np.nan
    return img


@pytest.mark.parametrize("image, patch, error, message", [
    (np.zeros((16, 16)), 8, ShapeError, "patch_embed: needs an (H, W, C) image"),
    (np.zeros((16, 16, 3)), 0, ValueError, "patch_embed: patch must be >= 1"),
    (np.zeros((16, 16, 3)), -8, ValueError, "patch_embed: patch must be >= 1"),
    (np.zeros((16, 16, 3)), 8.0, ValueError, "patch_embed: patch must be an integer"),
    (np.zeros((16, 16, 3)), True, ValueError, "patch_embed: patch must be an integer"),
    (np.zeros((16, 16, 4)), 8, ShapeError, "patch_embed: needs an (H, W, C) image"),
    (nan_image((16, 16, 3)), 8, FloatingPointError, "patch_embed: the image holds NaN or inf"),
    (np.full((16, 16, 3), np.inf), 8, FloatingPointError, "patch_embed: the image holds NaN or inf"),
])
def test_patch_embed_checks_its_inputs(image, patch, error, message):
    """The patch is an integer >= 1 and the image an (H, W, C) array of finite
    pixels whose ``C * patch**2`` is ``patch.w``'s row count; each failure
    names ``patch_embed``."""
    params = make_patch_params(np.random.default_rng(32), patch=8, c=4)
    with pytest.raises(error, match=re.escape(message)):
        patch_embed(image, patch, params)


def test_encoder_zero_layers_identity():
    rng = np.random.default_rng(4)
    grid = Tensor(rng.normal(size=(3, 5, 8)))
    out = encode_features(grid, 0, {}, grid_pe(3, 5, 8), n_heads=2)
    assert np.array_equal(out.data, grid.data)


def test_encoder_preserves_shape_and_changes_values():
    rng = np.random.default_rng(5)
    d = 8
    params = make_encoder_params(rng, d, layers=2)
    grid = Tensor(rng.normal(size=(4, 4, d)))
    pe = grid_pe(4, 4, d)
    out = encode_features(grid, 2, params, pe, n_heads=2)
    assert out.shape == (4, 4, d)
    assert not np.allclose(out.data, grid.data)


def test_encoder_grad_flows():
    """The grid's gradient and a parameter's of each of a layer's five nodes
    pass ``grad_check``."""
    rng = np.random.default_rng(6)
    d = 8
    params = make_encoder_params(rng, d, layers=1)
    grid = Tensor(rng.normal(size=(2, 3, d)), requires_grad=True)
    pe = grid_pe(2, 3, d)
    wrt = [grid] + [params[f"enc0.{k}"] for k in ("attn.q.w", "attn.o.b", "ln1.g", "ffn.1.b", "ffn.2.w", "ln2.b")]
    err = T.grad_check(lambda: (encode_features(grid, 1, params, pe, n_heads=2) ** 2).sum(), wrt)
    assert err < 1e-5


def test_encoder_is_bitwise_the_explicit_add_and_norm_form():
    """Two layers give the value and the gradients of the grid and of every
    parameter of ``LN(x + sublayer(x))`` written with ``add`` nodes, byte
    for byte: the layer norm forms each residual sum itself."""
    rng = np.random.default_rng(41)
    d = 8
    params = make_encoder_params(rng, d, layers=2)
    grid = Tensor(rng.normal(size=(3, 4, d)), requires_grad=True)
    pe = grid_pe(3, 4, d)
    proj = rng.normal(size=(3, 4, d))

    def explicit(grid, n_layers, params, pe, n_heads):
        x = grid.reshape(12, d)
        for i in range(n_layers):
            x = apply_layer_norm(T.add(x, multi_head_attention(x, x, x, params, f"enc{i}.attn", n_heads, qk_pe=pe)),
                                 params, f"enc{i}.ln1")
            x = apply_layer_norm(T.add(x, ffn(x, params, f"enc{i}.ffn")), params, f"enc{i}.ln2")
        return x.reshape(3, 4, d)

    leaves = [grid] + list(params.values())
    results = []
    for f in (encode_features, explicit):
        for t in leaves:
            t.grad = None
        out = f(grid, 2, params, pe, 2)
        (out * proj).sum().backward()
        results.append([out.data] + [t.grad for t in leaves])
    for got, want in zip(*results):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def swap(a: Tensor, ax0: int, ax1: int) -> Tensor:
    """``a`` with two axes swapped, as one graph node."""
    return T.custom_op(np.swapaxes(a.data, ax0, ax1), (a,), lambda g: (np.swapaxes(g, ax0, ax1),))


def split_merge_mha(q_in: Tensor, k_in: Tensor, v_in: Tensor, params: dict, name: str, n_heads: int) -> Tensor:
    """``multi_head_attention`` as it was before attention took its heads in
    the columns: each projection is split into ``(heads, n, dh)`` with a
    reshape and a swap node, and the stacked head outputs are merged back the
    same way. The batched attention call it made is one call per head."""
    d_model = q_in.shape[-1]
    dh = d_model // n_heads

    def split(x: Tensor) -> Tensor:
        return swap(x.reshape(x.shape[0], n_heads, dh), 0, 1)  # (h, n, dh)

    q = split(linear(q_in, params, f"{name}.q"))
    k = split(linear(k_in, params, f"{name}.k"))
    v = split(linear(v_in, params, f"{name}.v"))
    n = q.shape[1]
    att = T.concat([T.attention(q[i], k[i], v[i]).reshape(1, n, dh) for i in range(n_heads)], axis=0)
    return linear(swap(att, 0, 1).reshape(n, d_model), params, f"{name}.o")


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("n, m", [(5, 7), (200, 190)], ids=["one-block", "row-blocks"])
def test_mha_matches_the_split_and_merge_form_bitwise(heads, n, m):
    """Heads in the columns give the split-and-merge graph's output and every
    gradient, of the inputs and of the four projections, byte for byte, with
    more keys than queries and the other way round, in one row block and in
    several."""
    rng = np.random.default_rng(heads)
    d = 16
    params = {}
    init_mha(params, rng, "attn", d)
    arrays = [rng.normal(size=(rows, d)) for rows in (n, m, m)]
    w = rng.normal(size=(n, d))
    if n == 200:
        assert T._ATTN_BLOCK // m < n
    runs = []
    for fn in (multi_head_attention, split_merge_mha):
        for p in params.values():
            p.grad = None
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        out = fn(*leaves, params, "attn", heads)
        (out * w).sum().backward()
        runs.append([out.data] + [t.grad for t in leaves] + [p.grad for p in params.values()])
    for got, want in zip(*runs):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_linear_grad_check_3d_input():
    rng = np.random.default_rng(12)
    params = {}
    init_linear(params, rng, "lin", 4, 3, bias=0.3)
    x = Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True)
    w = rng.normal(size=(2, 5, 3))
    out = linear(x, params, "lin")
    assert out._parents == (x, params["lin.w"], params["lin.b"])
    err = T.grad_check(lambda: (linear(x, params, "lin") * w).sum(), [x, params["lin.w"], params["lin.b"]])
    assert err < 1e-6


def test_mha_grad_check_keys_longer_than_queries():
    """Keys and values longer than the queries, as in cross-attention."""
    rng = np.random.default_rng(17)
    d = 8
    params = {}
    init_mha(params, rng, "attn", d)
    q_in = Tensor(rng.normal(size=(4, d)), requires_grad=True)
    k_in = Tensor(rng.normal(size=(5, d)), requires_grad=True)
    v_in = Tensor(rng.normal(size=(5, d)), requires_grad=True)
    w = rng.normal(size=(4, d))
    err = T.grad_check(lambda: (multi_head_attention(q_in, k_in, v_in, params, "attn", 2) * w).sum(),
                       [q_in, k_in, v_in, params["attn.k.w"], params["attn.v.w"]])
    assert err < 1e-6


@pytest.mark.parametrize("kind", ["keys-plus-position", "shared-keys"])
def test_mha_cross_attention_grad_check_through_one_node(kind):
    """Cross-attention as the decoder runs it, 5 queries on 9 keys, through
    one node whose parents are the three inputs and the six q, k and v
    parameters: the keys are the values plus a position term, or the values
    themselves, whose two gradients the node sums into one array. Every
    parameter and both inputs pass grad_check."""
    rng = np.random.default_rng(39)
    d = 8
    params = {}
    init_mha(params, rng, "attn", d)
    q_in = Tensor(rng.normal(size=(5, d)), requires_grad=True)
    mem = Tensor(rng.normal(size=(9, d)), requires_grad=True)
    pos = Tensor(rng.normal(size=(9, d)))
    w = rng.normal(size=(5, d))

    def loss():
        keys = mem + pos if kind == "keys-plus-position" else mem
        return (multi_head_attention(q_in, keys, mem, params, "attn", 2) * w).sum()

    qkv = [params[f"attn.{p}.{a}"] for p in "qkv" for a in "wb"]
    node = loss()._parents[0]._parents[0]._parents[0]  # sum <- mul <- o projection <- attention
    assert node._parents[0] is q_in and node._parents[2] is mem and list(node._parents[3:]) == qkv
    assert T.grad_check(loss, [q_in, mem] + qkv) < 1e-6


@pytest.mark.parametrize("n, m", [(576, 576), (100, 576)], ids=["self", "cross"])
def test_mha_node_keeps_no_projection(n, m):
    """With 4 heads of width 16, the attention node holds its output and
    each row's softmax max and sum per head, and no ``(n, 64)`` or ``(m,
    64)`` q, k or v: the backward rebuilds them from the inputs. Beside the
    ``o`` projection's output it holds under half an output more than its
    own, where the projections were three arrays more."""
    rng = np.random.default_rng(38)
    d = 64
    params = {}
    init_mha(params, rng, "attn", d)
    x = Tensor(rng.normal(size=(n, d)), requires_grad=True)
    mem = x if n == m else Tensor(rng.normal(size=(m, d)), requires_grad=True)
    pe = rng.normal(size=(n, d))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        if n == m:
            out = multi_head_attention(x, x, x, params, "attn", 4, qk_pe=pe)
        else:
            out = multi_head_attention(x, mem, mem, params, "attn", 4)
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert 2 * out.data.nbytes <= held < 2.5 * out.data.nbytes
    out.sum().backward()
    assert x.grad.shape == x.shape and mem.grad.shape == mem.shape and params["attn.k.w"].grad.any()


@pytest.mark.parametrize("case, error, message", [
    ("pe-rows", ShapeError, "multi_head_attention: qk_pe must be"),
    ("pe-width", ShapeError, "multi_head_attention: qk_pe must be"),
    ("1-d", ShapeError, "multi_head_attention: needs 2-D inputs"),
    ("width", ShapeError, "multi_head_attention: needs 2-D inputs"),
    ("heads", ShapeError, "attention: 3 heads do not divide"),
    ("nan", FloatingPointError, "attention: q, k or v hold NaN or inf"),
])
def test_mha_checks_its_inputs(case, error, message):
    """A ``qk_pe`` that is not the inputs' shape, an input that is not 2-D
    at its projection's width, a head count that does not divide the width
    and a NaN input each raise before any node is built."""
    rng = np.random.default_rng(40)
    d = 8
    params = {}
    init_mha(params, rng, "attn", d)
    x, pe, heads = rng.normal(size=(5, d)), None, 2
    if case == "pe-rows":
        pe = np.zeros((4, d))
    elif case == "pe-width":
        pe = np.zeros((5, d + 1))
    elif case == "1-d":
        x = x[0]
    elif case == "width":
        x = x[:, :-1]
    elif case == "heads":
        heads = 3
    else:
        x[2, 3] = np.nan
    x = Tensor(x, requires_grad=True)
    with pytest.raises(error, match=re.escape(message)):
        multi_head_attention(x, x, x, params, "attn", heads, qk_pe=pe)


def ffn_operands(x_needs_grad: bool) -> tuple[Tensor, dict]:
    """``x`` and FFN parameters whose hidden pre-activations include exact
    zeros, -0.0 (a product that underflows, plus a -0.0 bias) and NaN (a NaN
    bias)."""
    rng = np.random.default_rng(27)
    x, w1 = rng.normal(size=(6, 4)), rng.normal(size=(4, 5))
    x[0], x[1], w1[:, 0] = 0.0, -1e-200, 1e-200
    params = {"ffn.1.w": w1, "ffn.1.b": np.array([-0.0, 0.0, np.nan, 0.3, -0.2]),
              "ffn.2.w": rng.normal(size=(5, 4)), "ffn.2.b": rng.normal(size=4)}
    return Tensor(x, requires_grad=x_needs_grad), {k: Tensor(v, requires_grad=True) for k, v in params.items()}


@pytest.mark.parametrize("x_needs_grad", [True, False], ids=["x-grad", "x-const"])
def test_ffn_is_one_node_bitwise_equal_to_linear_relu_linear(x_needs_grad):
    """One node with parents ``(x, .1.w, .1.b, .2.w, .2.b)``, whose value and
    five gradients are byte for byte those of ``linear(relu(linear(x)))`` at
    exact zeros, -0.0 and NaN pre-activations: the backward rebuilds the
    hidden layer with the forward's own ops and masks with it."""
    x, params = ffn_operands(x_needs_grad)
    pre = T.linear(x, params["ffn.1.w"], params["ffn.1.b"]).data
    assert (pre == 0).any() and (np.signbit(pre) & (pre == 0)).any() and np.isnan(pre).any()
    leaves = [x] + list(params.values())

    def composed(x, params, name):
        return linear(T.relu(linear(x, params, f"{name}.1")), params, f"{name}.2")

    proj = np.random.default_rng(28).normal(size=x.shape)
    results = []
    for f in (ffn, composed):
        for t in leaves:
            t.grad = None
        out = f(x, params, "ffn")
        (out * proj).sum().backward()
        results.append([out.data] + [t.grad for t in leaves])
    for got, want in zip(*results):
        assert (got is None and want is None) or (got.shape == want.shape and got.tobytes() == want.tobytes())
    assert ffn(x, params, "ffn")._parents == tuple(leaves)


def test_ffn_grad_check():
    rng = np.random.default_rng(29)
    params = {}
    init_ffn(params, rng, "ffn", 4, 6)
    x = Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True)
    proj = rng.normal(size=(2, 5, 4))
    assert T.grad_check(lambda: (ffn(x, params, "ffn") * proj).sum(), [x] + list(params.values())) < 1e-6


def test_ffn_node_keeps_no_hidden_layer():
    """300 rows of width 8 through a 64-wide hidden layer: after the forward
    the node holds its 19 KB output and no 154 KB ``(300, 64)`` array, since
    the backward rebuilds the hidden layer from ``x``."""
    rng = np.random.default_rng(32)
    params = {}
    init_ffn(params, rng, "ffn", 8, 64)
    x = Tensor(rng.normal(size=(300, 8)), requires_grad=True)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = ffn(x, params, "ffn")
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert out.data.nbytes <= held < out.data.nbytes + 300 * 64 * 8 // 4
    out.sum().backward()
    assert x.grad.shape == x.shape and params["ffn.1.w"].grad.any()


@pytest.mark.parametrize("x_shape, w2_shape", [((3,), (6, 4)), ((3, 5), (6, 4)), ((3, 4), (5, 4))],
                         ids=["1-d", "width", "chain"])
def test_ffn_rejects_shapes_that_do_not_chain(x_shape, w2_shape):
    """A 1-D input, an input width other than ``.1``'s rows and a ``.2`` whose
    rows are not ``.1``'s columns each raise ShapeError naming ``ffn``."""
    params = {"ffn.1.w": Tensor(np.ones((4, 6))), "ffn.1.b": Tensor(np.ones(6)),
              "ffn.2.w": Tensor(np.ones(w2_shape)), "ffn.2.b": Tensor(np.ones(w2_shape[1]))}
    with pytest.raises(ShapeError, match="ffn: needs x"):
        ffn(Tensor(np.ones(x_shape)), params, "ffn")


def test_mha_adds_qk_pe_inside_its_projections():
    """Self-attention with ``qk_pe`` gives the value of ``mha(x + pe, x + pe,
    x)`` byte for byte, with no ``add`` node: the q and k projections read
    ``x`` itself. Gradients differ only in the order ``x``'s three
    contributions are summed."""
    rng = np.random.default_rng(36)
    d = 8
    params = {}
    init_mha(params, rng, "attn", d)
    x = Tensor(rng.normal(size=(7, d)), requires_grad=True)
    pe = rng.normal(size=(7, d))
    proj = rng.normal(size=(7, d))
    leaves = [x] + list(params.values())
    runs = []
    for f in (lambda: multi_head_attention(x, x, x, params, "attn", 2, qk_pe=pe),
              lambda: multi_head_attention(x + Tensor(pe), x + Tensor(pe), x, params, "attn", 2)):
        for t in leaves:
            t.grad = None
        out = f()
        mha_parents = out._parents[0]._parents  # the walk releases them
        (out * proj).sum().backward()
        runs.append((out, mha_parents, [t.grad for t in leaves]))
    (out, mha_parents, got), (ref, _, want) = runs
    assert out.data.tobytes() == ref.data.tobytes()
    for a, e in zip(got, want):
        np.testing.assert_allclose(a, e, rtol=0, atol=1e-12 * np.abs(e).max())
    assert all(p is x for p in mha_parents[:3])
    err = T.grad_check(lambda: (multi_head_attention(x, x, x, params, "attn", 2, qk_pe=pe) * proj).sum(),
                       [x, params["attn.q.w"], params["attn.k.b"]])
    assert err < 1e-6


def test_an_encoder_layer_is_five_nodes():
    """Attention with its q, k and v projections, the ``o`` projection, the
    first layer norm, the FFN and the second layer norm, between the grid's
    two reshapes: a layer adds no projection, ``x + pe``, residual ``add``
    or hidden-layer node of its own (it was 8 nodes with the projections
    apart, and 12 before that). Each layer norm's fourth parent, its
    residual, is its sublayer's input."""
    rng = np.random.default_rng(37)
    d = 8
    params = make_encoder_params(rng, d, layers=1)
    grid = Tensor(rng.normal(size=(2, 3, d)), requires_grad=True)
    out = encode_features(grid, 1, params, grid_pe(2, 3, d), n_heads=2)
    seen, stack = set(), [out]
    while stack:
        node = stack.pop()
        if id(node) not in seen and node._backward is not None:
            seen.add(id(node))
            stack += node._parents
    assert len(seen) == 2 + 5
    ln2 = out._parents[0]
    ln1, ffn_node = ln2._parents[3], ln2._parents[0]
    attn_node = ln1._parents[0]._parents[0]  # the o projection's input
    assert ln1._parents[3] is attn_node._parents[0] and ln1._parents[3]._parents == (grid,)
    assert ffn_node._parents[0] is ln1


def test_fusion_output_channels_and_shape_error():
    rng = np.random.default_rng(8)
    d = 8
    params = {}
    init_linear(params, rng, "fuse", 2 * d, d)
    enc = Tensor(rng.normal(size=(3, 4, d)))
    bb = Tensor(rng.normal(size=(3, 4, d)))
    assert dense_fusion(enc, bb, params).shape == (3, 4, d)
    with pytest.raises(ShapeError):
        dense_fusion(enc, Tensor(rng.normal(size=(4, 3, d))), params)


def test_fusion_linearity_with_zero_bias():
    rng = np.random.default_rng(9)
    d = 6
    params = {}
    init_linear(params, rng, "fuse", 2 * d, d)
    params["fuse.b"].data[:] = 0.0
    enc = Tensor(rng.normal(size=(2, 2, d)))
    bb = Tensor(rng.normal(size=(2, 2, d)))
    a = dense_fusion(enc, bb, params).data
    b = dense_fusion(Tensor(3.0 * enc.data), Tensor(3.0 * bb.data), params).data
    np.testing.assert_allclose(b, 3.0 * a, atol=1e-12)


def test_fusion_is_one_node_bitwise_equal_to_concat_and_linear():
    """Parents ``(enc, backbone, fuse.w, fuse.b)``, no concatenation kept:
    the value and all four gradients are byte for byte those of ``concat``
    and ``linear``."""
    rng = np.random.default_rng(33)
    params = {}
    init_linear(params, rng, "fuse", 5 + 3, 4)
    enc, bb = (Tensor(rng.normal(size=(3, 2, c)), requires_grad=True) for c in (5, 3))
    leaves = [enc, bb, params["fuse.w"], params["fuse.b"]]
    proj = rng.normal(size=(3, 2, 4))
    results = []
    for f in (dense_fusion, lambda e, b, p: linear(T.concat([e, b], axis=-1), p, "fuse")):
        for t in leaves:
            t.grad = None
        out = f(enc, bb, params)
        (out * proj).sum().backward()
        results.append([out.data] + [t.grad for t in leaves])
    for got, want in zip(*results):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert dense_fusion(enc, bb, params)._parents == tuple(leaves)


def test_fusion_grad_check():
    rng = np.random.default_rng(34)
    params = {}
    init_linear(params, rng, "fuse", 4 + 2, 3)
    enc, bb = (Tensor(rng.normal(size=(2, 3, c)), requires_grad=True) for c in (4, 2))
    proj = rng.normal(size=(2, 3, 3))
    err = T.grad_check(lambda: (dense_fusion(enc, bb, params) * proj).sum(),
                       [enc, bb, params["fuse.w"], params["fuse.b"]])
    assert err < 1e-6


def test_fusion_grid_gradients_are_two_arrays():
    """The backward returns ``g @ fuse.w[:d]^T`` and ``g @ fuse.w[d:]^T`` as
    two arrays, so the backbone's gradient does not keep the encoder's half
    alive; each is byte for byte its half of ``g @ fuse.w^T``."""
    rng = np.random.default_rng(38)
    params = {}
    init_linear(params, rng, "fuse", 5 + 3, 4)
    enc, bb = (Tensor(rng.normal(size=(3, 2, c)), requires_grad=True) for c in (5, 3))
    g = rng.normal(size=(3, 2, 4))
    d_enc, d_bb, _, _ = dense_fusion(enc, bb, params)._backward(g)
    assert not np.shares_memory(d_enc, d_bb)
    full = g @ params["fuse.w"].data.T
    assert d_enc.tobytes() == full[..., :5].tobytes() and d_bb.tobytes() == full[..., 5:].tobytes()


@pytest.mark.parametrize("bb_shape, message", [
    ((2, 2, 5), "dense_fusion: the concatenated width 4 + 5 must be fuse.w's rows"),
    ((2, 3, 4), "dense_fusion: spatial dims differ"),
])
def test_fusion_rejects_grids_that_do_not_fit_fuse(bb_shape, message):
    """Each failure names ``dense_fusion``; a width other than ``fuse.w``'s
    rows used to fail inside ``linear``."""
    rng = np.random.default_rng(35)
    params = {}
    init_linear(params, rng, "fuse", 8, 4)
    enc, bb = Tensor(rng.normal(size=(2, 2, 4))), Tensor(rng.normal(size=bb_shape))
    with pytest.raises(ShapeError, match=re.escape(message)):
        dense_fusion(enc, bb, params)


def pooled(grid: Tensor, boxes, out_hw=(7, 7)) -> Tensor:
    """``roi_pool_batch`` through an identity projection (``w = I``, ``b = 0``,
    constants), reshaped to the ``(n, H_roi, W_roi, C)`` regions. Each output
    column gets exactly one nonzero term, so the values and the grid's
    gradient are those of the pooling alone, bitwise."""
    n_in = out_hw[0] * out_hw[1] * grid.shape[-1]
    out = roi_pool_batch(grid, boxes, np.eye(n_in), np.zeros(n_in), out_hw)
    return out.reshape((out.shape[0],) + tuple(out_hw) + (grid.shape[-1],))


@pytest.mark.parametrize("shape, dtype", [((24, 24, 64), np.uint16), ((16, 16, 160), np.uint16),
                                          ((16, 16, 256), np.uint16), ((16, 16, 257), np.uint32)],
                         ids=["train-hires", "uint16", "uint16-top", "uint32"])
def test_window_max_indices_are_unsigned_first_maxima(shape, dtype):
    """The index tables take the narrowest unsigned dtype that holds ``h*w*c
    - 1``: uint16 for the 24x24x64 train-hires grid (it was int32) and up to
    2**16 values, uint32 above. The merge's ``late - early`` wraps modulo
    2**bits, and adding it back gives exactly the later index, so every
    entry is ``np.argmax``'s first maximum over its window, with ties planted
    by rounding."""
    rng = np.random.default_rng(39)
    h, w, c = shape
    cells = np.round(rng.normal(size=shape))
    kr = kc = 3
    val, idx = _window_max(cells, kr, kc)
    assert idx.dtype == dtype
    for a in range(1, kr + 1):
        for b in range(1, kc + 1):
            windows = np.lib.stride_tricks.sliding_window_view(cells, (a, b), axis=(0, 1))
            first = windows.reshape(h - a + 1, w - b + 1, c, a * b).argmax(axis=-1)  # row-major in the window
            r, q = np.meshgrid(np.arange(h - a + 1), np.arange(w - b + 1), indexing="ij")
            cell = (r[..., None] + first // b) * w + q[..., None] + first % b
            want = cell * c + np.arange(c)
            assert np.array_equal(idx[a - 1, b - 1, :h - a + 1, :w - b + 1], want), (a, b)
            assert np.array_equal(val[a - 1, b - 1, :h - a + 1, :w - b + 1], windows.max(axis=(-2, -1)))


def test_roi_constant_grid():
    grid = Tensor(np.full((8, 8, 4), 2.5))
    box = np.array([0.4, 0.5, 0.3, 0.35])
    out = pooled(grid, box[None])[0]
    assert out.shape == (7, 7, 4)
    np.testing.assert_array_equal(out.data, 2.5)


def test_roi_identity_on_exact_bin_grid():
    rng = np.random.default_rng(10)
    grid = Tensor(rng.normal(size=(8, 8, 3)))
    # box covering cell rows 1..7, cols 0..6 of the 8x8 grid: one cell per bin
    box_xyxy = np.array([0.0, 1 / 8, 7 / 8, 1.0])
    box = np.array(
        [(box_xyxy[0] + box_xyxy[2]) / 2, (box_xyxy[1] + box_xyxy[3]) / 2, box_xyxy[2] - box_xyxy[0], box_xyxy[3] - box_xyxy[1]]
    )
    out = pooled(grid, box[None])[0]
    np.testing.assert_array_equal(out.data, grid.data[1:8, 0:7])


def test_roi_tiny_box_replicates_single_cell():
    rng = np.random.default_rng(11)
    grid = Tensor(rng.normal(size=(8, 8, 5)))
    box = np.array([3.5 / 8, 2.5 / 8, 0.01, 0.01])  # inside cell (row 2, col 3)
    out = pooled(grid, box[None])[0]
    np.testing.assert_array_equal(out.data, np.broadcast_to(grid.data[2, 3], (7, 7, 5)))


def brute_force_roi(data, box, out_hw=(7, 7)):
    """Independent bin enumeration: same partition rule, plain loops."""
    import math

    h, w, c = data.shape
    x0, y0 = box[0] - box[2] / 2, box[1] - box[3] / 2
    x1, y1 = box[0] + box[2] / 2, box[1] + box[3] / 2
    x0, y0, x1, y1 = max(x0, 0), max(y0, 0), min(x1, 1), min(y1, 1)

    def cells(lo, hi, n):
        c0 = min(max(int(math.floor(lo)), 0), n - 1)
        c1 = min(max(int(math.ceil(hi)), c0 + 1), n)
        return c0, c1

    r0, r1 = cells(y0 * h, y1 * h, h)
    c0, c1 = cells(x0 * w, x1 * w, w)
    nr, nc = r1 - r0, c1 - c0
    out = np.empty(out_hw + (c,))
    for bi in range(out_hw[0]):
        rs = (bi * nr) // out_hw[0]
        re = ((bi + 1) * nr) // out_hw[0]
        if re <= rs:
            re = rs + 1
        for bj in range(out_hw[1]):
            cs = (bj * nc) // out_hw[1]
            ce = ((bj + 1) * nc) // out_hw[1]
            if ce <= cs:
                ce = cs + 1
            seg = data[r0 + rs : r0 + re, c0 + cs : c0 + ce].reshape(-1, c)
            out[bi, bj] = seg.max(axis=0)
    return out


def test_roi_matches_brute_force_enumeration():
    rng = np.random.default_rng(12)
    grid = Tensor(rng.normal(size=(8, 8, 4)))
    for _ in range(40):
        box = np.array(
            [rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8), rng.uniform(0.02, 0.6), rng.uniform(0.02, 0.6)]
        )
        out = pooled(grid, box[None])[0].data
        np.testing.assert_array_equal(out, brute_force_roi(grid.data, box))


def test_roi_bin_indices_pure_function_of_cell_range():
    rng = np.random.default_rng(13)
    grid = Tensor(rng.normal(size=(8, 8, 3)))
    # both boxes cover cell rows 2..5, cols 2..5; outputs must be identical
    a = np.array([0.47, 0.47, 0.32, 0.32])
    b = np.array([0.48, 0.46, 0.33, 0.34])
    np.testing.assert_array_equal(pooled(grid, a[None])[0].data, pooled(grid, b[None])[0].data)


def test_roi_batch_matches_singles_and_grad():
    rng = np.random.default_rng(14)
    grid = Tensor(rng.normal(size=(6, 6, 3)), requires_grad=True)
    boxes = np.stack(
        [np.array([0.3, 0.3, 0.3, 0.4]), np.array([0.7, 0.6, 0.2, 0.2]), np.array([0.5, 0.5, 0.9, 0.9])]
    )
    batch = pooled(grid, boxes, out_hw=(3, 3))
    for i in range(3):
        np.testing.assert_array_equal(batch.data[i], pooled(grid, boxes[i][None], out_hw=(3, 3)).data[0])
    w = rng.normal(size=batch.shape)
    err = T.grad_check(lambda: (pooled(grid, boxes, out_hw=(3, 3)) * w).sum(), grid)
    assert err < 1e-5


def brute_force_roi_grad(data, boxes, g, out_hw):
    """Grid gradient of ``sum(regions * g)``, ``regions`` the pooled
    ``(n, H_roi, W_roi, C)`` features of ``boxes``, by per-bin loops.

    Each bin sends its gradient to its ``np.argmax`` cell, one ``np.add.at``
    per bin, in (box, bin, channel) order.
    """
    h, w, c = data.shape
    hb, wb = out_hw
    buf = np.zeros_like(data)

    def bounds(lo, hi, n_cells, n_bins):
        c0 = int(np.clip(np.floor(lo), 0, n_cells - 1))
        c1 = int(np.clip(np.ceil(hi), c0 + 1, n_cells))
        return c0, [(k * (c1 - c0)) // n_bins for k in range(n_bins)] + [c1 - c0]

    for i, (x0, y0, x1, y1) in enumerate(np.clip(box_cxcywh_to_xyxy(boxes), 0.0, 1.0)):
        r0, rb = bounds(y0 * h, y1 * h, h, hb)
        c0, cb = bounds(x0 * w, x1 * w, w, wb)
        for bi in range(hb):
            rs, re = r0 + rb[bi], r0 + max(rb[bi + 1], rb[bi] + 1)
            for bj in range(wb):
                cs, ce = c0 + cb[bj], c0 + max(cb[bj + 1], cb[bj] + 1)
                am = np.argmax(data[rs:re, cs:ce].reshape(-1, c), axis=0)
                np.add.at(buf, (rs + am // (ce - cs), cs + am % (ce - cs), np.arange(c)), g[i, bi, bj])
    return buf


def bin_extents(span, n_bins):
    """Set of bin extents along one axis of a box that covers ``span`` cells."""
    return {max((k + 1) * span // n_bins - k * span // n_bins, 1) for k in range(n_bins)}


def mixed_extents_case(rng):
    """A 24x24 grid of rounded values at 7x7 bins, with boxes from one cell to
    the whole grid: between them, the boxes' bins take every extent from 1x1
    to 4x4."""
    n, c = 40, int(rng.integers(1, 5))
    spans = rng.integers(1, 25, (n, 2))
    spans[:16] = np.array(np.meshgrid([1, 10, 17, 24], [1, 10, 17, 24])).reshape(2, -1).T
    first = rng.integers(0, 25 - spans)
    lo, hi = (first + 0.25) / 24, (first + spans - 0.25) / 24  # inside the first and last cell
    boxes = np.column_stack([(lo + hi)[:, ::-1] / 2, (hi - lo)[:, ::-1]])  # spans are (rows, cols)
    pairs = {(a, b) for sr, sc in spans for a in bin_extents(sr, 7) for b in bin_extents(sc, 7)}
    assert pairs == {(a, b) for a in range(1, 5) for b in range(1, 5)}
    return np.round(rng.normal(size=(24, 24, c))), boxes, (7, 7)


def random_roi_case(rng, kind, case):
    if kind == "mixed_extents":
        return mixed_extents_case(rng)
    if kind == "index_width":  # 2**16 values, the most whose indices fit uint16, then one column more: uint32
        boxes = np.column_stack([rng.uniform(0.05, 0.95, (6, 2)), rng.uniform(0.02, 0.12, (6, 2))])
        boxes[0] = [0.97, 0.97, 0.06, 0.06]  # the bottom-right cells, whose flat indices are the largest
        return np.round(rng.normal(size=(64, 64 + case % 2, 16))), boxes, (3, 3)
    h, w, c = rng.integers(1, 13), rng.integers(1, 13), rng.integers(1, 5)
    data = rng.normal(size=(h, w, c))
    n = 2 * _ROI_CHUNK + 5 if kind == "batch_over_chunk" else rng.integers(1, 10)
    boxes = np.column_stack([rng.uniform(0.1, 0.9, (n, 2)), rng.uniform(0.02, 0.8, (n, 2))])
    if kind == "ties":
        data = np.round(data)
    elif kind == "partly_outside":
        boxes[:, :2] = rng.uniform(-0.3, 1.3, (n, 2))
    elif kind == "zero_width":
        boxes[:, 2:] *= rng.random((n, 2)) < 0.5
    elif kind == "wider_than_grid":
        boxes[:, 2:] = rng.uniform(1.0, 2.5, (n, 2))
    out_hw = [(1, 1), (8, 8)][case] if case < 2 else tuple(int(k) for k in rng.integers(1, 9, 2))
    return data, boxes, out_hw


@pytest.mark.parametrize("kind", ["ties", "partly_outside", "zero_width", "wider_than_grid", "batch_over_chunk",
                                  "mixed_extents", "index_width"])
def test_roi_values_and_grad_bitwise_equal_brute_force(kind):
    rng = np.random.default_rng(16)
    for case in range({"batch_over_chunk": 12, "mixed_extents": 6, "index_width": 4}.get(kind, 40)):
        data, boxes, out_hw = random_roi_case(rng, kind, case)
        grid = Tensor(data.copy(), requires_grad=True)
        out = pooled(grid, boxes, out_hw)
        g = rng.normal(size=out.shape)
        (out * g).sum().backward()
        expected = np.stack([brute_force_roi(data, box, out_hw) for box in boxes])
        assert np.array_equal(out.data, expected), (kind, case)
        assert np.array_equal(grid.grad, brute_force_roi_grad(data, boxes, g, out_hw)), (kind, case)


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    """Largest difference, relative to the largest magnitude of ``want``."""
    return float(np.abs(got - want).max(initial=0.0) / max(np.abs(want).max(initial=0.0), 1e-300))


def test_roi_projection_matches_pool_flatten_and_linear():
    """At a random ``w`` and ``b`` the node is the brute-force regions,
    flattened, through a ``linear`` node: values and the grid, ``w`` and
    ``b`` gradients within 1e-12 relative. The per-bin products are summed in
    another order than one GEMM's, so this is not bitwise."""
    rng = np.random.default_rng(22)
    for kind in ("ties", "partly_outside", "batch_over_chunk", "mixed_extents"):
        for case in range(3):
            data, boxes, out_hw = random_roi_case(rng, kind, case)
            n, c = len(boxes), data.shape[-1]
            w0 = rng.normal(size=(out_hw[0] * out_hw[1] * c, int(rng.integers(1, 9))))
            b0, g = rng.normal(size=w0.shape[1]), rng.normal(size=(n, w0.shape[1]))
            grid, w, b = (Tensor(a.copy(), requires_grad=True) for a in (data, w0, b0))
            out = roi_pool_batch(grid, boxes, w, b, out_hw)
            (out * g).sum().backward()

            regions = np.stack([brute_force_roi(data, box, out_hw) for box in boxes])
            w_ref, b_ref = Tensor(w0.copy(), requires_grad=True), Tensor(b0.copy(), requires_grad=True)
            ref = T.linear(Tensor(regions.reshape(n, -1)), w_ref, b_ref)
            (ref * g).sum().backward()
            grid_ref = brute_force_roi_grad(data, boxes, (g @ w0.T).reshape(regions.shape), out_hw)
            assert out.shape == (n, w0.shape[1])
            for got, want in ((out.data, ref.data), (grid.grad, grid_ref), (w.grad, w_ref.grad), (b.grad, b_ref.grad)):
                assert rel_err(got, want) < 1e-12, (kind, case)


def test_roi_projection_grad_check():
    rng = np.random.default_rng(23)
    grid = Tensor(rng.normal(size=(5, 6, 2)), requires_grad=True)
    w = Tensor(rng.normal(size=(2 * 3 * 2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    boxes = np.column_stack([rng.uniform(0.2, 0.8, (4, 2)), rng.uniform(0.1, 0.9, (4, 2))])
    proj = rng.normal(size=(4, 3))
    err = T.grad_check(lambda: (roi_pool_batch(grid, boxes, w, b, (2, 3)) * proj).sum(), [grid, w, b])
    assert err < 1e-6


def shared_w_roi_calls(w):
    """Two ``roi_pool_batch`` calls on one grid sharing ``w``, as the matching
    and DN branches share ``neck.1.w``: their outputs, output gradients and
    the loss over both."""
    rng = np.random.default_rng(36)
    grid = Tensor(rng.normal(size=(6, 7, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    outs, gs = [], []
    for n in (5, 4):
        boxes = np.column_stack([rng.uniform(0.2, 0.8, (n, 2)), rng.uniform(0.1, 0.9, (n, 2))])
        outs.append(roi_pool_batch(grid, boxes, w, b, (2, 3)))
        gs.append(rng.normal(size=(n, 3)))
    return outs, gs, (outs[0] * gs[0]).sum() + (outs[1] * gs[1]).sum()


W0 = np.random.default_rng(37).normal(size=(2 * 3 * 2, 3))


def built_weight_grads() -> list:
    """Each call's ``w`` gradient, added into the buffer of a leaf ``w`` that
    held no gradient; the node returns None for a leaf ``w``."""
    w = Tensor(W0.copy(), requires_grad=True)
    outs, gs, _ = shared_w_roi_calls(w)
    dws = []
    for out, g in zip(outs, gs):
        w.grad = None
        assert out._backward(g)[1] is None
        dws.append(w.grad)
    return dws


def test_roi_adds_a_shared_leaf_weights_gradient_into_its_grad():
    """Each backward adds its ``w`` gradient into the leaf ``w``'s one buffer
    bin by bin and returns None for ``w``, so no second ``w``-sized array is
    built: the walk leaves the bytes of the out-of-place sum of the two
    calls' gradients."""
    dws = built_weight_grads()
    w = Tensor(W0.copy(), requires_grad=True)
    outs, gs, loss = shared_w_roi_calls(w)
    second = outs[1]._backward  # the walk releases it
    loss.backward()
    assert w.grad.tobytes() == (dws[0] + dws[1]).tobytes()
    held, before = w.grad, w.grad.copy()
    grads = second(gs[1])
    assert grads[1] is None and w.grad is held
    assert held.tobytes() == (before + dws[1]).tobytes()


def test_roi_refuses_a_non_leaf_w_that_needs_a_gradient():
    """The node adds ``w``'s gradient into ``T.leaf_grad(w)``, so a ``w`` that
    is not a leaf raises naming ``leaf_grad`` once its gradient is needed,
    rather than add into a ``.grad`` that may be another node's array."""
    w0 = Tensor(W0.copy(), requires_grad=True)
    _, _, loss = shared_w_roi_calls(w0 * 1.0)
    with pytest.raises(ValueError, match="leaf_grad"):
        loss.backward()


def test_roi_node_holds_and_peaks_far_below_the_regions():
    """300 boxes at train-dense shapes (a 16x16x64 grid, 7x7 bins, 64
    outputs), whose regions would take 7.5 MB. After the forward the node
    holds its 0.15 MB output and the boxes' 0.12 MB of table rows: under a
    tenth of the regions. The forward peaks with the 0.5 MB of window-max
    values and their 0.13 MB of uint16 first-maximum indices (2x2 extents at
    most for these boxes) beside them, under a third; the backward, which
    rebuilds both, with the 1.6 MB ``w`` gradient and one chunk's ``g @
    w^T``, under a half (about 2.9 MB)."""
    rng = np.random.default_rng(20)
    grid = Tensor(rng.normal(size=(16, 16, 64)), requires_grad=True)
    w = Tensor(rng.normal(size=(7 * 7 * 64, 64)), requires_grad=True)
    b = Tensor(rng.normal(size=64), requires_grad=True)
    boxes = np.column_stack([rng.uniform(0.1, 0.9, (300, 2)), rng.uniform(0.02, 0.8, (300, 2))])
    g = rng.normal(size=(300, 64))
    region_bytes = 300 * 7 * 7 * 64 * 8
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = roi_pool_batch(grid, boxes, w, b)
        held, forward_peak = (m - start for m in tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        grads = out._backward(g)
        backward_peak = tracemalloc.get_traced_memory()[1] - start - held
    finally:
        tracemalloc.stop()
    assert grads[1] is None and [grads[0].shape, w.grad.shape, grads[2].shape] == [grid.shape, w.shape, g.shape]
    assert grads[0].any() and w.grad.any()
    assert held < region_bytes / 10
    assert forward_peak < region_bytes / 3
    assert backward_peak < region_bytes / 2


def test_roi_node_keeps_no_window_table():
    """The node keeps its output and each bin's table row; its backward
    rebuilds the window-max values and first-maximum indices from the grid,
    so after the forward its closures hold no unsigned index table and no
    array the size of a table."""
    rng = np.random.default_rng(21)
    grid = Tensor(rng.normal(size=(9, 9, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3 * 3 * 3, 4)), requires_grad=True)
    boxes = np.column_stack([rng.uniform(0.2, 0.8, (12, 2)), rng.uniform(0.1, 0.9, (12, 2))])
    out = roi_pool_batch(grid, boxes, w, np.zeros(4), out_hw=(3, 3))
    held = held_arrays(out._backward)
    assert held and all(a.dtype.kind != "u" and a.size < grid.data.size for a in held)  # a table has >= grid.size


def test_roi_zero_boxes_give_empty_output_and_zero_grad():
    rng = np.random.default_rng(17)
    grid = Tensor(rng.normal(size=(5, 6, 3)), requires_grad=True)
    assert pooled(grid, np.zeros((0, 4)), out_hw=(3, 4)).shape == (0, 3, 4, 3)
    w = Tensor(rng.normal(size=(3 * 4 * 3, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=5), requires_grad=True)
    out = roi_pool_batch(grid, np.zeros((0, 4)), w, b, out_hw=(3, 4))
    assert out.shape == (0, 5)
    out.sum().backward()
    np.testing.assert_array_equal(grid.grad, np.zeros((5, 6, 3)))
    np.testing.assert_array_equal(w.grad, np.zeros((36, 5)))
    np.testing.assert_array_equal(b.grad, np.zeros(5))


@pytest.mark.parametrize("shape", [(2, 8), (8,), (1, 2, 4), (4, 2), (4,), (2, 0), (0, 3), (0, 0)])
def test_roi_rejects_boxes_that_are_not_n_by_4(shape):
    """(2, 8) boxes used to be read as 4 boxes and pooled 4 regions without an
    error; a flat (4,) box was read as one box, and a (2, 0) array as none."""
    grid = Tensor(np.random.default_rng(19).normal(size=(4, 4, 2)))
    with pytest.raises(ValueError, match=r"roi_pool_batch: .*got shape " + re.escape(str(shape))):
        pooled(grid, np.full(shape, 0.5))
    assert pooled(grid, [[0.5, 0.5, 0.4, 0.4]], out_hw=(2, 2)).shape == (1, 2, 2, 2)
    assert pooled(grid, np.zeros((0, 4)), out_hw=(2, 2)).shape == (0, 2, 2, 2)
    assert pooled(grid, [], out_hw=(2, 2)).shape == (0, 2, 2, 2)


@pytest.mark.parametrize("grid_shape, out_hw", [
    ((4, 4, 2), (0, 7)), ((4, 4, 2), (-1, 7)), ((4, 4, 2), (7, 0)), ((4, 4, 2), (True, 2)),
    ((4, 4, 2), (2.5, 7)), ((4, 4, 2), (7,)), ((4, 4, 2), 7),
    ((4, 4), (2, 2)), ((1, 4, 4, 2), (2, 2))])
def test_roi_rejects_a_bin_count_or_grid_of_another_shape(grid_shape, out_hw):
    """``out_hw`` is two positive integers and the grid is ``(H', W', C)``.
    A zero or negative bin count used to give an empty output, ``(True, 2)``
    pooled one row, ``2.5`` failed in a numpy cast and a grid of another rank
    in a bare unpacking error."""
    grid = Tensor(np.random.default_rng(20).normal(size=grid_shape))
    boxes, w, b = [[0.5, 0.5, 0.4, 0.4]], np.zeros((8, 3)), np.zeros(3)
    if len(grid_shape) != 3:
        with pytest.raises(ShapeError, match=r"roi_pool_batch: .*" + re.escape(str(grid_shape))):
            roi_pool_batch(grid, boxes, w, b, out_hw)
    else:
        with pytest.raises(ValueError, match=r"roi_pool_batch: out_hw"):
            roi_pool_batch(grid, boxes, w, b, out_hw)


@pytest.mark.parametrize("w_shape, b_shape", [((13, 3), (3,)), ((11, 3), (3,)), ((12,), (3,)), ((12, 3, 1), (3,)),
                                              ((3, 12), (3,)), ((12, 3), (4,)), ((12, 3), (3, 1)), ((12, 3), ())])
def test_roi_rejects_a_projection_of_another_shape(w_shape, b_shape):
    """At 2x2 bins of 3 channels ``w`` is ``(12, n_out)`` and ``b`` ``(n_out,)``."""
    grid = Tensor(np.random.default_rng(24).normal(size=(4, 4, 3)))
    boxes = [[0.5, 0.5, 0.4, 0.4]]
    with pytest.raises(ShapeError, match=r"roi_pool_batch: w must be \(12, n_out\)"):
        roi_pool_batch(grid, boxes, np.zeros(w_shape), np.zeros(b_shape), (2, 2))
    assert roi_pool_batch(grid, boxes, np.zeros((12, 3)), np.zeros(3), (2, 2)).shape == (1, 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_roi_non_finite_input_raises_with_stage_name(bad):
    data = np.random.default_rng(18).normal(size=(4, 4, 2))
    box = np.array([[0.5, 0.5, 0.4, 0.4]])
    poisoned = data.copy()
    poisoned[3, 0, 1] = bad  # outside the box: the check covers the whole grid
    with pytest.raises(FloatingPointError, match="roi_pool_batch"):
        pooled(Tensor(poisoned), box)
    with pytest.raises(FloatingPointError, match="roi_pool_batch"):
        pooled(Tensor(data), np.where(np.arange(4) == 2, bad, box))


def test_neck_shapes_zero_and_grad():
    """The neck after ``neck.1``: ReLU and ``neck.2``, ``(n, d_hidden)`` to ``(n, d_model)``."""
    rng = np.random.default_rng(15)
    d_hidden, d_model = 12, 8
    params = {}
    init_linear(params, rng, "neck.2", d_hidden, d_model)
    hidden = Tensor(rng.normal(size=(5, d_hidden)), requires_grad=True)
    out = neck(hidden, params)
    assert out.shape == (5, d_model)
    assert np.all(np.isfinite(out.data))
    np.testing.assert_array_equal(neck(Tensor(-np.abs(hidden.data)), params).data,
                                  np.broadcast_to(params["neck.2.b"].data, (5, d_model)))

    zero_params = {k: Tensor(np.zeros_like(v.data)) for k, v in params.items()}
    np.testing.assert_array_equal(neck(Tensor(np.zeros((2, d_hidden))), zero_params).data, 0.0)

    wrt = [hidden] + list(params.values())
    err = T.grad_check(lambda: (neck(hidden, params) ** 2).sum(), wrt)
    assert err < 1e-5
