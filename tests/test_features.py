import numpy as np
import pytest

from casdet import tensor as T
from casdet.encode import grid_pe
from casdet.features import (
    dense_fusion,
    encode_features,
    init_layer_norm,
    init_linear,
    init_mha,
    init_ffn,
    linear,
    multi_head_attention,
    neck,
    patch_embed,
    roi_pool_batch,
    _ROI_CHUNK,
)
from casdet.geom import box_cxcywh_to_xyxy
from casdet.tensor import ShapeError, Tensor


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
    rng = np.random.default_rng(6)
    d = 8
    params = make_encoder_params(rng, d, layers=1)
    grid = Tensor(rng.normal(size=(2, 3, d)), requires_grad=True)
    pe = grid_pe(2, 3, d)
    err = T.grad_check(lambda: (encode_features(grid, 1, params, pe, n_heads=2) ** 2).sum(), grid)
    assert err < 1e-5


def test_mha_batched_matches_per_group():
    rng = np.random.default_rng(7)
    d = 8
    params = {}
    init_mha(params, rng, "attn", d)
    x = rng.normal(size=(3, 5, d))
    batched = multi_head_attention(Tensor(x), Tensor(x), Tensor(x), params, "attn", 2).data
    for g in range(3):
        single = multi_head_attention(Tensor(x[g]), Tensor(x[g]), Tensor(x[g]), params, "attn", 2).data
        np.testing.assert_allclose(batched[g], single, atol=1e-12)


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


def test_mha_grad_check_batched_queries_unbatched_keys():
    """Keys and values without the batch axis broadcast against batched
    queries in the forward, and their gradients sum over it."""
    rng = np.random.default_rng(17)
    d = 8
    params = {}
    init_mha(params, rng, "attn", d)
    q_in = Tensor(rng.normal(size=(3, 4, d)), requires_grad=True)
    k_in = Tensor(rng.normal(size=(5, d)), requires_grad=True)
    v_in = Tensor(rng.normal(size=(5, d)), requires_grad=True)
    w = rng.normal(size=(3, 4, d))
    err = T.grad_check(lambda: (multi_head_attention(q_in, k_in, v_in, params, "attn", 2) * w).sum(),
                       [q_in, k_in, v_in, params["attn.k.w"], params["attn.v.w"]])
    assert err < 1e-6


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


def test_roi_constant_grid():
    grid = Tensor(np.full((8, 8, 4), 2.5))
    box = np.array([0.4, 0.5, 0.3, 0.35])
    out = roi_pool_batch(grid, box[None])[0]
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
    out = roi_pool_batch(grid, box[None])[0]
    np.testing.assert_array_equal(out.data, grid.data[1:8, 0:7])


def test_roi_tiny_box_replicates_single_cell():
    rng = np.random.default_rng(11)
    grid = Tensor(rng.normal(size=(8, 8, 5)))
    box = np.array([3.5 / 8, 2.5 / 8, 0.01, 0.01])  # inside cell (row 2, col 3)
    out = roi_pool_batch(grid, box[None])[0]
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
        out = roi_pool_batch(grid, box[None])[0].data
        np.testing.assert_array_equal(out, brute_force_roi(grid.data, box))


def test_roi_bin_indices_pure_function_of_cell_range():
    rng = np.random.default_rng(13)
    grid = Tensor(rng.normal(size=(8, 8, 3)))
    # both boxes cover cell rows 2..5, cols 2..5; outputs must be identical
    a = np.array([0.47, 0.47, 0.32, 0.32])
    b = np.array([0.48, 0.46, 0.33, 0.34])
    np.testing.assert_array_equal(roi_pool_batch(grid, a[None])[0].data, roi_pool_batch(grid, b[None])[0].data)


def test_roi_batch_matches_singles_and_grad():
    rng = np.random.default_rng(14)
    grid = Tensor(rng.normal(size=(6, 6, 3)), requires_grad=True)
    boxes = np.stack(
        [np.array([0.3, 0.3, 0.3, 0.4]), np.array([0.7, 0.6, 0.2, 0.2]), np.array([0.5, 0.5, 0.9, 0.9])]
    )
    batch = roi_pool_batch(grid, boxes, out_hw=(3, 3))
    for i in range(3):
        np.testing.assert_array_equal(batch.data[i], roi_pool_batch(grid, boxes[i][None], out_hw=(3, 3)).data[0])
    w = rng.normal(size=batch.shape)
    err = T.grad_check(lambda: (roi_pool_batch(grid, boxes, out_hw=(3, 3)) * w).sum(), grid)
    assert err < 1e-5


def brute_force_roi_grad(data, boxes, g, out_hw):
    """Grid gradient of ``sum(roi_pool_batch(data, boxes) * g)`` by per-bin loops.

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


def random_roi_case(rng, kind, case):
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


@pytest.mark.parametrize("kind", ["ties", "partly_outside", "zero_width", "wider_than_grid", "batch_over_chunk"])
def test_roi_values_and_grad_bitwise_equal_brute_force(kind):
    rng = np.random.default_rng(16)
    for case in range(12 if kind == "batch_over_chunk" else 40):
        data, boxes, out_hw = random_roi_case(rng, kind, case)
        grid = Tensor(data.copy(), requires_grad=True)
        out = roi_pool_batch(grid, boxes, out_hw)
        g = rng.normal(size=out.shape)
        (out * g).sum().backward()
        expected = np.stack([brute_force_roi(data, box, out_hw) for box in boxes])
        assert np.array_equal(out.data, expected), (kind, case)
        assert np.array_equal(grid.grad, brute_force_roi_grad(data, boxes, g, out_hw)), (kind, case)


def test_roi_zero_boxes_give_empty_output_and_zero_grad():
    grid = Tensor(np.random.default_rng(17).normal(size=(5, 6, 3)), requires_grad=True)
    out = roi_pool_batch(grid, np.zeros((0, 4)), out_hw=(3, 4))
    assert out.shape == (0, 3, 4, 3)
    out.sum().backward()
    np.testing.assert_array_equal(grid.grad, np.zeros((5, 6, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_roi_non_finite_input_raises_with_stage_name(bad):
    data = np.random.default_rng(18).normal(size=(4, 4, 2))
    box = np.array([[0.5, 0.5, 0.4, 0.4]])
    poisoned = data.copy()
    poisoned[3, 0, 1] = bad  # outside the box: the check covers the whole grid
    with pytest.raises(FloatingPointError, match="roi_pool_batch"):
        roi_pool_batch(Tensor(poisoned), box)
    with pytest.raises(FloatingPointError, match="roi_pool_batch"):
        roi_pool_batch(Tensor(data), np.where(np.arange(4) == 2, bad, box))


def test_neck_shapes_zero_and_grad():
    rng = np.random.default_rng(15)
    c, d_hidden, d_model = 4, 12, 8
    params = {}
    init_linear(params, rng, "neck.1", 7 * 7 * c, d_hidden)
    init_linear(params, rng, "neck.2", d_hidden, d_model)
    region = Tensor(rng.normal(size=(5, 7, 7, c)))
    out = neck(region, params)
    assert out.shape == (5, d_model)
    assert np.all(np.isfinite(out.data))

    zero_params = {k: Tensor(np.zeros_like(v.data)) for k, v in params.items()}
    np.testing.assert_array_equal(neck(Tensor(np.zeros((2, 7, 7, c))), zero_params).data, 0.0)

    wrt = list(params.values())
    err = T.grad_check(lambda: (neck(region, params) ** 2).sum(), wrt)
    assert err < 1e-5
