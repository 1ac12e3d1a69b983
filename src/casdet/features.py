"""Toy backbone, encoder with dense feature fusion, RoI pooling and neck.

Feature grids are tensors of shape (H', W', C). The backbone is a
non-overlapping patch embedding; the encoder is a small pre-computed-position
transformer over flattened cells; RoI pooling is channelwise max over a
non-overlapping partition of the covered cell range.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor, custom_op
from .geom import box_cxcywh_to_xyxy


# parameter helpers ----------------------------------------------------------


def init_linear(params: dict, rng: np.random.Generator, name: str, n_in: int, n_out: int,
                bias: float = 0.0) -> None:
    w = rng.normal(0.0, math.sqrt(2.0 / (n_in + n_out)), size=(n_in, n_out))
    params[f"{name}.w"] = Tensor(w, requires_grad=True)
    params[f"{name}.b"] = Tensor(np.full(n_out, bias, dtype=np.float64), requires_grad=True)


def linear(x: Tensor, params: dict, name: str) -> Tensor:
    return T.linear(x, params[f"{name}.w"], params[f"{name}.b"])


def init_layer_norm(params: dict, name: str, dim: int) -> None:
    params[f"{name}.g"] = Tensor(np.ones(dim), requires_grad=True)
    params[f"{name}.b"] = Tensor(np.zeros(dim), requires_grad=True)


def apply_layer_norm(x: Tensor, params: dict, name: str) -> Tensor:
    return T.layer_norm(x, params[f"{name}.g"], params[f"{name}.b"])


def init_mha(params: dict, rng: np.random.Generator, name: str, d_model: int) -> None:
    for part in ("q", "k", "v", "o"):
        init_linear(params, rng, f"{name}.{part}", d_model, d_model)


def multi_head_attention(q_in: Tensor, k_in: Tensor, v_in: Tensor, params: dict, name: str,
                         n_heads: int) -> Tensor:
    """Projected multi-head attention.

    Inputs are (..., n, d_model); leading batch axes are carried through all
    heads. Key/value inputs without the batch axes broadcast against them.
    """
    d_model = q_in.shape[-1]
    if d_model % n_heads != 0:
        raise ShapeError(f"d_model {d_model} not divisible by n_heads {n_heads}")
    dh = d_model // n_heads

    def split(x: Tensor) -> Tensor:
        n = x.shape[-2]
        return x.reshape(x.shape[:-2] + (n, n_heads, dh)).swapaxes(-2, -3)  # (..., h, n, dh)

    q = split(linear(q_in, params, f"{name}.q"))
    k = split(linear(k_in, params, f"{name}.k"))
    v = split(linear(v_in, params, f"{name}.v"))
    att = T.attention(q, k, v)  # (..., h, n, dh)
    n = att.shape[-2]
    merged = att.swapaxes(-2, -3).reshape(att.shape[:-3] + (n, d_model))
    return linear(merged, params, f"{name}.o")


def init_ffn(params: dict, rng: np.random.Generator, name: str, d_model: int, hidden: int) -> None:
    init_linear(params, rng, f"{name}.1", d_model, hidden)
    init_linear(params, rng, f"{name}.2", hidden, d_model)


def ffn(x: Tensor, params: dict, name: str) -> Tensor:
    return linear(T.relu(linear(x, params, f"{name}.1")), params, f"{name}.2")


# backbone and encoder --------------------------------------------------------


def patch_embed(image: np.ndarray, patch: int, params: dict, name: str = "patch") -> Tensor:
    """Project non-overlapping pixel patches to feature cells.

    The image (H, W, 3) is zero-padded on the bottom/right to a multiple of
    ``patch``; output is (H/patch, W/patch, C).
    """
    image = np.asarray(image, dtype=np.float64)
    h, w, c = image.shape
    ph = (patch - h % patch) % patch
    pw = (patch - w % patch) % patch
    if ph or pw:
        image = np.pad(image, ((0, ph), (0, pw), (0, 0)))
    gh, gw = image.shape[0] // patch, image.shape[1] // patch
    tiles = image.reshape(gh, patch, gw, patch, c).transpose(0, 2, 1, 3, 4).reshape(gh * gw, patch * patch * c)
    out = linear(Tensor(tiles), params, name)
    return out.reshape(gh, gw, out.shape[-1])


def encode_features(grid: Tensor, n_layers: int, params: dict, pe: np.ndarray, n_heads: int,
                    name: str = "enc") -> Tensor:
    """Self-attention encoder over flattened cells with 2D position bias.

    Zero layers return the grid's values. Position encodings are added to
    queries and keys only; spatial dims are preserved.
    """
    h, w, d = grid.shape
    x = grid.reshape(h * w, d)
    pe_t = Tensor(pe)
    for i in range(n_layers):
        qk = x + pe_t
        x = apply_layer_norm(x + multi_head_attention(qk, qk, x, params, f"{name}{i}.attn", n_heads),
                             params, f"{name}{i}.ln1")
        x = apply_layer_norm(x + ffn(x, params, f"{name}{i}.ffn"), params, f"{name}{i}.ln2")
    return x.reshape(h, w, d)


def dense_fusion(enc: Tensor, backbone: Tensor, params: dict, name: str = "fuse") -> Tensor:
    """Channel-concatenate encoder and backbone grids, project back to d_model."""
    if enc.shape[:2] != backbone.shape[:2]:
        raise ShapeError(f"spatial dims differ: {enc.shape[:2]} vs {backbone.shape[:2]}")
    cat = T.concat([enc, backbone], axis=-1)
    return linear(cat, params, name)


# RoI pooling ------------------------------------------------------------------


_ROI_CHUNK = 32  # boxes per gather pass of roi_pool_batch


def _bin_cells(lo: np.ndarray, hi: np.ndarray, n_cells: int, n_bins: int) -> np.ndarray:
    """Cell indices (n, n_bins, K) of each box's bins along one axis; see roi_pool_batch."""
    c0 = np.clip(np.floor(lo), 0, n_cells - 1).astype(np.intp)
    c1 = np.clip(np.ceil(hi), c0 + 1, n_cells).astype(np.intp)
    bounds = (np.arange(n_bins + 1) * (c1 - c0)[:, None]) // n_bins
    size = np.maximum(np.diff(bounds, axis=1), 1)
    offsets = np.arange(size.max(initial=1))
    return (c0[:, None] + bounds[:, :-1])[:, :, None] + np.minimum(offsets, size[:, :, None] - 1)


def roi_pool_batch(grid: Tensor, boxes: np.ndarray, out_hw: tuple[int, int] = (7, 7)) -> Tensor:
    """Channelwise max-pool fixed-size region features for a batch of boxes.

    ``boxes`` is (n, 4) cxcywh in normalized image coordinates; the result is
    (n, H_roi, W_roi, C). Along each axis the box, clipped to [0, 1], covers
    cells ``[floor(lo), ceil(hi))``, at least one; this range of ``span`` cells
    is cut into contiguous bins at ``k*span // n_bins``. A bin left empty by a
    small box takes its boundary cell, so tiny boxes replicate their one cell.
    Gradients flow to the cell that supplied each bin maximum, the first in
    row-major order among equal maxima (as ``np.argmax``), and are summed in
    (box, bin, channel) order; box coordinates are constants of the op. Boxes
    go in chunks of ``_ROI_CHUNK``, which bounds each temporary to
    ``_ROI_CHUNK * H_roi * W_roi * C`` values. NaN or inf in the grid or the
    boxes raise ``FloatingPointError``.
    """
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    if not (np.isfinite(grid.data).all() and np.isfinite(boxes).all()):
        raise FloatingPointError("roi_pool_batch: the grid or the boxes hold NaN or inf")
    hb, wb = out_hw
    h, w, c = grid.shape
    x0, y0, x1, y1 = np.clip(box_cxcywh_to_xyxy(boxes), 0.0, 1.0).T
    rows = _bin_cells(y0 * h, y1 * h, h, hb)
    cols = _bin_cells(x0 * w, x1 * w, w, wb)
    offsets = [(jr, jc) for jr in range(rows.shape[2]) for jc in range(cols.shape[2])]  # row-major
    chunks = [slice(i, i + _ROI_CHUNK) for i in range(0, len(boxes), _ROI_CHUNK)]
    cells = grid.data.reshape(h * w, c)

    def gather(s: slice, jr: int, jc: int) -> tuple[np.ndarray, np.ndarray]:
        """Flat cell index (b, hb, wb) and values (b, hb, wb, C) at one offset into each bin."""
        flat = rows[s, :, jr, None] * w + cols[s, None, :, jc]
        return flat, np.take(cells, flat, axis=0)

    out = np.full((len(boxes), hb, wb, c), -np.inf)
    for s in chunks:
        for jr, jc in offsets:
            np.maximum(out[s], gather(s, jr, jc)[1], out=out[s])

    def grid_grad(g: np.ndarray) -> np.ndarray:
        buf = np.zeros(h * w * c)
        for s in chunks:
            win = np.empty(out[s].shape, dtype=np.intp)  # all set: each maximum is a gathered value
            for jr, jc in reversed(offsets):  # the first maximum in row-major order is written last
                flat, vals = gather(s, jr, jc)
                np.copyto(win, flat[..., None] * c, where=vals == out[s])
            win += np.arange(c)
            np.add.at(buf, win.ravel(), g[s].ravel())
        return buf.reshape(h, w, c)

    return custom_op(out, (grid, grid_grad))


def neck(region: Tensor, params: dict, name: str = "neck") -> Tensor:
    """Flatten region features and project to the model width via two linears."""
    flat_dim = region.shape[-3] * region.shape[-2] * region.shape[-1]
    flat = region.reshape(region.shape[:-3] + (flat_dim,))
    return linear(T.relu(linear(flat, params, f"{name}.1")), params, f"{name}.2")
