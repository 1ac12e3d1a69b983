"""Toy backbone, encoder with dense feature fusion, RoI pooling and neck.

Feature grids are tensors of shape (H', W', C). The backbone is a
non-overlapping patch embedding; the encoder is a small pre-computed-position
transformer over flattened cells; RoI pooling is channelwise max over a
non-overlapping partition of the covered cell range. Each RoI bin is one
gather from window-max tables, one table per bin extent up to the call's
largest, each built from a smaller one with one ``np.maximum``. The same pass
builds each window's first-maximum index, where the earlier half of a window
wins a tie (``np.argmax``'s row-major rule). The index tables take the
narrowest unsigned dtype that holds the grid's largest flat index (uint16
up to 2**16 values, as on the 24x24x64 train-hires grid). RoI pooling and
the neck's first projection ``neck.1`` are one node: each bin's gathered
rows are multiplied by that bin's block of the weight and summed into the
output, so no region and no region gradient is ever built. The node keeps
the index tables and each bin's table row, not the values; its backward
reads the bin maxima back from the grid at their first-maximum cells, so
the grid's ``.data`` must not change between the forward and the backward.

The patch embedding, the fusion and an FFN are one node each, holding only
what its backward reads. The patch embedding keeps the image and rebuilds
its tiles, the fusion rebuilds the concatenation from its two parent grids
and returns their gradients as two arrays, and an FFN rebuilds its ReLU
hidden layer from its input; none of these inputs may change between the
forward and the backward. Attention and its q, k and v projections are
one node too, which keeps no projection: its backward rebuilds them from
its inputs. The encoder adds its position encodings inside the q and k
projections, and each sublayer's Add & Norm forms its residual sum inside
the layer norm, so a layer is five nodes (attention, ``o``, layer norm, FFN,
layer norm) and holds no q, k, v, ``x + pe`` or residual sum.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor, custom_op
from .geom import as_boxes, box_cxcywh_to_xyxy, require_integer


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


def apply_layer_norm(x: Tensor, params: dict, name: str, residual: Tensor | None = None) -> Tensor:
    return T.layer_norm(x, params[f"{name}.g"], params[f"{name}.b"], residual)


def init_mha(params: dict, rng: np.random.Generator, name: str, d_model: int) -> None:
    for part in ("q", "k", "v", "o"):
        init_linear(params, rng, f"{name}.{part}", d_model, d_model)


def multi_head_attention(q_in: Tensor, k_in: Tensor, v_in: Tensor, params: dict, name: str,
                         n_heads: int, *, qk_pe: np.ndarray | None = None) -> Tensor:
    """Projected multi-head attention of ``(n, d_model)`` queries on ``(m, d_model)``
    keys and values. Head i attends with, and writes, columns ``i*dh:(i+1)*dh``
    of the projections, ``dh = d_model // n_heads`` (``T.attention``'s column
    layout). A constant ``qk_pe`` at the q and k inputs' shape is added to them
    inside their projections, so ``x + qk_pe`` is not held.

    The q, k and v projections and attention are one node with parents
    ``(q_in, k_in, v_in, q.w, q.b, k.w, k.b, v.w, v.b)``, which keeps what
    ``T.attention`` keeps and no q, k or v: each is ``(x [+ qk_pe]) @ w``
    then ``+= b``, as in ``T.linear``, dropped after the forward and rebuilt
    bitwise by the backward, so the inputs' ``.data`` must not change in
    between. q and k share one ``x + qk_pe`` when they read one input, and
    an input read twice or three times gets one gradient array, summed in
    place. Values and gradients are bitwise those of ``linear`` and
    ``T.attention`` nodes, up to the order in which an input's gradients are
    summed. Inputs that are not 2-D at their projection's width or a
    ``qk_pe`` of another shape raise ShapeError naming
    ``multi_head_attention``; projections ``T.attention`` would refuse, such
    as an ``n_heads`` that does not divide ``d_model`` or NaN, raise as there.
    """
    ins = tuple(T.as_tensor(x) for x in (q_in, k_in, v_in))
    wb = [(params[f"{name}.{p}.w"], params[f"{name}.{p}.b"]) for p in "qkv"]
    if any(x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != w.shape[1:]
           for x, (w, b) in zip(ins, wb)):
        raise ShapeError(f"multi_head_attention: needs 2-D inputs at each projection's input width, (d_in, d_out) "
                         f"weights and (d_out,) biases; got inputs {[x.shape for x in ins]} and projections "
                         f"{[(w.shape, b.shape) for w, b in wb]}")
    if qk_pe is not None and not np.shape(qk_pe) == ins[0].shape == ins[1].shape:
        raise ShapeError(f"multi_head_attention: qk_pe must be the q and k inputs' shape, {ins[0].shape} and "
                         f"{ins[1].shape}; got {np.shape(qk_pe)}")

    def projections() -> tuple[list[np.ndarray], list[np.ndarray]]:
        """The projections' inputs, with ``qk_pe`` added for q and k, and q, k and v."""
        xs = [x.data for x in ins]
        if qk_pe is not None:
            xs[0] = xs[0] + qk_pe
            xs[1] = xs[0] if ins[1] is ins[0] else xs[1] + qk_pe
        ys = [x @ w.data for x, (w, _) in zip(xs, wb)]
        for y, (_, b) in zip(ys, wb):
            y += b.data
        return xs, ys

    qkv = projections()[1]
    T.check_attention(*qkv, n_heads)
    out, row_max, row_sum = T.attention_forward(*qkv, None, n_heads)
    del qkv

    def backward(g: np.ndarray) -> tuple:
        xs, qkv = projections()
        grads = T.attention_backward(g, *qkv, None, n_heads, out, row_max, row_sum)
        del qkv
        dxs = [None] * 3
        for x, (w, _), d in zip(ins, wb, grads):
            if x.requires_grad:
                i = ins.index(x)  # an input read more than once sums its gradients in its first slot
                dx = d @ w.data.T
                dxs[i] = dx if dxs[i] is None else np.add(dxs[i], dx, out=dxs[i])
        return (*dxs, *(t for x, d in zip(xs, grads) for t in (x.T @ d, d)))

    node = custom_op(out, ins + tuple(t for pair in wb for t in pair), backward)
    return linear(node, params, f"{name}.o")


def init_ffn(params: dict, rng: np.random.Generator, name: str, d_model: int, hidden: int) -> None:
    init_linear(params, rng, f"{name}.1", d_model, hidden)
    init_linear(params, rng, f"{name}.2", hidden, d_model)


def ffn(x: Tensor, params: dict, name: str) -> Tensor:
    """``.2`` of the ReLU of ``.1``, as one node with parents ``(x, .1.w, .1.b,
    .2.w, .2.b)``.

    The forward builds the ReLU hidden layer as a transient, and the backward
    rebuilds it from ``x.data`` with the forward's own ops, so ``x``'s
    ``.data`` must not change in between; the node keeps no ``(n, hidden)``
    array. Values and gradients are bitwise those of ``linear(relu(linear(x)))``
    nodes. An ``x`` that is not ``(..., n_in)``, or weights that are not
    ``(n_in, hidden)`` and ``(hidden, n_out)`` with ``(hidden,)`` and
    ``(n_out,)`` biases, raise ShapeError.
    """
    x = T.as_tensor(x)
    w1, b1, w2, b2 = (params[f"{name}.{k}"] for k in ("1.w", "1.b", "2.w", "2.b"))
    d = x.shape[-1] if x.ndim >= 2 else -1
    hid, d_out = w2.shape if w2.ndim == 2 else (-1, -1)
    if d < 0 or [w1.shape, b1.shape, w2.shape, b2.shape] != [(d, hid), (hid,), (hid, d_out), (d_out,)]:
        raise ShapeError(f"ffn: needs x (..., n_in), {name}.1 (n_in, hidden) and {name}.2 (hidden, n_out); "
                         f"got {x.shape}, {w1.shape}, {b1.shape}, {w2.shape}, {b2.shape}")

    def hidden() -> np.ndarray:
        h = x.data @ w1.data
        h += b1.data
        return np.maximum(h, 0.0, out=h)

    y = hidden() @ w2.data
    y += b2.data

    def backward(g: np.ndarray) -> tuple:
        h = hidden()
        dw2 = np.swapaxes(h, -1, -2) @ g
        gh = g @ np.swapaxes(w2.data, -1, -2)
        gh *= h > 0  # the ReLU's mask: NaN and -0.0 pre-activations give 0
        del h
        dx = gh @ np.swapaxes(w1.data, -1, -2) if x.requires_grad else None
        return dx, np.swapaxes(x.data, -1, -2) @ gh, gh, dw2, g

    return custom_op(y, (x, w1, b1, w2, b2), backward)


# backbone and encoder --------------------------------------------------------


def patch_embed(image: np.ndarray, patch: int, params: dict) -> Tensor:
    """Project non-overlapping pixel patches to feature cells with the ``patch`` linear.

    The image (H, W, C) is zero-padded on the bottom/right to a multiple of
    ``patch``; output is (H/patch, W/patch, n_out), one node with parents
    ``(patch.w, patch.b)``. The forward builds the ``(cells, patch² C)``
    tiles as a transient and the node keeps only the image, from which the
    backward rebuilds them for ``patch.w``'s gradient, so the image must not
    change between the forward and the backward. ``patch`` must be an
    integer >= 1 (ValueError); an image that is not (H, W, C) with ``C
    patch²`` equal to ``patch.w``'s rows, or parameters not ``(n_in,
    n_out)`` and ``(n_out,)``, raise ShapeError; NaN or inf pixels raise
    FloatingPointError.
    """
    require_integer("patch_embed: patch", patch)
    if patch < 1:
        raise ValueError(f"patch_embed: patch must be >= 1, got {patch}")
    image = np.asarray(image, dtype=np.float64)
    w, b = params["patch.w"], params["patch.b"]
    if image.ndim != 3 or w.ndim != 2 or image.shape[2] * patch * patch != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"patch_embed: needs an (H, W, C) image with C * {patch}**2 equal to patch.w's rows and "
                         f"patch.b (n_out,); got {image.shape}, {w.shape} and {b.shape}")
    if not np.isfinite(image).all():
        raise FloatingPointError("patch_embed: the image holds NaN or inf")
    h, wd, c = image.shape
    gh, gw = -(-h // patch), -(-wd // patch)

    def tiles() -> np.ndarray:
        """The image's ``(gh * gw, patch² C)`` tiles, in a new array."""
        padded = image
        if (gh * patch, gw * patch) != (h, wd):
            padded = np.pad(image, ((0, gh * patch - h), (0, gw * patch - wd), (0, 0)))
        return padded.reshape(gh, patch, gw, patch, c).transpose(0, 2, 1, 3, 4).reshape(gh * gw, -1)

    y = tiles() @ w.data
    y += b.data

    def backward(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        g = g.reshape(gh * gw, -1)
        return np.swapaxes(tiles(), -1, -2) @ g, g

    return custom_op(y.reshape(gh, gw, -1), (w, b), backward)


def encode_features(grid: Tensor, n_layers: int, params: dict, pe: np.ndarray, n_heads: int) -> Tensor:
    """Self-attention encoder over flattened cells with 2D position bias; layer i uses ``enc{i}.*``.

    Zero layers return the grid's values. Position encodings are added to
    queries and keys only, inside their projections (``multi_head_attention``'s
    ``qk_pe``). Each sublayer is post-norm, ``LN(x + sublayer(x))``, its sum
    formed inside the layer norm (``apply_layer_norm``'s ``residual``);
    spatial dims are preserved.
    """
    h, w, d = grid.shape
    x = grid.reshape(h * w, d)
    for i in range(n_layers):
        x = apply_layer_norm(multi_head_attention(x, x, x, params, f"enc{i}.attn", n_heads, qk_pe=pe),
                             params, f"enc{i}.ln1", residual=x)
        x = apply_layer_norm(ffn(x, params, f"enc{i}.ffn"), params, f"enc{i}.ln2", residual=x)
    return x.reshape(h, w, d)


def dense_fusion(enc: Tensor, backbone: Tensor, params: dict) -> Tensor:
    """Channel-concatenate encoder and backbone grids, project back to d_model with ``fuse``.

    One node with parents ``(enc, backbone, fuse.w, fuse.b)``: the forward
    builds the concatenation as a transient, and the backward rebuilds it
    from the two grids' ``.data`` for ``fuse.w``'s gradient, so neither may
    change between the forward and the backward. The grids' gradients are
    two arrays, ``g @ fuse.w[:d]^T`` and ``g @ fuse.w[d:]^T``, so neither
    keeps the other alive. Values and gradients are bitwise those of
    ``concat`` and ``linear``. Grids whose spatial dims
    differ, whose concatenated width is not ``fuse.w``'s rows, or a
    ``fuse.b`` that is not ``(n_out,)`` raise ShapeError.
    """
    if enc.shape[:2] != backbone.shape[:2]:
        raise ShapeError(f"dense_fusion: spatial dims differ: {enc.shape[:2]} vs {backbone.shape[:2]}")
    w, b = params["fuse.w"], params["fuse.b"]
    d = enc.shape[-1]
    if w.ndim != 2 or d + backbone.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"dense_fusion: the concatenated width {d} + {backbone.shape[-1]} must be fuse.w's rows, "
                         f"and fuse.b (n_out,); got fuse.w {w.shape} and fuse.b {b.shape}")

    def cat() -> np.ndarray:
        return np.concatenate([enc.data, backbone.data], axis=-1)

    y = cat() @ w.data
    y += b.data

    def backward(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return g @ w.data[:d].T, g @ w.data[d:].T, np.swapaxes(cat(), -1, -2) @ g, g

    return custom_op(y, (enc, backbone, w, b), backward)


# RoI pooling ------------------------------------------------------------------


_ROI_CHUNK = 32  # boxes per scatter pass of roi_pool_batch's backward


def _bins(lo: np.ndarray, hi: np.ndarray, n_cells: int, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """First cell and extent, each (n, n_bins), of each box's bins along one axis; see roi_pool_batch."""
    c0 = np.clip(np.floor(lo), 0, n_cells - 1).astype(np.intp)
    c1 = np.clip(np.ceil(hi), c0 + 1, n_cells).astype(np.intp)
    bounds = (np.arange(n_bins + 1) * (c1 - c0)[:, None]) // n_bins
    return c0[:, None] + bounds[:, :-1], np.maximum(np.diff(bounds, axis=1), 1)


def _window_max(cells: np.ndarray, kr: int, kc: int) -> tuple[np.ndarray, np.ndarray]:
    """Window-max tables (kr, kc, h, w, c) of a grid ``cells`` (h, w, c), and their first-maximum indices.

    Entry ``[a - 1, b - 1, r, q]`` is the channelwise max over rows
    ``r .. r+a-1`` and columns ``q .. q+b-1``, set wherever that window fits
    in the grid and unset elsewhere. Table ``(1, b)`` is the max of table
    ``(1, b-1)`` and column ``q+b-1``; table ``(a, b)`` the max of table
    ``(a-1, b)`` and row ``r+a-1`` of table ``(1, b)``: one ``np.maximum``
    each. The index tables hold the flat ``(cell, channel)`` index of each
    window's first maximum in row-major order (as ``np.argmax``): a later half
    takes over only where it is strictly greater, so on a tie the earlier
    half, which holds the lower indices, wins.
    """
    h, w, c = cells.shape
    val = np.empty((kr, kc, h, w, c), dtype=cells.dtype)
    val[0, 0] = cells
    # unsigned: idx[late] - idx[early] wraps modulo 2**bits, and adding it back to idx[early] gives idx[late]
    idx = np.empty(val.shape, dtype=np.min_scalar_type(max(h * w * c - 1, 0)))
    idx[0, 0] = np.arange(h * w * c).reshape(h, w, c)

    def merge(dst, early, late):
        # np.where without its per-element branch, which mispredicts on random data
        np.add(idx[early], (val[late] > val[early]) * (idx[late] - idx[early]), out=idx[dst])
        np.maximum(val[early], val[late], out=val[dst])

    every = slice(None)
    for b in range(1, kc):
        cols = slice(None, w - b)
        merge((0, b, every, cols), (0, b - 1, every, cols), (0, 0, every, slice(b, None)))
    for a in range(1, kr):
        rows = slice(None, h - a)
        for b in range(kc):
            cols = slice(None, w - b)
            merge((a, b, rows, cols), (a - 1, b, rows, cols), (0, b, slice(a, None), cols))
    return val, idx


def roi_pool_batch(grid: Tensor, boxes: np.ndarray, w, b, out_hw: tuple[int, int] = (7, 7)) -> Tensor:
    """Channelwise max-pool fixed-size region features for a batch of boxes,
    and project each box's flattened region with ``w`` and ``b``.

    ``grid`` is (H', W', C), else ``ShapeError``; ``out_hw`` is two positive
    integers (bools refused), else ``ValueError``. ``boxes`` is (n, 4) cxcywh
    in normalized image coordinates, or (0,) for none; any other shape raises
    ``ValueError``. ``w`` is ``(H_roi * W_roi * C, n_out)`` and ``b``
    ``(n_out,)``, else ``ShapeError``. The result is ``(n, n_out)``: the
    ``(n, H_roi, W_roi, C)`` regions, flattened row-major, times ``w`` plus
    ``b``, as one node with parents ``(grid, w, b)``. Along each axis the box,
    clipped to [0, 1], covers cells ``[floor(lo), ceil(hi))``, at least one;
    this range of ``span`` cells is cut into contiguous bins at ``k*span //
    n_bins``. A bin left empty by a small box takes its boundary cell, so tiny
    boxes replicate their one cell.

    Each bin is a window of ``kr x kc`` cells, at most the call's largest
    extents ``K_r x K_c``. The forward builds the ``K_r * K_c`` window-max
    tables of the grid and their first-maximum indices (``_window_max``, one
    pass), gathers each bin's ``(n, C)`` rows from them with one ``np.take``,
    indexed by the bin's first cell and its own extent, and adds the rows
    times that bin's ``(C, n_out)`` block of ``w`` into the output (as Fast
    R-CNN's RoI head feeds its pooled features to one fc layer). No region is
    ever built; the value tables are dropped after the forward, and the node
    keeps the index tables and each bin's ``(n, H_roi, W_roi)`` table row.

    The backward reads each bin's values back from the grid at their
    first-maximum cells, which hold them exactly, so the grid's ``.data``
    must not change between the forward and the backward. Each bin adds its
    ``maxima^T @ g`` into its row block of ``T.leaf_grad(w)`` and the node
    returns None for ``w``, so the matching and DN branches, which share
    ``neck.1.w``, build no second ``w``-sized array; a ``w`` that needs a
    gradient must be a leaf. The grid's gradient, ``_ROI_CHUNK`` boxes at a
    time, is ``g @ w^T`` sent to the cell that supplied each bin maximum, the
    first in row-major order among equal maxima (as ``np.argmax``), and
    summed with ``np.add.at`` in (box, bin, channel) order, which bounds the
    scatter's index to ``_ROI_CHUNK * H_roi * W_roi * C`` values; box
    coordinates are constants of the op. Values and gradients are within
    1e-12 relative of pooling, flattening and a ``linear`` node; at an
    identity ``w`` and a zero ``b`` the values and the grid's gradient are
    bitwise those of the pooling alone. NaN or inf in the grid or the boxes
    raise ``FloatingPointError``.
    """
    bad_hw = f"roi_pool_batch: out_hw must be two positive integers, got {out_hw!r}"
    if not isinstance(out_hw, (tuple, list)) or len(out_hw) != 2:
        raise ValueError(bad_hw)
    for v in out_hw:
        require_integer("roi_pool_batch: out_hw", v)
    if min(out_hw) < 1:
        raise ValueError(bad_hw)
    if grid.ndim != 3:
        raise ShapeError(f"roi_pool_batch: the grid must be (H', W', C), got shape {grid.shape}")
    boxes = as_boxes(boxes, "roi_pool_batch")
    hb, wb = out_hw
    cells = grid.data
    gh, gw, c = cells.shape
    w, b = T.as_tensor(w), T.as_tensor(b)
    if w.ndim != 2 or w.shape[0] != hb * wb * c or b.shape != w.shape[1:]:
        raise ShapeError(f"roi_pool_batch: w must be ({hb * wb * c}, n_out) and b (n_out,) for {out_hw} bins "
                         f"of {c} channels; got {w.shape} and {b.shape}")
    if not (np.isfinite(cells).all() and np.isfinite(boxes).all()):
        raise FloatingPointError("roi_pool_batch: the grid or the boxes hold NaN or inf")
    x0, y0, x1, y1 = np.clip(box_cxcywh_to_xyxy(boxes), 0.0, 1.0).T
    r0, kr = _bins(y0 * gh, y1 * gh, gh, hb)
    q0, kc = _bins(x0 * gw, x1 * gw, gw, wb)
    n_kr, n_kc = int(kr.max(initial=1)), int(kc.max(initial=1))
    table = ((kr - 1) * n_kc)[:, :, None] + (kc - 1)[:, None, :]
    at = table * (gh * gw) + (r0 * gw)[:, :, None] + q0[:, None, :]  # (n, hb, wb) rows of the stacked tables
    val, first = _window_max(cells, n_kr, n_kc)
    val, first = val.reshape(-1, c), first.reshape(-1, c)
    n, n_out = len(at), w.shape[1]
    per_bin = at.reshape(n, hb * wb).T  # (bins, n): bin k's table row for each box
    out = np.zeros((n, n_out))
    for rows, w_k in zip(per_bin, w.data.reshape(hb * wb, c, n_out)):
        out += np.take(val, rows, axis=0) @ w_k
    out += b.data

    def backward(g: np.ndarray) -> tuple[np.ndarray | None, None, np.ndarray]:
        if w.requires_grad:
            flat = grid.data.reshape(-1)
            for rows, blk in zip(per_bin, T.leaf_grad(w).reshape(hb * wb, c, n_out)):
                maxima = np.take(flat, np.take(first, rows, axis=0))  # each sits at its first-maximum cell
                blk += maxima.T @ g
        dgrid = None
        if grid.requires_grad:
            dgrid = np.zeros(grid.shape)
            for i in range(0, n, _ROI_CHUNK):
                s = slice(i, i + _ROI_CHUNK)
                np.add.at(dgrid.reshape(-1), np.take(first, at[s], axis=0).ravel(), (g[s] @ w.data.T).ravel())
        return dgrid, None, g

    return custom_op(out, (grid, w, b), backward)


def neck(hidden: Tensor, params: dict) -> Tensor:
    """The rest of the neck after ``neck.1``, which ``roi_pool_batch`` applies
    to the pooled regions: ReLU, then ``neck.2`` to the model width, from
    ``(n, d_hidden)`` to ``(n, d_model)``."""
    return linear(T.relu(hidden), params, "neck.2")
