"""Axis-aligned box algebra in normalized coordinates.

Boxes come in two parametrizations: center/size ``(cx, cy, w, h)`` and
corner ``(x0, y0, x1, y1)``. All functions take float64 arrays of shape
``(..., 4)`` and are pure.
"""

from __future__ import annotations

import numpy as np

# Floor applied after corruption so L1-normalized terms stay finite.
MIN_BOX_SIZE = 1e-3


def box_cxcywh_to_xyxy(b: np.ndarray) -> np.ndarray:
    """Convert boxes from (cx, cy, w, h) to (x0, y0, x1, y1)."""
    b = np.asarray(b, dtype=np.float64)
    cx, cy, w, h = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=-1)


def box_xyxy_to_cxcywh(b: np.ndarray) -> np.ndarray:
    """Convert boxes from (x0, y0, x1, y1) to (cx, cy, w, h)."""
    b = np.asarray(b, dtype=np.float64)
    x0, y0, x1, y1 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack([(x0 + x1) / 2, (y0 + y1) / 2, x1 - x0, y1 - y0], axis=-1)


def area_xyxy(b: np.ndarray) -> np.ndarray:
    b = np.asarray(b, dtype=np.float64)
    w = np.clip(b[..., 2] - b[..., 0], 0.0, None)
    h = np.clip(b[..., 3] - b[..., 1], 0.0, None)
    return w * h


def _inter_union(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Intersection and union areas of corner boxes; shapes broadcast."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    wh = np.clip(np.minimum(a[..., 2:], b[..., 2:]) - np.maximum(a[..., :2], b[..., :2]), 0.0, None)
    inter = wh[..., 0] * wh[..., 1]
    return inter, area_xyxy(a) + area_xyxy(b) - inter


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``num / den`` where ``den > 0``, else 0."""
    return np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)


def iou_xyxy(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise IoU of corner boxes; shapes broadcast.

    Zero-area pairs return 0 rather than NaN.
    """
    return _ratio(*_inter_union(a, b))


def giou_xyxy(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise generalized IoU; in [-1, 1], equal to IoU for nested boxes.

    Degenerate boxes: a pair with no union scores 0 IoU, and a pair with no
    enclosure area takes no penalty. The penalty ``enclose - union`` is >= 0
    by geometry but can round below 0 (with subnormal areas, by far more than
    an ulp), so it is clamped at 0 and GIoU never exceeds IoU.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    inter, union = _inter_union(a, b)
    wh = np.clip(np.maximum(a[..., 2:], b[..., 2:]) - np.minimum(a[..., :2], b[..., :2]), 0.0, None)
    enclose = wh[..., 0] * wh[..., 1]
    return _ratio(inter, union) - _ratio(np.maximum(enclose - union, 0.0), enclose)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between box sets: (N, 4) x (M, 4) -> (N, M), corner form."""
    return iou_xyxy(np.asarray(a, dtype=np.float64)[:, None, :], np.asarray(b, dtype=np.float64)[None, :, :])


def giou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise GIoU between box sets: (N, 4) x (M, 4) -> (N, M), corner form."""
    return giou_xyxy(np.asarray(a, dtype=np.float64)[:, None, :], np.asarray(b, dtype=np.float64)[None, :, :])


def clamp_box_xyxy(b: np.ndarray) -> np.ndarray:
    """Reorder corners, clip to [0, 1] and enforce a minimum side length.

    Degenerate sides are expanded to MIN_BOX_SIZE around their center, shifted
    to stay inside the unit square.
    """
    b = np.asarray(b, dtype=np.float64)
    x0 = np.minimum(b[..., 0], b[..., 2])
    x1 = np.maximum(b[..., 0], b[..., 2])
    y0 = np.minimum(b[..., 1], b[..., 3])
    y1 = np.maximum(b[..., 1], b[..., 3])
    x0, x1 = np.clip(x0, 0.0, 1.0), np.clip(x1, 0.0, 1.0)
    y0, y1 = np.clip(y0, 0.0, 1.0), np.clip(y1, 0.0, 1.0)

    half = MIN_BOX_SIZE / 2

    def expand(lo, hi):
        small = (hi - lo) < MIN_BOX_SIZE
        c = np.clip((lo + hi) / 2, half, 1.0 - half)
        return np.where(small, c - half, lo), np.where(small, c + half, hi)

    x0, x1 = expand(x0, x1)
    y0, y1 = expand(y0, y1)
    return np.stack([x0, y0, x1, y1], axis=-1)


def jitter_box(box: np.ndarray, noise: np.ndarray, noise_level: float) -> np.ndarray:
    """Corrupt center/size boxes with given unit noise; return valid center/size boxes.

    Corner coordinate k moves by ``noise[..., k] * sigma`` with
    sigma = noise_level * w for x and noise_level * h for y, after which the
    corners are reordered, clipped to [0, 1] and floored at MIN_BOX_SIZE.
    ``box`` and ``noise`` have shape (..., 4); rows are independent, so a
    batch gives bitwise the rows that one call per box would.
    """
    if noise_level < 0:
        raise ValueError(f"noise_level must be >= 0, got {noise_level}")
    box = np.asarray(box, dtype=np.float64)
    sx = noise_level * box[..., 2:3]
    sy = noise_level * box[..., 3:4]
    sigma = np.concatenate([sx, sy, sx, sy], axis=-1)
    return box_xyxy_to_cxcywh(clamp_box_xyxy(box_cxcywh_to_xyxy(box) + noise * sigma))

