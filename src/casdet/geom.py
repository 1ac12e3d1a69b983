"""Axis-aligned box algebra in normalized coordinates.

Boxes come in two parametrizations: center/size ``(cx, cy, w, h)`` and
corner ``(x0, y0, x1, y1)``. All functions take float64 arrays of shape
``(..., 4)`` and are pure. A set of boxes enters as one ``(n, 4)`` array via
``as_boxes``, or ``(0,)``: what ``np.array`` makes of an empty proposal list.
The configs check their count fields with ``require_integer``.
"""

from __future__ import annotations

import numpy as np

# Floor applied after corruption so L1-normalized terms stay finite.
MIN_BOX_SIZE = 1e-3


def as_boxes(b, caller: str) -> np.ndarray:
    """``b`` as a float64 ``(n, 4)`` array of boxes.

    Accepts ``(n, 4)``, or ``(0,)`` for no boxes. Any other shape, a flat
    ``(4,)`` or ``(2, 0)`` too, raises ValueError naming ``caller`` and the
    shape, rather than being read row-major as some other number of boxes.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.shape == (0,):
        return b.reshape(0, 4)
    if b.ndim != 2 or b.shape[1] != 4:
        raise ValueError(f"{caller}: boxes must be (n, 4) or (0,); got shape {b.shape}")
    return b


def require_integer(name: str, value) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is a Python or numpy
    integer: a bool, or a float even when whole, is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def box_cxcywh_to_xyxy(b: np.ndarray) -> np.ndarray:
    """Convert boxes from (cx, cy, w, h) to (x0, y0, x1, y1)."""
    b = np.asarray(b, dtype=np.float64)
    c, half = b[..., :2], b[..., 2:] / 2
    return np.concatenate([c - half, c + half], axis=-1)


def box_xyxy_to_cxcywh(b: np.ndarray) -> np.ndarray:
    """Convert boxes from (x0, y0, x1, y1) to (cx, cy, w, h)."""
    b = np.asarray(b, dtype=np.float64)
    lo, hi = b[..., :2], b[..., 2:]
    return np.concatenate([(lo + hi) / 2, hi - lo], axis=-1)


def area_xyxy(b: np.ndarray) -> np.ndarray:
    b = np.asarray(b, dtype=np.float64)
    wh = np.clip(b[..., 2:] - b[..., :2], 0.0, None)
    return wh[..., 0] * wh[..., 1]


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


def clamp_box_xyxy(b: np.ndarray) -> np.ndarray:
    """Reorder corners, clip to [0, 1] and enforce a minimum side length.

    Degenerate sides are expanded to MIN_BOX_SIZE around their center, shifted
    to stay inside the unit square.
    """
    b = np.asarray(b, dtype=np.float64)
    lo = np.clip(np.minimum(b[..., :2], b[..., 2:]), 0.0, 1.0)
    hi = np.clip(np.maximum(b[..., :2], b[..., 2:]), 0.0, 1.0)
    half = MIN_BOX_SIZE / 2
    small = (hi - lo) < MIN_BOX_SIZE
    c = np.clip((lo + hi) / 2, half, 1.0 - half)
    return np.concatenate([np.where(small, c - half, lo), np.where(small, c + half, hi)], axis=-1)


def jitter_box(box: np.ndarray, noise: np.ndarray, noise_level: float) -> np.ndarray:
    """Corrupt center/size boxes with given unit noise; return valid center/size boxes.

    Corner coordinate k moves by ``noise[..., k] * sigma`` with
    sigma = noise_level * w for x and noise_level * h for y, after which the
    corners are reordered, clipped to [0, 1] and floored at MIN_BOX_SIZE.
    ``box`` and ``noise`` have shape (..., 4); rows are independent, so a
    batch gives bitwise the rows that one call per box would.
    """
    if not 0.0 <= noise_level < np.inf:
        raise ValueError(f"jitter_box: noise_level must be finite and >= 0, got {noise_level}")
    box = np.asarray(box, dtype=np.float64)
    sigma = np.tile(noise_level * box[..., 2:], 2)
    return box_xyxy_to_cxcywh(clamp_box_xyxy(box_cxcywh_to_xyxy(box) + noise * sigma))

