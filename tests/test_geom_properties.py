"""Property tests of the box algebra: IoU and GIoU bounds, symmetry and
nesting, conversion round trips, bitwise agreement with the IoU and GIoU
formulas as they were before the two functions shared one intersection, and
with the per-coordinate conversions and clamp as they were before they worked
on (x, y) pairs."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casdet.geom import (
    MIN_BOX_SIZE,
    area_xyxy,
    box_cxcywh_to_xyxy,
    box_xyxy_to_cxcywh,
    clamp_box_xyxy,
    giou_xyxy,
    iou_xyxy,
)


def _oracle_iou(a, b):
    """``iou_xyxy`` as it was, with its own intersection and union."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    lt = np.maximum(a[..., :2], b[..., :2])
    rb = np.minimum(a[..., 2:], b[..., 2:])
    wh = np.clip(rb - lt, 0.0, None)
    inter = wh[..., 0] * wh[..., 1]
    union = area_xyxy(a) + area_xyxy(b) - inter
    return np.where(union > 0, inter / np.where(union > 0, union, 1.0), 0.0)


def _oracle_giou(a, b):
    """``giou_xyxy`` as it was, recomputing the intersection and union after IoU,
    with the enclosure penalty clamped at 0 as ``giou_xyxy`` clamps it."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    iou = _oracle_iou(a, b)
    lt = np.minimum(a[..., :2], b[..., :2])
    rb = np.maximum(a[..., 2:], b[..., 2:])
    wh = np.clip(rb - lt, 0.0, None)
    enclose = wh[..., 0] * wh[..., 1]
    lt_i = np.maximum(a[..., :2], b[..., :2])
    rb_i = np.minimum(a[..., 2:], b[..., 2:])
    wh_i = np.clip(rb_i - lt_i, 0.0, None)
    union = area_xyxy(a) + area_xyxy(b) - wh_i[..., 0] * wh_i[..., 1]
    penalty = np.maximum(enclose - union, 0.0)  # >= 0 by geometry; rounding can take it below
    return iou - np.where(enclose > 0, penalty / np.where(enclose > 0, enclose, 1.0), 0.0)


# Grid values make shared edges, zero-area, touching and disjoint boxes common.
coord = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0))


def _corner_box(xs, ys):
    return [min(xs), min(ys), max(xs), max(ys)]


box = st.builds(_corner_box, st.tuples(coord, coord), st.tuples(coord, coord))
box_sets = st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.lists(box, min_size=n, max_size=n), st.lists(box, min_size=n, max_size=n)))


@settings(max_examples=300, deadline=None)
@given(box_sets)
def test_iou_symmetric_and_in_unit_interval(pair):
    a, b = np.array(pair[0]), np.array(pair[1])
    ab = iou_xyxy(a, b)
    assert np.array_equal(ab, iou_xyxy(b, a))
    assert np.all((ab >= 0.0) & (ab <= 1.0))


@settings(max_examples=300, deadline=None)
@given(box_sets)
# subnormal widths: the union rounds above the enclosure, and an unclamped
# penalty put GIoU 8.9e-11 above IoU
@example(([[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 2.2250738585e-313, 0.119140625]],
          [[0.0, 0.0, 0.0, 0.0], [0.0, 0.0625, 2.2250738585e-313, 0.25]]))
def test_giou_bounded_and_not_above_iou(pair):
    a, b = np.array(pair[0]), np.array(pair[1])
    g = giou_xyxy(a, b)
    assert np.all((g >= -1.0) & (g <= 1.0))
    assert np.all(g <= iou_xyxy(a, b))


@settings(max_examples=200, deadline=None)
@given(box, st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
def test_giou_equals_iou_for_nested_boxes(outer, t):
    outer = np.array(outer)
    x0, y0, x1, y1 = outer
    # An inner box between the outer corners: fractions t of the way across.
    xs = sorted([x0 + t[0] * (x1 - x0), x0 + t[1] * (x1 - x0)])
    ys = sorted([y0 + t[2] * (y1 - y0), y0 + t[3] * (y1 - y0)])
    inner = np.clip([xs[0], ys[0], xs[1], ys[1]], [x0, y0, x0, y0], [x1, y1, x1, y1])
    for a, b in ((outer, inner), (inner, outer)):
        assert abs(giou_xyxy(a, b) - iou_xyxy(a, b)) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(box_sets)
def test_iou_and_giou_bitwise_equal_to_the_separate_formulas(pair):
    a, b = np.array(pair[0]), np.array(pair[1])
    assert np.array_equal(iou_xyxy(a, b), _oracle_iou(a, b))
    assert np.array_equal(giou_xyxy(a, b), _oracle_giou(a, b))
    assert np.array_equal(iou_xyxy(a[:, None], b[None]), _oracle_iou(a[:, None], b[None]))
    assert np.array_equal(giou_xyxy(a[:, None], b[None]), _oracle_giou(a[:, None], b[None]))


def test_separate_formulas_agree_on_zero_area_and_disjoint_boxes():
    a = np.array([[0.2, 0.2, 0.2, 0.5],   # zero width
                  [0.0, 0.0, 0.1, 0.1],   # disjoint from its partner
                  [0.3, 0.3, 0.3, 0.3],   # a point
                  [0.0, 0.0, 0.5, 0.5]])  # touches its partner along an edge
    b = np.array([[0.2, 0.2, 0.2, 0.5],
                  [0.5, 0.5, 0.6, 0.6],
                  [0.3, 0.3, 0.3, 0.3],
                  [0.5, 0.0, 1.0, 0.5]])
    iou, giou = iou_xyxy(a, b), giou_xyxy(a, b)
    assert np.array_equal(iou, _oracle_iou(a, b)) and np.array_equal(giou, _oracle_giou(a, b))
    assert np.array_equal(iou, [0.0, 0.0, 0.0, 0.0])
    assert giou[0] == 0.0 and giou[2] == 0.0  # no enclosure area: no penalty
    assert abs(giou[1] - (0.02 / 0.36 - 1.0)) < 1e-12  # union 0.02, enclosure 0.36
    assert giou[3] == 0.0  # the enclosure is exactly the union


@settings(max_examples=300, deadline=None)
@given(st.lists(box, min_size=1, max_size=6))
def test_xyxy_cxcywh_round_trips(boxes):
    xyxy = np.array(boxes)
    cxcywh = box_xyxy_to_cxcywh(xyxy)
    assert np.all(cxcywh[:, 2:] >= 0.0)
    np.testing.assert_allclose(box_cxcywh_to_xyxy(cxcywh), xyxy, rtol=0, atol=1e-15)
    np.testing.assert_allclose(box_xyxy_to_cxcywh(box_cxcywh_to_xyxy(cxcywh)), cxcywh, rtol=0, atol=1e-15)


def _oracle_clamp(b):
    """``clamp_box_xyxy`` as it was, one line per axis and an inner ``expand``."""
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


def _oracle_conversions(b):
    """The two conversions and ``area_xyxy`` as they were, one coordinate at a time."""
    b = np.asarray(b, dtype=np.float64)
    p, q, r, s = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    to_xyxy = np.stack([p - r / 2, q - s / 2, p + r / 2, q + s / 2], axis=-1)
    to_cxcywh = np.stack([(p + r) / 2, (q + s) / 2, r - p, s - q], axis=-1)
    area = np.clip(r - p, 0.0, None) * np.clip(s - q, 0.0, None)
    return to_xyxy, to_cxcywh, area


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# Corners outside [0, 1], reversed corners and sides below MIN_BOX_SIZE.
wide = st.one_of(st.sampled_from([-0.5, 0.0, 0.0004, 0.5, 0.9996, 1.0, 1.5]), st.floats(-0.5, 1.5))
side = st.one_of(st.sampled_from([0.0, -0.0, MIN_BOX_SIZE, -MIN_BOX_SIZE]),
                 st.floats(-2 * MIN_BOX_SIZE, 2 * MIN_BOX_SIZE), st.floats(-1.5, 1.5))
raw_box = st.builds(lambda x, y, w, h: [x, y, x + w, y + h], wide, wide, side, side)


@settings(max_examples=400, deadline=None)
@given(st.lists(raw_box, min_size=1, max_size=6))
def test_clamp_bitwise_equal_to_the_per_axis_form_and_symmetric_in_x_and_y(boxes):
    b = np.array(boxes)
    out = clamp_box_xyxy(b)
    assert _same_bits(out, _oracle_clamp(b))
    assert _same_bits(clamp_box_xyxy(b[0]), _oracle_clamp(b[0]))
    swap = [1, 0, 3, 2]
    assert _same_bits(clamp_box_xyxy(b[:, swap]), out[:, swap])


@settings(max_examples=300, deadline=None)
@given(st.lists(raw_box, min_size=1, max_size=6))
def test_conversions_and_area_bitwise_equal_to_the_per_coordinate_form(boxes):
    b = np.array(boxes)
    for one in (b, b[0], b.reshape(-1, 1, 4)):
        to_xyxy, to_cxcywh, area = _oracle_conversions(one)
        assert _same_bits(box_cxcywh_to_xyxy(one), to_xyxy)
        assert _same_bits(box_xyxy_to_cxcywh(one), to_cxcywh)
        assert _same_bits(area_xyxy(one), area)
