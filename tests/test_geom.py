import numpy as np
import pytest

from casdet.geom import (
    MIN_BOX_SIZE,
    box_cxcywh_to_xyxy,
    box_xyxy_to_cxcywh,
    clamp_box_xyxy,
    giou_matrix,
    giou_xyxy,
    iou_matrix,
    iou_xyxy,
    jitter_box,
)


def raster_iou(a, b, res=1000):
    """Pixel-count IoU oracle on a res x res grid over the unit square."""
    xs = (np.arange(res) + 0.5) / res

    def grid(box):
        x0, y0, x1, y1 = box
        mx = (xs >= x0) & (xs < x1)
        my = (xs >= y0) & (xs < y1)
        return np.outer(my, mx)

    ga, gb = grid(a), grid(b)
    union = (ga | gb).sum()
    return (ga & gb).sum() / union if union else 0.0


def random_xyxy(rng, n):
    lo = rng.uniform(0.0, 0.6, size=(n, 2))
    hi = lo + rng.uniform(0.05, 0.35, size=(n, 2))
    return np.concatenate([lo, hi], axis=-1)


def test_cxcywh_to_xyxy_examples():
    np.testing.assert_allclose(box_cxcywh_to_xyxy([0.5, 0.5, 1, 1]), [0, 0, 1, 1])
    np.testing.assert_allclose(box_cxcywh_to_xyxy([0.5, 0.5, 0.5, 0.5]), [0.25, 0.25, 0.75, 0.75])


def test_conversion_round_trip():
    rng = np.random.default_rng(0)
    boxes = np.stack(
        [rng.uniform(0.2, 0.8, 1000), rng.uniform(0.2, 0.8, 1000), rng.uniform(0.01, 0.4, 1000), rng.uniform(0.01, 0.4, 1000)],
        axis=-1,
    )
    back = box_xyxy_to_cxcywh(box_cxcywh_to_xyxy(boxes))
    np.testing.assert_allclose(back, boxes, atol=1e-12)


def test_iou_identity_and_disjoint():
    a = np.array([0.1, 0.1, 0.4, 0.4])
    assert iou_xyxy(a, a) == 1.0
    assert iou_xyxy([0, 0, 0.1, 0.1], [0.5, 0.5, 0.6, 0.6]) == 0.0


def test_iou_analytic_and_raster():
    a = np.array([0.0, 0.0, 0.2, 0.2])
    b = np.array([0.1, 0.1, 0.3, 0.3])
    # overlap 0.1*0.1, union 0.04+0.04-0.01
    assert abs(iou_xyxy(a, b) - 1.0 / 7.0) < 1e-12
    assert abs(iou_xyxy(a, b) - raster_iou(a, b)) < 1e-2


def test_iou_matches_raster_oracle_on_random_pairs():
    rng = np.random.default_rng(1)
    a = random_xyxy(rng, 200)
    b = random_xyxy(rng, 200)
    got = iou_xyxy(a, b)
    for i in range(200):
        assert abs(got[i] - raster_iou(a[i], b[i])) < 1e-2


def test_iou_symmetric_and_bounded():
    rng = np.random.default_rng(2)
    a = random_xyxy(rng, 200)
    b = random_xyxy(rng, 200)
    ab, ba = iou_xyxy(a, b), iou_xyxy(b, a)
    np.testing.assert_allclose(ab, ba, atol=1e-15)
    assert np.all(ab >= 0) and np.all(ab <= 1)


def test_iou_one_only_for_equal_positive_area():
    rng = np.random.default_rng(3)
    a = random_xyxy(rng, 100)
    b = a.copy()
    b[:, 2] += 1e-3
    assert np.all(iou_xyxy(a, b) < 1.0)
    assert iou_xyxy([0.2, 0.2, 0.2, 0.5], [0.2, 0.2, 0.2, 0.5]) == 0.0  # zero area


def test_giou_examples():
    a = np.array([0.0, 0.0, 0.2, 0.2])
    b = np.array([0.1, 0.1, 0.3, 0.3])
    expected = 1.0 / 7.0 - (0.09 - 0.07) / 0.09  # enclosing-box formula, computed independently
    assert abs(giou_xyxy(a, b) - expected) < 1e-12
    assert giou_xyxy(a, a) == 1.0


def test_giou_nested_equals_iou():
    outer = np.array([0.1, 0.1, 0.8, 0.8])
    inner = np.array([0.3, 0.3, 0.5, 0.6])
    assert abs(giou_xyxy(outer, inner) - iou_xyxy(outer, inner)) < 1e-12


def test_giou_bounded_and_below_iou():
    rng = np.random.default_rng(4)
    a = random_xyxy(rng, 300)
    b = random_xyxy(rng, 300)
    g, i = giou_xyxy(a, b), iou_xyxy(a, b)
    assert np.all(g <= i + 1e-12)
    assert np.all(g >= -1) and np.all(g <= 1)


def test_matrix_forms_agree_with_elementwise():
    rng = np.random.default_rng(5)
    a = random_xyxy(rng, 7)
    b = random_xyxy(rng, 5)
    im = iou_matrix(a, b)
    gm = giou_matrix(a, b)
    assert im.shape == (7, 5) and gm.shape == (7, 5)
    for i in range(7):
        for j in range(5):
            assert im[i, j] == iou_xyxy(a[i], b[j])
            assert gm[i, j] == giou_xyxy(a[i], b[j])


def test_perturb_zero_noise_is_identity():
    rng = np.random.default_rng(6)
    box = np.array([0.5, 0.4, 0.3, 0.2])
    np.testing.assert_allclose(jitter_box(box, rng.standard_normal(4), 0.0), box, atol=1e-15)


def test_perturb_rejects_negative_noise():
    with pytest.raises(ValueError):
        jitter_box(np.array([0.5, 0.5, 0.2, 0.2]), np.random.default_rng(0).standard_normal(4), -0.1)


def test_perturb_corner_std_matches_sigma():
    # Monte-Carlo check of the noise model: sigma = noise_level * side = 0.04,
    # on a box far enough from the borders that clamping never fires.
    rng = np.random.default_rng(7)
    box = np.tile([0.5, 0.5, 0.4, 0.4], (100_000, 1))
    out = box_cxcywh_to_xyxy(jitter_box(box, rng.standard_normal(box.shape), 0.1))
    deltas = out - box_cxcywh_to_xyxy(box)
    stds = deltas.std(axis=0)
    np.testing.assert_allclose(stds, 0.04, atol=1e-3)


def test_perturb_outputs_always_valid():
    rng = np.random.default_rng(8)
    box = np.tile([0.05, 0.95, 0.3, 0.3], (2000, 1))  # hugs two borders
    out = box_cxcywh_to_xyxy(jitter_box(box, rng.standard_normal(box.shape), 0.5))
    assert np.all(out >= 0) and np.all(out <= 1)
    assert np.all(out[:, 2] - out[:, 0] >= MIN_BOX_SIZE - 1e-12)
    assert np.all(out[:, 3] - out[:, 1] >= MIN_BOX_SIZE - 1e-12)


def test_perturb_deterministic_under_fixed_seed():
    box = np.array([0.4, 0.6, 0.2, 0.25])
    a = jitter_box(box, np.random.default_rng(99).standard_normal(4), 0.2)
    b = jitter_box(box, np.random.default_rng(99).standard_normal(4), 0.2)
    np.testing.assert_array_equal(a, b)


def test_jitter_batch_equals_per_box_calls():
    rng = np.random.default_rng(10)
    boxes = np.stack([rng.random(40), rng.random(40), rng.uniform(0.01, 0.6, 40), rng.uniform(0.01, 0.6, 40)], -1)
    noise = rng.standard_normal((40, 4))
    batch = jitter_box(boxes, noise, 0.3)
    assert np.array_equal(batch, np.stack([jitter_box(b, n, 0.3) for b, n in zip(boxes, noise)]))
    with pytest.raises(ValueError):
        jitter_box(boxes, noise, -0.1)


def test_clamp_expands_degenerate_boxes():
    out = clamp_box_xyxy(np.array([0.5, 0.5, 0.5, 0.5]))
    assert out[2] - out[0] == pytest.approx(MIN_BOX_SIZE)
    assert out[3] - out[1] == pytest.approx(MIN_BOX_SIZE)
    edge = clamp_box_xyxy(np.array([0.0, 1.0, 0.0, 1.0]))
    assert 0.0 <= edge[0] and edge[2] <= 1.0 and edge[2] - edge[0] == pytest.approx(MIN_BOX_SIZE)
