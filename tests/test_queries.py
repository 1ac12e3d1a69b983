import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casdet.features import init_linear
from casdet.geom import box_cxcywh_to_xyxy, iou_xyxy
from casdet.proposals import Proposal
from casdet.queries import (
    DnConfig,
    attention_mask,
    init_matching_queries,
    make_dn_queries,
)
from casdet.tensor import Tensor


def neck_params(rng, c=4, roi=7, d_hidden=8, d_model=6):
    params = {}
    init_linear(params, rng, "neck.1", roi * roi * c, d_hidden)
    init_linear(params, rng, "neck.2", d_hidden, d_model)
    return params


def test_attention_mask_enumerated_example():
    mask = attention_mask(2, [2])
    expected = np.array(
        [
            [True, True, False, False],
            [True, True, False, False],
            [False, False, True, True],
            [False, False, True, True],
        ]
    )
    np.testing.assert_array_equal(mask, expected)


def test_attention_mask_no_groups_all_visible():
    np.testing.assert_array_equal(attention_mask(3, []), np.ones((3, 3), dtype=bool))


def test_attention_mask_block_structure():
    n_match, groups = 4, [3, 2, 3]
    mask = attention_mask(n_match, groups)
    blocks = [np.arange(n_match)]
    start = n_match
    for g in groups:
        blocks.append(np.arange(start, start + g))
        start += g
    for i, bi in enumerate(blocks):
        for j, bj in enumerate(blocks):
            sub = mask[np.ix_(bi, bj)]
            assert sub.all() if i == j else not sub.any()


def _oracle_mask(n_match, group_sizes):
    """``attention_mask`` as it was: the matching block, then one block per DN group."""
    n = n_match + sum(group_sizes)
    mask = np.zeros((n, n), dtype=bool)
    mask[:n_match, :n_match] = True
    start = n_match
    for g in group_sizes:
        mask[start : start + g, start : start + g] = True
        start += g
    return mask


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 8), st.lists(st.integers(0, 5), max_size=7))
@example(0, [1] * 255)  # the last group id that fits in one byte
@example(2, [0, 1] * 128)  # 256 DN groups: the ids need two bytes
def test_attention_mask_bitwise_equal_to_the_per_block_form(n_match, group_sizes):
    mask = attention_mask(n_match, group_sizes)
    ref = _oracle_mask(n_match, group_sizes)
    assert mask.shape == ref.shape and mask.dtype == ref.dtype and np.array_equal(mask, ref)


def test_attention_mask_rejects_negative_counts():
    for n_match, groups in ((-1, [2]), (2, [1, -1]), (0, [-3])):
        with pytest.raises(ValueError, match="counts must be >= 0"):
            attention_mask(n_match, groups)


def test_init_matching_queries_counts_and_determinism():
    rng = np.random.default_rng(0)
    params = neck_params(rng)
    grid = Tensor(rng.normal(size=(8, 8, 4)))
    box = np.array([0.5, 0.5, 0.4, 0.4])
    props = [Proposal(box.copy()), Proposal(np.array([0.3, 0.3, 0.2, 0.2])), Proposal(box.copy())]
    anchors, contents = init_matching_queries(props, grid, params)
    assert anchors.shape == (3, 4) and contents.shape == (3, 6)
    np.testing.assert_array_equal(anchors[0], box)
    np.testing.assert_array_equal(contents.data[0], contents.data[2])  # identical proposals


def test_init_matching_queries_distinct_regions_distinct_contents():
    rng = np.random.default_rng(1)
    params = neck_params(rng)
    data = np.zeros((8, 8, 4))
    data[0:4, 0:4] = 5.0  # blob one
    data[4:8, 4:8] = -3.0  # blob two
    grid = Tensor(data)
    props = [Proposal(np.array([0.25, 0.25, 0.4, 0.4])), Proposal(np.array([0.75, 0.75, 0.4, 0.4]))]
    _, contents = init_matching_queries(props, grid, params)
    assert not np.allclose(contents.data[0], contents.data[1])


def test_init_matching_queries_with_no_proposals_is_an_empty_branch():
    """Zero proposals give no matching rows, and the mask has no matching
    block, so the scene gets no detections."""
    rng = np.random.default_rng(2)
    grid = Tensor(rng.normal(size=(4, 4, 4)), requires_grad=True)
    anchors, contents = init_matching_queries([], grid, neck_params(rng))
    assert anchors.shape == (0, 4) and anchors.dtype == np.float64 and contents.shape == (0, 6)
    contents.sum().backward()
    np.testing.assert_array_equal(grid.grad, np.zeros(grid.shape))
    np.testing.assert_array_equal(attention_mask(0, [2]), np.ones((2, 2), dtype=bool))


def test_dn_query_counts():
    rng = np.random.default_rng(3)
    params = neck_params(rng)
    grid = Tensor(rng.normal(size=(8, 8, 4)))
    gts = np.stack([rng.uniform(0.3, 0.7, 4), rng.uniform(0.3, 0.7, 4), rng.uniform(0.1, 0.3, 4), rng.uniform(0.1, 0.3, 4)], axis=-1)
    anchors, contents = make_dn_queries(gts, DnConfig(groups=5, box_noise=0.4), grid, params, rng)
    assert anchors.shape == (5, 4, 4)
    assert contents.shape == (5, 4, 6)


def test_dn_queries_with_no_gt_are_an_empty_branch():
    rng = np.random.default_rng(6)
    params = neck_params(rng)
    anchors, contents = make_dn_queries(np.zeros((0, 4)), DnConfig(groups=5), Tensor(rng.normal(size=(8, 8, 4))),
                                        params, rng)
    assert anchors.shape == (5, 0, 4)
    assert contents.shape == (5, 0, 6)


def test_dn_zero_noise_reproduces_gt():
    rng = np.random.default_rng(4)
    params = neck_params(rng)
    grid = Tensor(rng.normal(size=(8, 8, 4)))
    gts = np.array([[0.4, 0.4, 0.2, 0.3], [0.6, 0.7, 0.3, 0.2]])
    anchors, _ = make_dn_queries(gts, DnConfig(groups=3, box_noise=0.0), grid, params, rng)
    for g in range(3):
        np.testing.assert_allclose(anchors[g], gts, atol=1e-12)


def test_dn_noisy_boxes_keep_overlap():
    rng = np.random.default_rng(5)
    params = neck_params(rng)
    grid = Tensor(rng.normal(size=(8, 8, 4)))
    gts = np.array([[0.5, 0.5, 0.3, 0.25], [0.3, 0.6, 0.2, 0.2]])
    cfg = DnConfig(groups=5, box_noise=0.4)
    count = 0
    for _ in range(100):  # 100 draws x 5 groups x 2 GTs = 1000 noisy boxes
        anchors, _ = make_dn_queries(gts, cfg, grid, params, rng)
        ious = iou_xyxy(box_cxcywh_to_xyxy(anchors), box_cxcywh_to_xyxy(gts))
        assert np.all(ious > 0)
        count += ious.size
    assert count == 1000


def test_dn_config_validation():
    with pytest.raises(ValueError):
        DnConfig(groups=0)
    for bad in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="box_noise"):
            DnConfig(box_noise=bad)
