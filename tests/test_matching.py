import itertools
import re

import numpy as np
import pytest

from casdet.matching import PROB_EPS, MatchConfig, hungarian, match_cost_matrix, stable_cls_cost


def brute_force_assignment(cost):
    """Exhaustive minimum over one-to-one assignments of min(n, m) pairs."""
    n, m = cost.shape
    best, best_pairs = np.inf, []
    if n >= m:
        for rows in itertools.permutations(range(n), m):
            total = sum(cost[r, c] for c, r in enumerate(rows))
            if total < best - 1e-15:
                best, best_pairs = total, sorted((r, c) for c, r in enumerate(rows))
    else:
        for cols in itertools.permutations(range(m), n):
            total = sum(cost[r, c] for r, c in enumerate(cols))
            if total < best - 1e-15:
                best, best_pairs = total, sorted((r, c) for r, c in enumerate(cols))
    return best, best_pairs


def pairs_cost(cost, pairs):
    return sum(cost[r, c] for r, c in pairs)


def test_hungarian_diagonal_optimum():
    assert hungarian(np.array([[0.0, 9.0], [9.0, 0.0]])) == [(0, 0), (1, 1)]


def test_hungarian_empty():
    assert hungarian(np.zeros((0, 0))) == []
    assert hungarian(np.zeros((0, 3))) == []
    assert hungarian(np.zeros((3, 0))) == []


def test_hungarian_matches_brute_force_on_random_3x3_integers():
    rng = np.random.default_rng(0)
    for _ in range(50):
        cost = rng.integers(0, 20, size=(3, 3)).astype(float)
        got = hungarian(cost)
        best, _ = brute_force_assignment(cost)
        assert pairs_cost(cost, got) == pytest.approx(best)


def test_hungarian_matches_brute_force_up_to_7():
    rng = np.random.default_rng(1)
    for trial in range(100):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, n + 1))
        cost = rng.normal(size=(n, m))
        got = hungarian(cost)
        best, _ = brute_force_assignment(cost)
        assert len(got) == min(n, m)
        assert pairs_cost(cost, got) == pytest.approx(best)


def test_hungarian_equals_scipy_assignment_ties_included():
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
    rng = np.random.default_rng(3)
    for trial in range(400):
        n, m = (int(x) for x in rng.integers(1, 25, size=2))
        cost = [rng.normal(size=(n, m)), rng.integers(0, 4, size=(n, m)).astype(float),
                np.full((n, m), 1.5), np.round(rng.normal(size=(n, m)), 1)][trial % 4]
        rows, cols = linear_sum_assignment(cost)
        assert hungarian(cost) == sorted(zip(rows.tolist(), cols.tolist()))


@pytest.mark.parametrize("shape", [(3,), (0,), (2, 2, 2)])
def test_hungarian_rejects_a_cost_that_is_not_2d(shape):
    """(3,) and (0,) costs used to raise IndexError, and (2, 2, 2) "too many
    values to unpack", naming no stage."""
    with pytest.raises(ValueError, match=re.escape(f"hungarian: the cost matrix must be 2-D; got shape {shape}")):
        hungarian(np.zeros(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_hungarian_rejects_non_finite_cost(bad):
    cost = np.zeros((2, 3))
    cost[1, 2] = bad
    with pytest.raises(ValueError, match="hungarian"):
        hungarian(cost)


def test_hungarian_rectangular_5x2():
    rng = np.random.default_rng(2)
    cost = rng.normal(size=(5, 2))
    got = hungarian(cost)
    assert len(got) == 2
    best, _ = brute_force_assignment(cost)
    assert pairs_cost(cost, got) == pytest.approx(best)
    cols = [c for _, c in got]
    assert sorted(cols) == [0, 1]


def test_stable_cls_cost_zero_at_half():
    assert stable_cls_cost(0.5, 1.0) == 0.0  # f2(1) = 1, q = 0.5: both terms cancel


def test_stable_cls_cost_monotone_decreasing():
    q = np.linspace(0.01, 0.99, 99)
    c = stable_cls_cost(q, 1.0)
    assert np.all(np.diff(c) < 0)


def test_stable_cls_cost_extremes():
    near_one = stable_cls_cost(1.0 - PROB_EPS, 1.0)
    at_half = stable_cls_cost(0.5, 1.0)
    assert near_one < at_half
    assert np.isfinite(near_one)
    # s' = 0 closes the localization gate: cost at its maximum regardless of p
    for p in (0.1, 0.5, 0.99):
        assert stable_cls_cost(p, 0.0) == stable_cls_cost(0.5, 0.0)
    assert stable_cls_cost(0.9, 0.0) > stable_cls_cost(0.9, 1.0)


@pytest.mark.parametrize("field", ["c_cls", "c_l1", "c_giou", "beta", "gamma"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_match_config_rejects_a_non_finite_or_negative_field(field, bad):
    """NaN, inf or a negative value would give an all-NaN cost, drop the
    class term or a negative cost; each is refused and named."""
    with pytest.raises(ValueError, match=f"^{field} must be finite and >= 0"):
        MatchConfig(**{field: bad})
    assert getattr(MatchConfig(**{field: 0.0}), field) == 0.0


def test_match_cost_l1_term():
    cfg = MatchConfig(c_cls=0.0, c_l1=5.0, c_giou=0.0)
    pred = np.array([[0.5, 0.5, 0.2, 0.2]])
    gt = np.array([[0.5, 0.5, 0.4, 0.4]])
    probs = np.array([[0.5]])
    cost = match_cost_matrix(pred, probs, gt, np.array([0]), cfg)
    assert cost[0, 0] == pytest.approx(2.0)


def test_match_cost_component_isolation_giou():
    cfg = MatchConfig(c_cls=0.0, c_l1=0.0, c_giou=1.0)
    rng = np.random.default_rng(3)
    pred = np.stack([rng.uniform(0.3, 0.7, 3), rng.uniform(0.3, 0.7, 3), rng.uniform(0.1, 0.4, 3), rng.uniform(0.1, 0.4, 3)], axis=-1)
    gt = np.stack([rng.uniform(0.3, 0.7, 2), rng.uniform(0.3, 0.7, 2), rng.uniform(0.1, 0.4, 2), rng.uniform(0.1, 0.4, 2)], axis=-1)
    probs = rng.uniform(0.1, 0.9, size=(3, 4))
    cost = match_cost_matrix(pred, probs, gt, np.array([1, 3]), cfg)
    from casdet.geom import box_cxcywh_to_xyxy, giou_xyxy

    np.testing.assert_allclose(cost, 1.0 - giou_xyxy(box_cxcywh_to_xyxy(pred)[:, None], box_cxcywh_to_xyxy(gt)[None]),
                               atol=1e-12)


def test_match_cost_exact_prediction_wins_row():
    cfg = MatchConfig()
    gt = np.array([[0.4, 0.4, 0.2, 0.2], [0.7, 0.7, 0.2, 0.2]])
    pred = np.array([[0.4, 0.4, 0.2, 0.2]])
    probs = np.array([[0.01, 0.99, 0.01]])
    cost = match_cost_matrix(pred, probs, gt, np.array([1, 1]), cfg)
    assert cost[0, 0] < cost[0, 1]


def test_match_cost_permutation_invariance():
    rng = np.random.default_rng(4)
    cfg = MatchConfig()
    pred = np.stack([rng.uniform(0.3, 0.7, 5), rng.uniform(0.3, 0.7, 5), rng.uniform(0.1, 0.4, 5), rng.uniform(0.1, 0.4, 5)], axis=-1)
    probs = rng.uniform(0.05, 0.95, size=(5, 3))
    gt = pred[:2].copy()
    labels = np.array([0, 2])
    cost = match_cost_matrix(pred, probs, gt, labels, cfg)
    perm = np.array([3, 0, 4, 1, 2])
    cost_p = match_cost_matrix(pred[perm], probs[perm], gt, labels, cfg)
    np.testing.assert_array_equal(cost_p, cost[perm])


def test_better_localized_prediction_receives_gt():
    cfg = MatchConfig()
    gt = np.array([[0.5, 0.5, 0.3, 0.3]])
    good = np.array([0.5, 0.5, 0.3, 0.3])
    bad = np.array([0.56, 0.5, 0.3, 0.3])
    pred = np.stack([bad, good])
    probs = np.array([[0.8], [0.8]])  # identical classification
    cost = match_cost_matrix(pred, probs, gt, np.array([0]), cfg)
    assert hungarian(cost) == [(1, 0)]


@pytest.mark.parametrize("labels, bad", [([0, -1], r"\[-1\]"), ([3, 1, 5], r"\[3, 5\]")])
def test_match_cost_rejects_labels_outside_the_classes(labels, bad):
    """A label of -1 would read the last class's probability, and one of
    n_classes or more would index past the end: both are refused."""
    pred = np.array([[0.5, 0.5, 0.2, 0.2], [0.3, 0.3, 0.1, 0.1]])
    gt = np.tile([0.4, 0.4, 0.2, 0.2], (len(labels), 1))
    with pytest.raises(ValueError, match=bad + r".*\b3 classes"):
        match_cost_matrix(pred, np.full((2, 3), 0.5), gt, np.array(labels), MatchConfig())


@pytest.mark.parametrize("labels", [[[0, 1]], [[0], [1]], [0.9, 1.7], [0.0, 1.0], [True, False]],
                         ids=["(1, 2)", "(2, 1)", "fractions", "whole-floats", "bools"])
def test_match_cost_reads_labels_as_n_gt_integers(labels):
    """A (1, 2) label array for 2 GT boxes used to be flattened, and labels
    [0.9, 1.7] were cast to [0, 1], each giving a cost matrix without an
    error. Labels are class ids: an (n_gt,) integer array, or [] for no GT."""
    pred, probs = np.full((2, 4), 0.3), np.full((2, 3), 0.5)
    gt = np.array([[0.4, 0.4, 0.2, 0.2], [0.6, 0.6, 0.2, 0.2]])
    shape = np.asarray(labels).shape
    with pytest.raises(ValueError, match=re.escape("match_cost_matrix: gt_labels must be (n_gt,) integers; ")
                       + r".* of shape " + re.escape(str(shape))):
        match_cost_matrix(pred, probs, gt, labels, MatchConfig())
    assert match_cost_matrix(pred, probs, gt, [0, 1], MatchConfig()).shape == (2, 2)
    assert match_cost_matrix(pred, probs, gt, np.array([0, 1], dtype=np.uint8), MatchConfig()).shape == (2, 2)
    assert match_cost_matrix(pred, probs, np.zeros((0, 4)), [], MatchConfig()).shape == (2, 0)


@pytest.mark.parametrize("n_labels", [1, 2, 4])
def test_match_cost_rejects_a_label_count_other_than_the_box_count(n_labels):
    """One label for three boxes would broadcast to all of them."""
    gt = np.tile([0.4, 0.4, 0.2, 0.2], (3, 1))
    with pytest.raises(ValueError, match=f"{n_labels} gt_labels for 3 gt_boxes"):
        match_cost_matrix(np.full((2, 4), 0.3), np.full((2, 3), 0.5), gt, np.zeros(n_labels, dtype=int), MatchConfig())


@pytest.mark.parametrize("boxes, probs", [((3, 4), (1, 2)), ((3, 4), (2, 2)), ((3, 3), (3, 3)), ((3, 4), (3,)),
                                          ((4,), (1, 2))],
                         ids=["one-prob-row", "prob-rows-differ", "3-coord-boxes", "1d-probs", "1d-boxes"])
def test_match_cost_rejects_predictions_of_mismatched_shapes(boxes, probs):
    """One row of probabilities for three boxes used to broadcast to all of
    them, and other mismatches raised numpy's message, naming no stage."""
    gt = np.array([[0.4, 0.4, 0.2, 0.2]])
    with pytest.raises(ValueError, match=re.escape(f"match_cost_matrix needs pred_boxes (n, 4) and pred_probs "
                                                   f"(n, n_classes); got {boxes} and {probs}")):
        match_cost_matrix(np.full(boxes, 0.3), np.full(probs, 0.5), gt, np.array([0]), MatchConfig())


@pytest.mark.parametrize("gt_shape", [(3, 8), (8,), (2, 2, 4), (2, 3), (4,), (2, 0), (0, 3), (0, 0)])
def test_match_cost_rejects_gt_boxes_that_are_not_n_by_4(gt_shape):
    """A (3, 8) GT array with 6 labels used to be read as 6 boxes and gave a
    (2, 6) matrix without an error; a flat (4,) box was read as one box, and
    a (2, 0) array as none."""
    gt = np.full(gt_shape, 0.4)
    labels = np.zeros(gt.size // 4, dtype=int)
    pred, probs = np.full((2, 4), 0.3), np.full((2, 3), 0.5)
    with pytest.raises(ValueError, match=re.escape(f"match_cost_matrix: boxes must be (n, 4) or (0,); "
                                                   f"got shape {gt_shape}")):
        match_cost_matrix(pred, probs, gt, labels, MatchConfig())
    assert match_cost_matrix(pred, probs, [[0.4, 0.4, 0.2, 0.2]], [1], MatchConfig()).shape == (2, 1)
    assert match_cost_matrix(pred, probs, np.zeros((0, 4)), [], MatchConfig()).shape == (2, 0)
    assert match_cost_matrix(pred, probs, [], [], MatchConfig()).shape == (2, 0)


def test_match_cost_with_no_predictions_has_no_rows():
    gt = np.array([[0.4, 0.4, 0.2, 0.2], [0.6, 0.6, 0.2, 0.2]])
    cost = match_cost_matrix(np.zeros((0, 4)), np.zeros((0, 3)), gt, np.array([0, 2]), MatchConfig())
    assert cost.shape == (0, 2)


def test_match_cost_with_no_gt_has_no_columns_and_no_pairs():
    """No-GT policy: the cost matrix is (n_pred, 0), so every prediction stays
    unmatched and takes the no-object loss."""
    cost = match_cost_matrix(np.full((3, 4), 0.3), np.full((3, 2), 0.5), np.zeros((0, 4)), np.zeros(0, dtype=int),
                             MatchConfig())
    assert cost.shape == (3, 0)
    assert hungarian(cost) == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_match_cost_non_finite_prediction_raises_with_stage_name(bad):
    """A NaN box, predicted or GT, used to pass through to ``hungarian``,
    whose error named the wrong stage."""
    pred = np.array([[0.5, 0.5, 0.2, 0.2], [0.3, 0.3, 0.1, 0.1]])
    probs = np.full((2, 3), 0.5)
    gt, labels = np.array([[0.4, 0.4, 0.2, 0.2], [0.6, 0.6, 0.2, 0.2]]), np.array([1, 2])
    with pytest.raises(FloatingPointError, match="match_cost_matrix"):
        match_cost_matrix(np.where(np.arange(4) == 2, bad, pred), probs, gt, labels, MatchConfig())
    with pytest.raises(FloatingPointError, match="match_cost_matrix"):
        match_cost_matrix(pred, np.where(np.arange(3) == 0, bad, probs), gt, labels, MatchConfig())
    gt[1, 0] = bad
    with pytest.raises(FloatingPointError, match="match_cost_matrix"):
        match_cost_matrix(pred, probs, gt, labels, MatchConfig())
