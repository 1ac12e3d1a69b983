import numpy as np
import pytest

from casdet.geom import box_cxcywh_to_xyxy, iou_xyxy
from casdet.proposals import (
    EmptyMaskError,
    EmulatorConfig,
    Proposal,
    emulate_proposals,
    load_proposals,
    mask_to_bbox,
    proposal_recall,
    save_proposals,
)


def test_mask_to_bbox_full_coverage():
    np.testing.assert_allclose(mask_to_bbox(np.ones((6, 9), dtype=bool)), [0, 0, 1, 1])


def test_mask_to_bbox_single_pixel():
    m = np.zeros((10, 10), dtype=bool)
    m[3, 7] = True
    np.testing.assert_allclose(mask_to_bbox(m), [0.7, 0.3, 0.8, 0.4])


def test_mask_to_bbox_l_shape():
    m = np.zeros((10, 10), dtype=bool)
    m[2:8, 1] = True
    m[7, 1:6] = True
    np.testing.assert_allclose(mask_to_bbox(m), [0.1, 0.2, 0.6, 0.8])


def test_mask_to_bbox_exhaustive_scan_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = rng.random((12, 15)) > 0.8
        if not m.any():
            m[rng.integers(12), rng.integers(15)] = True
        box = mask_to_bbox(m)
        h, w = m.shape
        for r in range(h):
            for c in range(w):
                if m[r, c]:
                    assert box[0] <= c / w and (c + 1) / w <= box[2]
                    assert box[1] <= r / h and (r + 1) / h <= box[3]


def test_mask_to_bbox_empty_raises():
    with pytest.raises(EmptyMaskError):
        mask_to_bbox(np.zeros((4, 4), dtype=bool))


def test_emulator_degenerate_returns_gt():
    gts = np.array([[0.3, 0.3, 0.2, 0.2], [0.7, 0.6, 0.25, 0.3]])
    cfg = EmulatorConfig(gt_hit_rate=1.0, jitter_sigma=0.0, distractor_count=0)
    props = emulate_proposals(gts, cfg, np.random.default_rng(0))
    assert len(props) == 2
    np.testing.assert_allclose(np.stack([p.box for p in props]), gts)


def test_emulator_recall_monte_carlo():
    rng = np.random.default_rng(1)
    cfg = EmulatorConfig(gt_hit_rate=0.95, jitter_sigma=0.05, distractor_count=6)
    recalls = []
    for _ in range(100):
        n = rng.integers(1, 5)
        gts = np.stack(
            [rng.uniform(0.3, 0.7, n), rng.uniform(0.3, 0.7, n), rng.uniform(0.15, 0.4, n), rng.uniform(0.15, 0.4, n)],
            axis=-1,
        )
        props = emulate_proposals(gts, cfg, rng)
        recalls.append(proposal_recall(props, gts, 0.5))
    assert np.mean(recalls) >= 0.9


def test_emulator_mean_count():
    rng = np.random.default_rng(2)
    gts = np.tile([0.5, 0.5, 0.3, 0.3], (3, 1))
    cfg = EmulatorConfig(gt_hit_rate=0.8, jitter_sigma=0.02, distractor_count=5)
    counts = [len(emulate_proposals(gts, cfg, rng)) for _ in range(2000)]
    expected = 3 * 0.8 + 5
    assert abs(np.mean(counts) - expected) / expected < 0.1


def test_emulator_respects_target_count_and_floor():
    gts = np.tile([0.5, 0.5, 0.3, 0.3], (4, 1))
    cfg = EmulatorConfig(target_count=3, gt_hit_rate=1.0, jitter_sigma=0.0, distractor_count=4)
    assert len(emulate_proposals(gts, cfg, np.random.default_rng(3))) == 3
    none_cfg = EmulatorConfig(gt_hit_rate=0.0, jitter_sigma=0.0, distractor_count=0)
    assert len(emulate_proposals(gts, none_cfg, np.random.default_rng(4))) == 1


def test_recall_perfect_and_empty():
    gts = np.array([[0.4, 0.4, 0.2, 0.2], [0.7, 0.7, 0.2, 0.2]])
    props = [Proposal(b.copy()) for b in gts]
    assert proposal_recall(props, gts, 0.5) == 1.0
    assert proposal_recall([], gts, 0.5) == 0.0


def test_recall_partial_coverage():
    # one GT covered at IoU 0.6, the other at 0.4
    g1 = np.array([0.3, 0.3, 0.2, 0.2])
    g2 = np.array([0.7, 0.7, 0.2, 0.2])

    def box_at_iou(gt, target):
        # shrink width until IoU hits the target (nested boxes: IoU = w'/w)
        out = gt.copy()
        out[2] = gt[2] * target
        return out

    props = [Proposal(box_at_iou(g1, 0.6)), Proposal(box_at_iou(g2, 0.4))]
    assert iou_xyxy(box_cxcywh_to_xyxy(props[0].box), box_cxcywh_to_xyxy(g1)) == pytest.approx(0.6)
    assert proposal_recall(props, np.stack([g1, g2]), 0.5) == 0.5


def test_recall_monotone_in_threshold():
    rng = np.random.default_rng(5)
    gts = np.stack([rng.uniform(0.3, 0.7, 4), rng.uniform(0.3, 0.7, 4), rng.uniform(0.1, 0.3, 4), rng.uniform(0.1, 0.3, 4)], axis=-1)
    props = emulate_proposals(gts, EmulatorConfig(jitter_sigma=0.1), rng)
    rec = [proposal_recall(props, gts, t) for t in (0.3, 0.5, 0.7, 0.9)]
    assert all(a >= b for a, b in zip(rec, rec[1:]))


def test_fixture_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    by_scene = {
        0: [Proposal(rng.uniform(0.2, 0.4, 4), score=0.5), Proposal(rng.uniform(0.2, 0.4, 4))],
        3: [Proposal(rng.uniform(0.2, 0.4, 4), score=1.0)],
    }
    path = tmp_path / "props.txt"
    save_proposals(path, by_scene)
    loaded, rejected = load_proposals(path)
    assert rejected == []
    assert set(loaded) == {0, 3}
    for sid in by_scene:
        for a, b in zip(by_scene[sid], loaded[sid]):
            np.testing.assert_allclose(a.box, b.box, atol=1e-9)
            assert a.score == b.score


def test_fixture_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    loaded, rejected = load_proposals(path)
    assert loaded == {} and rejected == []


def test_fixture_malformed_line_reported(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 0.5 0.5 0.2 0.2\nnot a record\n1 0.4 0.4 -0.1 0.2\n2 0.3 0.3 0.1 0.1 0.9\n")
    loaded, rejected = load_proposals(path)
    assert len(rejected) == 2
    assert "line 2" in rejected[0] and "line 3" in rejected[1]
    assert set(loaded) == {0, 2}
