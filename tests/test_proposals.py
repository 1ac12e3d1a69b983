import math
import warnings

import numpy as np
import pytest

from casdet.geom import box_cxcywh_to_xyxy, box_xyxy_to_cxcywh, clamp_box_xyxy, iou_xyxy
from casdet.proposals import (
    EmulatorConfig,
    Proposal,
    emulate_proposals,
    load_proposals,
    proposal_recall,
    save_proposals,
)


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


def test_emulator_respects_target_count_and_may_return_no_proposals():
    """With neither hits nor distractors the scene gets no proposals, and the
    generator moves by one ``rng.random()`` per GT box and nothing more."""
    gts = np.tile([0.5, 0.5, 0.3, 0.3], (4, 1))
    cfg = EmulatorConfig(target_count=3, gt_hit_rate=1.0, jitter_sigma=0.0, distractor_count=4)
    assert len(emulate_proposals(gts, cfg, np.random.default_rng(3))) == 3
    none_cfg = EmulatorConfig(gt_hit_rate=0.0, jitter_sigma=0.0, distractor_count=0)
    rng, ref = np.random.default_rng(4), np.random.default_rng(4)
    assert emulate_proposals(gts, none_cfg, rng) == []
    for _ in gts:
        ref.random()
    assert rng.bit_generator.state == ref.bit_generator.state


def test_emulator_config_names_the_bound_it_breaks():
    EmulatorConfig(distractor_count=0)
    for bad in ({"target_count": 0}, {"distractor_count": -1}, {"jitter_sigma": -0.1},
                {"jitter_sigma": np.nan}, {"jitter_sigma": np.inf}):
        with pytest.raises(ValueError, match="target_count >= 1, distractor_count >= 0 and jitter_sigma >= 0"):
            EmulatorConfig(**bad)


@pytest.mark.parametrize("distractors", [6, 0])
def test_emulator_with_no_gt_draws_only_the_background(distractors):
    """No GT: one ``rng.random((distractor_count, 4))`` gives the distractors;
    with none, the scene gets no proposals and the generator does not move."""
    rng, ref = np.random.default_rng(7), np.random.default_rng(7)
    props = emulate_proposals(np.zeros((0, 4)), EmulatorConfig(distractor_count=distractors), rng)
    u = ref.random((distractors, 4))
    assert len(props) == len(u)
    np.testing.assert_array_equal(np.array([p.box[2:] for p in props]).reshape(-1, 2), 0.05 + (0.5 - 0.05) * u[:, :2])
    assert rng.bit_generator.state == ref.bit_generator.state
    assert (rng.bit_generator.state == np.random.default_rng(7).bit_generator.state) == (distractors == 0)


def test_recall_perfect_and_empty():
    gts = np.array([[0.4, 0.4, 0.2, 0.2], [0.7, 0.7, 0.2, 0.2]])
    props = [Proposal(b.copy()) for b in gts]
    assert proposal_recall(props, gts, 0.5) == 1.0
    assert proposal_recall([], gts, 0.5) == 0.0
    with warnings.catch_warnings():  # no GT: nan, with no warning, so a mean over scenes can skip the scene
        warnings.simplefilter("error")
        no_gt = [proposal_recall(props, np.zeros((0, 4)), 0.5), proposal_recall([], [], 0.5)]
    assert math.isnan(no_gt[0]) and math.isnan(no_gt[1])
    assert np.nanmean(no_gt + [1.0]) == 1.0


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
        5: [],  # no proposals: no line, so no key
    }
    path = tmp_path / "props.txt"
    save_proposals(path, by_scene)
    loaded, rejected = load_proposals(path)
    assert rejected == []
    assert set(loaded) == {0, 3}
    for sid in by_scene:
        assert len(loaded.get(sid, [])) == len(by_scene[sid])
        for a, b in zip(by_scene[sid], loaded.get(sid, [])):
            assert np.array_equal(a.box, b.box)
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


def _oracle_perturb(box, noise_level, rng):
    """The per-box jitter as it was before emulation was batched."""
    xyxy = box_cxcywh_to_xyxy(box)
    sx = noise_level * box[..., 2:3]
    sy = noise_level * box[..., 3:4]
    sigma = np.concatenate([sx, sy, sx, sy], axis=-1)
    noisy = xyxy + rng.standard_normal(xyxy.shape) * sigma
    return box_xyxy_to_cxcywh(clamp_box_xyxy(noisy))


def _oracle_random_box(rng):
    w, h = rng.uniform(0.05, 0.5, size=2)
    cx = rng.uniform(w / 2, 1 - w / 2)
    cy = rng.uniform(h / 2, 1 - h / 2)
    return np.array([cx, cy, w, h], dtype=np.float64)


def _oracle_emulate(gt_boxes, cfg, rng):
    """The per-box emulation loop as it was before it was batched."""
    props = []
    for box in np.asarray(gt_boxes, dtype=np.float64).reshape(-1, 4):
        if rng.random() < cfg.gt_hit_rate:
            props.append(_oracle_perturb(box, cfg.jitter_sigma, rng))
    for _ in range(cfg.distractor_count):
        props.append(_oracle_random_box(rng))
    return props[: cfg.target_count]


def test_emulator_matches_per_box_oracle_bitwise_and_leaves_rng_in_step():
    cases = np.random.default_rng(123)
    seen = {"no_proposals": 0, "cut_into_hits": 0, "no_distractors": 0, "sigma_0.3": 0}
    for seed in range(1200):
        n = int(cases.integers(1, 26))
        hit_rate = float(cases.choice([0.0, 0.5, 1.0, cases.random()]))
        distractors = int(cases.choice([0, int(cases.integers(1, 9))]))
        sigma = float(cases.choice([0.0, 0.3, 0.05]))
        target = int(cases.choice([180, int(cases.integers(1, n + 1))]))
        gts = np.stack([cases.random(n), cases.random(n), cases.uniform(0.01, 0.6, n), cases.uniform(0.01, 0.6, n)], -1)
        cfg = EmulatorConfig(target_count=target, gt_hit_rate=hit_rate, jitter_sigma=sigma,
                             distractor_count=distractors)
        rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
        got = emulate_proposals(gts, cfg, rng_new)
        want = _oracle_emulate(gts, cfg, rng_old)
        assert len(got) == len(want), seed
        for p, w in zip(got, want):
            assert p.box.shape == (4,) and p.score is None
            assert np.array_equal(p.box, w), seed
        assert rng_new.random() == rng_old.random(), seed
        seen["no_proposals"] += len(want) == 0
        seen["cut_into_hits"] += hit_rate == 1.0 and target < n
        seen["no_distractors"] += distractors == 0
        seen["sigma_0.3"] += sigma == 0.3
    assert all(v >= 20 for v in seen.values()), seen


def test_emulated_boxes_do_not_share_memory():
    gts = np.tile([0.5, 0.5, 0.3, 0.3], (5, 1))
    props = emulate_proposals(gts, EmulatorConfig(gt_hit_rate=1.0, distractor_count=3), np.random.default_rng(9))
    before = [p.box.copy() for p in props]
    props[2].box *= 2.0
    for i, (p, b) in enumerate(zip(props, before)):
        assert np.array_equal(p.box, b * 2.0 if i == 2 else b), i


def _load_text(tmp_path, text):
    path = tmp_path / "fixture.txt"
    path.write_bytes(text.encode("utf-8"))
    loaded, rejected = load_proposals(path)
    return {sid: [(p.box.tolist(), p.score) for p in props] for sid, props in loaded.items()}, rejected


A = ([0.5, 0.5, 0.2, 0.2], None)
B = ([0.4, 0.4, 0.1, 0.1], None)

# Malformed-fixture policy: text -> (scene -> [(box, score)], rejections). The
# expected values were read with the reader that came before the streamed one.
MALFORMED = {
    "blank lines": ("\n0 0.5 0.5 0.2 0.2\n\n", {0: [A]}, []),
    "whitespace-only lines": ("   \n\t\n0 0.5 0.5 0.2 0.2\n \t \n1 0.4 0.4 0.1 0.1\n", {0: [A], 1: [B]}, []),
    "indented comments": ("# header\n   # indented\n\t# tab\n0 0.5 0.5 0.2 0.2\n", {0: [A]}, []),
    "crlf": ("0 0.5 0.5 0.2 0.2\r\n1 0.4 0.4 -0.1 0.2\r\n2 0.3 0.3 0.1 0.1 0.9\r\n",
             {0: [A], 2: [([0.3, 0.3, 0.1, 0.1], 0.9)]}, ["line 2: invalid box [0.4, 0.4, -0.1, 0.2]"]),
    "no trailing newline": ("0 0.5 0.5 0.2 0.2\n1 0.4 0.4 0.1 0.1", {0: [A], 1: [B]}, []),
    "4 and 7 fields": ("0 0.5 0.5 0.2\n0 0.5 0.5 0.2 0.2 0.9 7\n0 0.5 0.5 0.2 0.2\n", {0: [A]},
                       ["line 1: expected 5 or 6 fields, got 4", "line 2: expected 5 or 6 fields, got 7"]),
    "scene id 1.5": ("1.5 0.5 0.5 0.2 0.2\n2 0.5 0.5 0.2 0.2\n", {2: [A]},
                     ["line 1: invalid literal for int() with base 10: '1.5'"]),
    "unparsable floats": ("0 0.5 abc 0.2 0.2\n0 0.5 0.5 0.2 0.2 x\n", {},
                          ["line 1: could not convert string to float: 'abc'",
                           "line 2: could not convert string to float: 'x'"]),
    "non-finite coordinates": ("0 nan 0.5 0.2 0.2\n0 0.5 inf 0.2 0.2\n0 0.5 0.5 -inf 0.2\n0 0.5 0.5 0.2 0.2\n"
                               "0 0.5 0.5 0.2 inf\n0 0.5 0.5 0.2 nan 0.5\n",
                               {0: [A]}, ["line 1: invalid box [nan, 0.5, 0.2, 0.2]",
                                          "line 2: invalid box [0.5, inf, 0.2, 0.2]",
                                          "line 3: invalid box [0.5, 0.5, -inf, 0.2]",
                                          "line 5: invalid box [0.5, 0.5, 0.2, inf]",
                                          "line 6: invalid box [0.5, 0.5, 0.2, nan]"]),
    "zero and negative sizes": ("0 0.5 0.5 0 0.2\n0 0.5 0.5 0.2 -0.0\n0 0.5 0.5 -0.3 0.2\n0 0.5 0.5 0.2 -1e-300\n",
                                {}, ["line 1: invalid box [0.5, 0.5, 0.0, 0.2]",
                                     "line 2: invalid box [0.5, 0.5, 0.2, -0.0]",
                                     "line 3: invalid box [0.5, 0.5, -0.3, 0.2]",
                                     "line 4: invalid box [0.5, 0.5, 0.2, -1e-300]"]),
    "mixed scores": ("0 0.5 0.5 0.2 0.2 0.9\n0 0.4 0.4 0.1 0.1\n1 0.3 0.3 0.1 0.1 0.25\n",
                     {0: [(A[0], 0.9), B], 1: [([0.3, 0.3, 0.1, 0.1], 0.25)]}, []),
    "repeated scene ids": ("3 0.5 0.5 0.2 0.2\n1 0.4 0.4 0.1 0.1\n3 0.3 0.3 0.1 0.1\n1 0.2 0.2 0.1 0.1 0.5\n",
                           {3: [A, ([0.3, 0.3, 0.1, 0.1], None)], 1: [B, ([0.2, 0.2, 0.1, 0.1], 0.5)]}, []),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_fixture_malformed_policy(tmp_path, case):
    text, scenes, rejections = MALFORMED[case]
    loaded, rejected = _load_text(tmp_path, text)
    assert rejected == rejections
    assert loaded == scenes
    assert list(loaded) == list(scenes)  # scenes keep the order of their first line
