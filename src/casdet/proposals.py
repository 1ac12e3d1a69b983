"""Region proposal sources and utilities.

A real segmenter is emulated statistically: ground-truth boxes get jittered
copies with a configurable hit rate, plus background distractors. Externally
produced proposals can be loaded from a line-delimited fixture file instead,
keeping a path to plugging in real mask-derived boxes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import box_cxcywh_to_xyxy, iou_matrix, perturb_box


@dataclass
class Proposal:
    box: np.ndarray  # (4,) cxcywh, normalized
    score: float | None = None


@dataclass(frozen=True)
class EmulatorConfig:
    """Statistical knobs of the proposal emulator.

    ``target_count`` caps proposals per scene; ``gt_hit_rate`` is the chance a
    ground-truth object receives a jittered high-IoU proposal; ``jitter_sigma``
    is the relative corner jitter of those hits; ``distractor_count`` adds
    background boxes.
    """

    target_count: int = 180
    gt_hit_rate: float = 0.95
    jitter_sigma: float = 0.05
    distractor_count: int = 6

    def __post_init__(self):
        if not (0.0 <= self.gt_hit_rate <= 1.0):
            raise ValueError("gt_hit_rate must be in [0, 1]")
        if self.target_count < 1 or self.distractor_count < 0 or self.jitter_sigma < 0:
            raise ValueError("counts must be positive and jitter_sigma >= 0")


class EmptyMaskError(ValueError):
    """A segmentation mask with no set bits cannot yield a box."""


def mask_to_bbox(bits: np.ndarray) -> np.ndarray:
    """Tightest corner box around the set bits of an occupancy grid.

    Coordinates are normalized by the grid dimensions; a pixel at (r, c)
    occupies [c/W, (c+1)/W) x [r/H, (r+1)/H).
    """
    bits = np.asarray(bits, dtype=bool)
    if bits.ndim != 2:
        raise ValueError(f"mask must be 2-d, got shape {bits.shape}")
    rows = np.flatnonzero(bits.any(axis=1))
    cols = np.flatnonzero(bits.any(axis=0))
    if rows.size == 0:
        raise EmptyMaskError("mask has no set bits")
    h, w = bits.shape
    return np.array([cols[0] / w, rows[0] / h, (cols[-1] + 1) / w, (rows[-1] + 1) / h], dtype=np.float64)


def _random_box(rng: np.random.Generator) -> np.ndarray:
    w, h = rng.uniform(0.05, 0.5, size=2)
    cx = rng.uniform(w / 2, 1 - w / 2)
    cy = rng.uniform(h / 2, 1 - h / 2)
    return np.array([cx, cy, w, h], dtype=np.float64)


def emulate_proposals(gt_boxes: np.ndarray, cfg: EmulatorConfig, rng: np.random.Generator) -> list[Proposal]:
    """Emulated segmenter output for one scene.

    Each GT box yields a jittered copy with probability ``gt_hit_rate``
    (corner jitter N(0, jitter_sigma * side)), then ``distractor_count``
    random background boxes are appended. At least one proposal is always
    returned and the total never exceeds ``target_count``.
    """
    gt_boxes = np.asarray(gt_boxes, dtype=np.float64).reshape(-1, 4)
    if gt_boxes.shape[0] == 0:
        raise ValueError("scene must have at least one GT box")
    props: list[Proposal] = []
    for box in gt_boxes:
        if rng.random() < cfg.gt_hit_rate:
            props.append(Proposal(perturb_box(box, cfg.jitter_sigma, rng)))
    for _ in range(cfg.distractor_count):
        props.append(Proposal(_random_box(rng)))
    if not props:
        props.append(Proposal(_random_box(rng)))
    return props[: cfg.target_count]


def proposal_recall(props: list[Proposal], gts: np.ndarray, iou_thr: float) -> float:
    """Fraction of GT boxes covered by some proposal at IoU >= iou_thr."""
    gts = np.asarray(gts, dtype=np.float64).reshape(-1, 4)
    if gts.shape[0] == 0:
        raise ValueError("gts must be nonempty")
    if not props:
        return 0.0
    pb = box_cxcywh_to_xyxy(np.stack([p.box for p in props]))
    gb = box_cxcywh_to_xyxy(gts)
    best = iou_matrix(pb, gb).max(axis=0)
    return float((best >= iou_thr).mean())


def save_proposals(path, by_scene: dict[int, list[Proposal]]) -> None:
    """Write a proposal fixture: one line per proposal.

    Field order: scene_id cx cy w h [score], whitespace separated. Lines
    starting with '#' are comments.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# scene_id cx cy w h [score]\n")
        for scene_id in sorted(by_scene):
            for p in by_scene[scene_id]:
                cx, cy, w, h = (float(v) for v in p.box)
                line = f"{scene_id} {cx!r} {cy!r} {w!r} {h!r}"
                if p.score is not None:
                    line += f" {float(p.score)!r}"
                fh.write(line + "\n")


def load_proposals(path) -> tuple[dict[int, list[Proposal]], list[str]]:
    """Read a proposal fixture, validating each record.

    Returns (scene_id -> proposals, rejection messages). Malformed lines and
    invalid boxes are rejected with their line number instead of aborting the
    load; only I/O failures raise.
    """
    by_scene: dict[int, list[Proposal]] = {}
    rejected: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (5, 6):
                rejected.append(f"line {lineno}: expected 5 or 6 fields, got {len(parts)}")
                continue
            try:
                scene_id = int(parts[0])
                vals = [float(v) for v in parts[1:5]]
                score = float(parts[5]) if len(parts) == 6 else None
            except ValueError as exc:
                rejected.append(f"line {lineno}: {exc}")
                continue
            box = np.array(vals, dtype=np.float64)
            if not np.all(np.isfinite(box)) or box[2] <= 0 or box[3] <= 0:
                rejected.append(f"line {lineno}: invalid box {vals}")
                continue
            by_scene.setdefault(scene_id, []).append(Proposal(box, score=score))
    return by_scene, rejected
