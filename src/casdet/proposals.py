"""Region proposal sources and utilities.

A real segmenter is emulated statistically: ground-truth boxes get jittered
copies with a configurable hit rate, plus background distractors. Externally
produced proposals can be loaded from a line-delimited fixture file instead.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .geom import as_boxes, box_cxcywh_to_xyxy, iou_xyxy, jitter_box, require_integer


@dataclass(slots=True)  # no per-instance __dict__: a fixture holds thousands of these
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
        require_integer("target_count", self.target_count)
        require_integer("distractor_count", self.distractor_count)
        if not (self.target_count >= 1 and self.distractor_count >= 0 and 0.0 <= self.jitter_sigma < math.inf):
            raise ValueError("need target_count >= 1, distractor_count >= 0 and jitter_sigma >= 0 and finite")


def _random_boxes(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 4) background boxes from one ``rng.random((n, 4))``.

    Row k is bitwise what four ``uniform`` calls per box would give, in this
    order: w, h ~ U(0.05, 0.5) (one call, size 2), cx ~ U(w/2, 1 - w/2),
    cy ~ U(h/2, 1 - h/2). Each value is numpy's ``low + (high - low) * u``.
    """
    u = rng.random((n, 4))
    wh = 0.05 + (0.5 - 0.05) * u[:, :2]
    half = wh / 2
    centers = half + ((1 - half) - half) * u[:, 2:]
    return np.concatenate([centers, wh], axis=1)


def emulate_proposals(gt_boxes: np.ndarray, cfg: EmulatorConfig, rng: np.random.Generator) -> list[Proposal]:
    """Emulated segmenter output for one scene.

    Each GT box yields a jittered copy with probability ``gt_hit_rate``
    (corner jitter N(0, jitter_sigma * side)), then ``distractor_count``
    random background boxes are appended, ``target_count`` at most. With
    neither hits nor distractors the scene gets no proposals. ``gt_boxes`` is
    (n, 4) or (0,); any other shape raises ``ValueError``.

    Random-stream contract: for each GT box in order, one ``rng.random()``
    and, on a hit, one ``rng.standard_normal(4)``; then one
    ``rng.random((distractor_count, 4))`` (see ``_random_boxes``), which
    draws nothing when the count is 0. Distractors are drawn even when
    ``target_count`` cuts them off, so the generator's next state depends
    only on the GT count, the hits and ``distractor_count``.
    """
    gt_boxes = as_boxes(gt_boxes, "emulate_proposals")
    hit: list[bool] = []
    noise: list[np.ndarray] = []
    for _ in range(gt_boxes.shape[0]):
        hit.append(rng.random() < cfg.gt_hit_rate)
        if hit[-1]:
            noise.append(rng.standard_normal(4))
    boxes = jitter_box(gt_boxes[hit], np.array(noise).reshape(-1, 4), cfg.jitter_sigma)
    boxes = np.concatenate([boxes, _random_boxes(rng, cfg.distractor_count)])[: cfg.target_count]
    return [Proposal(box) for box in boxes]


def proposal_recall(props: list[Proposal], gts: np.ndarray, iou_thr: float) -> float:
    """Fraction of GT boxes covered by some proposal at IoU >= iou_thr; with no proposals each best IoU is 0.
    A scene with no GT boxes gives ``nan``, without a warning, so that a mean over scenes can skip it.
    ``gts`` is (n, 4) or (0,), and each proposal's box (4,); any other shape raises ``ValueError``, as does
    an ``iou_thr`` that is NaN or outside (0, 1] (at 0 even no proposal would cover every GT box)."""
    if not 0.0 < iou_thr <= 1.0:
        raise ValueError(f"proposal_recall: iou_thr must be in (0, 1], got {iou_thr!r}")
    gts = as_boxes(gts, "proposal_recall")
    if gts.shape[0] == 0:
        return math.nan
    pb = box_cxcywh_to_xyxy(as_boxes(np.array([p.box for p in props], dtype=np.float64), "proposal_recall"))
    gb = box_cxcywh_to_xyxy(gts)
    best = iou_xyxy(pb[:, None], gb[None]).max(axis=0, initial=0.0)
    return float((best >= iou_thr).mean())


def save_proposals(path, by_scene: dict[int, list[Proposal]]) -> None:
    """Write a proposal fixture: one line per proposal, scenes in sorted order.

    Each line is ``scene_id cx cy w h [score]``, single-space separated,
    with every float written as its ``repr`` so that ``load_proposals``
    reads it back bitwise. The first line is a ``#`` comment naming the
    fields. A scene with zero proposals writes no line, so it is absent from
    what ``load_proposals`` returns. A scene id that is not an integer (a bool
    or a float is refused), or a box that is not ``(4,)`` or that the reader
    would reject, raises ``ValueError`` naming its scene, before the file is
    opened.
    """
    for scene_id in by_scene:
        require_integer("save_proposals: scene id", scene_id)
    boxes = {}
    for scene_id in sorted(by_scene):
        b = as_boxes(np.array([p.box for p in by_scene[scene_id]], dtype=np.float64), f"save_proposals, scene {scene_id}")
        if not (np.isfinite(b).all() and (b[:, 2:] > 0).all()):
            raise ValueError(f"save_proposals, scene {scene_id}: a box has a non-finite coordinate or w or h <= 0")
        boxes[scene_id] = b.tolist()

    def lines():
        yield "# scene_id cx cy w h [score]\n"
        for scene_id, rows in boxes.items():
            for p, (cx, cy, w, h) in zip(by_scene[scene_id], rows):
                score = "" if p.score is None else f" {float(p.score)!r}"
                yield f"{scene_id} {cx!r} {cy!r} {w!r} {h!r}{score}\n"

    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines())


def load_proposals(path) -> tuple[dict[int, list[Proposal]], list[str]]:
    """Read a proposal fixture, validating each record.

    Returns (scene_id -> proposals, rejection messages). Scenes keep the
    order of their first line and proposals the order of their lines; a
    scene id may appear on lines that are not adjacent. A scene with zero
    proposals has no line and so no key: look it up with ``.get(scene_id, [])``.

    Grammar, per line after stripping surrounding whitespace (the file is
    read in text mode as ``utf-8-sig``, so CRLF endings, a missing final
    newline and a leading UTF-8 byte-order mark are accepted): an empty line
    or one starting with ``#`` is skipped; any other line is 5 or 6
    whitespace-separated fields ``scene_id cx cy w h [score]``, where
    ``scene_id`` parses with ``int`` and the rest with ``float``. Lines with
    and without a score may be mixed.

    Rejection policy: a bad line is skipped and reported as ``line N: ...``
    (N counts from 1 over every line, skipped ones included) instead of
    aborting the load. The message is ``expected 5 or 6 fields, got K``, the
    ``ValueError`` text of the first field that fails to parse (scene id
    first, e.g. ``1.5``), or ``invalid box [cx, cy, w, h]`` when a coordinate
    is not finite or w or h is not positive. The score is not checked. Only
    I/O failures raise.
    """
    parsed: dict[int, tuple[array, list[float | None]]] = {}  # scene_id -> (flat cx cy w h, scores)
    rejected: list[str] = []
    with open(path, "r", encoding="utf-8-sig") as fh:
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
            if not all(map(math.isfinite, vals)) or vals[2] <= 0 or vals[3] <= 0:
                rejected.append(f"line {lineno}: invalid box {vals}")
                continue
            if scene_id not in parsed:
                parsed[scene_id] = (array("d"), [])
            coords, scores = parsed[scene_id]
            coords.extend(vals)
            scores.append(score)
    return {scene_id: [Proposal(box, score=score) for box, score in zip(np.frombuffer(coords).reshape(-1, 4), scores)]
            for scene_id, (coords, scores) in parsed.items()}, rejected
