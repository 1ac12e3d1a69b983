"""Assembly of the two decoder query branches and their isolation mask.

Matching queries take proposal boxes as anchors and region features as
content; denoising queries take noised ground-truth boxes per group. Either
branch may have no rows (no proposals, no GT) and the step runs the same. The
isolation mask is block diagonal: matching queries see only each other, each
denoising group sees only itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import neck, roi_pool_batch
from .geom import as_boxes, box_cxcywh_to_xyxy, box_xyxy_to_cxcywh, clamp_box_xyxy, require_integer
from .proposals import Proposal
from .tensor import Tensor


@dataclass(frozen=True)
class DnConfig:
    """Denoising branch shape: group count and box noise scale."""

    groups: int = 5
    box_noise: float = 0.4

    def __post_init__(self):
        require_integer("groups", self.groups)
        if self.groups < 1:
            raise ValueError("groups must be >= 1")
        if not 0.0 <= self.box_noise < np.inf:
            raise ValueError(f"box_noise must be finite and >= 0, got {self.box_noise}")


def attention_mask(n_match: int, group_sizes: list[int]) -> np.ndarray:
    """Visibility over ``n_match`` matching queries followed by each DN group.

    Group 0 is the matching queries and group k the k-th DN group; query i
    may attend to query j (True) exactly when both are in the same group. With
    no DN groups this is all-visible. Each count must be an integer (a bool or
    a float is refused) and >= 0, else ValueError.
    """
    for count in (n_match, *group_sizes):
        require_integer("attention_mask: counts", count)
    if n_match < 0 or any(g < 0 for g in group_sizes):
        raise ValueError("counts must be >= 0")
    ids = np.arange(len(group_sizes) + 1, dtype=np.min_scalar_type(len(group_sizes)))  # narrow ids compare faster
    group = np.repeat(ids, [n_match, *group_sizes])
    return group[:, None] == group[None, :]


def init_matching_queries(props: list[Proposal], grid: Tensor, params: dict) -> tuple[np.ndarray, Tensor]:
    """Anchors from proposal boxes, contents from their pooled region features.

    Zero proposals give ``(0, 4)`` anchors and ``(0, d)`` contents: the scene
    has no matching rows and so no detections, and its GT boxes count toward
    recall as missed. A proposal box that is not ``(4,)`` raises ``ValueError``.
    """
    anchors = as_boxes(np.array([p.box for p in props], dtype=np.float64), "init_matching_queries")
    contents = neck(roi_pool_batch(grid, anchors, params["neck.1.w"], params["neck.1.b"]), params)
    return anchors, contents


def make_dn_queries(
    gt_boxes: np.ndarray,
    cfg: DnConfig,
    grid: Tensor,
    params: dict,
    rng: np.random.Generator,
) -> tuple[np.ndarray, Tensor]:
    """Noised copies of the GT boxes, one per group, with pooled contents.

    Noise model: centers shift by uniform +-box_noise * (w, h) / 2 and sides
    scale by a uniform factor in [1 - box_noise, 1 + box_noise]; results are
    clamped to valid boxes. Contents are pooled from the noisy boxes.
    Query j of every group corresponds to GT j. With no GT the branch is
    empty: ``(groups, 0, 4)`` anchors and ``(groups, 0, d)`` contents.
    ``gt_boxes`` is (n, 4) or (0,); any other shape raises ``ValueError``.
    """
    gt_boxes = as_boxes(gt_boxes, "make_dn_queries")
    n = gt_boxes.shape[0]
    lam = cfg.box_noise
    g = cfg.groups
    shift = rng.uniform(-lam, lam, size=(g, n, 2)) * gt_boxes[None, :, 2:] / 2.0
    scale = rng.uniform(1.0 - lam, 1.0 + lam, size=(g, n, 2))
    noisy = np.empty((g, n, 4), dtype=np.float64)
    noisy[..., :2] = gt_boxes[None, :, :2] + shift
    noisy[..., 2:] = gt_boxes[None, :, 2:] * scale
    noisy = box_xyxy_to_cxcywh(clamp_box_xyxy(box_cxcywh_to_xyxy(noisy)))
    contents = neck(roi_pool_batch(grid, noisy.reshape(g * n, 4), params["neck.1.w"], params["neck.1.b"]), params)
    return noisy, contents.reshape(g, n, contents.shape[-1])
