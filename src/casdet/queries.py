"""Assembly of the two decoder query branches and their isolation mask.

Matching queries take proposal boxes as anchors and region features as
content; denoising queries take noised ground-truth boxes per group. The
isolation mask is block diagonal: matching queries see only each other, each
denoising group sees only itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import neck, roi_pool_batch
from .geom import box_cxcywh_to_xyxy, box_xyxy_to_cxcywh, clamp_box_xyxy
from .proposals import Proposal
from .tensor import Tensor


@dataclass(frozen=True)
class DnConfig:
    """Denoising branch shape: group count and box noise scale."""

    groups: int = 5
    box_noise: float = 0.4

    def __post_init__(self):
        if self.groups < 1:
            raise ValueError("groups must be >= 1")
        if self.box_noise < 0:
            raise ValueError("box_noise must be >= 0")


class EmptyProposalsError(ValueError):
    """No proposals were supplied to initialize matching queries."""


def attention_mask(n_match: int, group_sizes: list[int]) -> np.ndarray:
    """Block-diagonal visibility over {matching} followed by each DN group.

    True means "may attend". With no groups this is all-visible.
    """
    if n_match < 0 or any(g < 0 for g in group_sizes):
        raise ValueError("counts must be >= 0")
    n = n_match + sum(group_sizes)
    mask = np.zeros((n, n), dtype=bool)
    mask[:n_match, :n_match] = True
    start = n_match
    for g in group_sizes:
        mask[start : start + g, start : start + g] = True
        start += g
    return mask


def init_matching_queries(props: list[Proposal], grid: Tensor, params: dict) -> tuple[np.ndarray, Tensor]:
    """Anchors from proposal boxes, contents from their pooled region features.

    Zero proposals raise ``EmptyProposalsError``: with no matching rows,
    attention at inference would reach an empty logit block.
    """
    if not props:
        raise EmptyProposalsError("cannot initialize matching queries from zero proposals")
    anchors = np.stack([p.box for p in props]).astype(np.float64)
    contents = neck(roi_pool_batch(grid, anchors), params)
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
    """
    gt_boxes = np.asarray(gt_boxes, dtype=np.float64).reshape(-1, 4)
    n = gt_boxes.shape[0]
    lam = cfg.box_noise
    g = cfg.groups
    shift = rng.uniform(-lam, lam, size=(g, n, 2)) * gt_boxes[None, :, 2:] / 2.0
    scale = rng.uniform(1.0 - lam, 1.0 + lam, size=(g, n, 2))
    noisy = np.empty((g, n, 4), dtype=np.float64)
    noisy[..., :2] = gt_boxes[None, :, :2] + shift
    noisy[..., 2:] = gt_boxes[None, :, 2:] * scale
    noisy = box_xyxy_to_cxcywh(clamp_box_xyxy(box_cxcywh_to_xyxy(noisy)))
    contents = neck(roi_pool_batch(grid, noisy.reshape(g * n, 4)), params)
    return noisy, contents.reshape(g, n, contents.shape[-1])
