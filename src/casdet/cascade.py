"""Layer-wise denoising curriculum: thresholds, weights, feature modulation.

Each decoder layer gets an IoU threshold that rises linearly with depth; a
denoising query's reconstruction quality relative to that threshold maps
through a sigmoid to a training weight, which scales the feature entering
the denoising prediction heads. Weights are constants of differentiation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import as_boxes, box_cxcywh_to_xyxy, iou_xyxy, require_integer
from .tensor import ShapeError, Tensor, np_sigmoid


@dataclass(frozen=True)
class CascadeConfig:
    """Threshold schedule and weighting temperature."""

    theta1: float = 0.3
    delta_theta: float = 0.6
    n_layers: int = 6
    tau: float = 0.1

    def __post_init__(self):
        if not (0.0 < self.theta1 < 1.0):
            raise ValueError("theta1 must be in (0, 1)")
        if not self.delta_theta >= 0:
            raise ValueError(f"delta_theta must be >= 0 so thresholds rise with depth, got {self.delta_theta}")
        if self.theta1 + self.delta_theta > 1.0 + 1e-12:
            raise ValueError("theta1 + delta_theta must not exceed 1")
        if not 0.0 < self.tau < np.inf:
            raise ValueError(f"tau must be finite and positive, got {self.tau}")
        require_integer("n_layers", self.n_layers)
        if self.n_layers < 1:
            raise ValueError("n_layers must be >= 1")


def threshold_schedule(cfg: CascadeConfig) -> np.ndarray:
    """Per-layer thresholds rising linearly from theta1 by delta_theta total."""
    return np.linspace(cfg.theta1, cfg.theta1 + cfg.delta_theta, cfg.n_layers)


def dn_weight(iou, theta_l: float, tau: float):
    """Sigmoid weighting of reconstruction quality against a threshold."""
    return np_sigmoid((np.asarray(iou, dtype=np.float64) - theta_l) / tau)


def layer_dn_weights(dn_pred_boxes: np.ndarray, gt_boxes: np.ndarray, theta_l: float, tau: float) -> np.ndarray:
    """Weights for grouped denoising predictions at one layer.

    ``dn_pred_boxes`` is (..., n_gt, 4) center/size; query j pairs with GT j
    (identity correspondence, no matching). Returns weights of shape (...,
    n_gt), empty for no GT. Predictions of any other shape raise
    ``ValueError``; ``gt_boxes`` is ``(n_gt, 4)`` or ``(0,)``, and any other
    shape raises ``ValueError`` too. Non-finite boxes raise
    ``FloatingPointError``; a non-finite ``theta_l``, or a ``tau`` that is not
    finite and positive, raises ``ValueError``.
    """
    if not (np.isfinite(theta_l) and 0.0 < tau < np.inf):
        raise ValueError(f"layer_dn_weights: need finite theta_l and finite tau > 0, got {theta_l}, {tau}")
    dn_pred_boxes = np.asarray(dn_pred_boxes, dtype=np.float64)
    if dn_pred_boxes.ndim < 2 or dn_pred_boxes.shape[-1] != 4:
        raise ValueError(f"layer_dn_weights: predictions must be (..., n_gt, 4); got shape {dn_pred_boxes.shape}")
    gt_boxes = as_boxes(gt_boxes, "layer_dn_weights")
    if not (np.isfinite(dn_pred_boxes).all() and np.isfinite(gt_boxes).all()):
        raise FloatingPointError("layer_dn_weights: the predicted or GT boxes hold NaN or inf")
    if dn_pred_boxes.shape[-2] != gt_boxes.shape[0]:
        raise ValueError(
            f"prediction count {dn_pred_boxes.shape[-2]} does not match GT count {gt_boxes.shape[0]}"
        )
    ious = iou_xyxy(box_cxcywh_to_xyxy(dn_pred_boxes), box_cxcywh_to_xyxy(gt_boxes))
    return dn_weight(ious, theta_l, tau)


def modulate(feature: Tensor, omega) -> Tensor:
    """Scale features by omega, one weight per query (shape ``feature.shape[:-1]``)
    or a scalar; omega is detached from the graph. An omega of any other
    shape, even one that would broadcast, raises ShapeError. Omega is a
    sigmoid weight, so a value outside [0, 1], NaN included, raises
    ValueError.
    """
    omega = np.asarray(omega, dtype=np.float64)
    if omega.shape not in ((), feature.shape[:-1]):
        raise ShapeError(f"modulate: omega must be () or {feature.shape[:-1]}; got shape {omega.shape}")
    outside = ~((omega >= 0.0) & (omega <= 1.0))  # NaN fails both comparisons
    if outside.any():
        raise ValueError(f"modulate: omega must lie in [0, 1]; got {omega[outside][:3].tolist()}")
    return feature * Tensor(omega[..., None])
