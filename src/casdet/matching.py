"""One-to-one assignment between predictions and ground truth.

The classification part of the cost is modulated by localization quality so
that matching prefers better-localized predictions; box terms are plain L1
and GIoU complements. The assignment itself is a linear sum assignment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import box_cxcywh_to_xyxy, giou_xyxy

PROB_EPS = 1e-7


@dataclass(frozen=True)
class MatchConfig:
    """Cost coefficients (classification, L1, GIoU), coupling and focal power."""

    c_cls: float = 2.0
    c_l1: float = 5.0
    c_giou: float = 2.0
    beta: float = 0.5
    gamma: float = 2.0


def hungarian(cost: np.ndarray) -> list[tuple[int, int]]:
    """Minimum-cost one-to-one assignment on a rectangular cost matrix.

    Returns (row, col) pairs sorted by row; with fewer rows than columns some
    columns stay unmatched and vice versa. An empty matrix yields no pairs.
    NaN or inf in the cost raise ``ValueError``.

    This is the shortest-augmenting-path method (Crouse, 2016) with the
    column order and tie rules of ``scipy.optimize.linear_sum_assignment``,
    so it returns the same pairs, ties included. Each augmentation scans the
    unvisited columns as one vector; among equally short paths, a free
    column wins. It is written in numpy so that importing casdet does not
    load ``scipy.optimize``: its tens of thousands of live objects would be
    walked again by every full garbage collection of a training loop.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if not np.isfinite(cost).all():
        raise ValueError("hungarian: the cost matrix holds NaN or inf")
    transpose = cost.shape[0] > cost.shape[1]
    if transpose:
        cost = cost.T
    nr, nc = cost.shape
    u, v = np.zeros(nr), np.zeros(nc)  # dual potentials of rows and columns
    col4row, row4col, path = np.full(nr, -1), np.full(nc, -1), np.full(nc, -1)
    for cur in range(nr):
        shortest = np.full(nc, np.inf)
        remaining = np.arange(nc - 1, -1, -1)  # unvisited columns first, visited ones moved past k
        k, i, sink, min_val, visited_rows = nc, cur, -1, 0.0, []
        while sink == -1:
            js = remaining[:k]
            r = min_val + cost[i, js] - u[i] - v[js]
            short = shortest[js]
            better = r < short
            path[js[better]] = i
            shortest[js] = short = np.where(better, r, short)
            min_val = short.min()
            ties = short == min_val
            free = ties & (row4col[js] == -1)
            index = np.flatnonzero(free)[-1] if free.any() else int(ties.argmax())
            j = remaining[index]
            remaining[index], remaining[k - 1] = remaining[k - 1], j
            k -= 1
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
                visited_rows.append(i)
        u[cur] += min_val
        rows, cols = np.array(visited_rows, dtype=np.intp), remaining[k:]
        u[rows] += min_val - shortest[col4row[rows]]
        v[cols] -= min_val - shortest[cols]
        j = sink
        while True:  # flip the matching along the path back to the current row
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    pairs = zip(col4row.tolist(), range(nr)) if transpose else zip(range(nr), col4row.tolist())
    return sorted(pairs)


def stable_cls_cost(p, s_prime, gamma: float = 2.0, beta: float = 0.5) -> np.ndarray:
    """Localization-modulated classification cost, lower is better.

    ``p`` is the predicted probability of the candidate class, ``s_prime`` a
    rescaled localization score in [0, 1]; the effective confidence is
    q = p * s_prime**beta, clamped away from {0, 1}, and the cost is
    |1-q|^gamma * BCE(q, 1) - q^gamma * BCE(1-q, 1), strictly decreasing in q.
    """
    p = np.asarray(p, dtype=np.float64)
    s_prime = np.clip(np.asarray(s_prime, dtype=np.float64), 0.0, 1.0)
    q = np.clip(p * s_prime**beta, PROB_EPS, 1.0 - PROB_EPS)
    return (1.0 - q) ** gamma * (-np.log(q)) - q**gamma * (-np.log(1.0 - q))


def match_cost_matrix(
    pred_boxes: np.ndarray,
    pred_probs: np.ndarray,
    gt_boxes: np.ndarray,
    gt_labels: np.ndarray,
    cfg: MatchConfig,
) -> np.ndarray:
    """Pairwise matching cost: (n_pred, n_gt).

    Boxes are center/size; ``pred_probs`` is (n_pred, n_classes) of per-class
    probabilities. The localization score feeding the classification term is
    GIoU rescaled to [0, 1]. With no GT the matrix is ``(n_pred, 0)``. A label
    count other than the GT box count, or a label outside ``[0, n_classes)``,
    raises ``ValueError``; non-finite predictions raise ``FloatingPointError``.
    """
    pred_boxes = np.asarray(pred_boxes, dtype=np.float64)
    pred_probs = np.asarray(pred_probs, dtype=np.float64)
    gt_boxes = np.asarray(gt_boxes, dtype=np.float64).reshape(-1, 4)
    gt_labels = np.asarray(gt_labels, dtype=np.int64).reshape(-1)
    if not (np.isfinite(pred_boxes).all() and np.isfinite(pred_probs).all()):
        raise FloatingPointError("match_cost_matrix: the predicted boxes or probabilities hold NaN or inf")
    if gt_labels.shape[0] != gt_boxes.shape[0]:
        raise ValueError(f"{gt_labels.shape[0]} gt_labels for {gt_boxes.shape[0]} gt_boxes")
    n_classes = pred_probs.shape[-1]
    bad = (gt_labels < 0) | (gt_labels >= n_classes)
    if bad.any():
        raise ValueError(f"gt_labels {gt_labels[bad].tolist()} are outside [0, {n_classes}) for {n_classes} classes")

    giou = giou_xyxy(box_cxcywh_to_xyxy(pred_boxes)[:, None], box_cxcywh_to_xyxy(gt_boxes)[None])
    s_prime = (giou + 1.0) / 2.0
    p = pred_probs[:, gt_labels]
    cls_cost = stable_cls_cost(p, s_prime, gamma=cfg.gamma, beta=cfg.beta)
    l1 = np.abs(pred_boxes[:, None, :] - gt_boxes[None, :, :]).sum(axis=-1)
    return cfg.c_cls * cls_cost + cfg.c_l1 * l1 + cfg.c_giou * (1.0 - giou)
