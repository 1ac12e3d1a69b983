"""Sinusoidal position encodings and the anchor-to-positional-query mapping.

Anchors are treated as constants of the computation (they are refined in
value space between decoder layers), so the raw encodings are plain numpy;
only the MLP on top participates in differentiation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import ffn, init_linear
from .tensor import Tensor

PE_TEMPERATURE = 10000.0  # base of the geometric frequency ladder of sinusoidal_pe
LOGIT_EPS = 1e-6  # inv_sigmoid clamps its input to [LOGIT_EPS, 1 - LOGIT_EPS]


@dataclass(frozen=True)
class PeConfig:
    """Per-coordinate encoding width.

    ``dim_per_coord`` must be even; four encoded coordinates are concatenated,
    so the query MLP input width is ``4 * dim_per_coord``.
    """

    dim_per_coord: int = 32

    def __post_init__(self):
        if self.dim_per_coord <= 0 or self.dim_per_coord % 2 != 0:
            raise ValueError(f"dim_per_coord must be a positive even integer, got {self.dim_per_coord}")


def pe_frequencies(cfg: PeConfig) -> np.ndarray:
    """Geometrically decreasing frequencies, ratio PE_TEMPERATURE**(-1/n_bands)."""
    n = cfg.dim_per_coord // 2
    return PE_TEMPERATURE ** (-np.arange(n) / n)


def sinusoidal_pe(coord, cfg: PeConfig) -> np.ndarray:
    """Encode scalar coordinates as interleaved sin/cos bands.

    ``coord`` may be a scalar or any array; output appends an axis of length
    ``dim_per_coord``. Even slots are sines (0 at coord 0), odd slots cosines.
    """
    coord = np.asarray(coord, dtype=np.float64)
    angles = 2.0 * np.pi * coord[..., None] * pe_frequencies(cfg)
    out = np.empty(coord.shape + (cfg.dim_per_coord,), dtype=np.float64)
    out[..., 0::2] = np.sin(angles)
    out[..., 1::2] = np.cos(angles)
    return out


def box_pe_vector(boxes: np.ndarray, cfg: PeConfig) -> np.ndarray:
    """Concatenate the encodings of (cx, cy, w, h): (..., 4) -> (..., 4*dim)."""
    pe = sinusoidal_pe(boxes, cfg)
    return pe.reshape(*pe.shape[:-2], 4 * cfg.dim_per_coord)


def grid_pe(height: int, width: int, d_model: int) -> np.ndarray:
    """2D encodings of cell centers, x then y halves: (height*width, d_model)."""
    if d_model % 4 != 0:
        raise ValueError("d_model must be divisible by 4 for 2D encodings")
    cfg = PeConfig(dim_per_coord=d_model // 2)
    ys = (np.arange(height) + 0.5) / height
    xs = (np.arange(width) + 0.5) / width
    px = sinusoidal_pe(xs, cfg)
    py = sinusoidal_pe(ys, cfg)
    out = np.concatenate(
        [np.broadcast_to(px[None, :, :], (height, width, cfg.dim_per_coord)),
         np.broadcast_to(py[:, None, :], (height, width, cfg.dim_per_coord))],
        axis=-1,
    )
    return out.reshape(height * width, d_model)


def init_positional_query(params: dict, rng: np.random.Generator, prefix: str, d_model: int) -> None:
    """Allocate the query MLP: 2*d_model -> d_model with one ReLU hidden layer."""
    init_linear(params, rng, f"{prefix}.1", 2 * d_model, d_model)
    init_linear(params, rng, f"{prefix}.2", d_model, d_model)


def positional_query(anchors: np.ndarray, params: dict, prefix: str, cfg: PeConfig) -> Tensor:
    """Map anchor boxes to positional queries through a one-hidden-layer MLP.

    ``anchors`` has shape (..., 4) with at least one leading axis, so a single
    anchor is passed as (1, 4); the result has shape (..., d_model) where
    d_model is the output width of ``{prefix}.2``.
    """
    return ffn(Tensor(box_pe_vector(anchors, cfg)), params, prefix)


def inv_sigmoid(p: np.ndarray) -> np.ndarray:
    """Logit of p, clamped to [LOGIT_EPS, 1-LOGIT_EPS] first so the result stays finite."""
    p = np.clip(np.asarray(p, dtype=np.float64), LOGIT_EPS, 1.0 - LOGIT_EPS)
    return np.log(p / (1.0 - p))

