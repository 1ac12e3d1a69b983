"""Sinusoidal position encodings and the anchor-to-positional-query mapping.

Anchors are treated as constants of the computation (they are refined in
value space between decoder layers), so the raw encodings are plain numpy;
only the MLP on top participates in differentiation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .features import ffn, init_linear
from .geom import require_integer
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
        require_integer("dim_per_coord", self.dim_per_coord)
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
    """2D encodings of cell centers, x then y halves: (height*width, d_model).
    The sizes must be integers, the grid at least 1x1 and ``d_model`` a
    positive multiple of 4 (ValueError naming ``grid_pe``). The checked
    sizes, as ints, key a small bounded cache of read-only arrays, since a
    detector encodes the same grid every step."""
    for name, size in (("height", height), ("width", width), ("d_model", d_model)):
        require_integer(f"grid_pe: {name}", size)
    if min(height, width) < 1 or d_model < 4 or d_model % 4:
        raise ValueError(f"grid_pe: needs a grid of at least 1x1 and a positive multiple of 4 for d_model, "
                         f"got {height}x{width} and {d_model}")
    return _grid_pe(int(height), int(width), int(d_model))


@lru_cache(maxsize=8)
def _grid_pe(height: int, width: int, d_model: int) -> np.ndarray:
    ys, xs = np.meshgrid((np.arange(height) + 0.5) / height, (np.arange(width) + 0.5) / width, indexing="ij")
    pe = sinusoidal_pe(np.stack([xs, ys], axis=-1), PeConfig(dim_per_coord=d_model // 2))
    pe = pe.reshape(height * width, d_model)
    pe.flags.writeable = False
    return pe


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

