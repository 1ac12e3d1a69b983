import numpy as np
import pytest

from casdet import tensor as T
from casdet.encode import (
    PE_TEMPERATURE,
    PeConfig,
    box_pe_vector,
    grid_pe,
    init_positional_query,
    inv_sigmoid,
    pe_frequencies,
    positional_query,
    sinusoidal_pe,
)
from casdet.tensor import np_sigmoid


def make_query_mlp(rng, d_model):
    params = {}
    init_positional_query(params, rng, "pq", d_model)
    return params


def test_pe_at_zero():
    cfg = PeConfig(dim_per_coord=8)
    v = sinusoidal_pe(0.0, cfg)
    np.testing.assert_array_equal(v[0::2], 0.0)
    np.testing.assert_array_equal(v[1::2], 1.0)


def test_pe_output_length():
    cfg = PeConfig(dim_per_coord=10)
    assert sinusoidal_pe(0.37, cfg).shape == (10,)
    assert sinusoidal_pe(np.zeros((3, 2)), cfg).shape == (3, 2, 10)


def test_pe_bands_distinguish_coordinates():
    cfg = PeConfig(dim_per_coord=32)
    a = sinusoidal_pe(0.3, cfg)
    b = sinusoidal_pe(0.7, cfg)
    for band in range(cfg.dim_per_coord // 2):
        pair_a = a[2 * band : 2 * band + 2]
        pair_b = b[2 * band : 2 * band + 2]
        assert not np.allclose(pair_a, pair_b)


def test_pe_frequencies_geometric():
    cfg = PeConfig(dim_per_coord=16)
    f = pe_frequencies(cfg)
    ratios = f[1:] / f[:-1]
    np.testing.assert_allclose(ratios, PE_TEMPERATURE ** (-1 / 8))
    assert np.all(np.diff(f) < 0)


def test_pe_config_validation():
    with pytest.raises(ValueError):
        PeConfig(dim_per_coord=7)


@pytest.mark.parametrize("dim", [2, 8, 32])
@pytest.mark.parametrize("shape", [(4,), (7, 4), (2, 3, 4), (0, 4)])
def test_box_pe_vector_bitwise_equal_to_the_per_coordinate_concatenation(dim, shape):
    cfg = PeConfig(dim_per_coord=dim)
    rng = np.random.default_rng(dim)
    boxes = rng.uniform(-0.2, 1.2, shape)
    boxes.reshape(-1)[:2] = [0.0, -0.0][: boxes.size]
    for b in (boxes, boxes.T.copy().T):  # C- and F-ordered input
        ref = np.concatenate([sinusoidal_pe(b[..., i], cfg) for i in range(4)], axis=-1)
        out = box_pe_vector(b, cfg)
        assert out.shape == ref.shape and out.tobytes() == ref.tobytes()


def test_box_pe_vector_width():
    cfg = PeConfig(dim_per_coord=8)
    assert box_pe_vector(np.array([0.5, 0.5, 0.2, 0.2]), cfg).shape == (32,)
    assert box_pe_vector(np.zeros((5, 3, 4)), cfg).shape == (5, 3, 32)


def test_grid_pe_shape_and_distinct_cells():
    pe = grid_pe(4, 6, 32)
    assert pe.shape == (24, 32)
    assert np.unique(np.round(pe, 9), axis=0).shape[0] == 24


def test_positional_query_deterministic_and_width():
    rng = np.random.default_rng(0)
    d = 16
    params = make_query_mlp(rng, d)
    cfg = PeConfig(dim_per_coord=d // 2)
    anchor = np.array([[0.3, 0.4, 0.2, 0.1]])
    a = positional_query(anchor, params, "pq", cfg)
    b = positional_query(anchor, params, "pq", cfg)
    assert a.shape == (1, d)
    np.testing.assert_array_equal(a.data, b.data)


def test_positional_query_distinct_anchors_distinct_queries():
    rng = np.random.default_rng(1)
    d = 16
    params = make_query_mlp(rng, d)
    cfg = PeConfig(dim_per_coord=d // 2)
    anchors = np.stack(
        [rng.uniform(0.1, 0.9, 64), rng.uniform(0.1, 0.9, 64), rng.uniform(0.05, 0.5, 64), rng.uniform(0.05, 0.5, 64)],
        axis=-1,
    )
    q = positional_query(anchors, params, "pq", cfg).data
    dists = np.linalg.norm(q[:, None] - q[None, :], axis=-1)
    np.fill_diagonal(dists, np.inf)
    assert dists.min() > 1e-9
    assert np.all(np.isfinite(q))


def test_positional_query_grad_check():
    rng = np.random.default_rng(2)
    d = 8
    params = make_query_mlp(rng, d)
    cfg = PeConfig(dim_per_coord=d // 2)
    anchor = np.array([[0.6, 0.3, 0.25, 0.4]])
    wrt = list(params.values())
    err = T.grad_check(lambda: (positional_query(anchor, params, "pq", cfg) ** 2).sum(), wrt)
    assert err < 1e-6


def test_inv_sigmoid_examples():
    assert inv_sigmoid(0.5) == 0.0
    assert abs(inv_sigmoid(0.9) - np.log(9.0)) < 1e-12


def test_inv_sigmoid_round_trip():
    rng = np.random.default_rng(3)
    p = rng.uniform(0.01, 0.99, size=100)
    np.testing.assert_allclose(np_sigmoid(inv_sigmoid(p)), p, atol=1e-9)


def test_inv_sigmoid_clamps_extremes():
    assert np.isfinite(inv_sigmoid(0.0))
    assert np.isfinite(inv_sigmoid(1.0))
