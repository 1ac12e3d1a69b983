import numpy as np
import pytest

from casdet import tensor as T
from casdet.cascade import CascadeConfig, dn_weight, layer_dn_weights, modulate, threshold_schedule
from casdet.tensor import Tensor


def sigma(x):
    return 1.0 / (1.0 + np.exp(-x))


def test_default_schedule():
    np.testing.assert_allclose(threshold_schedule(CascadeConfig()), [0.3, 0.42, 0.54, 0.66, 0.78, 0.9], atol=1e-12)


def test_single_layer_schedule():
    np.testing.assert_array_equal(threshold_schedule(CascadeConfig(n_layers=1)), [0.3])


def test_two_layer_schedule_is_exactly_the_end_points():
    """The benchmark's decoder depth: its thresholds are theta1 and
    theta1 + delta_theta to the last bit."""
    np.testing.assert_array_equal(threshold_schedule(CascadeConfig(n_layers=2)), [0.3, 0.3 + 0.6])


def test_zero_increment_schedule_is_constant():
    sched = threshold_schedule(CascadeConfig(theta1=0.4, delta_theta=0.0))
    np.testing.assert_array_equal(sched, np.full(6, 0.4))


def test_schedule_strictly_increasing():
    sched = threshold_schedule(CascadeConfig(theta1=0.2, delta_theta=0.5, n_layers=8))
    assert np.all(np.diff(sched) > 0)


def test_cascade_config_validation():
    with pytest.raises(ValueError):
        CascadeConfig(theta1=0.0)
    with pytest.raises(ValueError):
        CascadeConfig(theta1=0.6, delta_theta=0.6)
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="tau"):
            CascadeConfig(tau=bad)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="delta_theta"):
            CascadeConfig(delta_theta=bad)


def test_negative_increment_is_rejected():
    # It would give a falling schedule that leaves [0, 1]: 0.3, 0.05, -0.2.
    with pytest.raises(ValueError, match="delta_theta"):
        CascadeConfig(theta1=0.3, delta_theta=-0.5, n_layers=3)


def test_dn_weight_boundary_is_half():
    assert dn_weight(0.42, 0.42, 0.1) == 0.5
    assert dn_weight(0.9, 0.9, 0.3) == 0.5


def test_dn_weight_closed_form_values():
    assert dn_weight(0.52, 0.42, 0.1) == pytest.approx(sigma(1.0), abs=1e-9)  # ~0.73106
    assert dn_weight(0.1, 0.6, 0.1) == pytest.approx(sigma(-5.0), abs=1e-9)  # ~0.00669 suppressed


def test_dn_weight_monotone():
    ious = np.linspace(0, 1, 101)
    w = dn_weight(ious, 0.5, 0.1)
    assert np.all(np.diff(w) > 0)
    thetas = np.linspace(0.1, 0.9, 9)
    w2 = np.array([dn_weight(0.5, t, 0.1) for t in thetas])
    assert np.all(np.diff(w2) < 0)


def test_dn_weight_non_increasing_across_layers_for_fixed_iou():
    cfg = CascadeConfig()
    sched = threshold_schedule(cfg)
    for iou in (0.1, 0.45, 0.85):
        w = dn_weight(iou, sched, cfg.tau)
        assert np.all(np.diff(w) <= 0)


def test_layer_dn_weights_perfect_and_layerwise():
    gts = np.array([[0.5, 0.5, 0.2, 0.2], [0.3, 0.6, 0.25, 0.2]])
    w = layer_dn_weights(gts.copy(), gts, 0.42, 0.1)
    np.testing.assert_allclose(w, sigma((1.0 - 0.42) / 0.1), atol=1e-12)

    # same IoU-0.5 prediction weighed by the first vs last default layer
    pred = gts.copy()
    pred[:, 2] = gts[:, 2] * 0.5  # nested: IoU = 0.5
    w1 = layer_dn_weights(pred, gts, 0.3, 0.1)
    w6 = layer_dn_weights(pred, gts, 0.9, 0.1)
    np.testing.assert_allclose(w1, sigma(2.0), atol=1e-9)
    np.testing.assert_allclose(w6, sigma(-4.0), atol=1e-9)


def test_layer_dn_weights_grouped_and_independent():
    rng = np.random.default_rng(0)
    gts = np.stack([rng.uniform(0.3, 0.7, 3), rng.uniform(0.3, 0.7, 3), rng.uniform(0.1, 0.3, 3), rng.uniform(0.1, 0.3, 3)], axis=-1)
    preds = np.stack([gts, gts])  # (2 groups, 3, 4)
    preds[1, :, 0] += 0.05
    w = layer_dn_weights(preds, gts, 0.5, 0.1)
    assert w.shape == (2, 3)
    w_single = layer_dn_weights(preds[1], gts, 0.5, 0.1)
    np.testing.assert_array_equal(w[1], w_single)


def test_layer_dn_weights_count_mismatch():
    with pytest.raises(ValueError):
        layer_dn_weights(np.zeros((2, 4)) + 0.3, np.zeros((3, 4)) + 0.3, 0.5, 0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_layer_dn_weights_non_finite_prediction_raises_with_stage_name(bad):
    """A NaN box, predicted or GT (a pseudo-label in ISOD), used to score IoU
    0, so at theta 0.3 it got omega ~ 0.047 without a word."""
    box = [0.5, 0.5, 0.2, 0.2]
    pred = np.tile(box, (2, 3, 1))
    pred[1, 2, 0] = bad
    with pytest.raises(FloatingPointError, match="layer_dn_weights"):
        layer_dn_weights(pred, np.tile(box, (3, 1)), 0.3, 0.1)
    with pytest.raises(FloatingPointError, match="layer_dn_weights"):
        layer_dn_weights(np.tile(box, (2, 1)), [box, [bad, 0.5, 0.2, 0.2]], 0.3, 0.1)


@pytest.mark.parametrize("theta_l, tau", [(np.nan, 0.1), (np.inf, 0.1), (-np.inf, 0.1),
                                          (0.3, -0.1), (0.3, 0.0), (0.3, np.nan), (0.3, np.inf)])
def test_layer_dn_weights_rejects_a_non_finite_threshold_or_a_bad_temperature(theta_l, tau):
    """A negative tau inverted omega (IoU 0.82 at theta 0.3 got 0.006), tau 0
    divided by zero, and a NaN theta_l or tau gave NaN weights."""
    box = np.array([[0.5, 0.5, 0.2, 0.2]])
    with pytest.raises(ValueError, match="layer_dn_weights"):
        layer_dn_weights(box, box, theta_l, tau)


def test_layer_dn_weights_and_modulate_with_no_gt():
    omega = layer_dn_weights(np.zeros((5, 0, 4)), np.zeros((0, 4)), 0.3, 0.1)
    assert omega.shape == (5, 0)
    assert modulate(Tensor(np.zeros((5, 0, 8))), omega).shape == (5, 0, 8)


def test_modulate_identity_and_annihilation():
    rng = np.random.default_rng(1)
    f = Tensor(rng.normal(size=(4, 8)))
    np.testing.assert_array_equal(modulate(f, 1.0).data, f.data)
    np.testing.assert_array_equal(modulate(f, 0.0).data, 0.0)


def test_modulate_broadcasts_per_query_weights():
    rng = np.random.default_rng(2)
    f = Tensor(rng.normal(size=(2, 3, 4)))
    omega = np.array([[0.1, 0.5, 1.0], [0.9, 0.2, 0.3]])
    out = modulate(f, omega).data
    np.testing.assert_allclose(out, f.data * omega[..., None], atol=1e-15)


def test_modulate_gradient_scales_linearly():
    # downstream grad measured at the same post-modulation point: half omega,
    # double input, so d(loss)/d(feature) must halve exactly
    rng = np.random.default_rng(3)
    base = rng.normal(size=(5,))
    w = rng.normal(size=(5,))

    def grad_at(omega, data):
        f = Tensor(data, requires_grad=True)
        loss = (T.sigmoid(modulate(f, omega)) * w).sum()
        loss.backward()
        return f.grad.copy()

    g_full = grad_at(1.0, base)
    g_half = grad_at(0.5, 2.0 * base)
    np.testing.assert_allclose(g_half, 0.5 * g_full, rtol=1e-9)

    # finite-difference confirmation on one coordinate
    def fd(omega, data, i, eps=1e-6):
        def loss_at(x):
            d = data.copy()
            d[i] = x
            return float((T.sigmoid(modulate(Tensor(d), omega)) * w).sum().data)

        return (loss_at(data[i] + eps) - loss_at(data[i] - eps)) / (2 * eps)

    ratio = fd(0.5, 2.0 * base, 2) / fd(1.0, base, 2)
    assert ratio == pytest.approx(0.5, rel=0.05)


def test_modulate_detaches_omega():
    f = Tensor(np.ones(3), requires_grad=True)
    out = (modulate(f, 0.25) ** 2).sum()
    out.backward()
    np.testing.assert_allclose(f.grad, 2 * 0.25**2 * np.ones(3), atol=1e-12)
