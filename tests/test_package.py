"""Whole-package properties: import footprint, graph lifetime, determinism and
the gradient of a whole decoder layer."""

import gc
import os
import pkgutil
import subprocess
import sys

import numpy as np

import casdet
from casdet import tensor as T
from casdet.tensor import Tensor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_importing_every_module_leaves_scipy_unloaded():
    """scipy is a dev-only dependency; its import alone holds tens of
    thousands of objects that every full collection would walk."""
    modules = [f"casdet.{m.name}" for m in pkgutil.iter_modules(casdet.__path__)]
    code = "import importlib, sys\n" + "".join(f"importlib.import_module({m!r})\n" for m in modules)
    code += "print('scipy' in sys.modules)\n"
    src = os.path.dirname(os.path.dirname(os.path.abspath(casdet.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(modules) >= 8
    assert proc.stdout.strip() == "False"


def import_standin():
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    try:
        import standin
    finally:
        sys.path.remove(os.path.join(ROOT, "bench"))
    return standin


def test_a_dropped_training_step_leaves_no_garbage_cycles(tmp_path):
    """Graph nodes point only at their parents, so reference counting alone
    frees a step's graph once its last reference goes."""
    st = import_standin()
    model = st.setup(st.tiny(st.WORKLOADS["train-dense"]), st.REF_SEED, str(tmp_path))
    gc.collect()
    gc.disable()
    try:
        res = st.step(model, 0)
        assert res.loss is not None and res.n_rows > res.pairs > 0
        del res
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_fresh_models_give_byte_equal_steps_matching_the_reference(tmp_path):
    """Two models built from the committed seed repeat each other bitwise and
    reproduce the committed digests."""
    st = import_standin()
    wl = st.tiny(st.WORKLOADS["train-dense"])
    refs = st.load_reference()[st.reference_key(wl)]
    runs = []
    for _ in range(2):
        model = st.setup(wl, st.REF_SEED, str(tmp_path))
        steps = []
        for i in range(2):
            res = st.step(model, i)
            steps.append([a.tobytes() for a in st.outputs(model, res)])
            got = st.digest(model, res)
            assert got.keys() == refs[i].keys()
            for k, v in refs[i].items():
                assert abs(got[k] - v) <= 1e-12 * abs(v), (i, k)
        runs.append(steps)
    assert runs[0] == runs[1]


def test_a_decoder_layer_with_cascade_modulation_passes_grad_check(tmp_path):
    """One decoder layer of the stand-in at tiny shapes: masked self-attention
    over matching and DN rows, cross-attention, FFN, the DN rows scaled by a
    fixed omega, and the box and class heads. The graph holds linear,
    layer_norm, reshape, swapaxes, concat, take, sigmoid and masked attention;
    omega gets no gradient."""
    st = import_standin()
    model = st.setup(st.tiny(st.WORKLOADS["train-dense"]), st.REF_SEED, str(tmp_path))
    d, (n_match, n_gt, groups) = model.wl.d_model, (3, 2, 2)
    n = n_match + groups * n_gt
    rng = np.random.default_rng(0)
    anchors = np.concatenate([rng.uniform(0.2, 0.8, (n, 2)), rng.uniform(0.05, 0.4, (n, 2))], axis=1)
    keys = Tensor(rng.normal(size=(16, d)))
    keys_pe = keys + Tensor(rng.normal(size=(16, d)))
    mask = st.attention_mask(n_match, [n_gt] * groups)
    omega = rng.uniform(0.2, 1.0, size=(groups, n_gt))
    w_box, w_cls = rng.normal(size=(n, 4)), rng.normal(size=(n, st.N_CLASSES))
    x = Tensor(rng.normal(size=(n, d)), requires_grad=True)
    dn_nodes = []

    def loss():
        h = st.decoder_layer(model, 0, x, anchors, keys, keys_pe, mask)
        dn = st.modulate(h[n_match:].reshape(groups, n_gt, d), omega)
        dn_nodes.append(dn)
        boxes, probs = st.box_heads(model, 0, T.concat([h[:n_match], dn.reshape(-1, d)]), anchors)
        return (boxes * w_box).sum() + (probs * w_cls).sum()

    small = ["dec0.pq.1.b", "dec0.sa.k.b", "dec0.ln1.g", "dec0.ca.v.b", "dec0.ffn.1.b", "dec0.ln3.b",
             "dec0.box.w", "dec0.cls.b"]
    assert T.grad_check(loss, [x] + [model.params[k] for k in small]) < 1e-6
    dn_nodes.clear()
    loss().backward()
    feature, scale = dn_nodes[0]._parents
    assert feature.requires_grad and not scale.requires_grad
    assert scale.grad is None and np.array_equal(scale.data, omega[..., None])
