"""Whole-package properties: import footprint, graph lifetime, determinism,
the gradient of a whole decoder layer, and whole steps on scenes with no
ground truth or no proposals."""

import gc
import os
import pkgutil
import subprocess
import sys
import tracemalloc
import types
import warnings
import weakref
from dataclasses import replace

import numpy as np

import casdet
from casdet import tensor as T
from casdet.cascade import layer_dn_weights, modulate
from casdet.matching import MatchConfig, hungarian, match_cost_matrix
from casdet.proposals import EmulatorConfig, emulate_proposals
from casdet.queries import DnConfig, attention_mask, init_matching_queries, make_dn_queries
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


def test_a_training_step_frees_its_encoder_during_the_walk(tmp_path, monkeypatch):
    """``backward()`` releases each node as it walks it, so with the cyclic
    collector off, the encoder's output is gone once the step returns, while
    the step's result, which holds the loss and the heads, is still alive.
    The test watches the encoder output's array, which only its node holds,
    since a Tensor takes no weakref."""
    st = import_standin()
    model = st.setup(st.tiny(st.WORKLOADS["train-dense"]), st.REF_SEED, str(tmp_path))
    refs = []
    encode_features = st.encode_features

    def watched(*args, **kwargs):
        out = encode_features(*args, **kwargs)
        refs.append(weakref.ref(out.data))
        return out

    monkeypatch.setattr(st, "encode_features", watched)
    gc.collect()
    gc.disable()
    try:
        res = st.step(model, 0)
        assert len(refs) == 1 and refs[0]() is None
        assert res.loss.grad is not None and st.finite(model, res)
    finally:
        gc.enable()


def graph_objects(root) -> list:
    """Every gc-tracked object that ``root``'s graph holds: its nodes and what
    they reach, following functions only through their closures and
    defaults, so module globals, code and types are left out."""
    seen, stack = {}, [root]
    while stack:
        x = stack.pop()
        if id(x) in seen or not gc.is_tracked(x) or isinstance(x, (type, types.ModuleType)):
            continue
        seen[id(x)] = x
        if isinstance(x, types.FunctionType):
            stack += list(x.__closure__ or ()) + list(x.__defaults__ or ())
        else:
            stack += gc.get_referents(x)
    return list(seen.values())


def at_backward(st, model, measure):
    """``measure(root)`` of step 0's graph when its ``backward()`` starts."""
    seen = []
    backward = Tensor.backward

    def measured(root):
        seen.append(measure(root))
        backward(root)

    Tensor.backward = measured
    try:
        st.step(model, 0)
    finally:
        Tensor.backward = backward
    return seen[0]


def test_a_training_step_graph_holds_few_objects_per_node(tmp_path):
    """Each node holds one backward function, not a builder closure, an
    operand tuple and one grad-map closure per parent: objects that every
    full collection walks while a step's graph is alive. When its
    ``backward()`` starts, a tiny train-dense step's 200 tensors hold about
    3.5 objects each, and held 6.3 with per-parent closures."""
    st = import_standin()
    model = st.setup(st.tiny(st.WORKLOADS["train-dense"]), st.REF_SEED, str(tmp_path))
    objs = at_backward(st, model, graph_objects)
    nodes = sum(isinstance(x, Tensor) for x in objs)
    assert nodes >= 200
    assert len(objs) <= 5.5 * nodes


def full_size_step_peak(workload: str, tmp_path) -> tuple:
    """Traced peak bytes of step 0 of a full-size workload at the committed
    seed, whose outputs must be finite, and the step's result."""
    st = import_standin()
    model = st.setup(st.WORKLOADS[workload], st.REF_SEED, str(tmp_path))
    tracemalloc.start()
    try:
        res = st.step(model, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert st.finite(model, res)
    return peak, res


def full_size_graph_at_backward(workload: str, tmp_path) -> tuple[int, int]:
    """The tensors in step 0's graph at the committed seed, as ``bench/run.py``
    counts ``tensor.graph_nodes``, and the bytes that the ``.data`` of its
    interior nodes (those with a backward) hold when ``backward()`` starts,
    each buffer counted once however many views of it the nodes hold."""
    st = import_standin()
    model = st.setup(st.WORKLOADS[workload], st.REF_SEED, str(tmp_path))

    def measure(root):
        graph = T._toposort(root)
        buffers = {}
        for t in graph:
            if t._backward is not None:
                a = t.data
                while isinstance(a.base, np.ndarray):
                    a = a.base
                buffers[id(a)] = a.nbytes
        return len(graph), sum(buffers.values())

    return at_backward(st, model, measure)


def test_a_full_size_train_hires_graph_holds_no_projection_when_backward_starts(tmp_path):
    """Attention rebuilds its q, k and v projections in its backward, so a
    train-hires step's graph holds 221 tensors and 4.1 MB of node outputs
    when its backward starts: 233 and 7.0 MB with the encoder's six and the
    decoder cross-attention's four ``(576, 64)`` projections kept."""
    nodes, nbytes = full_size_graph_at_backward("train-hires", tmp_path)
    assert nodes <= 221
    assert nbytes < 5e6


def test_a_full_size_training_step_peaks_under_24_mb(tmp_path):
    """A full-size train-hires step (a 24x24 grid, so 576x576 encoder heads)
    holds no attention probabilities beside its graph: attention keeps each
    row's softmax max and sum, walks each head in row blocks of about 256 KiB
    and recomputes them in the backward. Keeping the probabilities would peak
    at about 45 MB, and whole-head blocks at about 26 MB."""
    peak, res = full_size_step_peak("train-hires", tmp_path)
    assert res.loss is not None and np.isfinite(res.loss.item())
    assert peak < 24e6


def test_a_full_size_train_dense_step_peaks_under_30_mb(tmp_path):
    """A full-size train-dense step holds each array once: layer norm keeps
    its row mean and ``1/s``, not the normalized input; attention's backward
    builds one head's gradients at a time; and a parameter holds one
    gradient buffer, which RoI pooling adds ``neck.1.w``'s gradient into in
    place. At seed 0 the step peaked at 31.4 MB when each parameter's
    gradient was copied back, inside the backward of the matching branch's
    ``neck.1`` linear, and at 28.8 MB without those copies."""
    peak, res = full_size_step_peak("train-dense", tmp_path)
    assert res.loss is not None and np.isfinite(res.loss.item())
    assert peak < 30e6


def test_a_full_size_train_dense_step_peaks_under_23_mb(tmp_path):
    """RoI pooling and ``neck.1`` are one node, which builds no ``(n, 7, 7,
    64)`` regions and no region gradient. At seed 0 a train-dense step peaked
    at 20.1 MB with it, inside the DN branch's ``roi_pool_batch`` backward;
    with the regions it peaked at 28.8 MB."""
    assert full_size_step_peak("train-dense", tmp_path)[0] < 23e6


def test_a_full_size_train_dense_step_peaks_under_18_5_mb(tmp_path):
    """A training step holds no array its backward can rebuild or never
    reads: the FFN's hidden layer keeps only its ReLU output, the patch
    tiles and the fusion concatenation are rebuilt in their backwards, and
    the second RoI backward adds ``neck.1``'s weight gradient into the one
    the step already holds. At seed 0 a train-dense step peaks at 17.0 MB,
    in the encoder's attention backward; it peaked at 20.1 MB inside the DN
    branch's RoI backward, with both 1.6 MB ``neck.1`` gradients live."""
    assert full_size_step_peak("train-dense", tmp_path)[0] < 18.5e6


def test_a_full_size_train_hires_step_peaks_under_19_mb(tmp_path):
    """As above, on the 24x24 grid, where attention's backward also builds
    ``[g / row sum | -r]`` one head at a time: 17.7 MB at seed 0, against
    20.6 MB with the kept tiles, concatenation and pre-ReLU layers."""
    assert full_size_step_peak("train-hires", tmp_path)[0] < 19e6


def test_a_full_size_train_hires_step_peaks_under_15_mb(tmp_path):
    """The encoder and every FFN keep only what their backward cannot
    rebuild: no ``x + pe`` (the q and k projections rebuild it), no
    residual sum beside the ``o`` projection's and ``ffn.2``'s outputs
    (each sum is formed inside the layer norm that reads it), no ReLU
    hidden layer (the FFN node rebuilds it from its input), and uint16 RoI
    index tables, not int32; the fusion's backward returns two grid
    gradients, so the backbone's does not keep the encoder's alive through
    the encoder's backward. At seed 0 a train-hires step peaks at 14.1 MB,
    against 17.7 MB with those arrays."""
    assert full_size_step_peak("train-hires", tmp_path)[0] < 15e6


def test_a_full_size_train_dense_step_peaks_under_15_5_mb(tmp_path):
    """As above, on the 16x16 grid, whose RoI index tables were already
    int16: 14.8 MB at seed 0, against 17.0 MB with the encoder's ``x + pe``,
    ``o`` and ``ffn.2`` outputs, the FFNs' hidden layers and the fusion's
    shared gradient."""
    assert full_size_step_peak("train-dense", tmp_path)[0] < 15.5e6


def test_a_full_size_train_hires_step_peaks_under_13_mb(tmp_path):
    """Attention keeps no q, k or v: one node projects, attends and drops the
    projections, and its backward rebuilds them, so neither the encoder's
    self-attention nor the decoder's cross-attention over the 576 memory
    rows holds a projection between the forward and the backward. At seed 0
    a train-hires step peaks at 12.3 MB, in the encoder attention's
    backward, against 14.1 MB with the projections kept."""
    assert full_size_step_peak("train-hires", tmp_path)[0] < 13e6


def test_a_full_size_train_dense_step_peaks_under_14_3_mb(tmp_path):
    """As above, on the 16x16 grid: 13.7 MB at seed 0, against 14.8 MB with
    the projections kept."""
    assert full_size_step_peak("train-dense", tmp_path)[0] < 14.3e6


def test_a_full_size_train_dense_step_peaks_under_10_5_mb(tmp_path):
    """``backward()`` releases each node as it walks it, so the encoder's
    backward, where the step peaked, no longer runs beside every decoder and
    later encoder activation whose gradient is already taken. At seed 0 a
    train-dense step peaks at 9.8 MB, in a decoder cross-attention's
    backward, against 13.7 MB with the whole graph held until the step
    returns."""
    assert full_size_step_peak("train-dense", tmp_path)[0] < 10.5e6


def test_a_full_size_train_hires_step_peaks_under_10_8_mb(tmp_path):
    """As above, on the 24x24 grid: 10.1 MB at seed 0, in encoder layer 1's
    attention backward, against 12.3 MB with the whole graph held."""
    assert full_size_step_peak("train-hires", tmp_path)[0] < 10.8e6


def test_a_full_size_inference_pass_peaks_under_3_mb(tmp_path):
    """An infer-fixture pass keeps no graph, so its peak is the largest
    transient: 1.8 MB at seed 0 with the RoI node, and 5.9 MB when RoI
    pooling built the regions for ``neck.1``."""
    assert full_size_step_peak("infer-fixture", tmp_path)[0] < 3e6


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
    layer_norm, reshape, concat, take, sigmoid, masked and multi-head attention;
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
    dn_parents = []  # taken when built, since the walk releases them

    def loss():
        h = st.decoder_layer(model, 0, x, anchors, keys, keys_pe, mask)
        dn = st.modulate(h[n_match:].reshape(groups, n_gt, d), omega)
        dn_parents.append(dn._parents)
        boxes, probs = st.box_heads(model, 0, T.concat([h[:n_match], dn.reshape(-1, d)]), anchors)
        return (boxes * w_box).sum() + (probs * w_cls).sum()

    small = ["dec0.pq.1.b", "dec0.sa.k.b", "dec0.ln1.g", "dec0.ca.v.b", "dec0.ffn.1.b", "dec0.ln3.b",
             "dec0.box.w", "dec0.cls.b"]
    assert T.grad_check(loss, [x] + [model.params[k] for k in small]) < 1e-6
    dn_parents.clear()
    loss().backward()
    feature, scale = dn_parents[0]
    assert feature.requires_grad and not scale.requires_grad
    assert scale.grad is None and np.array_equal(scale.data, omega[..., None])


def test_a_scene_with_no_ground_truth_runs_a_whole_training_step(tmp_path):
    """No-GT policy, end to end at tiny shapes: the emulator gives background
    boxes only, the DN branch has no rows, the cost matrix has no columns and
    nothing is matched, so every query takes the no-object loss. The loss is
    the summed class probabilities of every layer, which does not divide by
    the GT count. Forward and backward raise no warning of any kind, and
    every gradient is finite. The step runs with the workload's distractors
    and again with zero proposals, where every attention has zero rows, the
    loss is 0 and every gradient is exactly 0."""
    st = import_standin()
    wl = st.tiny(st.WORKLOADS["train-dense"])
    for emulator in (wl.emulator, EmulatorConfig(gt_hit_rate=0.0, distractor_count=0)):
        model = st.setup(replace(wl, emulator=emulator), st.REF_SEED, str(tmp_path))
        scene = st.make_scene(model.wl, 0, np.random.default_rng(3))
        gt, groups, d = scene.boxes, st.DN_GROUPS, model.wl.d_model
        rng = np.random.default_rng(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            keys, keys_pe, memory = st.encode(model, scene)
            props = emulate_proposals(gt, model.wl.emulator, rng)
            anchors, x = init_matching_queries(props, memory, model.params)
            dn_anchors, dn_content = make_dn_queries(gt, DnConfig(groups=groups), memory, model.params, rng)
            assert gt.shape == (0, 4) and dn_anchors.shape == (groups, 0, 4) and dn_content.shape == (groups, 0, d)
            n_match = anchors.shape[0]
            mask = attention_mask(n_match, [0] * groups)
            anchors = np.concatenate([anchors, dn_anchors.reshape(-1, 4)])
            x = T.concat([x, dn_content.reshape(-1, d)])
            loss = Tensor(0.0)
            for l in range(st.DEC_LAYERS):
                x = st.decoder_layer(model, l, x, anchors, keys, keys_pe, mask)
                omega = layer_dn_weights(anchors[n_match:].reshape(groups, 0, 4), gt, model.thetas[l],
                                         model.cascade.tau)
                dn_h = modulate(x[n_match:].reshape(groups, 0, d), omega)
                boxes, probs = st.box_heads(model, l, T.concat([x[:n_match], dn_h.reshape(-1, d)]), anchors)
                anchors = boxes.data.copy()
                cost = match_cost_matrix(boxes.data, probs.data, gt, scene.labels, MatchConfig())
                assert cost.shape == (n_match, 0) and hungarian(cost) == []
                loss = loss + probs.sum()
            loss.backward()
        assert n_match == len(props) == emulator.distractor_count
        assert np.isfinite(loss.item())
        # Anchors are refined in value space, so the box heads do not reach a
        # loss made of class probabilities; every other parameter does.
        no_grad = {name for name, p in model.params.items() if p.grad is None}
        assert no_grad == {f"dec{l}.box.{w}" for l in range(st.DEC_LAYERS) for w in "wb"}
        for name, p in model.params.items():
            assert name in no_grad or np.isfinite(p.grad).all(), name
        if n_match:
            assert np.abs(model.params["patch.w"].grad).sum() > 0
        else:
            assert loss.item() == 0.0
            assert not any(p.grad.any() for p in model.params.values() if p.grad is not None)


def test_a_scene_with_no_proposals_gets_no_detections(tmp_path):
    """Zero-proposal policy: the scene has no matching rows, so an inference
    forward gives (0, 4) boxes and (0, n_classes) scores at every layer, and
    a training step with GT matches nothing and trains the DN rows alone.
    Neither raises a warning, and the step's outputs are finite."""
    st = import_standin()
    wl = replace(st.tiny(st.WORKLOADS["train-dense"]), emulator=EmulatorConfig(gt_hit_rate=0.0, distractor_count=0))
    model = st.setup(wl, st.REF_SEED, str(tmp_path))
    n_gt = len(model.pool[0].boxes)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        keys, keys_pe, memory = st.encode(model, model.pool[0])
        anchors, x = init_matching_queries([], memory, model.params)
        for l in range(st.DEC_LAYERS):
            x = st.decoder_layer(model, l, x, anchors, keys, keys_pe, None)
            boxes, probs = st.box_heads(model, l, x, anchors)
            assert boxes.shape == (0, 4) and probs.shape == (0, st.N_CLASSES)
            anchors = boxes.data.copy()
        res = st.step(model, 0)
    assert res.props == [] and res.pairs == 0 and res.n_rows == st.DN_GROUPS * n_gt > 0
    assert all(boxes.shape == (st.DN_GROUPS * n_gt, 4) for boxes, _ in res.heads)
    assert st.finite(model, res) and res.loss.item() > 0
    assert np.abs(model.params["patch.w"].grad).sum() > 0
