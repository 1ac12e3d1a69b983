"""Workloads, seeded synthetic scenes and the stand-in detector step.

The step is composed only from public ``casdet`` functions, because the
package has no decoder or loss yet. Each call is looked up as a name of this
module, so a traced run can swap in timed wrappers (see ``spans.py``)
without touching the step itself.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field, replace

import numpy as np

from casdet import tensor as T
from casdet.cascade import CascadeConfig, layer_dn_weights, modulate, threshold_schedule
from casdet.encode import PeConfig, grid_pe, init_positional_query, inv_sigmoid, positional_query
from casdet.features import (apply_layer_norm, dense_fusion, encode_features, ffn, init_ffn,
                             init_layer_norm, init_linear, init_mha, linear, multi_head_attention,
                             patch_embed)
from casdet.geom import box_cxcywh_to_xyxy
from casdet.matching import MatchConfig, hungarian, match_cost_matrix
from casdet.proposals import (EmulatorConfig, emulate_proposals, load_proposals, proposal_recall,
                              save_proposals)
from casdet.queries import DnConfig, attention_mask, init_matching_queries, make_dn_queries
from casdet.tensor import Tensor, attention

N_CLASSES = 4
PALETTE = np.array([[0.9, 0.1, 0.1], [0.1, 0.9, 0.1], [0.1, 0.1, 0.9], [0.9, 0.9, 0.1]])
PATCH = 8        # patch side in pixels
DEC_LAYERS = 2   # stand-in decoder layers
DN_GROUPS = 5    # denoising groups of a training step
PARAM_SEED = 0  # parameters are part of the program under test, not of the workload
REF_SEED = 0    # the committed seed of every workload; reference.json holds its digests
GATE_STEPS = 3  # steps whose digests are checked at the committed seed
REL_TOL = 1e-9
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


@dataclass(frozen=True)
class Workload:
    """Shapes of one workload; the workload seed only picks the scenes.

    A training workload emulates proposals each step, adds DN_GROUPS denoising
    groups with their attention mask, matches, and runs an L1 box loss
    backward. An inference workload is a forward pass on proposals parsed
    from a fixture written at set-up, with none of those.
    """

    name: str
    train: bool
    image: int           # square image side in pixels
    d_model: int
    heads: int
    enc_layers: int
    objects: tuple[int, int]   # min and max objects per scene
    emulator: EmulatorConfig
    pool: int = 18             # scenes generated at set-up and reused in a cycle

    @property
    def grid(self) -> int:
        return -(-self.image // PATCH)

    def shapes(self) -> dict:
        return {"image": [self.image, self.image, 3], "grid": [self.grid, self.grid, self.d_model],
                "heads": self.heads, "enc_layers": self.enc_layers, "dec_layers": DEC_LAYERS,
                "objects": list(self.objects), "target_count": self.emulator.target_count,
                "distractor_count": self.emulator.distractor_count,
                "dn_groups": DN_GROUPS if self.train else 0, "train": self.train,
                "fixture": not self.train, "pool": self.pool}


DENSE = EmulatorConfig(target_count=256, distractor_count=180)

WORKLOADS = {
    w.name: w for w in (
        Workload("train-dense", True, 128, 64, 4, 2, (12, 20), DENSE),
        Workload("train-hires", True, 192, 64, 4, 2, (1, 3), EmulatorConfig()),
        Workload("infer-fixture", False, 128, 64, 4, 2, (12, 20), DENSE),
    )
}


def tiny(wl: Workload) -> Workload:
    """The same workload at smoke-test size: same code paths, small shapes."""
    lo = min(wl.objects[0], 2)
    emu = replace(wl.emulator, target_count=min(wl.emulator.target_count, 12),
                  distractor_count=min(wl.emulator.distractor_count, 6))
    return replace(wl, image=32, d_model=16, heads=2, enc_layers=1, objects=(lo, lo + 2),
                   emulator=emu, pool=3)


# scenes ------------------------------------------------------------------------


@dataclass(frozen=True)
class Scene:
    image: np.ndarray   # (H, W, 3)
    boxes: np.ndarray   # (n, 4) cxcywh, normalized
    labels: np.ndarray  # (n,) class ids


def make_scene(wl: Workload, n: int, rng: np.random.Generator) -> Scene:
    """``n`` axis-aligned rectangles in class colours over Gaussian noise."""
    side = wl.image
    image = rng.normal(0.0, 0.2, size=(side, side, 3))
    wh = rng.uniform(0.06, 0.3, size=(n, 2))
    boxes = np.concatenate([rng.uniform(wh / 2, 1.0 - wh / 2), wh], axis=1)
    labels = rng.integers(0, N_CLASSES, size=n)
    for box, label in zip(boxes, labels):
        x0, y0, x1, y1 = np.round(box_cxcywh_to_xyxy(box) * side).astype(int)
        image[y0:y1, x0:x1] = PALETTE[label] + rng.normal(0.0, 0.05, size=(y1 - y0, x1 - x0, 3))
    return Scene(image, boxes, labels)


def make_pool(wl: Workload, seed: int) -> list[Scene]:
    """Scene i has ``lo + i mod (hi - lo + 1)`` objects, so every seed's pool has the
    same object-count histogram; the seed picks boxes, labels and pixels."""
    lo, hi = wl.objects
    return [make_scene(wl, lo + i % (hi - lo + 1), np.random.default_rng([seed, i])) for i in range(wl.pool)]


# model -------------------------------------------------------------------------


def init_params(wl: Workload) -> dict:
    rng = np.random.default_rng(PARAM_SEED)
    d = wl.d_model
    params: dict = {}
    init_linear(params, rng, "patch", PATCH * PATCH * 3, d)
    for i in range(wl.enc_layers):
        init_mha(params, rng, f"enc{i}.attn", d)
        init_layer_norm(params, f"enc{i}.ln1", d)
        init_ffn(params, rng, f"enc{i}.ffn", d, 2 * d)
        init_layer_norm(params, f"enc{i}.ln2", d)
    init_linear(params, rng, "fuse", 2 * d, d)
    init_linear(params, rng, "neck.1", 7 * 7 * d, d)
    init_linear(params, rng, "neck.2", d, d)
    for l in range(DEC_LAYERS):
        init_positional_query(params, rng, f"dec{l}.pq", d)
        init_mha(params, rng, f"dec{l}.sa", d)
        init_mha(params, rng, f"dec{l}.ca", d)
        for ln in ("ln1", "ln2", "ln3"):
            init_layer_norm(params, f"dec{l}.{ln}", d)
        init_ffn(params, rng, f"dec{l}.ffn", d, 2 * d)
        init_linear(params, rng, f"dec{l}.box", d, 4)
        init_linear(params, rng, f"dec{l}.cls", d, N_CLASSES, bias=-2.0)
    return params


@dataclass
class Model:
    wl: Workload
    seed: int
    params: dict        # trainable parameters
    step_params: dict   # what the step reads: ``params``, or frozen copies for inference
    pool: list[Scene]
    fixture: dict | None = None   # scene index -> proposals parsed from the fixture
    pe_cfg: PeConfig = field(init=False)
    cascade: CascadeConfig = field(init=False)
    thetas: np.ndarray = field(init=False)

    def __post_init__(self):
        self.pe_cfg = PeConfig(dim_per_coord=self.wl.d_model // 2)
        self.cascade = CascadeConfig(n_layers=DEC_LAYERS)
        self.thetas = threshold_schedule(self.cascade)


@dataclass
class StepResult:
    loss: Tensor | None   # None for an inference pass
    heads: list           # per decoder layer: (boxes, probs) tensors
    props: list
    n_rows: int           # decoder query rows: matching plus denoising
    pairs: int            # matched pairs summed over decoder layers


def write_fixture(model: Model, out_dir: str) -> None:
    """Emulate proposals for the pool, save them as a fixture and parse it back.

    The parsed fixture must reproduce every box bitwise, or set-up fails.
    """
    emulated = {i: emulate_proposals(scene.boxes, model.wl.emulator, np.random.default_rng([model.seed, i, 1]))
                for i, scene in enumerate(model.pool)}
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        path = os.path.join(tmp, "proposals.txt")
        save_proposals(path, emulated)
        loaded, rejected = load_proposals(path)
    if rejected or sorted(loaded) != sorted(emulated) or any(
            not np.array_equal(np.stack([p.box for p in loaded[i]]), np.stack([p.box for p in emulated[i]]))
            for i in emulated):
        raise RuntimeError(f"proposal fixture did not round-trip: {rejected[:3]}")
    model.fixture = loaded


def setup(wl: Workload, seed: int, out_dir: str) -> Model:
    params = init_params(wl)
    step_params = params if wl.train else {k: Tensor(v.data) for k, v in params.items()}
    model = Model(wl, seed, params, step_params, make_pool(wl, seed))
    if not wl.train:
        write_fixture(model, out_dir)
    return model


def step(model: Model, i: int) -> StepResult:
    """Step ``i``: one training step or inference pass on scene ``i mod pool``.

    The step is a pure function of (parameters, seed, i), so re-running it
    must reproduce its outputs bitwise.
    """
    scene = model.pool[i % model.wl.pool]
    return train_step(model, i, scene) if model.wl.train else infer_pass(model, i, scene)


def infer_pass(model: Model, i: int, scene: Scene) -> StepResult:
    """Forward only, from the fixture's proposals: no denoising, mask or matching."""
    keys, keys_pe, memory = encode(model, scene)
    props = model.fixture[i % model.wl.pool]
    anchors, x = init_matching_queries(props, memory, model.step_params)
    heads = []
    for l in range(DEC_LAYERS):
        x = decoder_layer(model, l, x, anchors, keys, keys_pe, None)
        heads.append(box_heads(model, l, x, anchors))
        anchors = heads[-1][0].data.copy()  # anchors are refined in value space
    return StepResult(None, heads, props, x.shape[0], 0)


def train_step(model: Model, i: int, scene: Scene) -> StepResult:
    """Emulated proposals plus DN_GROUPS denoising groups, an L1 box loss on the
    matched and denoising pairs of every layer, and backward."""
    params, d, gt = model.params, model.wl.d_model, scene.boxes
    rng = np.random.default_rng([model.seed, i, 0])
    for p in params.values():
        p.grad = None

    keys, keys_pe, memory = encode(model, scene)
    props = emulate_proposals(gt, model.wl.emulator, rng)
    anchors, x = init_matching_queries(props, memory, params)
    n_match, n_gt = anchors.shape[0], len(gt)
    dn_anchors, dn_content = make_dn_queries(gt, DnConfig(groups=DN_GROUPS), memory, params, rng)
    mask = attention_mask(n_match, [n_gt] * DN_GROUPS)
    anchors = np.concatenate([anchors, dn_anchors.reshape(-1, 4)])
    x = T.concat([x, dn_content.reshape(-1, d)])
    dn_gt = np.tile(gt, (DN_GROUPS, 1))

    heads, loss, pairs = [], Tensor(0.0), 0
    for l in range(DEC_LAYERS):
        x = decoder_layer(model, l, x, anchors, keys, keys_pe, mask)
        # omega_l grades the boxes entering layer l against theta_l.
        omega = layer_dn_weights(anchors[n_match:].reshape(DN_GROUPS, n_gt, 4), gt, model.thetas[l],
                                 model.cascade.tau)
        dn_h = modulate(x[n_match:].reshape(DN_GROUPS, n_gt, d), omega)
        boxes, probs = box_heads(model, l, T.concat([x[:n_match], dn_h.reshape(-1, d)]), anchors)
        heads.append((boxes, probs))
        anchors = boxes.data.copy()

        cost = match_cost_matrix(boxes.data[:n_match], probs.data[:n_match], gt, scene.labels, MatchConfig())
        matched = hungarian(cost)
        rows = np.array([r for r, _ in matched], dtype=np.intp)
        cols = np.array([c for _, c in matched], dtype=np.intp)
        pairs += len(matched)
        loss = loss + T.absolute(boxes[rows] - gt[cols]).sum() * (1.0 / n_gt)
        loss = loss + T.absolute(boxes[n_match:] - dn_gt).sum() * (1.0 / dn_gt.shape[0])
    loss.backward()
    return StepResult(loss, heads, props, x.shape[0], pairs)


def encode(model: Model, scene: Scene) -> tuple[Tensor, Tensor, Tensor]:
    """Patch embedding, encoder and fusion; returns the memory as attention keys,
    the keys with grid positions added, and the memory grid."""
    wl, params = model.wl, model.step_params
    backbone = patch_embed(scene.image, PATCH, params)
    gh, gw, _ = backbone.shape
    pe = grid_pe(gh, gw, wl.d_model)
    enc = encode_features(backbone, wl.enc_layers, params, pe, wl.heads)
    memory = dense_fusion(enc, backbone, params)
    keys = memory.reshape(gh * gw, wl.d_model)
    return keys, keys + Tensor(pe), memory


def decoder_layer(model: Model, l: int, x: Tensor, anchors: np.ndarray, keys: Tensor, keys_pe: Tensor,
                  mask: np.ndarray | None) -> Tensor:
    """Masked self-attention among the queries, cross-attention to the memory, FFN."""
    params, name = model.step_params, f"dec{l}"
    pq = positional_query(anchors, params, f"{name}.pq", model.pe_cfg)
    qk = x + pq
    sa = attention(linear(qk, params, f"{name}.sa.q"), linear(qk, params, f"{name}.sa.k"),
                   linear(x, params, f"{name}.sa.v"), mask)
    x = apply_layer_norm(x + linear(sa, params, f"{name}.sa.o"), params, f"{name}.ln1")
    ca = multi_head_attention(x + pq, keys_pe, keys, params, f"{name}.ca", model.wl.heads)
    x = apply_layer_norm(x + ca, params, f"{name}.ln2")
    return apply_layer_norm(x + ffn(x, params, f"{name}.ffn"), params, f"{name}.ln3")


def box_heads(model: Model, l: int, h: Tensor, anchors: np.ndarray) -> tuple[Tensor, Tensor]:
    """Boxes refined from ``anchors`` and class probabilities of decoder layer ``l``."""
    params = model.step_params
    boxes = T.sigmoid(linear(h, params, f"dec{l}.box") + Tensor(inv_sigmoid(anchors)))
    return boxes, T.sigmoid(linear(h, params, f"dec{l}.cls"))


# correctness -------------------------------------------------------------------


def digest(model: Model, res: StepResult) -> dict:
    """Numbers that pin a step's outputs.

    Training: the loss and the gradient L2 norm per parameter prefix.
    Inference: the summed box and class head outputs of each decoder layer.
    """
    if res.loss is None:
        return {f"heads.{l}.{part}": float(t.data.sum())
                for l, pair in enumerate(res.heads) for part, t in zip(("box", "cls"), pair)}
    sq: dict = {}
    for name, p in model.params.items():
        prefix = name.split(".")[0]
        sq[prefix] = sq.get(prefix, 0.0) + (0.0 if p.grad is None else float(np.sum(p.grad * p.grad)))
    out = {"loss": res.loss.item()}
    out.update({f"grad.{k}": math.sqrt(v) for k, v in sorted(sq.items())})
    return out


def outputs(model: Model, res: StepResult) -> list:
    """Every array a step produces: head outputs, and the loss and gradients."""
    arrays = [t.data for pair in res.heads for t in pair]
    if res.loss is not None:
        arrays.append(res.loss.data)
        arrays.extend(p.grad for p in model.params.values() if p.grad is not None)
    return arrays


def finite(model: Model, res: StepResult) -> bool:
    return all(np.isfinite(a).all() for a in outputs(model, res))


def digest_matches(got: dict, ref: dict) -> bool:
    return got.keys() == ref.keys() and all(
        abs(got[k] - ref[k]) <= REL_TOL * max(abs(got[k]), abs(ref[k])) for k in ref)


def reference_key(wl: Workload) -> str:
    return wl.name + ("" if wl == WORKLOADS[wl.name] else ":tiny")


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def gate(model: Model, reference: dict) -> tuple[int, int]:
    """Correctness gate run before timing; returns (attempted, failed).

    At the committed seed, the digests of the first GATE_STEPS steps must match
    ``reference`` to REL_TOL relative; a missing reference fails every step. At
    any other seed, one step must give finite outputs and reproduce them
    bitwise when re-run.
    """
    if model.seed == REF_SEED:
        refs = reference.get(reference_key(model.wl), [])
        failed = 0
        for i in range(GATE_STEPS):
            res = step(model, i)
            if not (i < len(refs) and finite(model, res) and digest_matches(digest(model, res), refs[i])):
                print(f"gate: step {i} does not match the reference digest", file=sys.stderr)
                failed += 1
        return GATE_STEPS, failed
    first = step(model, 0)
    ok = finite(model, first)
    a = [x.copy() for x in outputs(model, first)]  # the re-run overwrites the gradients
    b = outputs(model, step(model, 0))
    if not (ok and len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))):
        print("gate: re-running step 0 did not reproduce its outputs", file=sys.stderr)
        return 2, 1
    return 2, 0
