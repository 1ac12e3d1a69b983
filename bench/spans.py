"""In-memory span tracer for the traced benchmark run.

Spans are recorded around the casdet calls a step makes, from the
benchmark's own files: for the duration of a traced step (or the traced
set-up), each name in ``SPANS`` is replaced by a timed wrapper where the
caller looks it up, and restored afterwards. Backward cost per stage is
measured from outside: the captured inputs of RoI pooling, the encoder and
self-attention are re-run as fresh leaf tensors, reduced with a fixed
projection, and ``.backward()`` is timed.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import casdet.queries
import standin
from casdet.features import encode_features, roi_pool_batch
from casdet.tensor import Tensor, attention

# (owner, attribute, span name) of every traced call; a span's metric is its
# name + "_ms". RoI pooling and the neck are called inside casdet.queries.
SPANS = [
    (standin, "patch_embed", "features.patch_embed"),
    (standin, "grid_pe", "encode.grid_pe"),
    (standin, "encode_features", "features.encoder_fwd"),
    (standin, "dense_fusion", "features.fusion"),
    (standin, "emulate_proposals", "proposals.emulate"),
    (standin, "load_proposals", "proposals.fixture_load"),
    (standin, "init_matching_queries", "queries.match_init"),
    (standin, "make_dn_queries", "queries.dn_init"),
    (standin, "attention_mask", "queries.mask"),
    (standin, "positional_query", "encode.pos_query"),
    (standin, "attention", "tensor.self_attn_fwd"),
    (standin, "multi_head_attention", "features.cross_attn"),
    (standin, "layer_dn_weights", "cascade.dn_weights"),
    (standin, "modulate", "cascade.modulate"),
    (standin, "match_cost_matrix", "matching.cost"),
    (standin, "hungarian", "matching.hungarian"),
    (Tensor, "backward", "tensor.backward"),
    (casdet.queries, "roi_pool_batch", "features.roi_pool_fwd"),
    (casdet.queries, "neck", "features.neck"),
]
# Spans whose inputs are captured for a backward probe, and the probe's metric.
PROBED = {"features.roi_pool_fwd": "features.roi_pool_bwd_ms",
          "features.encoder_fwd": "features.encoder_bwd_ms",
          "tensor.self_attn_fwd": "tensor.self_attn_bwd_ms"}


class Tracer:
    """Spans as [name, start, end, parent index, step id], kept in memory.

    ``step`` is the id stamped on new spans: an int for a traced step,
    ``"setup"`` during the traced set-up, and None outside traced work (gc
    events are then not attributed).
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.step = None
        self.captured: list[tuple[str, tuple]] = []
        self.values: dict = defaultdict(lambda: defaultdict(float))  # step -> metric -> value
        self._gc_start = 0.0

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.step])
            if name in PROBED:
                self.captured.append((name, args))
            self._stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx][1] = start
                self.spans[idx][2] = end
        return traced

    @contextmanager
    def tracing(self, step):
        """Time every call in SPANS, stamping its spans with ``step``."""
        saved = [getattr(owner, attr) for owner, attr, _ in SPANS]
        for owner, attr, name in SPANS:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
        self.step = step
        try:
            yield
        finally:
            self.step = None
            for (owner, attr, _), fn in zip(SPANS, saved):
                setattr(owner, attr, fn)

    def on_gc(self, phase: str, info: dict) -> None:
        """``gc.callbacks`` hook: collections and their time within traced steps."""
        if self.step is None:
            return
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.values[self.step]["tensor.gc_collections"] += 1
            self.values[self.step]["tensor.gc_ms"] += (perf_counter() - self._gc_start) * 1e3

    def probe_backward(self, step: int, params: dict) -> None:
        """Time each captured stage's backward on fresh leaves of its inputs,
        and count the boxes RoI pooling took."""
        for name, args in self.captured:
            if name == "features.roi_pool_fwd":
                self.values[step]["features.roi_boxes"] += len(args[1])
                leaves = [Tensor(args[0].data, requires_grad=True)]
                out = roi_pool_batch(leaves[0], *args[1:])
            elif name == "features.encoder_fwd":
                leaves = [Tensor(args[0].data, requires_grad=True)]
                out = encode_features(leaves[0], args[1], params, *args[3:])
            else:
                leaves = [Tensor(a.data, requires_grad=True) for a in args[:3]]
                out = attention(*leaves, *args[3:])
            projection = Tensor(np.random.default_rng(0).standard_normal(out.shape))
            reduced = (out * projection).sum()
            start = perf_counter()
            reduced.backward()
            self.values[step][PROBED[name]] += (perf_counter() - start) * 1e3
        self.captured.clear()
        for p in params.values():
            p.grad = None

    def metrics(self, names: list[str]) -> dict[str, float]:
        """Per-step medians for each named metric.

        A span metric is the median, over the steps in which the span ran, of
        its summed inclusive time; a set-up span counts each call on its own. A
        stage the workload never runs reads 0. Other metrics are medians over
        traced steps.
        """
        per_group: dict = defaultdict(lambda: defaultdict(float))
        for idx, (name, start, end, _, step) in enumerate(self.spans):
            per_group[name + "_ms"][step if isinstance(step, int) else idx] += (end - start) * 1e3
        out = {}
        for m in names:
            if m in per_group:
                out[m] = statistics.median(per_group[m].values())
            elif self.values:
                out[m] = statistics.median(v.get(m, 0.0) for v in self.values.values())
            else:
                out[m] = 0.0
        return out

    def table(self) -> list[str]:
        """Per-span self time and calls per traced step, largest self time first."""
        child_time = defaultdict(float)
        for name, start, end, parent, step in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        rows: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        for idx, (name, start, end, _, step) in enumerate(self.spans):
            if isinstance(step, int):
                r = rows[name][step]
                r[0] += 1
                r[1] += (end - start) * 1e3
                r[2] += (end - start - child_time[idx]) * 1e3
        lines = [f"{'span':26s} {'calls/step':>10s} {'total ms':>9s} {'self ms':>9s}"]
        stats = {name: [statistics.median(v[i] for v in per.values()) for i in range(3)]
                 for name, per in rows.items()}
        for name, (calls, total, self_ms) in sorted(stats.items(), key=lambda kv: -kv[1][2]):
            lines.append(f"{name:26s} {calls:10.0f} {total:9.2f} {self_ms:9.2f}")
        return lines
