"""Closed-loop benchmark of casdet: one client, seeded synthetic scenes.

Usage, from the repository root:

    python3 bench/run.py --workload train-dense --seed 1 --seconds 20 --trace 0

Each step is a training step (forward, L1 box loss, backward) or an
inference pass of the stand-in detector in ``standin.py``, on a fixed pool
of seeded scenes reused in a cycle. ``--trace 0`` measures the end-to-end
metrics untraced; ``--trace 1`` is a separate run that reports the
per-layer metrics from spans (see ``spans.py``). The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The line before it records the environment; the same record,
with the spans of a traced run, is written under ``bench/out/``.

BLAS is pinned to one thread before numpy is imported: with default
threads the same forward pass varied 20-240 ms from run to run.
"""

import time

T_START = time.perf_counter()  # set-up time counts from here, before numpy is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_RUNS = 9   # fresh processes per run; setup_s is their median
RSS_RUNS = 3     # the first of them also read peak RSS; peak_rss_mb is the median of those
RSS_STEPS = 4    # steps after set-up before peak RSS is read; fixed so commits compare
CHILD_TIMEOUT_S = 120


def pin_threads() -> None:
    if "numpy" in sys.modules:
        sys.exit("refusing to run: numpy was imported before the BLAS thread pin")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import casdet from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "casdet", "__init__.py")):
        sys.exit(f"casdet sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import casdet
    import standin

    if os.path.dirname(os.path.dirname(os.path.abspath(casdet.__file__))) != SRC:
        sys.exit(f"casdet was imported from {casdet.__file__}, not from {SRC}")
    return standin


def environment(wl, seed: int, samples: dict) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "threads_pinned": all(os.environ.get(v) == "1" for v in THREAD_VARS),
        "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
        "workload": wl.name, "seed": seed, "shapes": wl.shapes(), "samples": samples,
    }


def prepare(st, wl, seed: int, tracing=contextlib.nullcontext()):
    """Parameters, scene pool, fixture write and parse (inside ``tracing``), and one warm-up step."""
    os.makedirs(OUT, exist_ok=True)
    with tracing:
        model = st.setup(wl, seed, OUT)
    st.step(model, 0)
    return model


def settle(model) -> None:
    """Free the last training step's graph before the next one.

    Each node's backward closure refers to the node itself, so a step's
    graph is freed only by the cyclic collector; left alone, memory grew by
    about 100 MB per step. Inference builds no graph.
    """
    if model.wl.train:
        gc.collect()


def checked_step(st, model, i: int) -> tuple[float, bool, object]:
    """Run step i; returns (milliseconds, ok, result). A failure is counted, not raised."""
    start = time.perf_counter()
    try:
        res = st.step(model, i)
    except Exception:  # a failed step is a measured outcome of the run
        ms = (time.perf_counter() - start) * 1e3
        traceback.print_exc()
        return ms, False, None
    ms = (time.perf_counter() - start) * 1e3
    ok = st.finite(model, res)
    if not ok:
        print(f"step {i}: non-finite output", file=sys.stderr)
    return ms, ok, res


# runs ---------------------------------------------------------------------------


def run_child(st, wl, seed: int, rss: bool) -> dict:
    """One fresh process: set-up time and, with ``rss``, peak RSS after RSS_STEPS further steps.

    The cyclic collector is off for those steps, so every step graph is still
    held when RSS is read. With it on, the reading depended on when a gen-2
    collection happened to run: across hash seeds, the same steps of the same
    scenes on train-hires peaked anywhere from 626 to 772 MB.
    """
    model = prepare(st, wl, seed)
    out = {"setup_s": time.perf_counter() - T_START}
    if rss:
        gc.collect()
        gc.disable()
        for i in range(1, RSS_STEPS + 1):
            st.step(model, i)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def fresh_processes(args) -> list[dict]:
    """SETUP_RUNS set-up processes, one after another; process k has hash seed k."""
    results = []
    for k in range(SETUP_RUNS):
        cmd = [sys.executable, os.path.abspath(__file__), "--child", "--workload", args.workload,
               "--seed", str(args.seed)] + (["--rss"] if k < RSS_RUNS else []) + (["--tiny"] if args.tiny else [])
        env = dict(os.environ, PYTHONHASHSEED=str(k))
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, env=env)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"set-up process exited with code {proc.returncode}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


def untraced(st, wl, args) -> tuple[dict, int, int, dict, None]:
    """End-to-end metrics: fresh-process set-up and RSS, the gate, then the timed loop."""
    children = fresh_processes(args)
    model = prepare(st, wl, args.seed)
    settle(model)
    attempted, failed = st.gate(model, st.load_reference())
    settle(model)
    times = []
    start = time.perf_counter()
    deadline = start + args.seconds
    while not times or time.perf_counter() < deadline:
        ms, ok, res = checked_step(st, model, len(times))
        times.append(ms)
        failed += not ok
        del res
        settle(model)
    wall = time.perf_counter() - start
    metrics = {
        "setup_s": (statistics.median(c["setup_s"] for c in children), "s"),
        "step_ms_p50": (statistics.median(times), "ms"),
        "step_ms_p90": (statistics.quantiles(times, n=10)[-1] if len(times) > 1 else times[0], "ms"),
        "scenes_per_s": (len(times) / wall, "1/s"),
        "peak_rss_mb": (statistics.median(c["peak_rss_mb"] for c in children[:RSS_RUNS]), "MB"),
    }
    samples = {"steps": len(times), "gate_steps": attempted, "setup_runs": SETUP_RUNS,
               "rss_runs": RSS_RUNS, "rss_steps": RSS_STEPS, "timed_s": wall}
    return metrics, attempted + len(times), failed, samples, None


def traced(st, wl, args) -> tuple[dict, int, int, dict, list]:
    """Alternate untraced and traced steps on the same inputs; probe backward after each."""
    import spans

    tracer = spans.Tracer()
    model = prepare(st, wl, args.seed, tracer.tracing("setup"))
    settle(model)
    attempted, failed = st.gate(model, st.load_reference())
    settle(model)
    plain_ms, traced_ms = [], []
    gc.callbacks.append(tracer.on_gc)
    try:
        deadline = time.perf_counter() + args.seconds
        i = 0
        while not traced_ms or time.perf_counter() < deadline:
            ms, ok, res = checked_step(st, model, i)
            plain_ms.append(ms)
            failed += not ok
            del res
            settle(model)
            with tracer.tracing(i):
                ms, ok, res = checked_step(st, model, i)
            traced_ms.append(ms)
            failed += not ok
            if res is not None:
                v = tracer.values[i]
                v["queries.n_rows"] = res.n_rows
                v["proposals.count"] = len(res.props)
                v["proposals.recall_50"] = st.proposal_recall(res.props, model.pool[i % wl.pool].boxes, 0.5)
                v["matching.pairs"] = res.pairs
                v["tensor.graph_nodes"] = graph_nodes(res.loss) if res.loss is not None else 0
            del res
            tracer.probe_backward(i, model.params)
            settle(model)
            i += 1
    finally:
        gc.callbacks.remove(tracer.on_gc)
    units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
    values = tracer.metrics(list(units))
    values["bench.trace_overhead_pct"] = (statistics.median(traced_ms) / statistics.median(plain_ms) - 1) * 100
    metrics = {n: (values[n], u) for n, u in units.items()}
    for line in tracer.table():
        print(line, file=sys.stderr)
    samples = {"traced_steps": len(traced_ms), "untraced_steps": len(plain_ms), "gate_steps": attempted}
    return metrics, attempted + len(plain_ms) + len(traced_ms), failed, samples, tracer.spans


def graph_nodes(root) -> int:
    """Nodes reachable from ``root`` through recorded parents (a read-only walk)."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def benchmark_spec() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test shapes (self-tests only)")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--rss", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    pin_threads()
    st = import_program()
    if args.workload not in st.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(st.WORKLOADS)}")
    wl = st.WORKLOADS[args.workload]
    if args.tiny:
        wl = st.tiny(wl)
    if args.child:
        print(json.dumps(run_child(st, wl, args.seed, args.rss)))
        return 0

    run = traced if args.trace else untraced
    metrics, attempted, failed, samples, spans = run(st, wl, args)
    env = environment(wl, args.seed, samples)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"env": env, "error_rate": failed / attempted, **result}
    if spans is not None:
        record["spans"] = {"fields": ["name", "start", "end", "parent", "step"], "rows": spans}
    tag = f"{wl.name}{'-tiny' if args.tiny else ''}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print(json.dumps({"env": env, "error_rate": record["error_rate"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
