"""Self-tests of the benchmark at tiny shapes.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import copy
import gc
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import standin as st  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_bench(cwd, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                             "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_each_workload_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, st.REF_SEED + 7, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_committed_seed_passes_the_gate():
    proc = run_bench(ROOT, "train-dense", st.REF_SEED, 0)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["failed"] == 0


@pytest.mark.parametrize("name", sorted(st.WORKLOADS))
def test_corrupted_reference_is_reported_as_a_failure(tmp_path, name):
    wl = st.tiny(st.WORKLOADS[name])
    model = st.setup(wl, st.REF_SEED, str(tmp_path))
    reference = st.load_reference()
    assert st.gate(model, reference) == (st.GATE_STEPS, 0)
    gc.collect()
    bad = copy.deepcopy(reference)
    step1 = bad[st.reference_key(wl)][1]
    step1[sorted(step1)[0]] *= 1 + 1e-6
    assert st.gate(model, bad) == (st.GATE_STEPS, 1)
    del bad[st.reference_key(wl)]
    assert st.gate(model, bad) == (st.GATE_STEPS, st.GATE_STEPS)


@pytest.mark.parametrize("name", sorted(st.WORKLOADS))
def test_same_seed_same_scenes_and_other_seed_other_scenes(name):
    wl = st.tiny(st.WORKLOADS[name])
    a, b, c = st.make_pool(wl, 3), st.make_pool(wl, 3), st.make_pool(wl, 4)
    for x, y in zip(a, b):
        assert x.image.tobytes() == y.image.tobytes()
        assert x.boxes.tobytes() == y.boxes.tobytes()
        assert x.labels.tobytes() == y.labels.tobytes()
    assert any(x.image.shape != z.image.shape or not np.array_equal(x.image, z.image) for x, z in zip(a, c))


def test_refuses_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it fails without a result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 1, 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
