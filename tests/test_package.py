"""Whole-package properties: import footprint and graph lifetime."""

import gc
import os
import pkgutil
import subprocess
import sys

import casdet

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
