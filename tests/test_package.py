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


def test_a_dropped_training_step_leaves_no_garbage_cycles(tmp_path):
    """Graph nodes point only at their parents, so reference counting alone
    frees a step's graph once its last reference goes."""
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    try:
        import standin as st
    finally:
        sys.path.remove(os.path.join(ROOT, "bench"))
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
