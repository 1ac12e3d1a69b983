"""Regenerate ``reference.json``: the committed-seed digests the gate checks.

Run from the repository root, only when the program's outputs are meant to
change:

    python3 bench/make_reference.py
"""

import gc
import json
import os
import sys

if __name__ == "__main__":
    import run

    run.pin_threads()
    st = run.import_program()
    os.makedirs(run.OUT, exist_ok=True)
    reference = {}
    for full in st.WORKLOADS.values():
        for wl in (full, st.tiny(full)):
            model = st.setup(wl, st.REF_SEED, run.OUT)
            digests = []
            for i in range(st.GATE_STEPS):
                digests.append(st.digest(model, st.step(model, i)))
                gc.collect()
            reference[st.reference_key(wl)] = digests
    with open(st.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {st.REFERENCE}", file=sys.stderr)
