"""Run the benchmark over several seeds and report each end-to-end metric's spread.

Usage, from the repository root:

    python3 bench/spread.py --seeds 1-10 [--workloads train-dense,infer-fixture] [--save NAME]

For every workload and metric it prints the median of the per-seed values,
their quartiles (``statistics.quantiles(values, n=4)``) and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json. With
``--save NAME``, the summary is stored as set NAME in ``bench/baseline.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE = os.path.join(HERE, "baseline.json")


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--save", help="store the summary under this set name in bench/baseline.json")
    args = ap.parse_args()

    summary = {}
    for wl in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        walls = []
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", wl, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            walls.append(time.perf_counter() - start)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{wl} seed {seed}: {result['failed']} of {result['attempted']} steps failed")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, q2, q3 = statistics.quantiles(v, n=4)
            rows[m["name"]] = {"median": statistics.median(v), "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / statistics.median(v), "unit": m["unit"], "values": v}
            print(f"{wl:14s} {m['name']:13s} median {statistics.median(v):10.4f} {m['unit']:4s}"
                  f" spread {rows[m['name']]['spread']:.4f} (bound {m['bound']}, target < {m['bound'] / 3:.4f})"
                  f" values {' '.join(f'{x:.4g}' for x in v)}")
        print(f"{wl:14s} run wall time: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        summary[wl] = {"seeds": args.seeds, "run_wall_s": walls, "metrics": rows}

    if args.save:
        baseline = {}
        if os.path.exists(BASELINE):
            with open(BASELINE, encoding="utf-8") as fh:
                baseline = json.load(fh)
        baseline.setdefault(args.save, {}).update(summary)
        with open(BASELINE, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
