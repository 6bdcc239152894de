"""pythmod's benchmark: one workload, one seed, one result line.

  python3 perfbench/run.py --workload smoothed --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; pythmod is imported from ./src.
The workload runs in a fresh child process (perfbench/child.py), one
operation after another, so that its peak RSS is its own.  Set-up time is
the median over SETUP_PROBES extra children that only set up, and the
measured child.  With --trace 0 the last line of stdout is the end-to-end
metrics; with --trace 1 it is the per-layer metrics of a traced run
(perfbench/spans.py).  Earlier lines give the same numbers for people,
with sample counts, failure shares, raw times and notes.  Exits 0 with a
result line, or non-zero without one when the workload could not run.

The timings (ops_per_s, op_p50_ms, op_p90_ms, setup_s) are given at
reference speed: each raw time is scaled by how fast fixed kernels of the
benchmark's own ran at that moment (speed.py), which takes out the drift of
a shared machine's speed and leaves the program's.  The raw figures are
printed beside them.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import PER_LAYER
from speed import SETUP_KERNEL, Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("smoothed", "exact", "expsum", "closed")
SETUP_PROBES = 4
DEADLINE_S = 170.0

# Declared end-to-end metrics: (name, unit).
END_TO_END = [
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("ok_frac", "ratio"),
]


def _child(args, extra, timeout):
    """Run child.py; return its result object, or None with the reason on stderr."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHMOD_OUT_DIR", None)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:  # run() kills the child and waits for it
        print(f"perfbench: child timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        print(f"perfbench: child exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "pythmod" / "__init__.py").is_file():
        print(f"perfbench: no pythmod sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    setups, factors = [], []
    speed = None if args.trace else Speed(SETUP_KERNEL)
    if not args.trace:
        for _ in range(SETUP_PROBES):
            factors.append(speed.factor_now())
            probe = _child(args, ["--setup-only"], DEADLINE_S - (time.monotonic() - start))
            if probe is None:
                return 1
            setups.append(probe["setup_s"])
        factors.append(speed.factor_now())
    res = _child(args, ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                 DEADLINE_S - (time.monotonic() - start))
    if res is None:
        return 1
    setups.append(res["setup_s"])

    attempted, failed = res["attempted"], res["wrong"]
    probe = res["defect_probe"]
    correct = failed == 0 and res.get("identical", True) and not probe.get("wrong")
    print(f"workload {args.workload}, seed {args.seed}: {attempted} operations in "
          f"{res['passes']} passes, {res['timed_s']:.3f} s timed "
          f"({res['timed_ref_s']:.3f} s at reference speed)")
    print(f"fail_frac {failed / attempted:.4f} ({failed} of {attempted} operations "
          f"raised, exited non-zero or failed their check)")
    for detail, count in sorted(res["details"].items()):
        print(f"  {count:6d}  {detail}")
    for note in res["notes"]:
        print(f"note: {note}")
    if probe:
        print(f"known defect, untimed: of {sum(probe.values())} draws with p dividing exactly "
              f"one of l1, l2, the closed circle sum raised UnitRequired on "
              f"{probe.get('defect', 0)} (its docstring promises 0), returned the right value "
              f"on {probe.get('fixed', 0)} and a wrong one on {probe.get('wrong', 0)}")
    if attempted < 100:
        print(f"note: only {attempted} operations; p90 rests on fewer than 10 samples beyond it")

    counts = {}
    if args.trace:
        print(f"traced results identical to untraced: {res['identical']} ({res['spans']} spans)")
        units = dict(PER_LAYER)
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in res["per_layer"].items()}
    else:
        values = {
            "ops_per_s": res["verified"] / res["timed_ref_s"],
            "op_p50_ms": res["op_p50_ms"],
            "op_p90_ms": res["op_p90_ms"],
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": statistics.median(s * f for s, f in zip(setups, factors)),
            "ok_frac": res["verified"] / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        counts = {"op_p50_ms": f"n={attempted}",
                  "op_p90_ms": f"n={attempted}, {res['beyond_p90']} beyond",
                  "setup_s": f"median of {len(setups)}; raw {statistics.median(setups):.4g} s",
                  "ok_frac": f"{res['verified']} of {attempted}",
                  "ops_per_s": f"{res['verified']} verified; raw "
                               f"{res['verified'] / res['timed_s']:.4g} 1/s"}
    for name, m in metrics.items():
        extra = f"  ({counts[name]})" if name in counts else ""
        print(f"{name:40s} {m['value']:.6g} {m['unit']}{extra}")
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
