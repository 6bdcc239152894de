"""One workload in a process of its own; run.py starts it.

  python3 perfbench/child.py --workload W --seed S --seconds T --trace 0|1
  python3 perfbench/child.py --workload W --seed S --setup-only

Set-up (imports of numpy and pythmod, the first pass's inputs and one
warm-up operation of each kind) is timed from the first line of this file.
The timed loop then runs whole passes, one operation after another, until
the operations have taken --seconds; each result is reduced to plain data
and checked outside its operation's timing.  Operation latencies are also
given at reference speed (see speed.py).  With --trace 1 each pass runs
twice, untraced and traced (in alternating order, so that the machine's
drift falls on both alike), until the untraced passes have taken half of
--seconds; the two sets of results must be identical.  After the timed
loop the known-defect draws of workloads.defect_probe are issued, untimed.
The last line of stdout is one JSON object for run.py.
"""
from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
from array import array  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import pythmod as pm  # noqa: E402
import pythmod.cli  # noqa: E402,F401

import spans  # noqa: E402
import workloads  # noqa: E402
from speed import KERNELS, Speed  # noqa: E402


class Tally:
    """What the untraced passes add up to: latencies, statuses, notes."""

    def __init__(self):
        self.start = array("d")
        self.latency = array("d")
        self.statuses = Counter()
        self.details = Counter()


def run_pass(ops, ctx, refs=None, tally=None, tracer=None, speed=None):
    """Run `ops` in order, one after another.  Returns (seconds the
    operations took, digest of their plain results).  With `refs` each
    result is checked, outside the timing, and counted in `tally`.  With
    `speed` its kernel runs between operations when due."""
    digest = hashlib.blake2b(digest_size=16)
    seconds = 0.0
    for kind, inputs in ops:
        call, canon, check = workloads.KINDS[kind]
        if speed is not None:
            speed.sample_if_due()
        if tracer is not None:
            tracer.op_index += 1
            tracer.begin("op." + kind)
        t = perf_counter()
        try:
            raw = call(pm, inputs, ctx)
        except Exception as exc:  # a failure; the check decides if it was predicted
            raw, exc_name = None, type(exc).__name__
        else:
            exc_name = None
        latency = perf_counter() - t
        if tracer is not None:
            tracer.end()
        seconds += latency
        data = {"raised": exc_name} if exc_name else canon(raw)
        digest.update(repr(data).encode())
        if refs is not None:
            status, detail = check(inputs, data, refs)
            tally.start.append(t)
            tally.latency.append(latency)
            tally.statuses[status] += 1
            if status != "ok":
                tally.details[f"{status}: {detail}"] += 1
    return seconds, digest.digest()


def traced_pass(ops, ctx, tracer):
    """run_pass with the tracer installed for just this pass."""
    ctx.tracer = tracer
    tracer.install(pm)
    try:
        return run_pass(ops, ctx, tracer=tracer)
    finally:
        tracer.uninstall()
        ctx.tracer = None


def passes(args, first_pass):
    """The workload's passes in order, without end."""
    yield first_pass
    for index in itertools.count(1):
        yield workloads.make_pass(args.workload, args.seed, index)


def defect_probe(args, ctx, refs):
    """Issue the known-defect draws, untimed; count each outcome as
    "defect" (UnitRequired), "fixed" (a result that passes its check) or
    "wrong"."""
    outcomes = Counter()
    for kind, inputs in workloads.defect_probe(args.workload, args.seed):
        call, canon, check = workloads.KINDS[kind]
        try:
            data = canon(call(pm, inputs, ctx))
        except Exception as exc:
            data = {"raised": type(exc).__name__}
        if workloads.is_known_defect(data):
            outcomes["defect"] += 1
        else:
            outcomes["fixed" if check(inputs, data, refs)[0] == "ok" else "wrong"] += 1
    return dict(outcomes)


def summary(tally, refs, speed):
    st = tally.statuses
    attempted = sum(st.values())
    start, raw = np.frombuffer(tally.start), np.frombuffer(tally.latency)
    lat_ms = raw * speed.factors(start, start + raw) * 1e3
    p90 = float(np.percentile(lat_ms, 90))
    return dict(
        attempted=attempted,
        verified=st["ok"] + st["fallback"],
        wrong=st["wrong"],
        details=dict(tally.details),
        notes=sorted(set(refs.notes)),
        timed_ref_s=float(np.sum(lat_ms)) / 1e3,
        timed_s=float(np.sum(raw)),
        op_p50_ms=float(np.percentile(lat_ms, 50)),
        op_p90_ms=p90,
        beyond_p90=int(np.sum(lat_ms > p90)),
    )


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    if args.seconds is None and not args.setup_only:
        ap.error("--seconds is required unless --setup-only is given")
    if Path(pm.__file__).resolve().parent != SRC / "pythmod":
        sys.exit(f"pythmod imported from {pm.__file__}, not from {SRC}")

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        ctx = workloads.Context(tmp)
        refs = workloads.Refs(pm)
        first_pass = workloads.make_pass(args.workload, args.seed, 0)
        run_pass(workloads.WARMUP[args.workload], ctx)
        setup_s = perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return

        budget = args.seconds / 2 if args.trace else args.seconds
        tracer = spans.Tracer() if args.trace else None
        tally = Tally()
        speed = Speed(KERNELS[args.workload])
        elapsed = traced_s = 0.0
        identical = True
        for index, ops in enumerate(passes(args, first_pass)):
            if tracer is not None and index % 2:
                traced_seconds, traced_digest = traced_pass(ops, ctx, tracer)
            seconds, digest = run_pass(ops, ctx, refs, tally, speed=speed)
            if tracer is not None and not index % 2:
                traced_seconds, traced_digest = traced_pass(ops, ctx, tracer)
            elapsed += seconds
            if tracer is not None:
                traced_s += traced_seconds
                identical &= traced_digest == digest
            if elapsed >= budget:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out = {"setup_s": setup_s, "passes": index + 1, "peak_rss_mb": peak_rss_mb,
               "defect_probe": defect_probe(args, ctx, refs)}
        if tracer is not None:
            tracer.dump(OUT_DIR / f"trace-{args.workload}.npz")
            out["identical"] = identical
            out["per_layer"] = tracer.metrics(traced_s / elapsed - 1.0)
            out["spans"] = len(tracer.span_start)
    out.update(summary(tally, refs, speed))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
