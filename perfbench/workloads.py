"""The benchmark's workloads: seeded input generators, operations and checks.

A workload is a list of passes.  Pass i of workload w under seed s is
generated from random.Random(f"{INPUTS_VERSION}:{w}:{s}:{i}") alone, so the
same seed gives the same inputs.  Sizes are drawn stratified (a fixed number
of draws from each size band, uniform inside the band) so that the cost of a
pass varies little between seeds while every input is still new.

An operation is (kind, inputs).  KINDS[kind] gives three functions:
  call(pm, inputs, ctx)  the timed call into pythmod;
  canon(raw)             plain data of the outcome, taken outside the timing;
  check(inputs, data, refs) -> (status, detail), also outside the timing,
where status is "ok", "fallback" (a documented HypothesisViolated fallback)
or "wrong" (a result that fails its check, any raise or a non-zero exit).
CLI operations call pythmod.cli.main in-process; library operations call only
names that pythmod exports.

The workloads draw only inputs on which no operation fails.  The closed
circle sum has one known defect: where p divides exactly one of l1, l2 it
raises UnitRequired (and `expsum --mode both` exits 2), although its
docstring promises 0.  Those draws, about a quarter of uniform (k1, k2) at
p = 7, are drawn again in the workloads; `defect_probe` issues them after
the timed operations of every expsum and closed run, so that the defect
shows in each run and its fix shows too.
"""
from __future__ import annotations

import csv
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import reference

INPUTS_VERSION = 2

CRITERION_10 = [(7, 5, 912), (7, 6, 3545)]
SMOOTHED_N_MAX = 3545  # the larger criterion-10 box
MAX_Q = 2**31

# Each mix is a list of size bands with a fixed number of draws per pass.
# The bands are placed so that the median and the 90th percentile of a
# pass's latencies fall inside a band of similar operations rather than on
# the edge between two bands, where a small change of inputs would move them.
# In `exact` both fall on transition bands, and the count_pythagorean calls
# (triples, and dual_triple_count above 2 L^2) stay off them: their timing
# drifts with the machine's load about twice as much as the other kernels'.

# (p, n, nu_lo, nu_hi, draws): N = ceil(q^nu), nu stratified over the band.
# p50 falls in the 7^4 band.  p90 falls among the nine larger counts, whose
# bands all give N = 570..630 (a count's cost grows with the box, N^2), so
# that those nine cost about the same.
SMOOTHED_MIX = [
    (7, 4, 0.60, 0.75, 40),
    (7, 5, 0.652, 0.662, 3),
    (11, 4, 0.662, 0.672, 3),
    (13, 4, 0.619, 0.628, 3),
]
# (p, n, N_lo, N_hi, draws) with N < sqrt(q/2) in every band.
TRANSITION_MIX = [(13, 4, 20, 119, 3), (7, 6, 20, 240, 12), (11, 5, 20, 283, 4),
                  (7, 7, 400, 641, 6), (7, 8, 200, 1697, 2)]
TRIPLES_MIX = [(10**4, 2 * 10**4, 3), (25 * 10**3, 4 * 10**4, 3), (2 * 10**5, 3 * 10**5, 1),
               (9 * 10**5, 10**6, 1)]
DUAL_SMALL = (50, 300, 10)  # L band and draws, modulus in [L, 2 L^2]
DUAL_LARGE = (500, 3000, 10)  # L band and draws, modulus in (2 L^2, 2^31)
# (n, plain draws, --alpha draws) at p = 7.  The operations fall in four
# cost bands: 7^5 --alpha (about 4 ms); 7^5 plain and 7^6 --alpha (7 ms);
# 7^6 plain and 7^7 --alpha (34 ms); 7^7 plain and 7^8 (0.25 s and more).
# With 27, 30, 14 and 13 of the 84 operations in them, p50 (the 42nd) falls
# in the middle of the second band and p90 (8.4 from the top) inside the
# fourth.
EXPSUM_MIX = [(5, 24, 27), (6, 12, 6), (7, 12, 2), (8, 1, 0)]
CLOSED_PRIMES = [7, 11, 13, 17, 19, 23, 29, 31]
HENSEL_PRIMES = [7, 11, 13]
# Closed sums and lattice weights cost either about 10 us or about 70 us,
# so the 400 sqrt_mod round trips (7-17 us) put p50 inside the fast cluster
# rather than in the gap between the two.
CLOSED_MIX = {"circle_closed": 200, "stationary": 60, "curvature": 60, "gauss": 60,
              "sqrt": 400, "hensel": 30, "lattice": 60}
BRUTE_SAMPLE_Q = 20000  # closed sums at q <= this are also brute-forced ...
BRUTE_SAMPLE_MAX = 200  # ... up to this many per run
DEFECT_PROBES = 20  # known-defect draws issued after the timed operations


class Context:
    """Per-run state an operation may need: a scratch directory, the active
    tracer (or None) and a serial number for output files."""

    def __init__(self, tmpdir):
        self.tmpdir = Path(tmpdir)
        self.tracer = None
        self.serial = 0


class Refs:
    """Reference values, cached across the checks of one run."""

    def __init__(self, pm):
        self.pm = pm
        self._smoothed = {}
        self._hypotenuses = None
        self._hypotenuses_upto = -1
        self.brute_checked = 0
        self.notes = []

    def smoothed(self, p, n, N):
        key = (p, n, N)
        if key not in self._smoothed:
            self._smoothed[key] = reference.smoothed_count_fft(p, p**n, N)
        return self._smoothed[key]

    def pythagorean(self, N):
        if self._hypotenuses_upto < N:
            self._hypotenuses_upto = max(N, 10**6)
            self._hypotenuses = reference.primitive_hypotenuses(self._hypotenuses_upto)
        return reference.pythagorean_count(N, self._hypotenuses)


# ---------------------------------------------------------------- drawing

def _bands(rng, lo, hi, k):
    """k draws, one uniform in each of k equal sub-bands of [lo, hi]."""
    w = (hi - lo) / k
    return [lo + w * (i + rng.random()) for i in range(k)]


def _int_bands(rng, lo, hi, k):
    return [min(hi, int(v)) for v in _bands(rng, lo, hi + 1, k)]


def _unit(rng, q, p):
    while True:
        x = rng.randrange(1, q)
        if x % p:
            return x


def _n_max(p, extra=0):
    n = 1
    while p ** (n + 1 + extra) <= MAX_Q:
        n += 1
    return n


def _is_unit_square(a, p):
    return a % p != 0 and pow(a % p, (p - 1) // 2, p) == 1


def _expsum_triple(rng, p, n, unit_required=None):
    """(k1, k2, x3): k1, k2 uniform mod p^n, not both 0; x3 a uniform unit.
    With unit_required True or False, only draws that unit_required_draw
    classes so."""
    q = p**n
    while True:
        k1, k2 = rng.randrange(q), rng.randrange(q)
        if (k1 or k2) and unit_required in (None, unit_required_draw(p, n, k1, k2)):
            return k1, k2, _unit(rng, q, p)


def unit_required_draw(p, n, k1, k2):
    """True when p divides exactly one of the stripped (l1, l2) and the closed
    form would otherwise apply (r <= n - 2): the draws on which the closed
    circle sum raises UnitRequired instead of returning 0."""
    r = 0
    while r < n and k1 % p ** (r + 1) == 0 and k2 % p ** (r + 1) == 0:
        r += 1
    l1, l2 = k1 // p**r, k2 // p**r
    return r <= n - 2 and (l1 % p == 0) != (l2 % p == 0)


def _gen_smoothed(rng):
    ops = [("count", (p, n, N)) for p, n, N in CRITERION_10]
    ops.append(("scan", (7, 4, 6, 0.7)))
    for p, n, lo, hi, k in SMOOTHED_MIX:
        q = p**n
        for nu in _bands(rng, lo, hi, k):
            N = math.ceil(q**nu)
            assert N <= SMOOTHED_N_MAX, (p, n, nu)
            ops.append(("count", (p, n, N)))
    return ops


def _gen_exact(rng):
    ops = []
    for p, n, lo, hi, k in TRANSITION_MIX:
        ops += [("transition", (p, n, N)) for N in _int_bands(rng, lo, hi, k)]
    for lo, hi, k in TRIPLES_MIX:
        ops += [("triples", (N,)) for N in _int_bands(rng, lo, hi, k)]
    lo, hi, k = DUAL_SMALL
    for L in _int_bands(rng, lo, hi, k):
        ops.append(("dual", (L, rng.randint(L, 2 * L * L))))
    lo, hi, k = DUAL_LARGE
    for L in _int_bands(rng, lo, hi, k):
        ops.append(("dual", (L, rng.randint(2 * L * L + 1, MAX_Q))))
    return ops


def _gen_expsum(rng):
    ops = []
    for n, plain, with_alpha in EXPSUM_MIX:
        for _ in range(plain):
            ops.append(("expsum", (n, *_expsum_triple(rng, 7, n, False), None)))
        for _ in range(with_alpha):  # --alpha takes another closed route
            ops.append(("expsum", (n, *_expsum_triple(rng, 7, n), rng.randrange(7))))
    return ops


def _gen_closed(rng):
    ops = []
    for _ in range(CLOSED_MIX["circle_closed"]):
        p = rng.choice(CLOSED_PRIMES)
        n = rng.randint(2, _n_max(p))
        ops.append(("circle_closed", (p, n, *_expsum_triple(rng, p, n, False))))
    for kind in ("stationary", "curvature"):
        for _ in range(CLOSED_MIX[kind]):
            p = rng.choice(CLOSED_PRIMES)
            n = rng.randint(1, _n_max(p))
            q = p**n
            while True:
                k1, k2, x3 = _unit(rng, q, p), _unit(rng, q, p), _unit(rng, q, p)
                if _is_unit_square(k1 * k1 + k2 * k2, p):
                    break
            ops.append((kind, (p, n, k1, k2, x3, rng.choice((1, -1)))))
    for _ in range(CLOSED_MIX["gauss"]):
        p = rng.choice(CLOSED_PRIMES)
        levels = rng.randint(1, _n_max(p))
        while True:
            D = rng.randrange(1, 10**6)
            if _is_unit_square(D, p):
                break
        ops.append(("gauss", (levels, _unit(rng, p, p), D, p)))
    for _ in range(CLOSED_MIX["sqrt"]):
        p = rng.choice(CLOSED_PRIMES)
        n = rng.randint(1, _n_max(p))
        x = _unit(rng, p**n, p)
        ops.append(("sqrt", (p, n, x, x * x % p**n)))
    for _ in range(CLOSED_MIX["hensel"]):
        p = rng.choice(HENSEL_PRIMES)
        n = rng.randint(1, _n_max(p, extra=1))
        q = p**n
        while True:
            t = rng.randrange(q)
            if t * (1 - t * t) * (1 + t * t) % p:
                break
        inv = pow(1 + t * t, -1, q)
        x3 = _unit(rng, q, p)
        ops.append(("hensel", (p, n, x3 * (1 - t * t) * inv % q, x3 * 2 * t * inv % q, x3)))
    for _ in range(CLOSED_MIX["lattice"]):
        p = rng.choice(CLOSED_PRIMES)
        levels = rng.randint(1, _n_max(p))
        D = rng.randint(1, 60) ** 2 + rng.randint(1, 60) ** 2
        N = (p**levels) ** rng.uniform(0.5, 1.0)
        ops.append(("lattice", (D, levels, N, rng.uniform(0.5, 2.0), p)))
    return ops


GENERATORS = {"smoothed": _gen_smoothed, "exact": _gen_exact,
              "expsum": _gen_expsum, "closed": _gen_closed}

WARMUP = {
    "smoothed": [("count", (7, 4, 107))],
    "exact": [("transition", (7, 6, 50)), ("triples", (10**4,)), ("dual", (50, 1000))],
    "expsum": [("expsum", (5, 3, 4, 1, None)), ("expsum", (5, 3, 4, 1, 2))],
    "closed": [("circle_closed", (7, 4, 3, 4, 1)), ("stationary", (7, 4, 1, 1, 1, 1)),
               ("curvature", (7, 4, 1, 1, 1, 1)), ("gauss", (3, 1, 2, 7)),
               ("sqrt", (7, 4, 3, 9)), ("hensel", (7, 2, 3, 4, 5)),
               ("lattice", (25, 2, 10.0, 1.0, 7))],
}


def make_pass(workload: str, seed: int, index: int) -> list:
    """Pass `index` of `workload` under `seed`: a shuffled list of operations."""
    rng = random.Random(f"{INPUTS_VERSION}:{workload}:{seed}:{index}")
    ops = GENERATORS[workload](rng)
    rng.shuffle(ops)
    return ops


def defect_probe(workload: str, seed: int) -> list:
    """DEFECT_PROBES operations on the known defect's draws (p divides
    exactly one of l1, l2), for the expsum and closed workloads; none for
    the others."""
    rng = random.Random(f"{INPUTS_VERSION}:{workload}:{seed}:defect")
    if workload == "expsum":
        return [("expsum", (5, *_expsum_triple(rng, 7, 5, True), None))
                for _ in range(DEFECT_PROBES)]
    if workload == "closed":
        ops = []
        for _ in range(DEFECT_PROBES):
            p = rng.choice(CLOSED_PRIMES)
            n = rng.randint(2, _n_max(p))
            ops.append(("circle_closed", (p, n, *_expsum_triple(rng, p, n, True))))
        return ops
    return []


def is_known_defect(data) -> bool:
    """True when an outcome is the known defect: UnitRequired raised by the
    library, or exit 2 with UnitRequired from the CLI."""
    if not isinstance(data, dict):
        return False
    return data.get("raised") == "UnitRequired" or (
        data.get("rc") == 2 and data.get("error") == "UnitRequired")


# ---------------------------------------------------------------- CLI kinds

def _run_cli(pm, argv, ctx):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = pm.cli.main(argv)
    text = out.getvalue()
    if ctx.tracer is not None:
        ctx.tracer.counters["cli.record_bytes"] += len(text)
    return rc, text, err.getvalue()


def _strip_seconds(obj):
    """Drop every 'seconds' field: wall times differ between runs."""
    if isinstance(obj, dict):
        return {k: _strip_seconds(v) for k, v in obj.items() if k != "seconds"}
    if isinstance(obj, list):
        return [_strip_seconds(v) for v in obj]
    return obj


def _cli_canon(raw):
    rc, text, err = raw[:3]
    try:
        result = _strip_seconds(json.loads(text)["result"]) if text.strip() else None
    except (ValueError, KeyError):
        result = "unparsable record"
    error = err.strip().split(":")[1].strip() if err.startswith("error:") else err.strip()
    return {"rc": rc, "result": result, "error": error}


def _cli_status(data):
    """Status from the exit code alone, or None when the result needs checking."""
    if data["rc"] == 0 and isinstance(data["result"], dict):
        return None
    if data["rc"] == 3:
        return "wrong", "exit 3: routes disagree"
    return "wrong", f"unexpected exit {data['rc']}: {data['error'] or data['result']}"


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _check_count_row(p, n, N, row, refs):
    if _rel(row["measured_T"], refs.smoothed(p, n, N)) > 1e-6:
        return "wrong", f"measured_T at {p}^{n}, N={N} off the FFT reference"
    if _rel(row["predicted_T0"], reference.main_term(p, p**n, N)) > 1e-9:
        return "wrong", f"predicted_T0 at {p}^{n}, N={N} off the main term"
    if _rel(row["ratio"], row["measured_T"] / row["predicted_T0"]) > 1e-12:
        return "wrong", "ratio is not measured_T / predicted_T0"
    return "ok", ""


def _count_call(pm, inputs, ctx):
    p, n, N = inputs
    return _run_cli(pm, ["count", "--p", str(p), "--n", str(n), "--N", str(N)], ctx)


def _count_check(inputs, data, refs):
    status = _cli_status(data)
    if status:
        return status
    p, n, N = inputs
    if (p, n, N) in CRITERION_10:
        refs.notes.append(f"criterion 10 ratio at {p}^{n}, N={N}: {data['result']['ratio']:.7f}")
    return _check_count_row(p, n, N, data["result"], refs)


def _scan_call(pm, inputs, ctx):
    p, lo, hi, nu = inputs
    ctx.serial += 1
    out = ctx.tmpdir / f"scan-{ctx.serial}.csv"
    argv = ["scan", "--p", str(p), "--n", f"{lo}..{hi}", "--nu", str(nu), "--out", str(out)]
    return (*_run_cli(pm, argv, ctx), out)


def _scan_canon(raw):
    data = _cli_canon(raw)
    out = raw[3]
    try:
        with open(out, newline="", encoding="utf-8") as fh:
            data["csv"] = [{k: float(v) for k, v in row.items() if k not in ("method", "seconds")}
                           for row in csv.DictReader(fh)]
        out.unlink()
        Path(str(out) + ".manifest.json").unlink()
    except (OSError, ValueError):
        data["csv"] = None
    return data


def _scan_check(inputs, data, refs):
    status = _cli_status(data)
    if status:
        return status
    p, lo, hi, nu = inputs
    rows = data["result"]["rows"]
    if [r["n"] for r in rows] != list(range(lo, hi + 1)):
        return "wrong", "scan rows do not cover the n range"
    for r in rows:
        if r["N"] != math.ceil((p ** r["n"]) ** nu):
            return "wrong", "scan N is not ceil(q^nu)"
        status = _check_count_row(p, r["n"], int(r["N"]), r, refs)
        if status[0] != "ok":
            return status
    if data["csv"] is None or [r["measured_T"] for r in data["csv"]] != [r["measured_T"] for r in rows]:
        return "wrong", "scan CSV differs from the record"
    return "ok", ""


def _transition_call(pm, inputs, ctx):
    p, n, N = inputs
    return _run_cli(pm, ["transition", "--p", str(p), "--n", str(n), "--N", str(N)], ctx)


def _transition_check(inputs, data, refs):
    status = _cli_status(data)
    if status:
        return status
    res = data["result"]
    if res["equal"] is not True or res["congruence_count"] != res["equation_count"]:
        return "wrong", "congruence count differs from equation count"
    return "ok", ""


def _triples_call(pm, inputs, ctx):
    return _run_cli(pm, ["triples", "--N", str(inputs[0])], ctx)


def _triples_check(inputs, data, refs):
    status = _cli_status(data)
    if status:
        return status
    if data["result"]["count"] != refs.pythagorean(inputs[0]):
        return "wrong", f"triples count at N={inputs[0]} off the Euclid reference"
    return "ok", ""


def _expsum_call(pm, inputs, ctx):
    n, k1, k2, x3, alpha = inputs
    argv = ["expsum", "--p", "7", "--n", str(n), "--k1", str(k1), "--k2", str(k2),
            "--x3", str(x3), "--mode", "both"]
    if alpha is not None:
        argv += ["--alpha", str(alpha)]
    return _run_cli(pm, argv, ctx)


def _expsum_check(inputs, data, refs):
    status = _cli_status(data)
    if status:
        return status
    res = data["result"]
    if "error" in res:
        if res["error"].get("type") == "HypothesisViolated" and "bruteforce" in res:
            return "fallback", "HypothesisViolated"
        return "wrong", f"unexpected error record {res['error']}"
    if not res["oracle_diff"] <= res["tolerance"]:
        return "wrong", "oracle_diff above tolerance"
    return "ok", ""


# ------------------------------------------------------------ library kinds

def _raised(data):
    return isinstance(data, dict) and "raised" in data


def _unexpected(data):
    return "wrong", f"unexpected {data['raised']}"


def _dual_call(pm, inputs, ctx):
    return pm.dual_triple_count(*inputs)


def _dual_check(inputs, data, refs):
    if _raised(data):
        return _unexpected(data)
    L, modulus = inputs
    if modulus > 2 * L * L:
        ref = refs.pythagorean(L) - 1
    else:
        ref = reference.dual_count_small_modulus(L, modulus)
    return ("ok", "") if data == ref else ("wrong", f"dual count at L={L} off the reference")


def _spec(pm, p, n, k1, k2, x3):
    return pm.ExpSumSpec(k1, k2, x3, pm.PrimePowerModulus(p, n))


def _circle_closed_call(pm, inputs, ctx):
    return pm.circle_exponential_sum(_spec(pm, *inputs), "closed")


def _complex_canon(raw):
    return (raw.real, raw.imag)


def _circle_closed_check(inputs, data, refs):
    if _raised(data):
        if data["raised"] == "HypothesisViolated":
            return "fallback", "HypothesisViolated"
        return _unexpected(data)
    p, n, k1, k2, x3 = inputs
    q = p**n
    value = complex(*data)
    if unit_required_draw(p, n, k1, k2) and abs(value) > 1e-9 * math.sqrt(q):
        return "wrong", "closed circle sum is not 0 where p divides exactly one of l1, l2"
    spec = _spec(refs.pm, *inputs)
    if abs(value) > 2 * p ** ((n + spec.r) / 2) * (1 + 1e-9):
        return "wrong", "closed circle sum above its stationary-phase bound"
    if q <= BRUTE_SAMPLE_Q and refs.brute_checked < BRUTE_SAMPLE_MAX:
        refs.brute_checked += 1
        brute = refs.pm.circle_exponential_sum(spec, "bruteforce")
        if abs(brute - value) > 1e-9 * math.sqrt(q):
            return "wrong", "closed circle sum differs from brute force"
    return "ok", ""


def _stationary_call(pm, inputs, ctx):
    return pm.stationary_phase_identity(_spec(pm, *inputs[:5]), inputs[5])


def _stationary_check(inputs, data, refs):
    if _raised(data):
        return _unexpected(data)
    lhs, rhs = complex(*data[0]), complex(*data[1])
    if abs(lhs - rhs) > 1e-9 or abs(abs(lhs) - 1) > 1e-12:
        return "wrong", "stationary-phase identity fails"
    return "ok", ""


def _curvature_call(pm, inputs, ctx):
    spec, branch = _spec(pm, *inputs[:5]), inputs[5]
    return pm.curvature_symbol(spec, branch), pm.curvature_symbol_sqrt_form(spec, branch)


def _curvature_check(inputs, data, refs):
    if _raised(data):
        return _unexpected(data)
    a, b = data
    return ("ok", "") if a == b and a in (1, -1) else ("wrong", "curvature symbol routes differ")


def _gauss_call(pm, inputs, ctx):
    return pm.gauss_factor(*inputs), pm.gauss_factor_unified(*inputs)


def _gauss_check(inputs, data, refs):
    if _raised(data):
        return _unexpected(data)
    a, b = complex(*data[0]), complex(*data[1])
    if abs(a - b) > 1e-12 or abs(abs(a) - 1) > 1e-12:
        return "wrong", "Gauss factor routes differ"
    return "ok", ""


def _sqrt_call(pm, inputs, ctx):
    p, n, x, a = inputs
    return pm.sqrt_mod(a, pm.PrimePowerModulus(p, n))


def _sqrt_check(inputs, data, refs):
    if _raised(data):
        return _unexpected(data)
    p, n, x, a = inputs
    q = p**n
    if data is None:
        return "wrong", "square reported as a non-residue"
    r0, r1 = data
    if r0 * r0 % q != a or r0 + r1 != q or r0 >= r1 or x % q not in (r0, r1):
        return "wrong", "sqrt_mod round trip fails"
    return "ok", ""


def _hensel_call(pm, inputs, ctx):
    p, n, x1, x2, x3 = inputs
    return pm.hensel_lift_solution(pm.SolutionTriple(x1, x2, x3, pm.PrimePowerModulus(p, n)))


def _hensel_check(inputs, data, refs):
    if _raised(data):
        return _unexpected(data)
    p, n, x1, x2, x3 = inputs
    q, q1 = p**n, p ** (n + 1)
    lifts = [tuple(t) for t in data]
    if len(lifts) != p * p or len(set(lifts)) != p * p:
        return "wrong", "fiber does not hold p^2 distinct lifts"
    for y1, y2, y3 in lifts:
        if (y1 % q, y2 % q, y3 % q) != (x1, x2, x3) or (y1 * y1 + y2 * y2 - y3 * y3) % q1:
            return "wrong", "lift does not reduce to the triple or fails the congruence"
        if y1 % p == 0 or y2 % p == 0 or y3 % p == 0:
            return "wrong", "lift has a non-unit coordinate"
    return "ok", ""


def _lattice_call(pm, inputs, ctx):
    D, levels, N, scale, p = inputs
    return pm.lattice_circle_weight(D, levels, N, pm.gaussian(scale), p)


def _lattice_check(inputs, data, refs):
    if _raised(data):
        return _unexpected(data)
    D, levels, N, scale, p = inputs
    ref = reference.lattice_circle_weight(D, levels, N, scale, p)
    value = complex(*data)
    if abs(value - ref) > 1e-12 * max(1.0, abs(ref)):
        return "wrong", "lattice circle weight off the reference"
    return "ok", ""


def _identity(raw):
    return raw


KINDS = {
    "count": (_count_call, _cli_canon, _count_check),
    "scan": (_scan_call, _scan_canon, _scan_check),
    "transition": (_transition_call, _cli_canon, _transition_check),
    "triples": (_triples_call, _cli_canon, _triples_check),
    "expsum": (_expsum_call, _cli_canon, _expsum_check),
    "dual": (_dual_call, _identity, _dual_check),
    "circle_closed": (_circle_closed_call, _complex_canon, _circle_closed_check),
    "stationary": (_stationary_call, lambda r: (_complex_canon(r[0]), _complex_canon(r[1])),
                   _stationary_check),
    "curvature": (_curvature_call, _identity, _curvature_check),
    "gauss": (_gauss_call, lambda r: (_complex_canon(r[0]), _complex_canon(r[1])), _gauss_check),
    "sqrt": (_sqrt_call, lambda r: None if r is None else (r[0].value, r[1].value), _sqrt_check),
    "hensel": (_hensel_call, lambda r: [(s.x1, s.x2, s.x3) for s in r], _hensel_check),
    "lattice": (_lattice_call, _complex_canon, _lattice_check),
}
