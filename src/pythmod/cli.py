"""Command-line surface: reproducible runs with machine-readable output.

Every run prints one JSON object {"manifest": ..., "result": ...} on
stdout, as one compact line with sorted keys; sweep runs additionally
write an RFC-4180 CSV.  A run that names a subcommand is parsed once, by
that subcommand's parser; the root parser sees only --version, --help,
an empty argv and unknown commands.  Exit codes:
0 success, 2 usage or precondition violation, 3 tolerance failure
(oracle disagreement between evaluation routes).
"""
from __future__ import annotations

import argparse
import csv
import errno
import functools
import json
import math
import os
import sys
import time
from typing import Dict, Optional, Tuple

from . import __version__
from .circle import enumerate_admissible_t, enumerate_circle_solutions, param_point
from .counting import (
    CountConfig,
    count_box_exact,
    count_pythagorean,
    count_smoothed,
    transition_check,
)
from .errors import HypothesisViolated, PythmodError, TooLarge
from .expsums import (
    ExpSumSpec,
    circle_exponential_sum,
    gauss_sum_bruteforce,
    gauss_sum_closed,
    residue_class_sum,
    residue_class_sum_closed,
)
from .padic import PrimePowerModulus
from .weights import gaussian, poisson_check

OUT_DIR_ENV = "PYTHMOD_OUT_DIR"

SWEEP_COLUMNS = [
    "p", "n", "q", "N", "nu", "phi_scale",
    "measured_T", "predicted_T0", "ratio", "seconds",
]


def _resolve_out(path: str) -> str:
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.dirname(path):
        return os.path.join(base, path)
    return path


def _check_out_dir(path: str) -> None:
    """Refuse --out before any work when it is a directory, or when its
    directory is missing or not writable: the commands open it only after
    their count."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, "is a directory", path)
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise FileNotFoundError(errno.ENOENT, "no such directory", folder)
    if not os.access(folder, os.W_OK):
        raise PermissionError(errno.EACCES, "directory not writable", folder)


def _manifest(subcommand: str, params: dict, out: Optional[str], t0: float) -> dict:
    return {
        "subcommand": subcommand,
        "params": {k: v for k, v in params.items() if k != "func"},
        "version": __version__,
        "out": out,
        "seconds": time.perf_counter() - t0,
    }


def _emit(subcommand: str, params: dict, result: dict, out: Optional[str], t0: float) -> None:
    record = {"manifest": _manifest(subcommand, params, out, t0), "result": result}
    text = json.dumps(record, sort_keys=True)  # no indent: json's C encoder
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def _complex_dict(z: complex) -> dict:
    return {"re": z.real, "im": z.imag, "abs": abs(z)}


def _parse_range(text: str) -> list:
    """'4..6' -> [4, 5, 6]; '4..10:2' -> [4, 6, 8, 10]; '4' -> [4]."""
    step = 1
    if ":" in text:
        text, step_s = text.split(":", 1)
        step = int(step_s)
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if step < 1:
            raise ValueError(f"step {step} must be positive")
        return list(range(lo, hi + 1, step))
    return [int(text)]


def cmd_count(args, t0: float) -> int:
    m = PrimePowerModulus(args.p, args.n)
    cfg = CountConfig(
        modulus=m,
        N=args.N,
        weight=gaussian(args.phi_scale),
    )
    # the exact count first: its gates refuse a box before the smoothed count runs
    exact = count_box_exact(m, math.floor(args.N)) if args.exact else None
    result = count_smoothed(cfg).to_dict()
    result["exact_box_count"] = exact
    _emit("count", vars(args), result, args.out, t0)
    return 0


def cmd_scan(args, t0: float) -> int:
    if args.nu is None and args.N_range is None:
        raise ValueError("scan needs --nu or --N-range")
    ns = _parse_range(args.n_range)
    if not ns:
        raise ValueError("empty n range")
    rows = []
    for n in ns:
        m = PrimePowerModulus(args.p, n)
        if args.N_range is not None:
            Ns = _parse_range(args.N_range)
            if not Ns:
                raise ValueError("empty N range")
        elif not math.isfinite(args.nu):
            raise ValueError(f"nu = {args.nu} must be finite")
        else:
            try:
                Ns = [math.ceil(m.q**args.nu)]
            except OverflowError:
                raise TooLarge(f"N = {m.q}^{args.nu} overflows a float") from None
        for N in Ns:
            cfg = CountConfig(
                modulus=m,
                N=float(N),
                weight=gaussian(args.phi_scale),
            )
            rep = count_smoothed(cfg).to_dict()
            rows.append({k: rep[k] for k in SWEEP_COLUMNS})
    out = args.out
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
        sidecar = out + ".manifest.json"
        with open(sidecar, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(_manifest("scan", vars(args), out, t0), sort_keys=True) + "\n")
    _emit("scan", vars(args), {"rows": rows, "csv_columns": SWEEP_COLUMNS}, None, t0)
    return 0


def cmd_expsum(args, t0: float) -> int:
    m = PrimePowerModulus(args.p, args.n)
    spec = ExpSumSpec(args.k1, args.k2, args.x3, m)
    tol = 1e-9 * math.sqrt(m.q)
    result = {
        "p": args.p, "n": args.n, "q": m.q,
        "k1": args.k1, "k2": args.k2, "x3": args.x3,
        "r": spec.r, "l1": spec.l1, "l2": spec.l2, "D": spec.D,
    }
    want_brute = args.mode in ("bruteforce", "both")
    want_closed = args.mode in ("closed", "both")
    exit_code = 0
    try:
        if args.alpha is not None:
            f = spec.phase()
            if want_brute:
                result["bruteforce"] = _complex_dict(residue_class_sum(f, args.alpha, m))
            if want_closed:
                result["closed"] = _complex_dict(residue_class_sum_closed(f, args.alpha, m))
        else:
            if want_brute:
                result["bruteforce"] = _complex_dict(circle_exponential_sum(spec, "bruteforce"))
            if want_closed:
                result["closed"] = _complex_dict(circle_exponential_sum(spec, "closed"))
    except HypothesisViolated as exc:
        result["error"] = {"type": "HypothesisViolated", "message": str(exc)}
    if "bruteforce" in result and "closed" in result:
        diff = abs(
            complex(result["bruteforce"]["re"], result["bruteforce"]["im"])
            - complex(result["closed"]["re"], result["closed"]["im"])
        )
        result["oracle_diff"] = diff
        result["tolerance"] = tol
        if diff > tol:
            exit_code = 3
    _emit("expsum", vars(args), result, args.out, t0)
    return exit_code


def cmd_param(args, t0: float) -> int:
    m = PrimePowerModulus(args.p, args.n)
    ts = enumerate_admissible_t(m)
    result = {"p": args.p, "n": args.n, "q": m.q, "count": len(ts), "admissible_t": ts}
    if args.points:
        result["circle_points"] = [
            [pt.y1, pt.y2] for pt in (param_point(t, m) for t in ts)
        ]
        result["circle_solutions"] = [list(s) for s in enumerate_circle_solutions(m)]
    _emit("param", vars(args), result, args.out, t0)
    return 0


def cmd_gauss(args, t0: float) -> int:
    brute = gauss_sum_bruteforce(args.q)
    closed = gauss_sum_closed(args.q)
    diff = abs(brute - closed)
    tol = 1e-9 * math.sqrt(args.q)
    result = {
        "q": args.q,
        "bruteforce": _complex_dict(brute),
        "closed": _complex_dict(closed),
        "oracle_diff": diff,
        "tolerance": tol,
    }
    _emit("gauss", vars(args), result, args.out, t0)
    return 0 if diff <= tol else 3


def cmd_poisson(args, t0: float) -> int:
    check = poisson_check(gaussian(args.s))
    result = {"s": args.s, "lhs": check.lhs, "rhs": check.rhs, "diff": check.diff}
    _emit("poisson", vars(args), result, args.out, t0)
    return 0 if check.diff <= 1e-12 else 3


def cmd_triples(args, t0: float) -> int:
    count = count_pythagorean(args.N)
    result = {"N": args.N, "count": count}
    if args.N >= 2:
        asym = 8.0 / math.pi * args.N * math.log(args.N)
        result["asymptotic"] = asym
        result["ratio"] = count / asym
    _emit("triples", vars(args), result, args.out, t0)
    return 0


def cmd_transition(args, t0: float) -> int:
    m = PrimePowerModulus(args.p, args.n)
    res = transition_check(m, args.N)
    result = {
        "p": args.p, "n": args.n, "q": m.q, "N": args.N,
        "congruence_count": res.congruence_count,
        "equation_count": res.equation_count,
        "equal": res.equal,
    }
    _emit("transition", vars(args), result, args.out, t0)
    return 0 if res.equal else 3


@functools.cache  # one set of parsers per process; --out resolves on each parse
def build_parser() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """(the root parser, the subcommand parsers by name)."""
    parser = argparse.ArgumentParser(
        prog="pythmod",
        description="Count and cross-check solutions of x1^2 + x2^2 = x3^2 mod p^n",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_modulus(sp, p_help, n_help):
        sp.add_argument("--p", type=int, required=True, help=p_help)
        sp.add_argument("--n", type=int, required=True, help=n_help)

    def add_common(sp):
        sp.add_argument("--out", type=_resolve_out, default=None,
                        help="output file; bare names resolve under $" + OUT_DIR_ENV)

    sp = sub.add_parser("count", help="measure the smoothed count against the main term")
    add_modulus(sp, "odd prime > 5; the congruence modulus is p^n",
                "exponent n of the modulus q = p^n")
    sp.add_argument("--N", type=float, required=True,
                    help="box scale: coordinates are weighted by phi(x/N)")
    sp.add_argument("--phi-scale", dest="phi_scale", type=float, default=1.0,
                    help="Gaussian weight scale s; total mass phi_hat(0) = s")
    sp.add_argument("--exact", action="store_true",
                    help="also report the exact sharp-box count at floor(N)")
    add_common(sp)
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("scan", help="sweep n (or N) and write a CSV of ratios")
    sp.add_argument("--p", type=int, required=True, help="odd prime > 5")
    sp.add_argument("--n", dest="n_range", type=str, required=True,
                    help="exponent range, e.g. 4..6 or a single value")
    sp.add_argument("--N-range", dest="N_range", type=str, default=None,
                    help="box-scale range a..b[:step], overrides --nu")
    sp.add_argument("--nu", type=float, default=None,
                    help="box exponent: N = ceil(q^nu) per row")
    sp.add_argument("--phi-scale", dest="phi_scale", type=float, default=1.0,
                    help="Gaussian weight scale")
    add_common(sp)
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("expsum", help="exponential sums over circle parameters")
    add_modulus(sp, "odd prime modulus base", "exponent of q = p^n")
    sp.add_argument("--k1", type=int, required=True, help="dual frequency of y1")
    sp.add_argument("--k2", type=int, required=True, help="dual frequency of y2")
    sp.add_argument("--x3", type=int, required=True, help="unit scaling of the phase")
    sp.add_argument("--alpha", type=int, default=None,
                    help="restrict to the residue class t = alpha mod p, 1 + alpha^2 a "
                         "unit; its termwise sum walks the coset z(alpha) <h^(p - eps)> "
                         "of the circle points z(t)")
    sp.add_argument("--mode", choices=["bruteforce", "closed", "both"], default="both",
                    help="termwise sum, stationary-phase closed form, or both; the "
                         "termwise circle sum walks the circle points as powers h^j of one "
                         "generator, one of each pair {z, -z}, and doubles its real part, "
                         "exact as f(-z) = -f(z)")
    add_common(sp)
    sp.set_defaults(func=cmd_expsum)

    sp = sub.add_parser("param", help="admissible circle parameters mod p^n")
    add_modulus(sp, "odd prime", "exponent of q = p^n")
    sp.add_argument("--points", action="store_true",
                    help="also list circle points and the exhaustive solution set")
    add_common(sp)
    sp.set_defaults(func=cmd_param)

    sp = sub.add_parser("gauss", help="quadratic Gauss sum, brute force vs closed form")
    sp.add_argument("--q", type=int, required=True, help="odd modulus of the sum")
    add_common(sp)
    sp.set_defaults(func=cmd_gauss)

    sp = sub.add_parser("poisson", help="dual-sum identity check for the Gaussian weight")
    sp.add_argument("--s", type=float, required=True, help="Gaussian scale")
    add_common(sp)
    sp.set_defaults(func=cmd_poisson)

    sp = sub.add_parser("triples", help="count Pythagorean triples with |x3| <= N")
    sp.add_argument("--N", type=int, required=True, help="bound on |x3|")
    add_common(sp)
    sp.set_defaults(func=cmd_triples)

    sp = sub.add_parser("transition", help="congruence count vs equation count below sqrt(q/2)")
    add_modulus(sp, "odd prime > 5", "exponent of q = p^n")
    sp.add_argument("--N", type=int, required=True, help="sharp box bound; must be < sqrt(q/2)")
    add_common(sp)
    sp.set_defaults(func=cmd_transition)

    return parser, dict(sub.choices)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = build_parser()
    try:
        sub = commands.get(argv[0]) if argv else None
        if sub is None:  # --version, --help, no subcommand or an unknown one
            args = parser.parse_args(argv)
        else:  # one parse, where the root parser would hand argv[1:] on to sub
            args, extra = sub.parse_known_args(argv[1:])
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
            args.subcommand = argv[0]
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    t0 = time.perf_counter()
    try:
        if args.out:
            _check_out_dir(args.out)
        return args.func(args, t0)
    except (PythmodError, ValueError, OSError) as exc:  # OSError: an unwritable --out
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
