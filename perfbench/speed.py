"""Reference speed: fixed kernels of the benchmark's own, timed between
operations, so that timings can be given at a fixed machine speed.

A shared machine runs the same code 15-50% slower in phases of 10-60 s,
and CPU time drifts as wall time does.  How much slower depends on the kind
of code: interpreted calls slow down most, numpy's vectorised integer work
least.  So each workload's kernel is made of the kinds of work that workload
spends its time in (KERNELS), and a time at reference speed is the raw time
times the kernel's reference time over the median of its timings around the
operation: the time the operation would take where the kernel runs as fast
as it did when REF_S was measured.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from time import perf_counter

import numpy as np

_RAMP = -1e-5 * np.arange(2**15, dtype=np.float64)
_Q = 7**6
_XS = np.arange(1, 2**14, dtype=np.int64)
_SQ = _XS * _XS % _Q
_TABLE = np.random.default_rng(0).random(_Q)
_SPF = np.arange(4096, dtype=np.int64) * 7 + 1


def interpreted():
    """Integer arithmetic in the interpreter."""
    s = 0
    for i in range(10000):
        s = (s * 31 + i) % 1000003
    return s


def numpy_float():
    """A numpy exp and real FFT over 2^15 points."""
    return float(np.fft.rfft(np.exp(_RAMP))[1].real)


def numpy_int():
    """int64 residues mod 7^6, a gather from a 7^6 table and a dot, over
    2^14 entries, eight times: the shape of the counting kernels' rows."""
    total = 0.0
    for x in range(1, 9):
        total += float(np.dot(_XS, _TABLE[(x * x + _SQ) % _Q]))
    return total


@dataclass(frozen=True)
class _Residue:
    a: int
    m: int


def _inverse(r):
    return pow(r.a, -1, r.m)


def calls():
    """Small function calls, frozen dataclasses, modular inverses and numpy
    scalar reads: the shape of the library's pure-Python paths."""
    s = 0
    for i in range(1, 1500):
        s += _inverse(_Residue(2 * i + 1, 1000003)) + int(_SPF[i]) // 3
    return s


# Each kernel's median in seconds on one vCPU of an Intel Xeon (Sapphire
# Rapids) KVM guest with 2 vCPUs, CPython 3.11, numpy 2.4.
REF_S = {interpreted: 1.0e-3, numpy_float: 1.15e-3, numpy_int: 1.85e-3, calls: 3.3e-3}

KERNELS = {
    "smoothed": (interpreted, numpy_int),
    "exact": (interpreted, numpy_int, calls),
    "expsum": (interpreted, numpy_float, numpy_int),
    "closed": (interpreted, calls, calls),
}
# Set-up is imports (interpreted module code and loading numpy's libraries)
# and one warm-up operation of each kind, so its kernel holds every part.
SETUP_KERNEL = (interpreted, numpy_float, numpy_int, calls)


class Speed:
    """How fast the machine ran one kind of code (a KERNELS entry), and when.

    `sample_if_due` runs the kernel between operations, every EVERY_S;
    `factors` then gives, for each operation, the kernel's reference time
    over the median of its timings within WINDOW_S before the operation's
    start and after its end.  `factor_now` gives it for a step about to
    start, from timings taken just before it.
    """

    EVERY_S = 0.2
    WINDOW_S = 1.0

    def __init__(self, parts: tuple):
        self.parts = parts
        self.ref_s = sum(REF_S[part] for part in self.parts)
        self.at = array("d")
        self.took = array("d")
        for _ in range(5):  # the first timings of a fresh process run slow
            self.sample()

    def sample(self) -> None:
        t = perf_counter()
        for part in self.parts:
            part()
        end = perf_counter()
        self.at.append(end)
        self.took.append(end - t)

    def sample_if_due(self) -> None:
        if perf_counter() - self.at[-1] >= self.EVERY_S:
            self.sample()

    def factor_now(self) -> float:
        for _ in range(3):
            self.sample()
        return self.ref_s / float(np.median(self.took[-3:]))

    def factors(self, start: np.ndarray, end: np.ndarray) -> np.ndarray:
        """Multiply the raw time of the operation run from start[i] to
        end[i] by factors[i] to get it at reference speed."""
        self.sample()
        at, took = np.frombuffer(self.at), np.frombuffer(self.took)
        lo = np.searchsorted(at, start - self.WINDOW_S)
        hi = np.searchsorted(at, end + self.WINDOW_S)
        medians = {}
        for key in set(zip(lo.tolist(), hi.tolist())):
            medians[key] = float(np.median(took[key[0]:key[1]]))
        return np.array([self.ref_s / medians[key] for key in zip(lo.tolist(), hi.tolist())])
