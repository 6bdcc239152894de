"""Counting solutions of x1^2 + x2^2 = x3^2 mod p^n in boxes.

The smoothed count buckets the positive half of the box by square class,
S[c] = total weight of the units x with x^2 = c mod q (x and -x alike),
and takes T = <S * S, S> as the cube sum in the frequency domain, from
one forward real FFT and no inverse: O(q log q + cutoff*N).  A direct
triple loop at O((cutoff*N)^3) is the tests' oracle for it.  One integer
square-class counter, summed over blocks of class pairs with one numpy
gather each, gives the exact sharp-box count and the dual-side count.  One
walk over Euclid's primitive triples, taken as arrays a few rows at a
time, counts the ordinary Pythagorean triples of the transition regime,
with a prime coprime_to.  count_pythagorean, behind the triples count and
the dual side above modulus 2L^2, takes the same total from lattice-point
counts without the triples: a hyperbola split at u ~ N^(2/3), Moebius
inversion over odd squarefree d for the coprimality, and int64 row sums,
O(N^(2/3) log N); the walk is its oracle.  predict_dual_terms evaluates the
smoothed count a third way, as an exact Poisson expansion over closed-form
Gauss sums, split into the main and the dual terms: each p-adic level is
one DFT over the unit frequencies, since the non-unit x cancel the others,
read at c = (4u)^-1 for the ascending units, with no inverse taken.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Tuple

import numpy as np

from .circle import excluded_param_count
from .errors import RangeViolation, SmallPrime, TooLarge
from .expsums import gauss_sum_closed
from .padic import PrimePowerModulus, is_prime
from .weights import WeightSpec, _box_radius

TRIPLE_LOOP_MAX_CELLS = 10**9
BUCKET_MAX_Q = 2**26
PYTH_MAX_N = 10**7
PAIR_BLOCK = 2**16  # class pairs per block of _square_triples
WALK_BLOCK = 2**15  # Euclid pairs per block of count_equation_box
SPLIT_MIN = 2**12  # the least split u of count_pythagorean; one table is cheaper below it
DUAL_MAX_L = 10**4
DUAL_MAX_ENTRIES = 10**7  # q + K + 1 entries on the dual side; traced peak 40-57 B per entry of q
DUAL_TOL = 1e-16  # dual frequencies with fourier(k N / q) below this are dropped
CUTOFF = 3.5  # the box is |x| <= CUTOFF*s*N; the weight there is exp(-pi*3.5^2) < 2e-17


@dataclass(frozen=True)
class CountConfig:
    """One smoothed-count experiment: modulus, box scale and weight."""

    modulus: PrimePowerModulus
    N: float
    weight: WeightSpec

    def __post_init__(self):
        if self.modulus.p <= 5:
            raise SmallPrime(
                f"p = {self.modulus.p}: unit solutions require p > 5"
            )
        if not (math.isfinite(self.N) and self.N >= 1):
            raise ValueError(f"N = {self.N} must be finite and at least 1")
        self.weight.fourier_truncation_radius(DUAL_TOL)  # refuses s <= DUAL_TOL: s^3 may underflow

    @property
    def cutoff(self) -> float:
        return CUTOFF * self.weight.scale

    @property
    def nu(self) -> float:
        return math.log(self.N) / math.log(self.modulus.q)


@dataclass
class CountReport:
    """Measured smoothed count against the predicted main term."""

    p: int
    n: int
    q: int
    N: float
    nu: float
    phi_scale: float
    cutoff: float
    measured_T: float
    predicted_T0: float
    ratio: float
    seconds: float

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def predict_main_term(cfg: CountConfig) -> float:
    """Main term: scale^3 * (p - s)(p - 1)/p^2 * N^3 / p^n, with the weight's
    scale its total mass fourier(0) and s the number of excluded parameter
    classes mod p."""
    p = cfg.modulus.p
    s = excluded_param_count(p)
    mass = cfg.weight.scale
    return mass**3 * (p - s) * (p - 1) / p**2 * cfg.N**3 / cfg.modulus.q


class DualTerms(NamedTuple):
    """The smoothed count split by Poisson summation in x1, x2 and x3."""

    T0: float  # the term with dual frequencies k1 = k2 = k3 = 0
    T1: float  # every other dual frequency


def _dual_levels(m: PrimePowerModulus, coef: np.ndarray) -> Iterator[np.ndarray]:
    """s(a) = sum over k >= 0 of coef[k] * g(a, k), level by level in the
    p-adic order j of a = p^j u: s(0) first, as one entry, then for each
    j = 0..n-1 the values at a = p^j (4c)^-1 for the units c of
    [1, p^(n-j)), ascending.  The order of a within a level is free: the
    dual side only sums over a.

    g(a, k) sums over all x mod q, minus the non-units x = p y.  With
    q' = p^(n-j) the first is zero unless k = p^j k', and then
    p^j G(q') (u/q') e_q'(-c k'^2), G the quadratic Gauss sum.  For
    j <= n - 2 the second is that same term when p | k' (G(q') = p G(q'/p^2))
    and zero otherwise, so a level is one DFT of length q' of coef[p^j k']
    over the unit k', bucketed by k'^2 mod q' and read at c.  The last
    level buckets every k' and subtracts p^(n-1) * sum of coef[p^(n-1) k'];
    s(0) is the Ramanujan sum.  s(p^j u) depends on u only through
    c = (4u)^-1 and (u/p) = (c/p), 4 being a square: no inverse is taken.
    """
    p, n = m.p, m.n
    top = p ** (n - 1) * coef[:: p ** (n - 1)].sum()  # non-units' sum at a = 0 and j = n - 1
    yield np.array([p**n * coef[:: p**n].sum() - top])
    symbol = np.full(p, -1, dtype=np.int8)
    symbol[np.arange(p) ** 2 % p] = 1  # (r/p) at the units r
    for j in range(n):
        qj = p ** (n - j)
        w = coef[:: p**j].copy()
        if j < n - 1:
            w[::p] = 0  # the non-units x = p y cancel the frequencies p | k'
        k2 = np.arange(len(w)) ** 2 % qj  # exact: len(w) <= DUAL_MAX_ENTRIES
        scale = p**j * gauss_sum_closed(qj) * symbol[1:] ** (n - j)  # (u/q') = (c/p)^(n-j)
        # the units c of [1, qj), ascending, are the columns 1..p-1 of the rows of p
        s = np.fft.fft(np.bincount(k2, weights=w, minlength=qj)).reshape(-1, p)[:, 1:] * scale
        yield (s - top if j == n - 1 else s).ravel()


def _cube_sum(s: np.ndarray) -> float:
    # sum over a mod q of s(a)^2 s(-a).  g(-a, k) = conj g(a, -k) = conj g(a, k)
    # and the coefficients are real, so s(-a) = conj s(a): the sum of |s(a)|^2 Re s(a).
    # einsum, not np.dot: a BLAS dot wakes its threads above 10^4 entries
    return float(np.einsum("i,i->", s.real**2 + s.imag**2, s.real))


def predict_dual_terms(cfg: CountConfig) -> DualTerms:
    """The smoothed count as an exact dual-side expansion.

    Detecting the congruence with additive characters and applying
    Poisson summation to each coordinate gives

        T = (N/q)^3 * (1/q) * sum over a mod q of s(a)^2 s(-a),
        s(a) = sum over k in Z of fourier(k N / q) * g(a, k),

    with g(a, k) = sum over unit x mod q of e_q(a x^2 + k x), the unit
    Gauss sum. The term k1 = k2 = k3 = 0 is the main term of
    predict_main_term; T1 = T - T0 holds the rest. The box cutoff is not
    modelled: the weight is summed over all of Z. The frequencies stop at
    |k| <= K = ceil(R q / N), with R the radius beyond which fourier
    drops below DUAL_TOL. The cube sum is taken one p-adic level of a at
    a time (_dual_levels), each one bucketing of the frequencies and one
    DFT: n DFTs and O(q log q + K) in all. Raises TooLarge, before any
    allocation, when q + K + 1 exceeds DUAL_MAX_ENTRIES.
    """
    m, N, w = cfg.modulus, cfg.N, cfg.weight
    q = m.q
    K = math.ceil(w.fourier_truncation_radius(DUAL_TOL) * q / N)
    if q + K + 1 > DUAL_MAX_ENTRIES:
        raise TooLarge(
            f"dual expansion needs q + K + 1 = {q + K + 1} array entries "
            f"(q = {q}, K = {K}), above {DUAL_MAX_ENTRIES}"
        )
    coef = w.fourier(np.arange(K + 1) * N / q)
    coef[1:] *= 2  # g(a, -k) = g(a, k) and the weight is even
    T = (N / q) ** 3 / q * sum(_cube_sum(s) for s in _dual_levels(m, coef))
    T0 = predict_main_term(cfg)
    return DualTerms(T0, T - T0)


def _unit_box(p: int, bound: int) -> np.ndarray:
    xs = np.arange(-bound, bound + 1, dtype=np.int64)
    return xs[xs % p != 0]


def _positive_units(p: int, bound: int) -> np.ndarray:
    """The x in [1, bound] with p not dividing x, int64, without a modulo."""
    keep = np.ones(bound + 1, dtype=bool)
    keep[::p] = False  # 0 too
    return np.flatnonzero(keep)


def _smoothed_bucket(cfg: CountConfig) -> float:
    m = cfg.modulus
    q = m.q
    if q > BUCKET_MAX_Q:
        raise TooLarge(f"q = {q} above the bucket-table bound {BUCKET_MAX_Q}")
    xs = _positive_units(m.p, _box_radius(cfg.cutoff * cfg.N))
    # S[c] = total weight of the box units x with x^2 = c mod q; -x counts as x
    S = np.bincount(xs * xs % q, weights=2 * cfg.weight.value(xs / cfg.N), minlength=q)
    # T = sum over (c1, c2) of S[c1] S[c2] S[c1 + c2 mod q] = (1/q) sum over a mod q
    # of |F(a)|^2 F(a), F the DFT of S.  F(-a) = conj F(a) and q is odd: the term
    # a = 0 plus twice the real parts of the terms a = 1..(q-1)/2, summed without
    # BLAS as in _cube_sum
    F = np.fft.rfft(S)
    w = F.real**2 + F.imag**2
    return float(2 * np.einsum("i,i->", w, F.real) - w[0] * F[0].real) / q


def _smoothed_triple_loop(cfg: CountConfig) -> float:
    m = cfg.modulus
    q = m.q
    C = _box_radius(cfg.cutoff * cfg.N)
    if (2 * C + 1) ** 3 > TRIPLE_LOOP_MAX_CELLS:
        raise TooLarge(f"box (2*{C}+1)^3 exceeds {TRIPLE_LOOP_MAX_CELLS} cells")
    xs = _unit_box(m.p, C)
    wts = cfg.weight.value(xs / cfg.N)
    sq = (xs % q) ** 2 % q

    def row_sum(x1: int, w1: float) -> float:
        lhs = (x1 * x1 % q + sq[:, None] - sq[None, :]) % q  # (x2, x3) grid
        hits = (lhs == 0).astype(float)
        return w1 * float(wts @ hits @ wts)

    return math.fsum(row_sum(x1, w1) for x1, w1 in zip(xs.tolist(), wts.tolist()))


def count_smoothed(cfg: CountConfig) -> CountReport:
    """Weighted count of unit solutions of the congruence in the box
    |x_i| <= cutoff*N, against the predicted main term."""
    start = time.perf_counter()
    measured = _smoothed_bucket(cfg)
    predicted = predict_main_term(cfg)
    return CountReport(
        p=cfg.modulus.p,
        n=cfg.modulus.n,
        q=cfg.modulus.q,
        N=cfg.N,
        nu=cfg.nu,
        phi_scale=cfg.weight.scale,
        cutoff=cfg.cutoff,
        measured_T=measured,
        predicted_T0=predicted,
        ratio=measured / predicted,
        seconds=time.perf_counter() - start,
    )


def _square_triples(xs: np.ndarray, M: int) -> int:
    """Number of triples in xs^3 with x1^2 + x2^2 = x3^2 mod M.

    With n_c points of xs in square class c: the sum over class pairs of
    n1 n2 n_(c1 + c2), in blocks of about PAIR_BLOCK pairs (a few class
    rows against all classes), one gather and two int64 products each.
    The table n_c takes the narrowest unsigned dtype that fits max n_c.
    """
    if M > BUCKET_MAX_Q:
        raise TooLarge(f"modulus {M} above the bucket-table bound {BUCKET_MAX_Q}")
    classes, counts = np.unique(xs * xs % M, return_counts=True)
    pairs = len(classes) ** 2
    if pairs > TRIPLE_LOOP_MAX_CELLS:
        raise TooLarge(
            f"{len(classes)} square classes need {pairs} class pairs, "
            f"above {TRIPLE_LOOP_MAX_CELLS}"
        )
    bucket = np.zeros(M, dtype=np.min_scalar_type(counts.max(initial=0)))
    bucket[classes] = counts
    rows = max(1, PAIR_BLOCK // max(1, len(classes)))
    total = 0
    for i in range(0, len(classes), rows):
        s = classes[i : i + rows, None] + classes
        np.subtract(s, M, out=s, where=s >= M)  # c1 + c2 < 2M
        total += int((bucket[s] @ counts) @ counts[i : i + rows])
    return total


def count_box_exact(m: PrimePowerModulus, N: int) -> int:
    """Exact number of unit solutions with max |x_i| <= N (integer path)."""
    if N < 0:
        raise ValueError(f"N = {N} must be nonnegative")
    return _square_triples(_unit_box(m.p, _box_radius(N)), m.q)


def _check_walk_bound(N: int) -> None:
    if N < 0:
        raise ValueError(f"N = {N} must be nonnegative")
    if N > PYTH_MAX_N:
        raise TooLarge(f"N = {N} above the walk bound {PYTH_MAX_N}")


def count_equation_box(N: int, coprime_to: Optional[int] = None) -> int:
    """Exact equation count: x1^2 + x2^2 = x3^2, max |x_i| <= N, all x_i
    nonzero (and coprime to the prime coprime_to when given).

    Euclid: the primitive triples are (m^2 - n^2, 2mn, m^2 + n^2) with
    coprime m > n of opposite parity; each multiple with k (m^2 + n^2) <= N
    counts 16 times (2 orders of the legs, 4 signs of (x1, x2), 2 of x3).
    Of the K = N // c multiples of a primitive triple (a, b, c), K - K // p
    are coprime to the prime p when p divides none of a, b, c, and none
    otherwise.  The pairs are taken as arrays, a few n-rows at a time with
    at most WALK_BLOCK pairs: row n holds m = n + 1, n + 3, ... up to
    isqrt(N - n^2).  Raises TooLarge above PYTH_MAX_N.
    """
    _check_walk_bound(N)
    if coprime_to is not None and not is_prime(coprime_to):
        raise ValueError(f"coprime_to = {coprime_to} must be a prime")
    n = np.arange(1, math.isqrt(N // 2) + 1, dtype=np.int64)
    # float sqrt is floor-exact for N < 2^52; n <= sqrt(N/2) keeps each k >= 0
    k = (np.sqrt(N - n * n).astype(np.int64) - n + 1) // 2
    rows = max(1, WALK_BLOCK // int(k.max(initial=1)))  # the first row is the longest
    total = 0
    for i in range(0, len(n), rows):
        r, v = _segment_rows(k[i : i + rows])
        nn = r + (i + 1)  # n[i + r], as n[i] = i + 1
        m = nn + 1 + 2 * v
        keep = np.gcd(m, nn) == 1
        m, nn = m[keep], nn[keep]
        c = m * m + nn * nn
        K = N // c
        if coprime_to is not None:
            # one leg at a time: each is at most N, but a*b*c can pass 2^63.  Like
            # any prime above N, N + 1 divides no leg, and K // (N + 1) = 0
            p = min(coprime_to, N + 1)
            K = K[((m * m - nn * nn) % p != 0) & (2 * m * nn % p != 0) & (c % p != 0)]
            K = K - K // p
        total += int(K.sum())
    return 16 * total


class TransitionResult(NamedTuple):
    congruence_count: int
    equation_count: int
    equal: bool


def transition_check(m: PrimePowerModulus, N: int) -> TransitionResult:
    """Below N < sqrt(q/2) every congruence solution in the box is an
    exact Pythagorean triple; count both sides independently."""
    if N * N * 2 >= m.q:
        raise RangeViolation(
            f"N = {N} is not below sqrt(q/2) = {math.sqrt(m.q / 2):.2f}"
        )
    cong = count_box_exact(m, N)
    eq = count_equation_box(N, coprime_to=m.p)
    return TransitionResult(cong, eq, cong == eq)


def _odd_mobius(M: int) -> Tuple[np.ndarray, np.ndarray]:
    """d^2 and mu(d) for the odd squarefree d <= M, sieved over the odd primes."""
    mu = np.ones(M + 1, dtype=np.int64)
    mu[::2] = 0
    composite = np.zeros(M + 1, dtype=bool)
    for p in range(3, M + 1, 2):
        if not composite[p]:
            composite[p * p :: p] = True
            mu[p::p] *= -1
            mu[p * p :: p * p] = 0
    d = np.flatnonzero(mu)
    return d * d, mu[d]


# up to 5 d^2 <= PYTH_MAX_N: 5 is the least hypotenuse
_D2, _MU = _odd_mobius(math.isqrt(PYTH_MAX_N // 5))


def _segment_rows(lengths: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The rows of consecutive segments, lengths[i] rows in segment i: each
    row's segment and its offset in that segment."""
    seg = np.repeat(np.arange(len(lengths)), lengths)
    return seg, np.arange(len(seg)) - np.repeat(np.cumsum(lengths) - lengths, lengths)


def _hyperbola_split(N: int) -> int:
    """u = 4 t^2, with t the integer cube root of N, raised to SPLIT_MIN
    and clipped to [1, N]."""
    t = round(N ** (1 / 3))
    t -= t**3 > N
    return max(1, min(N, max(SPLIT_MIN, 4 * t * t)))


def count_pythagorean(N: int) -> int:
    """Number of integer triples with x1^2 + x2^2 = x3^2 and |x3| <= N.

    The origin, the 8N triples with a zero leg, and 16 S(N): S is the sum
    of N // c over the primitive triples, c the hypotenuse, and each
    multiple counts 16 times (2 orders of the legs, 4 signs of (x1, x2),
    2 of x3), as in count_equation_box, its oracle.  Grows like
    (8/pi) N log N.  Raises for N < 0 and N > PYTH_MAX_N.

    S comes from lattice-point counts, not from the triples.  Let P(x)
    count the coprime m > n > 0 of opposite parity with m^2 + n^2 <= x, so
    that S is the sum of P(N // k) over k >= 1.  Split at u from
    _hyperbola_split, with w = N // (u + 1),

        S = sum over primitive c <= u of N // c
            + sum over k <= w of P(N // k) - w P(u),

    because N // k = u for w < k <= N // u.  A common factor of m and n of
    opposite parity is odd, so Moebius inversion over the odd squarefree d
    gives P(x) = sum over d of mu(d) Q(x // d^2), Q counting the pairs with
    no coprimality condition, and the first sum is the sum over d of mu(d)
    times that of N // (d^2 c) over the pair hypotenuses c <= u // d^2.
    Q(y) is read off the sorted table of the pair hypotenuses up to u for
    y <= u, and above u it is one row sum: (isqrt(y - n^2) - n + 1) // 2
    values of m for each n <= isqrt(y // 2).  About u table entries and
    sqrt(N w) log N rows in all, O(N^(2/3) log N).

    Exact: the rows are int64 arrays, and no value or sum exceeds
    N + 16 S(N) < 2^63; each float square root is of an integer below
    2^52, where its floor is exact.
    """
    _check_walk_bound(N)
    u = _hyperbola_split(N)
    w = N // (u + 1)
    n = np.arange(1, math.isqrt(u // 2) + 1, dtype=np.int64)[:, None]
    m = n + 1 + 2 * np.arange(math.isqrt(u) // 2, dtype=np.int64)
    table = m * m + n * n  # m > n of opposite parity, coprime or not
    table = np.sort(table[table <= u])
    nd = np.searchsorted(_D2, u // 5, side="right")
    below = np.searchsorted(table, u // _D2[:nd], side="right")  # Q(u // d^2)
    total = -w * int(below @ _MU[:nd])  # - w P(u)
    d, i = _segment_rows(below)
    total += int(_MU[d] @ (N // (_D2[d] * table[i])))
    x = N // np.arange(1, w + 1, dtype=np.int64)
    k, d = _segment_rows(np.searchsorted(_D2, x // 5, side="right"))
    y, mu = x[k] // _D2[d], _MU[d]  # P(N // k) is the sum of mu Q(y)
    low = y <= u
    total += int(mu[low] @ np.searchsorted(table, y[low], side="right"))
    y, mu = y[~low], mu[~low]
    j, n = _segment_rows(np.sqrt(y // 2).astype(np.int64))
    n += 1
    total += int(mu[j] @ ((np.sqrt(y[j] - n * n).astype(np.int64) - n + 1) // 2))
    return 1 + 8 * N + 16 * total


def dual_triple_count(L: int, modulus: int) -> int:
    """Nonzero triples (l1, l2, l3) with |l_i| <= L and
    l1^2 + l2^2 = l3^2 mod modulus.

    For modulus > 2 L^2 the congruence forces the exact equation, which
    ties the dual side to the ordinary Pythagorean count.
    """
    if L < 0:
        raise ValueError(f"L = {L} must be nonnegative")
    if L > DUAL_MAX_L:
        raise TooLarge(f"L = {L} above the enumeration bound {DUAL_MAX_L}")
    if modulus < 1:
        raise ValueError(f"modulus = {modulus} must be positive")
    if modulus > 2 * L * L:
        # |l1^2 + l2^2 - l3^2| <= 2 L^2 < modulus: congruence = equation
        return count_pythagorean(L) - 1
    ls = np.arange(-L, L + 1, dtype=np.int64)
    return _square_triples(ls, modulus) - 1  # drop (0, 0, 0)
