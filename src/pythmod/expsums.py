"""Complete exponential sums e_q(f(x)) to odd prime-power moduli.

Provides brute-force evaluators of the circle sum and of its single-class
sums, the closed-form stationary-phase evaluation of sums over single
residue classes, quadratic Gauss sums, and the specialized quantities
attached to the circle phase f(t) = x3 * (k1*(1-t^2) + 2*k2*t) / (1+t^2):
stationary points of 2*l1*a = l2*(1-a^2) mod p, their lifts, the curvature
symbol, the unimodular Gauss factor, and the sqrt(D)-weighted lattice factor.

Both brute forces walk the points z(t) = (1 - t^2, 2t)/(1 + t^2) as powers
of one generator h of the cyclic circle group mod q, where the phase is
f(t) = Re(w z), w = x3 (k1 - i k2), and need no inverse. The circle sum
takes the h^j of the admissible t: f(-z) = -f(z) and -1 = h^(M/2), so it
sums one point of each pair {z, -z} and returns twice the real part. A
class t = alpha mod p is one coset z(alpha) <h^(p - eps)>, walked the same
way.

Closed forms are verified against brute force elsewhere; the evaluators here
never share code with their oracles.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Tuple

import numpy as np

from .circle import is_admissible_param
from .errors import DenominatorNotUnit, HypothesisViolated, NotResidue, TooLarge, UnitRequired
from .padic import (
    Poly,
    PrimePowerModulus,
    RationalFunction,
    _prime_divisors,
    _sqrt_mod_prime,
    eval_rational_mod,
    inv_mod,
    is_prime,
    jacobi_symbol,
    sqrt_mod,
)
from .weights import _box_radius

BRUTE_MAX_Q = 10**7
BRUTE_BLOCK = 2**14  # most terms per block of the brute-force walks
GAUSS_MAX_Q = 10**6

TWO_PI = 2.0 * math.pi


def additive_character(z: int, q: int) -> complex:
    """e_q(z) = exp(2 pi i z / q)."""
    return cmath.exp(TWO_PI * 1j * (z % q) / q)


def gauss_sum_bruteforce(q: int) -> complex:
    """Sum of e_q(x^2) for x = 1..q, summed termwise."""
    if q % 2 == 0 or q < 1:
        raise ValueError(f"q = {q} must be odd and positive")
    if q > GAUSS_MAX_Q:
        raise TooLarge(f"q = {q} above the brute-force bound {GAUSS_MAX_Q}")
    x = np.arange(1, q + 1, dtype=np.int64)
    r = (x * x) % q
    return complex(np.exp(TWO_PI * 1j * r / q).sum())


def gauss_sum_closed(q: int) -> complex:
    """sqrt(q) for odd q = 1 mod 4, i*sqrt(q) for q = 3 mod 4."""
    if q % 2 == 0 or q < 1:
        raise ValueError(f"q = {q} must be odd and positive")
    root = math.sqrt(q)
    return complex(root) if q % 4 == 1 else root * 1j


def _prime_gauss_unit(p: int) -> complex:
    """G_p / sqrt(p): 1 for p = 1 mod 4, i for p = 3 mod 4."""
    return 1.0 + 0j if p % 4 == 1 else 1j


def phase_function(k1: int, k2: int, x3: int) -> RationalFunction:
    """The circle phase x3 * (k1*(1-t^2) + 2*k2*t) / (1 + t^2)."""
    return RationalFunction(Poly([x3 * k1, 2 * x3 * k2, -x3 * k1]), Poly([1, 0, 1]))


def _fmod(a: np.ndarray, q: int, t: np.ndarray) -> np.ndarray:
    """a mod q, in place, for a float64 array a of integers |a| <= q^2 + q:
    a - q * floor((a + 0.5) * fl(1/q)), with t a scratch array of a's shape.

    Exact while q (q + 2) < 2^51. Every integer below 2^52 and every
    half-integer a + 0.5 is a float64. The two roundings, of 1/q and of
    the product, leave the quotient within (q + 2) 2^-52 of (a + 0.5)/q,
    whose distance to the nearest integer is at least 0.5/q. So the floor
    is floor(a/q) exactly, and so are q times it and the difference."""
    np.add(a, 0.5, out=t)
    t *= 1.0 / q
    np.floor(t, out=t)
    t *= q
    a -= t
    return a


@functools.lru_cache(maxsize=64)
def _root_tables(q: int) -> Tuple[int, np.ndarray, np.ndarray]:
    """(s, hi, lo) with e_q(z) = hi[z >> s] * lo[z & (2^s - 1)] for 0 <= z < q,
    s = ceil(bitlen(q) / 2): about sqrt(q) entries each, one np.exp each.
    Cached per q, read-only: under 90 KB for q <= 7^8."""
    s = (q.bit_length() + 1) // 2
    lo = np.exp(TWO_PI * 1j / q * np.arange(1 << s))
    hi = np.exp(TWO_PI * 1j / q * (np.arange(((q - 1) >> s) + 1) << s))
    hi.flags.writeable = lo.flags.writeable = False
    return s, hi, lo


def _gauss_mul(a: Tuple[int, int], b: Tuple[int, int], mod: int) -> Tuple[int, int]:
    """(a1 + i a2)(b1 + i b2) mod mod, for pairs of ints."""
    return (a[0] * b[0] - a[1] * b[1]) % mod, (a[0] * b[1] + a[1] * b[0]) % mod


def _gauss_pow(z: Tuple[int, int], e: int, mod: int) -> Tuple[int, int]:
    """z^e mod mod, for a pair of ints z = (y1, y2) read as y1 + i y2."""
    out = (1, 0)
    while e:
        if e & 1:
            out = _gauss_mul(out, z, mod)
        z = _gauss_mul(z, z, mod)
        e >>= 1
    return out


def _circle_order_mod_p(p: int) -> int:
    """p - (-1/p), the order of the circle group y1^2 + y2^2 = 1 mod p."""
    return p - 1 if p % 4 == 1 else p + 1


@functools.lru_cache(maxsize=64)
def _circle_generator(p: int, n: int) -> Tuple[int, int]:
    """A generator (y1, y2) of the circle group C(p^n) = {y1 + i y2 :
    y1^2 + y2^2 = 1 mod p^n}, which is cyclic of order M = (p - eps) p^(n-1),
    eps = (-1/p).

    Tries z = z(t) = (1 - t^2, 2t) / (1 + t^2) for t = 2, 3, ... z mod p
    generates C(p) when z^((p - eps)/l) != 1 mod p for every prime l of
    p - eps, found by trial division. Then z^(p - eps) lies in the kernel
    of reduction mod p, cyclic of order p^(n-1), and generates it when it
    is not 1 mod p^2. So z has order M.
    """
    q, order = p**n, _circle_order_mod_p(p)
    primes = _prime_divisors(order)
    t = 1
    while True:
        t += 1
        if (1 + t * t) % p == 0:
            continue
        inv = pow(1 + t * t, -1, q)
        z = ((1 - t * t) * inv % q, 2 * t * inv % q)
        if any(_gauss_pow(z, order // l, p) == (1, 0) for l in primes):
            continue
        if n == 1 or _gauss_pow(z, order, p * p) != (1, 0):
            return z


def _gauss_powers(start: Tuple[int, int], g: Tuple[int, int], count: int, q: int) -> np.ndarray:
    """Float64 residues of start * g^k mod q for k < count, real parts in
    row 0 and imaginary parts in row 1: the first k entries times g^k give
    the next k. The imaginary part a s + b c of (a + i b)(c + i s) is taken
    as a s - b (q - c), so that both parts stay within q^2 of 0, where
    _fmod is exact."""
    out, t = np.empty((2, count)), np.empty((2, count))
    out[:, 0] = start
    k = 1
    while k < count:
        j = min(k, count - k)
        (c, s), (a, b) = g, out[:, :j]
        np.subtract(a * c, b * s, out=out[0, k : k + j])
        np.subtract(a * s, b * (q - c), out=out[1, k : k + j])
        _fmod(out[:, k : k + j], q, t[:, :j])
        g = _gauss_mul(g, g, q)
        k += j
    return out


@functools.lru_cache(maxsize=64)
def _walk_tables(step: Tuple[int, int], count: int, q: int, d: int):
    """The tables of _walk's blocks, cached per walk, read-only:
    (W, v, cs, step^W, sub), with W = min(count, BRUTE_BLOCK) lowered to a
    multiple of d when 0 < d <= W, v the columns v < W kept, cs the column
    table step^v (real parts in row 0, imaginary parts in row 1) and
    sub = step^d when the powers with d | j are subtracted, else None."""
    W = min(count, BRUTE_BLOCK)
    drop = 0 < d <= W
    if drop:
        W -= W % d
    v = np.arange(W)
    if drop:
        v = v[v % d != 0]
    cs = _gauss_powers((1, 0), step, W, q)[:, v]
    v.flags.writeable = cs.flags.writeable = False
    return W, v, cs, _gauss_pow(step, W, q), _gauss_pow(step, d, q) if d and not drop else None


def _walk(
    start: Tuple[int, int], step: Tuple[int, int], count: int, q: int, d: int = 0
) -> Iterator[Tuple[int, np.ndarray]]:
    """Blocks (sign, z) of phases z = Re(start step^j) mod q, int64, such
    that the signed blocks hold each j < count with j != 0 mod d exactly
    once (every j when d = 0).

    Block u holds j = u W + v for the cached column table step^v = c + i s
    of W <= BRUTE_BLOCK columns. Its row start step^(u W) = A + i B is a
    pair of ints, advanced by one product with step^W per block, so a phase
    is A c - B s, both products below q^2, reduced by _fmod. The last block
    takes the columns v < count - u W. When 0 < d <= W, W is a multiple of
    d and the columns v = 0 mod d are dropped; when d is larger, every j is
    summed and the count/d phases with d | j come back with sign -1.
    """
    W, v, (c, s), row_step, sub = _walk_tables(step, count, q, d)
    x, t = np.empty(len(v)), np.empty(len(v))
    row = start
    for u in range(0, count, W):
        k = int(np.searchsorted(v, count - u))
        np.multiply(row[0], c[:k], out=x[:k])
        np.multiply(row[1], s[:k], out=t[:k])
        x[:k] -= t[:k]
        yield 1, _fmod(x[:k], q, t[:k]).astype(np.int64)
        row = _gauss_mul(row, row_step, q)
    if sub is not None:
        yield -1, _gauss_powers(start, sub, count // d, q)[0].astype(np.int64)


def _circle_phases(w: Tuple[int, int], m: PrimePowerModulus) -> Iterator[Tuple[int, np.ndarray]]:
    """Blocks (sign, z) of phases z = Re(w h^j) mod q, int64, h the generator
    of C(q), such that the signed blocks hold each j in [0, M/2) with
    j != 0 mod d exactly once, d = (p - eps)/4. Those h^j are the points
    z(t) of the admissible parameters t, one of each pair {z, -z}:
    t -> z(t) is one-to-one onto the z != -1 mod p, and t is admissible
    exactly when z mod p is not in {1, -1, i, -i}, the subgroup of order 4
    of the cyclic C(p), whose elements are the powers h^j with d | j.

    The walk of _walk drops the columns d | v unless d > BRUTE_BLOCK, which
    takes n = 1 (q <= BRUTE_MAX_Q) and p - eps > 2^16; then M/2 = 2d and
    the 2 phases with d | j are subtracted. p = 3 and 5 have d = 1, so no
    admissible parameter and no block.
    """
    order = _circle_order_mod_p(m.p)
    if order == 4:
        return iter(())
    return _walk(w, _circle_generator(m.p, m.n), order * (m.q // m.p) // 2, m.q, order // 4)


def _phase_sum(blocks: Iterator[Tuple[int, np.ndarray]], q: int) -> complex:
    """The signed sum of e_q(z) over the blocks (sign, z) of a walk. e_q(z)
    is the product of two entries of the root tables; each block sums
    pairwise, as np.sum does, through buffers allocated once per call."""
    sh, hi, lo = _root_tables(q)
    total, e = 0j, np.empty(0, dtype=complex)
    for sign, z in blocks:
        size = len(z)
        if size > len(e):
            e, e_lo = np.empty(size, dtype=complex), np.empty(size, dtype=complex)
        np.take(hi, z >> sh, out=e[:size], mode="clip")
        np.take(lo, z & (len(lo) - 1), out=e_lo[:size], mode="clip")
        e[:size] *= e_lo[:size]
        total += sign * e[:size].sum()
    return complex(total)


def _circle_weight(f: RationalFunction, q: int) -> Tuple[int, int]:
    """w = (a, -b/2) mod q for a circle phase f = (a (1 - t^2) + b t) /
    (1 + t^2), the shape phase_function builds, so that f(t) = Re(w z(t))
    mod q; raises ValueError for any other f."""
    num, den = ([c % q for c in poly.coeffs] + [0, 0, 0] for poly in (f.num, f.den))
    if any(num[3:] + den[3:]) or den[:3] != [1, 0, 1] or (num[0] + num[2]) % q:
        raise ValueError(f"{f!r} is not a circle phase (a (1 - t^2) + b t) / (1 + t^2)")
    return num[0], -num[1] * ((q + 1) // 2) % q


def residue_class_sum(f: RationalFunction, alpha: int, m: PrimePowerModulus) -> complex:
    """Brute force: sum of e_q(f(t)) over t = alpha mod p, t in [1, q], for
    a circle phase f = (a (1 - t^2) + b t) / (1 + t^2), the shape
    phase_function builds; raises ValueError for any other phase.

    f(t) = Re(w z(t)) with w = (a, -b/2) mod q and z(t) = (1 - t^2, 2t) /
    (1 + t^2) on the circle group C(q). z(t) mod p depends only on t mod p,
    and t -> z(t) is one-to-one, so the class maps onto the coset
    z(alpha) K1 of the kernel K1 of reduction mod p, cyclic of order p^(n-1)
    and generated by g = h^(p - eps) for the generator h of C(q). So the sum
    is that of e_q(Re(w z(alpha) g^i)) over i < p^(n-1), the circle sum's
    walk from w z(alpha) with step g and no dropped column. This holds
    for every alpha with 1 + alpha^2 a unit, admissible or not.
    """
    if m.q > BRUTE_MAX_Q:
        raise TooLarge(f"q = {m.q} above the brute-force bound {BRUTE_MAX_Q}")
    p, q = m.p, m.q
    w = _circle_weight(f, q)
    if f.den.eval_mod(alpha, p) == 0:
        raise DenominatorNotUnit(f"denominator vanishes mod {p} at {alpha}")
    inv = pow(1 + alpha * alpha, -1, q)
    start = _gauss_mul(w, ((1 - alpha * alpha) * inv % q, 2 * alpha * inv % q), q)
    g = _gauss_pow(_circle_generator(p, m.n), _circle_order_mod_p(p), q)
    return _phase_sum(_walk(start, g, q // p, q), q)


def _stripped(poly: Poly, p: int) -> Tuple[Poly, int]:
    e = poly.ord_p(p)
    if e is math.inf:
        return poly, 0
    return poly.strip_p(e, p), e


def _hensel_root(h: Poly, hp: Poly, alpha: int, p: int, levels: int) -> int:
    """Lift a simple root of h mod p to a root mod p^levels (Newton)."""
    val = alpha % p
    lvl = 1
    while lvl < levels:
        lvl = min(2 * lvl, levels)
        mod = p**lvl
        hv = h.eval_mod(val, mod)
        hd = hp.eval_mod(val, mod)
        val = (val - hv * pow(hd, -1, mod)) % mod
    return val


def residue_class_sum_closed(f: RationalFunction, alpha: int, m: PrimePowerModulus) -> complex:
    """Stationary-phase evaluation of the class sum, for n >= 2.

    With r the p-adic order of f' and h = p^-r * f', the sum over the
    class of alpha vanishes unless h(alpha) = 0 mod p. At a root of
    multiplicity one, with a* the Hensel lift of alpha to a root of h
    mod p^floor((n-r+1)/2):

        S = e_q(f(a*)) * p^((n+r)/2)                  n - r even
        S = e_q(f(a*)) * p^((n+r)/2) * (A/p) * G_p/sqrt(p)   n - r odd

    where A = 2 * h'(a*) mod p is the scaled curvature of the phase.
    Raises HypothesisViolated when r > n-2, n < 2, the denominator is
    not a unit at alpha, or the root has higher multiplicity; callers
    should fall back to residue_class_sum.

    f' = (F1'F2 - F1F2')/F2^2 with F2(alpha) a unit, so F2 has unit
    content, and so has F2^2 by Gauss's lemma: r is the p-adic content
    of the numerator, and F2^2 is a unit at alpha.
    """
    p, n, q = m.p, m.n, m.q
    if n < 2:
        raise HypothesisViolated(f"n = {n} < 2")
    if f.den.eval_mod(alpha, p) == 0:
        raise HypothesisViolated(f"denominator vanishes mod {p} at {alpha}")
    fp = f.derivative()
    h_num, r = _stripped(fp.num, p)
    if fp.num.is_zero():
        raise HypothesisViolated("f' = 0: order of f' is infinite")
    if r > n - 2:
        raise HypothesisViolated(f"ord_p(f') = {r} > n - 2 = {n - 2}")
    den_at = fp.den.eval_mod(alpha, p)
    if h_num.eval_mod(alpha, p) != 0:
        return 0j
    h_num_d = h_num.derivative()
    if h_num_d.eval_mod(alpha, p) == 0:
        raise HypothesisViolated(f"alpha = {alpha} is a root of multiplicity > 1")

    lift_levels = (n - r + 1) // 2
    astar = _hensel_root(h_num, h_num_d, alpha, p, lift_levels)
    amp = float(p ** ((n + r) // 2)) * (math.sqrt(p) if (n + r) % 2 else 1.0)
    phase = additive_character(eval_rational_mod(f, astar, m), q)
    if (n - r) % 2 == 0:
        return amp * phase
    curvature = 2 * h_num_d.eval_mod(astar, p) * pow(den_at, -1, p) % p
    return amp * phase * jacobi_symbol(curvature, p) * _prime_gauss_unit(p)


@dataclass(frozen=True)
class ExpSumSpec:
    """Parameters (k1, k2, x3) of the circle phase mod p^n.

    Derives r with p^r = gcd(k1, k2, p^n), the stripped pair
    (l1, l2) = (k1, k2)/p^r and D = l1^2 + l2^2.
    """

    k1: int
    k2: int
    x3: int
    modulus: PrimePowerModulus
    r: int = field(init=False)
    l1: int = field(init=False)
    l2: int = field(init=False)
    D: int = field(init=False)

    def __post_init__(self):
        m = self.modulus
        if self.k1 == 0 and self.k2 == 0:
            raise ValueError("(k1, k2) = (0, 0) is excluded")
        if self.x3 % m.p == 0:
            raise UnitRequired(f"x3 = {self.x3} is divisible by p = {m.p}")
        r = 0
        while r < m.n and self.k1 % m.p**(r + 1) == 0 and self.k2 % m.p**(r + 1) == 0:
            r += 1
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "l1", self.k1 // m.p**r)
        object.__setattr__(self, "l2", self.k2 // m.p**r)
        object.__setattr__(self, "D", self.l1**2 + self.l2**2)

    @property
    def levels(self) -> int:
        return self.modulus.n - self.r

    def phase(self) -> RationalFunction:
        return phase_function(self.k1, self.k2, self.x3)


class StationaryPoints(NamedTuple):
    roots: Tuple[int, ...]
    is_double: bool


def stationary_points(l1: int, l2: int, p: int) -> StationaryPoints:
    """Roots mod p of 2*l1*a = l2*(1 - a^2), for units l1, l2.

    Two simple roots when D = l1^2 + l2^2 is a unit square mod p, none
    when D is a non-residue, and one double root (flagged) when p | D.
    """
    if p % 2 == 0 or not is_prime(p):  # mod 9 Tonelli-Shanks finds no non-residue
        raise ValueError(f"p = {p} is not an odd prime")
    return _stationary_points(l1, l2, p)


def _stationary_points(l1: int, l2: int, p: int) -> StationaryPoints:
    """stationary_points for a p already known to be an odd prime."""
    if (l1 * l2) % p == 0:
        raise UnitRequired(f"l1*l2 = {l1 * l2} not a unit mod {p}")
    D = l1 * l1 + l2 * l2
    inv_l2 = pow(l2 % p, -1, p)
    if D % p == 0:
        return StationaryPoints(((-l1) * inv_l2 % p,), True)
    if jacobi_symbol(D, p) != 1:
        return StationaryPoints((), False)
    rho = _sqrt_mod_prime(D, p)
    roots = sorted(((-l1 + rho) * inv_l2 % p, (-l1 - rho) * inv_l2 % p))
    return StationaryPoints(tuple(roots), False)


def canonical_sqrt(a: int, m: PrimePowerModulus) -> int:
    """The smaller of the two roots of x^2 = a mod p^n, for a unit residue."""
    roots = sqrt_mod(a, m)
    if roots is None:
        raise NotResidue(f"{a} is not a quadratic residue mod {m.p}")
    return roots[0].value


def _level_root(D: int, p: int, levels: int) -> Tuple[int, int]:
    """(p^levels, the canonical root of D mod p^levels), for a unit residue D."""
    sub = PrimePowerModulus(p, levels)
    return sub.q, canonical_sqrt(D % sub.q, sub)


def _stationary_lift(l1: int, l2: int, m: PrimePowerModulus, branch: int) -> Tuple[int, int]:
    """(a*, rho): the point of lift_stationary_point and the canonical
    root rho of D mod p^(n-r) it is built from."""
    if branch not in (1, -1):
        raise ValueError(f"branch must be +1 or -1, got {branch}")
    if (l1 * l2) % m.p == 0:
        raise UnitRequired(f"l1*l2 = {l1 * l2} not a unit mod {m.p}")
    D = l1 * l1 + l2 * l2
    if D % m.p == 0:
        raise NotResidue(f"D = {D} is divisible by p = {m.p}")
    rho = canonical_sqrt(D % m.q, m)
    astar = (-l1 + branch * rho) * inv_mod(l2, m) % m.q
    assert (2 * l1 * astar - l2 * (1 - astar * astar)) % m.q == 0
    return astar, rho


def lift_stationary_point(l1: int, l2: int, m: PrimePowerModulus, branch: int) -> int:
    """The stationary point (-l1 + branch*sqrt(D)) / l2 mod p^(n-r).

    m is the modulus p^(n-r); branch is +1 or -1 and selects the sign in
    front of the canonical (smaller) root of x^2 = D. The result solves
    2*l1*a = l2*(1 - a^2) mod p^(n-r).
    """
    return _stationary_lift(l1, l2, m, branch)[0]


def stationary_phase_identity(spec: ExpSumSpec, branch: int) -> Tuple[complex, complex]:
    """Both sides of e_q(f(a*)) = e_{p^(n-r)}(branch * x3 * sqrt(D)).

    The left side evaluates the full phase at the lifted stationary
    point; the right side is the closed form with the canonical root.
    """
    m = spec.modulus
    sub = PrimePowerModulus(m.p, spec.levels)
    astar, rho = _stationary_lift(spec.l1, spec.l2, sub, branch)
    lhs = additive_character(eval_rational_mod(spec.phase(), astar, m), m.q)
    rhs = additive_character(branch * spec.x3 * rho, sub.q)
    return lhs, rhs


def curvature_symbol(spec: ExpSumSpec, branch: int) -> int:
    """Legendre symbol of A = 2 * p^-r * f''(a*) for the chosen branch.

    A is computed from the second quotient-rule derivative of the phase,
    stripped of its p-content, so this is the defining route for the
    curvature term in the stationary-phase formula.
    """
    p = spec.modulus.p
    astar = lift_stationary_point(spec.l1, spec.l2, PrimePowerModulus(p, spec.levels), branch)
    fpp = spec.phase().derivative().derivative()
    n2, a2 = _stripped(fpp.num, p)
    d2, b2 = _stripped(fpp.den, p)
    excess = a2 - b2 - spec.r
    assert excess >= 0
    value = 2 * p**excess * n2.eval_mod(astar, p) * pow(d2.eval_mod(astar, p), -1, p)
    sym = jacobi_symbol(value, p)
    assert sym != 0, "curvature degenerate at a simple stationary point"
    return sym


def curvature_symbol_sqrt_form(spec: ExpSumSpec, branch: int) -> int:
    """Closed form of the curvature symbol: (-2 * x3 * rho / p).

    rho = branch * canonical sqrt(D) is the root attached to the branch;
    the symbol pairs each branch with the NEGATED root, i.e. it equals
    (2 * x3 * rho' / p) for the opposite root rho' = -rho.  For
    p = 1 mod 4 the sign is invisible because (-1/p) = 1.
    """
    p = spec.modulus.p
    rho = branch * _level_root(spec.D, p, spec.levels)[1]
    return jacobi_symbol(-2 * spec.x3 * rho, p)


def gauss_factor(levels: int, x3: int, D: int, p: int) -> complex:
    """Unimodular factor: 1 for even levels, (2*x3*sqrt(D)/p) * G_p/sqrt(p) for odd."""
    sub = PrimePowerModulus(p, levels)  # refused at every level as by gauss_factor_unified
    if (x3 * D) % p == 0:
        raise UnitRequired(f"x3*D = {x3 * D} not a unit mod {p}")
    if jacobi_symbol(D, p) != 1:
        raise NotResidue(f"{D} is not a quadratic residue mod {p}")
    if levels % 2 == 0:
        return 1.0 + 0j
    rho = canonical_sqrt(D % sub.q, sub)
    return jacobi_symbol(2 * x3 * rho, p) * _prime_gauss_unit(p)


def gauss_factor_unified(levels: int, x3: int, D: int, p: int) -> complex:
    """Same factor as G_{p^levels}/p^(levels/2) * (2*x3*sqrt(D) / p^levels)."""
    if (x3 * D) % p == 0:
        raise UnitRequired(f"x3*D = {x3 * D} not a unit mod {p}")
    q, rho = _level_root(D, p, levels)
    scale = gauss_sum_closed(q) / p ** (levels / 2.0)
    return scale * jacobi_symbol(2 * x3 * rho, q)


def circle_exponential_sum(spec: ExpSumSpec, mode: str = "bruteforce") -> complex:
    """E(k1, k2, x3; p^n): sum of e_q(f(t)) over admissible parameters t.

    bruteforce sums termwise over the admissible t mod q (q <= 1e7), as
    the circle points z(t) = h^j, j < M/2, of a generator h of the circle
    group (see _circle_phases), and returns twice the real part. This is
    exact: z -> -z = h^(M/2) z keeps the admissible points and negates
    f = Re(w z) mod q, so the other half of the sum is the conjugate.
    closed assembles the stationary-phase class sums over the roots of
    the stationary congruence; it is exactly 0 when no admissible root
    exists, and needs r <= n - 2.
    """
    m = spec.modulus
    if mode == "bruteforce":
        if m.q > BRUTE_MAX_Q:
            raise TooLarge(f"q = {m.q} above the brute-force bound {BRUTE_MAX_Q}")
        w = (spec.x3 * spec.k1 % m.q, -spec.x3 * spec.k2 % m.q)
        return complex(2.0 * _phase_sum(_circle_phases(w, m), m.q).real)
    if mode == "closed":
        if spec.r > m.n - 2:
            raise HypothesisViolated(f"r = {spec.r} > n - 2 = {m.n - 2}: closed form unavailable")
        if (spec.l1 * spec.l2) % m.p == 0:
            return 0j  # the stationary congruence forces t = 0 or +-1 mod p
        pts = _stationary_points(spec.l1, spec.l2, m.p)  # m has checked p
        f, total = spec.phase(), 0j
        for root in pts.roots:
            if not is_admissible_param(root, m):
                continue  # only the double root lands here
            total += residue_class_sum_closed(f, root, m)
        return total
    raise ValueError(f"unknown mode {mode!r}")


def lattice_circle_weight(D: int, levels: int, N: float, w, p: int) -> complex:
    """Jacobi factor (2*sqrt(D) / p^levels) times the dual-weighted count
    of lattice points l1^2 + l2^2 = D with unit coordinates.

    The Gaussian dual weight w.fourier(l1 N/p^levels) w.fourier(l2 N/p^levels)
    depends on l1^2 + l2^2 alone, so it is the one product
    w.fourier(0) w.fourier(sqrt(D) N/p^levels) on every point, and the sum
    is the number of unit points times it. Zero when D has no canonical
    root mod p (non-residue or p | D) or when no unit point exists.
    """
    if D < 1:
        raise ValueError(f"D = {D} must be positive")
    PrimePowerModulus(p, levels)  # levels >= 1, p an odd prime, p^levels <= 2^31
    if not (math.isfinite(N) and N >= 1):
        raise ValueError(f"N = {N} must be finite and at least 1")
    R = _box_radius(math.isqrt(D), "lattice circle")  # before the O(sqrt(D)) pass
    if D % p == 0 or jacobi_symbol(D, p) != 1:
        return 0j
    q, rho = _level_root(D, p, levels)
    l1 = np.arange(-R, R + 1, dtype=np.int64)
    rest = D - l1 * l1
    # floor(sqrt) is isqrt below 2^52, and the box gate keeps D below 2.5e11
    l2 = np.sqrt(rest).astype(np.int64)
    # each l2 > 0 gives the points (l1, +-l2); l2 = 0 is never a unit
    units = 2 * np.count_nonzero((l2 * l2 == rest) & (l1 % p != 0) & (l2 % p != 0))
    dual = w.fourier(0.0) * w.fourier(math.sqrt(D) * N / q)
    return complex(jacobi_symbol(2 * rho, q) * int(units) * dual)
