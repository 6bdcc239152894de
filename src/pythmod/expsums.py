"""Complete exponential sums e_q(f(x)) to odd prime-power moduli.

Provides a termwise brute-force evaluator for rational phase functions, the
closed-form stationary-phase evaluation of sums over single residue classes,
quadratic Gauss sums, and the specialized quantities attached to the circle
phase f(t) = x3 * (k1*(1-t^2) + 2*k2*t) / (1+t^2): stationary points of
2*l1*a = l2*(1-a^2) mod p, their lifts, the curvature symbol, the unimodular
Gauss factor, and the sqrt(D)-weighted lattice factor.

The brute-force circle sum uses one exact symmetry of the circle phase:
t -> -1/t sends the class alpha mod p onto the class -alpha^-1 mod p, and
f(-1/t) = -f(t) mod q, so the two class sums are complex conjugates. No
admissible alpha is its own partner (alpha^2 = -1 is excluded), so the sum
is twice the real part of the termwise sum over one class of each pair.

Closed forms are verified against brute force elsewhere; the evaluators here
never share code with their oracles.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .circle import admissible_classes, is_admissible_param
from .errors import DenominatorNotUnit, HypothesisViolated, NotResidue, TooLarge, UnitRequired
from .padic import (
    Poly,
    PrimePowerModulus,
    RationalFunction,
    _sqrt_mod_prime,
    eval_rational_mod,
    inv_mod,
    jacobi_symbol,
    sqrt_mod,
)
from .weights import _box_radius

BRUTE_MAX_Q = 10**7
BRUTE_BLOCK = 2**14  # terms per block of the brute force's (class, j) grid
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


def _horner(poly: Poly, x: np.ndarray, q: int, acc: np.ndarray, t: np.ndarray) -> np.ndarray:
    """poly(x) mod q into acc, for float64 residues 0 <= x < q broadcast to
    acc's shape: Horner, reduced by _fmod where the next product could pass
    q^2, and at the end; t is scratch."""
    cs = [c % q for c in reversed(poly.coeffs)] or [0]
    acc.fill(cs[0])
    top = cs[0]  # acc <= top
    for c in cs[1:]:
        if top >= q:
            _fmod(acc, q, t)
            top = q - 1
        acc *= x
        top *= q - 1
        if c:
            acc += c
            top += c
    return _fmod(acc, q, t) if top >= q else acc


def _newton_step(a: np.ndarray, x: np.ndarray, q: int, out: np.ndarray, t: np.ndarray) -> np.ndarray:
    """out = x (2 - a x) mod q, for float64 residues: if x inverts a mod p^j,
    out inverts it mod p^2j. out and t have the broadcast shape of a and x;
    out must not be x."""
    np.multiply(a, x, out=t)
    _fmod(t, q, out)
    np.subtract(2, t, out=t)
    np.multiply(x, t, out=out)
    return _fmod(out, q, t)


def _inv_mod_p(p: int) -> np.ndarray:
    """u^-1 mod p at index u (0 at 0), float64: with p = k u + r, u^-1 =
    -k r^-1, and the run of u with p // u = k has every r below it, so
    O(sqrt(p)) runs. Each run is cut into pieces of BRUTE_BLOCK, so that
    no temporary grows with p (the run of k = 1 alone is p/2 long)."""
    inv, u0 = np.zeros(p), 2
    inv[1] = 1
    while u0 < p:
        k = p // u0
        u = np.arange(u0, min(p // k + 1, p, u0 + BRUTE_BLOCK), dtype=np.int64)
        v = inv[p - k * u]
        v *= p - k
        inv[u] = _fmod(v, p, np.empty_like(v))
        u0 = int(u[-1]) + 1
    return inv


def _inv_table(m: PrimePowerModulus) -> np.ndarray:
    """u^-1 mod p^k at index u < p^k (0 at non-units), k = ceil(n/2), float64:
    the inverses mod p, tiled, then ceil(log2 k) Newton steps over the
    p^k <= sqrt(q p) entries."""
    k = (m.n + 1) // 2
    inv = _inv_mod_p(m.p)
    if k == 1:
        return inv
    pk = m.p**k
    a = np.arange(pk, dtype=float)
    inv = np.tile(inv, pk // m.p)
    for _ in range((k - 1).bit_length()):
        inv = _newton_step(a, inv, pk, np.empty(pk), np.empty(pk))
    return inv


def _inv_unit_vec(a: np.ndarray, m: PrimePowerModulus) -> np.ndarray:
    """Inverses mod q, as int64, of the units in the int64 array a: the
    inverse mod p^ceil(n/2) from _inv_table, then one Newton step."""
    table = _inv_table(m)
    x = table[a % len(table)]
    if len(table) < m.q:
        x = _newton_step((a % m.q).astype(float), x, m.q, np.empty_like(x), np.empty_like(x))
    return x.astype(np.int64)


def _root_tables(q: int) -> Tuple[int, np.ndarray, np.ndarray]:
    """(s, hi, lo) with e_q(z) = hi[z >> s] * lo[z & (2^s - 1)] for 0 <= z < q,
    s = ceil(bitlen(q) / 2): about sqrt(q) entries each, one np.exp each."""
    s = (q.bit_length() + 1) // 2
    lo = np.exp(TWO_PI * 1j / q * np.arange(1 << s))
    hi = np.exp(TWO_PI * 1j / q * (np.arange(((q - 1) >> s) + 1) << s))
    return s, hi, lo


def _class_sums(
    f: RationalFunction, alphas: np.ndarray, m: PrimePowerModulus, inv: Optional[np.ndarray] = None
) -> complex:
    """Sum of e_q(f(x)) over the classes x = alpha mod p, x in [1, q], of the
    alphas in an integer array (den(alpha) a unit): termwise, in exact residues.
    inv is _inv_table(m), when the caller has built it already.

    Residues are integers held in float64. A product of two residues plus
    a residue is at most q^2 + q, where _fmod reduces exactly while
    q (q + 2) < 2^51. The inverse of den(x) is read from a table mod p^k,
    k = ceil(n/2), at den(x) mod p^k, then lifted by one Newton step to
    p^2k >= q. den(x) mod p^k depends only on x mod p^k, which runs through
    p^(k-1) values along a class, so the table is read once per class and
    the result broadcast. The table is built once per call, unless the sum
    needs fewer than p^k / 64 of those reads: one pow call costs about as
    much as 60 table entries at p = 10^7. e_q(z) is the product of two
    entries of the root tables. The grid of x = alpha + p j is walked in
    blocks of about BRUTE_BLOCK terms, several short classes or part of a
    long one, through buffers allocated once per call; each block sums
    pairwise, as np.sum does."""
    p, q = m.p, m.q
    pk = p ** ((m.n + 1) // 2)
    L, P = q // p, pk // p  # terms per class; period of x mod p^k along a class
    if inv is None and 64 * len(alphas) * P >= pk:
        inv = _inv_table(m)
    s, hi, lo = _root_tables(q)
    cols = min(L, BRUTE_BLOCK // P * P)  # a multiple of P
    rows = max(1, BRUTE_BLOCK // L)
    x, d, y, t = (np.empty(rows * cols) for _ in range(4))
    e, e_lo = np.empty(rows * cols, dtype=complex), np.empty(rows * cols, dtype=complex)
    pj = p * np.arange(cols, dtype=float)
    total = 0j
    for i in range(0, len(alphas), rows):
        a = alphas[i : i + rows, None].astype(float)
        r = len(a)
        d0 = _horner(f.den, a + pj[:P], pk, np.empty((r, P)), np.empty((r, P)))
        if inv is None:
            y0 = np.array([pow(int(v), -1, pk) for v in d0.flat], dtype=float)
        else:
            y0 = inv[d0.astype(np.intp)]
        y0 = y0.reshape(r, 1, P)
        for c0 in range(0, L, cols):
            size = r * min(cols, L - c0)
            xb, db, yb, tb = (b[:size].reshape(r, -1, P) for b in (x, d, y, t))
            np.add(a[:, :, None] + p * c0, pj[: size // r].reshape(1, -1, P), out=xb)
            if pk < q:
                _newton_step(_horner(f.den, xb, q, db, tb), y0, q, yb, tb)
            else:
                yb = y0
            _horner(f.num, xb, q, db, tb)
            db *= yb
            z = _fmod(db, q, tb).reshape(-1).astype(np.int64)
            np.take(hi, z >> s, out=e[:size], mode="clip")
            np.take(lo, z & (len(lo) - 1), out=e_lo[:size], mode="clip")
            e[:size] *= e_lo[:size]
            total += complex(e[:size].sum())
    return total


def _one_of_each_pair(alphas: np.ndarray, inv: np.ndarray, p: int) -> np.ndarray:
    """The alpha of alphas with alpha < -alpha^-1 mod p, packed in place into
    a prefix of alphas, in order; inv[alpha] is an inverse of alpha mod a
    power of p. Exactly one class of each pair {alpha, -alpha^-1} of units
    with alpha^2 != -1 passes. The pass goes BRUTE_BLOCK classes at a time,
    so that no temporary grows with p."""
    kept = 0
    for i in range(0, len(alphas), BRUTE_BLOCK):
        a = alphas[i : i + BRUTE_BLOCK]
        v = inv.take(a)
        if len(inv) > p:  # a table mod p^k, k >= 2, so p < 216
            v %= p
        a = np.compress(v < p - a, a)  # a copy: the write below may overlap a
        alphas[kept : kept + len(a)] = a
        kept += len(a)
    return alphas[:kept]


def residue_class_sum(f: RationalFunction, alpha: int, m: PrimePowerModulus) -> complex:
    """Brute force: sum of e_q(f(x)) over x = alpha mod p, x in [1, q]."""
    if m.q > BRUTE_MAX_Q:
        raise TooLarge(f"q = {m.q} above the brute-force bound {BRUTE_MAX_Q}")
    if f.den.eval_mod(alpha, m.p) == 0:
        raise DenominatorNotUnit(f"denominator vanishes mod {m.p} at {alpha}")
    return _class_sums(f, np.array([alpha % m.p]), m)


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
    if levels < 1:
        raise ValueError(f"levels = {levels} must be positive")
    if (x3 * D) % p == 0:
        raise UnitRequired(f"x3*D = {x3 * D} not a unit mod {p}")
    if levels % 2 == 0:
        return 1.0 + 0j
    rho = _level_root(D, p, levels)[1]
    return jacobi_symbol(2 * x3 * rho, p) * _prime_gauss_unit(p)


def gauss_factor_unified(levels: int, x3: int, D: int, p: int) -> complex:
    """Same factor as G_{p^levels}/p^(levels/2) * (2*x3*sqrt(D) / p^levels)."""
    if levels < 1:
        raise ValueError(f"levels = {levels} must be positive")
    if (x3 * D) % p == 0:
        raise UnitRequired(f"x3*D = {x3 * D} not a unit mod {p}")
    q, rho = _level_root(D, p, levels)
    scale = gauss_sum_closed(q) / p ** (levels / 2.0)
    return scale * jacobi_symbol(2 * x3 * rho, q)


def circle_exponential_sum(spec: ExpSumSpec, mode: str = "bruteforce") -> complex:
    """E(k1, k2, x3; p^n): sum of e_q(f(t)) over admissible parameters t.

    bruteforce sums termwise over the admissible t mod q (q <= 1e7), class
    by class mod p, over one class alpha of each pair {alpha, -alpha^-1},
    and returns twice the real part. This is exact: t -> -1/t maps the
    class alpha one-to-one onto the class -alpha^-1, with f(-1/t) = -f(t)
    mod q, so the partner's sum is the conjugate; and alpha = -alpha^-1
    would need alpha^2 = -1, which is not admissible.
    closed assembles the stationary-phase class sums over the roots of
    the stationary congruence; it is exactly 0 when no admissible root
    exists, and needs r <= n - 2.
    """
    m = spec.modulus
    f = spec.phase()
    if mode == "bruteforce":
        if m.q > BRUTE_MAX_Q:
            raise TooLarge(f"q = {m.q} above the brute-force bound {BRUTE_MAX_Q}")
        alphas = admissible_classes(m.p)  # first: its p squares are freed before the table
        inv = _inv_table(m)
        half = _class_sums(f, _one_of_each_pair(alphas, inv, m.p), m, inv)
        return complex(2.0 * half.real)
    if mode == "closed":
        if spec.r > m.n - 2:
            raise HypothesisViolated(f"r = {spec.r} > n - 2 = {m.n - 2}: closed form unavailable")
        if (spec.l1 * spec.l2) % m.p == 0:
            return 0j  # the stationary congruence forces t = 0 or +-1 mod p
        pts = stationary_points(spec.l1, spec.l2, m.p)
        total = 0j
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
    if levels < 1:
        raise ValueError(f"levels = {levels} must be positive")
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
