"""Exact arithmetic modulo odd prime powers q = p^n.

Inverses, Jacobi/Legendre symbols, square roots mod p^n (Tonelli-Shanks at
the prime level followed by Hensel lifting), dense integer polynomials
with their p-adic content, and rational functions F1/F2.

All values are exact Python integers; q is capped at 2^31 so that q^2
products stay inside int64 for the vectorized kernels elsewhere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

from .errors import DenominatorNotUnit, NotInvertible, UnitRequired

MAX_Q = 2**31

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3317044064679887385961981."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, by trial division."""
    primes, f = [], 2
    while f * f <= n:
        if n % f == 0:
            primes.append(f)
            while n % f == 0:
                n //= f
        f += 1
    return primes + [n] if n > 1 else primes


@dataclass(frozen=True)
class PrimePowerModulus:
    """The ambient modulus q = p^n for an odd prime p."""

    p: int
    n: int
    q: int = field(init=False)

    def __post_init__(self):
        if self.p < 3 or self.p % 2 == 0 or not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not an odd prime")
        if self.n < 1:
            raise ValueError(f"exponent n = {self.n} must be positive")
        q = self.p**self.n
        if q > MAX_Q:
            raise ValueError(f"q = p^n = {q} exceeds the supported bound 2^31")
        object.__setattr__(self, "q", q)

    def is_unit(self, a: int) -> bool:
        return a % self.p != 0


@dataclass(frozen=True)
class Residue:
    """A root in [0, q) tied to its modulus, as sqrt_mod returns it."""

    value: int
    modulus: PrimePowerModulus


def inv_mod(a: int, m: PrimePowerModulus) -> int:
    """Multiplicative inverse mod q = p^n, in [0, q)."""
    if a % m.p == 0:
        raise NotInvertible(f"{a} is divisible by p = {m.p}")
    return pow(a, -1, m.q)


def jacobi_symbol(a: int, m: int) -> int:
    """Jacobi symbol (a/m) for odd m >= 1; 0 when gcd(a, m) > 1."""
    if m <= 0 or m % 2 == 0:
        raise ValueError(f"modulus {m} must be odd and positive")
    a %= m
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                result = -result
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            result = -result
        a %= m
    return result if m == 1 else 0


def _sqrt_mod_prime(a: int, p: int) -> Optional[int]:
    """Tonelli-Shanks: one root of x^2 = a mod p for unit a, else None."""
    a %= p
    if jacobi_symbol(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    z = 2
    while jacobi_symbol(z, p) != -1:
        z += 1
    c = pow(z, d, p)
    x = pow(a, (d + 1) // 2, p)
    t = pow(a, d, p)
    m = s
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return x


def sqrt_mod(a: int, m: PrimePowerModulus) -> Optional[Tuple[Residue, Residue]]:
    """Both roots of x^2 = a mod p^n for unit a, or None for a non-residue.

    Solves at the prime level and Hensel-lifts with quadratically growing
    precision; the two roots are returned as (smaller, larger).
    """
    if a % m.p == 0:
        raise UnitRequired(f"{a} is divisible by p = {m.p}")
    root = _sqrt_mod_prime(a, m.p)
    if root is None:
        return None
    pk = m.p
    while pk < m.q:
        pk = min(pk * pk, m.q)
        root = (root - (root * root - a) * pow(2 * root, -1, pk)) % pk
    root %= m.q
    pair = sorted((root, m.q - root))
    return Residue(pair[0], m), Residue(pair[1], m)


class Poly:
    """Dense integer-coefficient polynomial, immutable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Poly([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)])

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return Poly([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def eval_mod(self, x: int, q: int) -> int:
        acc = 0
        x %= q
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % q
        return acc

    def ord_p(self, p: int):
        """Largest e with p^e dividing every coefficient; +inf if zero."""
        if self.is_zero():
            return math.inf
        best = None
        for c in self.coeffs:
            if c == 0:
                continue
            e = 0
            while c % p == 0:
                c //= p
                e += 1
            best = e if best is None else min(best, e)
            if best == 0:
                return 0
        return best

    def strip_p(self, e: int, p: int) -> "Poly":
        """Exact division of every coefficient by p^e."""
        scale = p**e
        return Poly([c // scale for c in self.coeffs])

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"


class RationalFunction:
    """f = F1/F2 with integer polynomials, kept uncancelled: no gcd
    cancellation is ever performed, so the p-adic content of F1 and F2 is
    that of the given numerator and denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = Poly([1])):
        if den.is_zero():
            raise ValueError("zero denominator")
        self.num = num
        self.den = den

    def derivative(self) -> "RationalFunction":
        """Quotient rule (F1'F2 - F1F2')/F2^2, no cancellation."""
        num = self.num.derivative() * self.den - self.num * self.den.derivative()
        return RationalFunction(num, self.den * self.den)

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"


def eval_rational_mod(f: RationalFunction, x: int, m: PrimePowerModulus) -> int:
    """F1(x) * F2(x)^-1 mod q, in [0, q); requires F2(x) to be a unit."""
    den = f.den.eval_mod(x, m.q)
    if den % m.p == 0:
        raise DenominatorNotUnit(f"F2({x}) = 0 mod {m.p}")
    return f.num.eval_mod(x, m.q) * inv_mod(den, m) % m.q
