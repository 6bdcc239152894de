"""The unit circle mod p^n: rational parametrization and Hensel lifting.

Unit points (y1, y2) with y1^2 + y2^2 = 1 mod p^n are parametrized by
t -> ((1-t^2)/(1+t^2), 2t/(1+t^2)) over parameters t with
t(1-t^2)(1+t^2) a unit, and solution triples of x1^2 + x2^2 = x3^2
mod p^n lift level by level through a linear congruence.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import InadmissibleParameter, InvalidPoint, InvalidSolution, TooLarge
from .padic import PrimePowerModulus, inv_mod

ENUM_MAX_Q = 10**6


def excluded_param_count(p: int) -> int:
    """Number of parameter classes mod p excluded from the circle map.

    Excluded are t = 0, t = +-1 and the roots of t^2 = -1, so the count
    is 3 when p = 3 mod 4 and 5 when p = 1 mod 4.
    """
    PrimePowerModulus(p, 1)  # refuses p that is not an odd prime
    return 3 if p % 4 == 3 else 5


@dataclass(frozen=True)
class CircleParamPoint:
    """A parameter t with its image (y1, y2) on the unit circle mod p^n."""

    t: int
    y1: int
    y2: int
    modulus: PrimePowerModulus

    def __post_init__(self):
        m = self.modulus
        if (self.y1**2 + self.y2**2 - 1) % m.q != 0:
            raise InvalidPoint(f"({self.y1}, {self.y2}) not on the circle mod {m.q}")
        if not (m.is_unit(self.y1) and m.is_unit(self.y2)):
            raise InvalidPoint(f"({self.y1}, {self.y2}) has a non-unit coordinate")


@dataclass(frozen=True)
class SolutionTriple:
    """(x1, x2, x3) with x1^2 + x2^2 = x3^2 mod p^n and unit coordinates."""

    x1: int
    x2: int
    x3: int
    modulus: PrimePowerModulus

    def __post_init__(self):
        m = self.modulus
        if (self.x1**2 + self.x2**2 - self.x3**2) % m.q != 0:
            raise InvalidSolution(
                f"({self.x1}, {self.x2}, {self.x3}) fails the congruence mod {m.q}"
            )
        if not all(m.is_unit(x) for x in (self.x1, self.x2, self.x3)):
            raise InvalidSolution(
                f"({self.x1}, {self.x2}, {self.x3}) has a non-unit coordinate"
            )


def is_admissible_param(t: int, m: PrimePowerModulus) -> bool:
    return (t * (1 - t * t) * (1 + t * t)) % m.p != 0


def param_point(t: int, m: PrimePowerModulus) -> CircleParamPoint:
    """Map an admissible parameter to its circle point mod p^n."""
    tv = t % m.q
    if not is_admissible_param(tv, m):
        raise InadmissibleParameter(f"t = {tv}: t(1-t^2)(1+t^2) is not a unit mod {m.p}")
    inv = inv_mod(1 + tv * tv, m)
    y1 = (1 - tv * tv) * inv % m.q
    y2 = 2 * tv * inv % m.q
    return CircleParamPoint(tv, y1, y2, m)


def inverse_param(y1: int, y2: int, m: PrimePowerModulus) -> int:
    """The unique parameter t in [0, q) with param_point(t) = (y1, y2).

    Uses t = y2 * (1 + y1)^-1; 1 + y1 is a unit because y1 = -1 would
    force y2^2 = 0 against the unit condition.
    """
    if (y1 * y1 + y2 * y2 - 1) % m.q != 0 or not (m.is_unit(y1) and m.is_unit(y2)):
        raise InvalidPoint(f"({y1}, {y2}) is not a unit circle point mod {m.q}")
    return y2 * inv_mod(1 + y1, m) % m.q


def enumerate_admissible_t(m: PrimePowerModulus) -> List[int]:
    """All admissible parameters in [0, q), ascending; TooLarge above ENUM_MAX_Q.

    t(1-t^2)(1+t^2) is a unit exactly when t^2 is not 0 or +-1 mod p, that
    is when 1 + t^2 mod p is not 1, 2 or 0.  The count is
    p^(n-1) * (p - excluded_param_count(p)).
    """
    if m.q > ENUM_MAX_Q:
        raise TooLarge(f"q = {m.q} above the exhaustive bound {ENUM_MAX_Q}")
    t = np.arange(m.q)
    return t[(t * t + 1) % m.p > 2].tolist()


def enumerate_circle_solutions(m: PrimePowerModulus) -> List[Tuple[int, int]]:
    """All unit pairs (y1, y2) with y1^2 + y2^2 = 1 mod p^n.

    Scans y1 and reads y2 off a precomputed table of square roots mod q,
    so the cost is O(q) time and memory.
    """
    if m.q > ENUM_MAX_Q:
        raise TooLarge(f"q = {m.q} above the exhaustive bound {ENUM_MAX_Q}")
    roots_of = [[] for _ in range(m.q)]
    for y in range(m.q):
        if y % m.p != 0:
            roots_of[y * y % m.q].append(y)
    out = []
    for y1 in range(m.q):
        if y1 % m.p == 0:
            continue
        for y2 in roots_of[(1 - y1 * y1) % m.q]:
            out.append((y1, y2))
    return out


def hensel_lift_solution(s: SolutionTriple) -> List[SolutionTriple]:
    """All p^2 lifts of a solution mod p^n to p^(n+1); TooLarge when p^2 > ENUM_MAX_Q.

    Writing x~ = x + k*p^n, the congruence at level n+1 reduces to the
    linear condition c + 2*x1*k1 + 2*x2*k2 - 2*x3*k3 = 0 mod p with
    c = (x1^2 + x2^2 - x3^2)/p^n, which fixes k3 for every (k1, k2).
    """
    m = s.modulus
    p, q = m.p, m.q
    if p * p > ENUM_MAX_Q:
        raise TooLarge(f"p^2 = {p * p} lifts above the exhaustive bound {ENUM_MAX_Q}")
    lifted = PrimePowerModulus(p, m.n + 1)
    c = (s.x1**2 + s.x2**2 - s.x3**2) // q % p
    inv_2x3 = pow(2 * s.x3 % p, -1, p)
    out = []
    for k1 in range(p):
        for k2 in range(p):
            k3 = (c + 2 * s.x1 * k1 + 2 * s.x2 * k2) * inv_2x3 % p
            out.append(
                SolutionTriple(
                    (s.x1 + k1 * q) % lifted.q,
                    (s.x2 + k2 * q) % lifted.q,
                    (s.x3 + k3 * q) % lifted.q,
                    lifted,
                )
            )
    return out
