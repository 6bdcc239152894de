import math
import random
from fractions import Fraction

import numpy as np
import pytest

from pythmod.errors import DenominatorNotUnit, NotInvertible, UnitRequired
from pythmod.expsums import phase_function
from pythmod.padic import (
    Poly,
    PrimePowerModulus,
    RationalFunction,
    eval_rational_mod,
    inv_mod,
    is_prime,
    jacobi_symbol,
    sqrt_mod,
)

M7 = PrimePowerModulus(7, 1)
M49 = PrimePowerModulus(7, 2)
M343 = PrimePowerModulus(7, 3)


def test_modulus_validation():
    assert M49.q == 49
    with pytest.raises(ValueError):
        PrimePowerModulus(2, 3)
    with pytest.raises(ValueError):
        PrimePowerModulus(9, 2)
    with pytest.raises(ValueError):
        PrimePowerModulus(7, 0)
    with pytest.raises(ValueError):
        PrimePowerModulus(3, 21)  # 3^21 > 2^31


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
    for n in range(42):
        assert is_prime(n) == (n in primes)


def test_is_prime_matches_sieve():
    limit = 10**5
    sieve = np.ones(limit, dtype=bool)
    sieve[:2] = False
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = False
    assert [n for n in range(limit) if is_prime(n)] == np.flatnonzero(sieve).tolist()
    # the least strong pseudoprimes to the first 1, 2, 3, 4, 5, 6, 7, 9 and
    # 12 prime bases (2047 = 23 * 89 is caught by trial division; the others
    # have no factor <= 41): a later base must reach the composite exit, and
    # the last passes every base up to 37
    assert 3215031751 == 151 * 751 * 28351
    assert 318665857834031151167461 == 399165290221 * 798330580441
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n), n
    for n in (2**31 - 1, 9999991, 65539):
        assert is_prime(n), n


def test_inv_mod_examples():
    assert inv_mod(1, M49) == 1
    assert inv_mod(2, M7) == 4
    assert inv_mod(3, M49) == 33


def test_inv_mod_not_invertible():
    with pytest.raises(NotInvertible):
        inv_mod(14, M49)


@pytest.mark.parametrize("m", [M7, M49, M343])
def test_inv_mod_exhaustive(m):
    for a in range(1, m.q):
        if a % m.p == 0:
            continue
        assert a * inv_mod(a, m) % m.q == 1


def test_inv_mod_randomized_larger():
    rng = random.Random(2024)
    for p, n in [(11, 3), (13, 3), (101, 2), (46337, 1)]:
        m = PrimePowerModulus(p, n)
        for _ in range(50):
            a = rng.randrange(1, m.q)
            if a % p == 0:
                continue
            assert a * inv_mod(a, m) % m.q == 1


def test_jacobi_examples():
    assert jacobi_symbol(1, 45) == 1
    assert jacobi_symbol(2, 7) == 1  # 3^2 = 2 mod 7
    assert jacobi_symbol(3, 7) == -1  # squares mod 7 are {1, 2, 4}
    assert jacobi_symbol(0, 7) == 0
    assert jacobi_symbol(21, 49) == 0
    assert jacobi_symbol(5, 1) == 1


@pytest.mark.parametrize("p", [7, 11, 13, 17, 19])
def test_jacobi_euler_criterion(p):
    for a in range(p):
        euler = pow(a, (p - 1) // 2, p)
        expected = -1 if euler == p - 1 else euler
        assert jacobi_symbol(a, p) == expected


def test_jacobi_multiplicative():
    rng = random.Random(7)
    for _ in range(100):
        a, b = rng.randrange(200), rng.randrange(200)
        m = rng.choice([7, 9, 15, 21, 343, 1001])
        assert jacobi_symbol(a * b, m) == jacobi_symbol(a, m) * jacobi_symbol(b, m)


def test_jacobi_rejects_even_modulus():
    with pytest.raises(ValueError):
        jacobi_symbol(3, 8)


def test_sqrt_mod_examples():
    assert tuple(r.value for r in sqrt_mod(2, M7)) == (3, 4)
    assert tuple(r.value for r in sqrt_mod(2, M49)) == (10, 39)
    assert sqrt_mod(3, M7) is None
    with pytest.raises(UnitRequired):
        sqrt_mod(7, M49)


def test_sqrt_mod_exhaustive_oracle():
    # exhaustive search oracle: collect actual roots by squaring everything
    for m in [M7, M49, PrimePowerModulus(13, 2), PrimePowerModulus(5, 3)]:
        squares = {}
        for x in range(m.q):
            if x % m.p:
                squares.setdefault(x * x % m.q, set()).add(x)
        for a in range(1, m.q):
            if a % m.p == 0:
                continue
            got = sqrt_mod(a, m)
            if got is None:
                assert a not in squares
            else:
                assert {r.value for r in got} == squares[a]


@pytest.mark.parametrize("p,n", [(7, 1), (7, 2), (7, 3), (11, 2), (13, 2)])
def test_sqrt_mod_residue_count(p, n):
    m = PrimePowerModulus(p, n)
    count = sum(
        1 for a in range(1, m.q) if a % p and sqrt_mod(a, m) is not None
    )
    assert count == m.q // p * (p - 1) // 2


def test_poly_basics():
    f = Poly([1, 2, 3])
    g = Poly([0, 1])
    assert (f + g).coeffs == (1, 3, 3)
    assert (f - f).is_zero()
    assert (f * g).coeffs == (0, 1, 2, 3)
    assert f.derivative().coeffs == (2, 6)
    assert f.eval_mod(2, 7) == 3
    assert Poly([4, 0, 0]).coeffs == (4,)
    assert (g + f).coeffs == (f + g).coeffs  # the shorter operand on the left


def test_rational_function_refuses_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator"):
        RationalFunction(Poly([1]), Poly([0, 0]))


def test_ord_p_rational_examples():
    assert Poly([49, 0, 7]).ord_p(7) == 1  # 7x^2 + 49
    assert Poly([1, 1]).ord_p(7) == 0
    assert Poly([0, 7]).ord_p(7) - Poly([49]).ord_p(7) == -1  # 7x / 49
    assert Poly([]).ord_p(7) == math.inf


def test_ord_p_additive_under_multiplication():
    rng = random.Random(11)
    for _ in range(50):
        p = rng.choice([3, 7, 13])

        def rand_poly():
            return Poly([rng.randrange(-40, 41) * p ** rng.randrange(3) for _ in range(4)])

        f1, f2 = rand_poly(), rand_poly()
        g1, g2 = rand_poly(), rand_poly()
        if f1.is_zero() or g1.is_zero() or f2.is_zero() or g2.is_zero():
            continue
        # Gauss's lemma: the p-adic content is additive under products
        assert (f1 * g1).ord_p(p) == f1.ord_p(p) + g1.ord_p(p)
        assert (f2 * g2).ord_p(p) == f2.ord_p(p) + g2.ord_p(p)


def test_eval_rational_mod_examples():
    f = RationalFunction(Poly([1, 0, -1]), Poly([1, 0, 1]))  # (1-t^2)/(1+t^2)
    assert eval_rational_mod(f, 2, M7) == 5
    ident = RationalFunction(Poly([0, 1]))
    assert eval_rational_mod(ident, 3, M49) == 3
    recip = RationalFunction(Poly([1]), Poly([1, 0, 1]))  # 1/(1+t^2)
    with pytest.raises(DenominatorNotUnit):
        eval_rational_mod(recip, 5, PrimePowerModulus(13, 1))  # 1+25 = 0 mod 13


def test_derivative_power_rule():
    f = RationalFunction(Poly([0, 0, 1]))  # t^2
    assert f.derivative().num == Poly([0, 2])
    assert f.derivative().den == Poly([1])


def test_derivative_quotient_rule_symbolic():
    f = RationalFunction(Poly([1, 0, -1]), Poly([1, 0, 1]))
    fp = f.derivative()
    # (-2t)(1+t^2) - (1-t^2)(2t) = -4t over (1+t^2)^2, no cancellation
    assert fp.num == Poly([0, -4])
    assert fp.den == Poly([1, 0, 2, 0, 1])


def test_derivative_phase_function_formula():
    # d/dt of x3*(k1*(1-t^2)+2*k2*t)/(1+t^2) = 2*x3*(k2*(1-t^2)-2*k1*t)/(1+t^2)^2
    for k1, k2, x3 in [(1, 1, 1), (3, 4, 1), (2, 5, 3)]:
        fp = phase_function(k1, k2, x3).derivative()
        assert fp.num == Poly([2 * x3 * k2, -4 * x3 * k1, -2 * x3 * k2])
        assert fp.den == Poly([1, 0, 2, 0, 1])


def _at(poly, x):
    return sum(c * x**i for i, c in enumerate(poly.coeffs))


def _exact(f, x):
    return Fraction(_at(f.num, x), _at(f.den, x))


def test_derivative_matches_finite_differences():
    rng = random.Random(5)
    h = Fraction(1, 10**7)
    for _ in range(25):
        num = Poly([rng.randrange(-9, 10) for _ in range(4)])
        den = Poly([rng.randrange(-9, 10) for _ in range(3)] + [1])
        f = RationalFunction(num, den)
        fp = f.derivative()
        x = rng.randrange(2, 30)
        if _at(den, x) == 0 or _at(den, x + h) == 0 or _at(den, x - h) == 0:
            continue
        symmetric = (_exact(f, x + h) - _exact(f, x - h)) / (2 * h)
        exact = _exact(fp, x)
        assert abs(float(symmetric - exact)) < 1e-6 * (1 + abs(float(exact)))
