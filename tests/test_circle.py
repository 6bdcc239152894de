import random
import tracemalloc

import pytest

from pythmod.circle import (
    CircleParamPoint,
    SolutionTriple,
    enumerate_admissible_t,
    enumerate_circle_solutions,
    excluded_param_count,
    hensel_lift_solution,
    inverse_param,
    is_admissible_param,
    param_point,
)
from pythmod.errors import (
    InadmissibleParameter,
    InvalidPoint,
    InvalidSolution,
    TooLarge,
)
from pythmod.padic import PrimePowerModulus

M7 = PrimePowerModulus(7, 1)
M13 = PrimePowerModulus(13, 1)
M49 = PrimePowerModulus(7, 2)


def test_excluded_param_count():
    assert excluded_param_count(7) == 3
    assert excluded_param_count(13) == 5
    assert excluded_param_count(11) == 3
    with pytest.raises(ValueError):
        excluded_param_count(2)


def test_param_point_examples():
    pt = param_point(2, M7)
    assert (pt.y1, pt.y2) == (5, 5)
    assert (25 + 25 - 1) % 7 == 0
    pt = param_point(2, M49)
    assert (pt.y1, pt.y2) == (19, 40)
    assert (19**2 + 40**2 - 1) % 49 == 0
    with pytest.raises(InadmissibleParameter):
        param_point(1, M7)
    with pytest.raises(InadmissibleParameter):
        param_point(5, M13)  # 1 + 25 = 0 mod 13


def test_circle_param_point_refuses_bad_points():
    with pytest.raises(InvalidPoint, match="not on the circle"):
        CircleParamPoint(2, 2, 3, M7)  # 4 + 9 - 1 = 12 mod 7
    with pytest.raises(InvalidPoint, match="non-unit"):
        CircleParamPoint(0, 0, 1, M7)  # on the circle, but y1 = 0


def test_inverse_param_examples():
    assert inverse_param(5, 5, M7) == 2
    assert inverse_param(19, 40, M49) == 2
    with pytest.raises(InvalidPoint):
        inverse_param(1, 0, M7)
    with pytest.raises(InvalidPoint):
        inverse_param(3, 3, M7)  # 9 + 9 - 1 != 0 mod 7


@pytest.mark.parametrize(
    "m",
    [M7, M13, M49, PrimePowerModulus(7, 3), PrimePowerModulus(13, 2)],
)
def test_round_trip_and_injectivity(m):
    seen = {}
    for t in enumerate_admissible_t(m):
        pt = param_point(t, m)
        pair = (pt.y1, pt.y2)
        assert pair not in seen, f"t = {t} and t = {seen[pair]} collide"
        seen[pair] = t
        assert inverse_param(pt.y1, pt.y2, m) == t


def test_enumerate_admissible_examples():
    assert enumerate_admissible_t(M7) == [2, 3, 4, 5]
    t13 = enumerate_admissible_t(M13)
    assert len(t13) == 8
    assert set(range(13)) - set(t13) == {0, 1, 12, 5, 8}  # 5, 8 solve t^2 = -1
    assert len(enumerate_admissible_t(M49)) == 28


@pytest.mark.parametrize("p", [7, 11, 13, 17])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_admissible_count_formula(p, n):
    m = PrimePowerModulus(p, n)
    expected = p ** (n - 1) * (p - excluded_param_count(p))
    assert len(enumerate_admissible_t(m)) == expected


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 9973])
def test_admissible_classes_match_scalar_rule(p):
    # the admissible classes mod p are enumerate_admissible_t at n = 1: its
    # vector rule t^2 not in {0, +-1} mod p against t(1-t^2)(1+t^2) a unit
    m = PrimePowerModulus(p, 1)
    classes = enumerate_admissible_t(m)
    assert classes == [t for t in range(p) if is_admissible_param(t, m)]
    if p <= 5:
        assert len(classes) == 0
    else:
        assert len(classes) == p - excluded_param_count(p)


@pytest.mark.parametrize("p,n", [(7, 3), (13, 2)])
def test_enumerate_admissible_matches_scalar_rule(p, n):
    m = PrimePowerModulus(p, n)
    assert enumerate_admissible_t(m) == [t for t in range(m.q) if is_admissible_param(t, m)]


def test_circle_solutions_examples():
    assert set(enumerate_circle_solutions(M7)) == {(5, 5), (5, 2), (2, 5), (2, 2)}
    assert len(enumerate_circle_solutions(M13)) == 13 - 5
    assert len(enumerate_circle_solutions(M49)) == 28


@pytest.mark.parametrize("m", [M7, M13, M49])
def test_circle_solutions_against_double_loop(m):
    brute = {
        (y1, y2)
        for y1 in range(m.q)
        for y2 in range(m.q)
        if y1 % m.p and y2 % m.p and (y1 * y1 + y2 * y2 - 1) % m.q == 0
    }
    assert set(enumerate_circle_solutions(m)) == brute


@pytest.mark.parametrize("m", [M7, M49, PrimePowerModulus(7, 3), M13])
def test_circle_solutions_equal_param_image(m):
    image = set()
    for t in enumerate_admissible_t(m):
        pt = param_point(t, m)
        image.add((pt.y1, pt.y2))
    assert image == set(enumerate_circle_solutions(m))
    assert len(image) == len(enumerate_admissible_t(m))


def test_circle_solutions_too_large():
    with pytest.raises(TooLarge):
        enumerate_circle_solutions(PrimePowerModulus(7, 8))  # q = 5764801


def test_hensel_examples():
    lifts = hensel_lift_solution(SolutionTriple(5, 5, 1, M7))
    assert len(lifts) == 49
    assert len(set((s.x1, s.x2, s.x3) for s in lifts)) == 49
    m11 = PrimePowerModulus(11, 1)
    lifts = hensel_lift_solution(SolutionTriple(3, 4, 5, m11))
    assert len(lifts) == 121
    assert any((s.x1, s.x2, s.x3) == (3, 4, 5) for s in lifts)
    with pytest.raises(InvalidSolution):
        SolutionTriple(1, 1, 1, M7)
    with pytest.raises(InvalidSolution):
        SolutionTriple(7, 5, 5, M49)  # non-unit coordinate


def test_hensel_refuses_large_p():
    # p^2 = 1018081 lifts, above ENUM_MAX_Q; p = 46337 would be about 2.1e9
    base = SolutionTriple(3, 4, 5, PrimePowerModulus(1009, 1))
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="1018081"):
            hensel_lift_solution(base)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _all_solutions(m):
    """Every unit triple mod q, built from x3 times a circle point."""
    sols = set()
    pairs = enumerate_circle_solutions(m)
    for x3 in range(1, m.q):
        if x3 % m.p == 0:
            continue
        for y1, y2 in pairs:
            sols.add((x3 * y1 % m.q, x3 * y2 % m.q, x3))
    return sols


def test_hensel_lifts_are_exactly_the_fiber():
    base = SolutionTriple(5, 5, 1, M7)
    lifted = {(s.x1, s.x2, s.x3) for s in hensel_lift_solution(base)}
    fiber = {
        s
        for s in _all_solutions(M49)
        if (s[0] % 7, s[1] % 7, s[2] % 7) == (5, 5, 1)
    }
    assert lifted == fiber


def test_every_solution_reduces_and_fibers_have_size_p_squared():
    m_hi = PrimePowerModulus(7, 3)
    lo_solutions = _all_solutions(M49)
    fibers = {}
    for s in _all_solutions(m_hi):
        red = (s[0] % 49, s[1] % 49, s[2] % 49)
        assert red in lo_solutions
        fibers[red] = fibers.get(red, 0) + 1
    assert set(fibers) == lo_solutions
    assert all(v == 49 for v in fibers.values())


def test_hensel_random_solutions_lift_validly():
    rng = random.Random(99)
    for p in (7, 11):
        for n in (1, 2):
            m = PrimePowerModulus(p, n)
            ts = enumerate_admissible_t(m)
            for _ in range(10):
                t = rng.choice(ts)
                u = rng.choice([x for x in range(1, m.q) if x % p])
                pt = param_point(t, m)
                s = SolutionTriple(
                    pt.y1 * u % m.q, pt.y2 * u % m.q, u, m
                )
                lifts = hensel_lift_solution(s)
                assert len(lifts) == p * p
                assert len({(x.x1, x.x2, x.x3) for x in lifts}) == p * p
                for lift in lifts:
                    assert lift.modulus.n == n + 1
                    assert (lift.x1 % m.q, lift.x2 % m.q, lift.x3 % m.q) == (
                        s.x1, s.x2, s.x3,
                    )
