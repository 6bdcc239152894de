import cmath
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pythmod.circle import (
    enumerate_admissible_t,
    excluded_param_count,
    inverse_param,
)
from pythmod.errors import (
    DenominatorNotUnit,
    HypothesisViolated,
    NotResidue,
    TooLarge,
    UnitRequired,
)
from pythmod.expsums import (
    BRUTE_BLOCK,
    BRUTE_MAX_Q,
    ExpSumSpec,
    _fmod,
    _root_tables,
    additive_character,
    canonical_sqrt,
    circle_exponential_sum,
    curvature_symbol,
    curvature_symbol_sqrt_form,
    gauss_factor,
    gauss_factor_unified,
    gauss_sum_bruteforce,
    gauss_sum_closed,
    lattice_circle_weight,
    lift_stationary_point,
    phase_function,
    residue_class_sum,
    residue_class_sum_closed,
    stationary_phase_identity,
    stationary_points,
)
import pythmod.expsums as expsums
from pythmod.padic import (
    Poly,
    PrimePowerModulus,
    RationalFunction,
    eval_rational_mod,
    inv_mod,
    is_prime,
    jacobi_symbol,
)
from pythmod.weights import gaussian

M7_2 = PrimePowerModulus(7, 2)
M7_3 = PrimePowerModulus(7, 3)
M7_4 = PrimePowerModulus(7, 4)


def prime_gauss_unit(p):
    return 1 if p % 4 == 1 else 1j


def test_additive_character():
    assert additive_character(0, 49) == 1
    z = additive_character(1, 7)
    assert z == pytest.approx(0.6234898 + 0.7818315j, abs=1e-6)
    for zv, q in [(3, 49), (11, 343)]:
        assert additive_character(zv, q) * additive_character(q - zv, q) == pytest.approx(1)


def test_gauss_sum_examples():
    assert gauss_sum_bruteforce(1) == pytest.approx(1)
    assert gauss_sum_bruteforce(7) == pytest.approx(1j * math.sqrt(7), abs=1e-9)
    assert gauss_sum_bruteforce(9) == pytest.approx(3, abs=1e-9)
    assert gauss_sum_closed(13) == pytest.approx(math.sqrt(13))
    assert gauss_sum_closed(7) == pytest.approx(1j * math.sqrt(7))
    assert gauss_sum_closed(1) == 1


def test_gauss_sum_gates():
    with pytest.raises(ValueError):
        gauss_sum_bruteforce(8)
    with pytest.raises(ValueError):
        gauss_sum_closed(4)
    with pytest.raises(TooLarge):
        gauss_sum_bruteforce(10**6 + 1)


def test_gauss_sum_closed_matches_brute_to_343():
    for q in range(1, 344, 2):
        brute = gauss_sum_bruteforce(q)
        assert abs(brute) == pytest.approx(math.sqrt(q), abs=1e-9 * math.sqrt(q))
        assert abs(brute - gauss_sum_closed(q)) <= 1e-9 * math.sqrt(q)


def test_expsum_spec_derived_fields():
    spec = ExpSumSpec(21, 28, 2, M7_3)
    assert (spec.r, spec.l1, spec.l2, spec.D) == (1, 3, 4, 25)
    spec = ExpSumSpec(-7, 14, 1, M7_3)
    assert (spec.r, spec.l1, spec.l2) == (1, -1, 2)
    spec = ExpSumSpec(343, 343, 1, M7_3)  # gcd caps at q = p^3
    assert spec.r == 3
    with pytest.raises(ValueError):
        ExpSumSpec(0, 0, 1, M7_3)
    with pytest.raises(UnitRequired):
        ExpSumSpec(1, 1, 7, M7_3)


def test_residue_class_sum_matches_naive_loop():
    # validates the vectorized kernel against a dumb per-term loop
    rng = random.Random(606)
    for _ in range(20):
        p = rng.choice([7, 11, 13])
        n = rng.choice([2, 3])
        m = PrimePowerModulus(p, n)
        f = phase_function(rng.randrange(1, m.q), rng.randrange(1, m.q), rng.randrange(1, p))
        alpha = rng.randrange(0, p)
        if f.den.eval_mod(alpha, p) == 0:
            continue
        got = residue_class_sum(f, alpha, m)
        assert abs(got - class_sum_by_scalar_loop(f, alpha, m)) <= 1e-10 * math.sqrt(m.q)


def class_sum_by_scalar_loop(f, alpha, m):
    naive = 0j
    for x in range(alpha % m.p, m.q, m.p):
        num = f.num.eval_mod(x, m.q)
        den = f.den.eval_mod(x, m.q)
        z = num * pow(den, -1, m.q) % m.q
        naive += cmath.exp(2j * math.pi * z / m.q)
    return naive


def test_residue_class_sum_split_into_blocks_matches_scalar_loop():
    # one class at 7^7 has 7^6 terms: seven full blocks and a short one
    m = PrimePowerModulus(7, 7)
    assert m.q // 7 > 7 * BRUTE_BLOCK
    f = phase_function(123456, 654321, 3)
    got = residue_class_sum(f, 2, m)
    assert abs(got - class_sum_by_scalar_loop(f, 2, m)) <= 1e-10 * math.sqrt(m.q)


def test_residue_class_sum_of_one_term_builds_no_table():
    # at n = 1 a class is one term: the walk holds a one-column table and
    # the root tables of about sqrt(q) entries, no table of all p residues
    m = PrimePowerModulus(9999991, 1)
    f = phase_function(3, 4, 1)
    tracemalloc.start()
    try:
        got = residue_class_sum(f, 5, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    z = f.num.eval_mod(5, m.q) * pow(f.den.eval_mod(5, m.q), -1, m.q) % m.q
    assert abs(got - cmath.exp(2j * math.pi * z / m.q)) <= 1e-12


CLASS_SUM_MODULI = [
    (p, n) for p in (3, 5, 7, 11, 13) for n in range(1, 5) if p**n <= 2 * 10**4
] + [(3137, 1)]


@pytest.mark.parametrize("p,n", CLASS_SUM_MODULI)
def test_residue_class_sum_every_unit_class_matches_scalar_loop(p, n):
    # the coset walk covers every class with 1 + alpha^2 a unit, admissible
    # or not (alpha = 0 and +-1 included), at p = 3 and 5 too, where the
    # circle sum has no admissible class; k1 = 0 and k2 = 0 leave trailing
    # zero coefficients off the numerator
    m = PrimePowerModulus(p, n)
    rng = random.Random(f"class:{p}:{n}")
    phases = [
        phase_function(rng.randrange(-10**6, 10**6), rng.randrange(-10**6, 10**6), rng.randrange(1, 10**6)),
        phase_function(0, rng.randrange(1, 10**6), 1),
        phase_function(rng.randrange(1, 10**6), 0, 2),
    ]
    if p == 3137:
        phases = phases[:1]
    for f in phases:
        for alpha in range(-1, p - 1):
            if (1 + alpha * alpha) % p:
                got = residue_class_sum(f, alpha, m)
                assert abs(got - class_sum_by_scalar_loop(f, alpha, m)) <= 1e-10 * math.sqrt(m.q), alpha


@pytest.mark.parametrize("p,n", [(7, n) for n in range(1, 5)] + [(13, n) for n in range(1, 4)])
def test_class_sums_add_up_to_circle_sum(p, n):
    m = PrimePowerModulus(p, n)
    rng = random.Random(f"total:{p}:{n}")
    spec = ExpSumSpec(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**6), 3, m)
    f = spec.phase()
    classes = enumerate_admissible_t(PrimePowerModulus(p, 1))
    total = sum(residue_class_sum(f, alpha, m) for alpha in classes)
    assert abs(total - circle_exponential_sum(spec, "bruteforce")) <= 1e-10 * math.sqrt(m.q)


@pytest.mark.parametrize(
    "f",
    [
        RationalFunction(Poly([5])),  # constant: denominator 1
        RationalFunction(Poly([0, 1])),  # f(t) = t
        RationalFunction(Poly([1, 2, -1, 1]), Poly([1, 0, 1])),  # cubic numerator
        RationalFunction(Poly([1, 2, 1]), Poly([1, 0, 1])),  # t^2 coefficient is not -a
        RationalFunction(Poly([1, 0, -1]), Poly([1, 0, 2])),  # denominator 1 + 2t^2
        RationalFunction(Poly([1, 0, -1]), Poly([1, 0, 1, 0, 1])),
    ],
)
def test_residue_class_sum_refuses_other_phases(f):
    with pytest.raises(ValueError, match="not a circle phase"):
        residue_class_sum(f, 2, M7_2)


def test_walk_tables_are_cached_read_only():
    # the step and the column table are built once per walk and shared by
    # every later call, so no caller may write to them; a table holds at
    # most BRUTE_BLOCK columns, which bounds the cache of 64 walks. At 7^6
    # both walks are longer than BRUTE_BLOCK
    f = phase_function(3, 4, 1)
    for n in (4, 6):
        m = PrimePowerModulus(7, n)
        residue_class_sum(f, 2, m)
        circle_exponential_sum(ExpSumSpec(3, 4, 1, m), "bruteforce")
        h = expsums._circle_generator(7, n)
        g = expsums._gauss_pow(h, 8, m.q)
        for args in [(g, m.q // 7, m.q, 0), (h, 4 * m.q // 7, m.q, 2)]:
            hits = expsums._walk_tables.cache_info().hits
            W, v, cs, _, _ = expsums._walk_tables(*args)
            assert expsums._walk_tables.cache_info().hits == hits + 1
            assert len(v) == cs.shape[1] <= W <= BRUTE_BLOCK
            for a in (v, cs):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[..., 0] = 1


def test_residue_class_sum_gates():
    f = phase_function(1, 1, 1)
    with pytest.raises(TooLarge):
        residue_class_sum(f, 1, PrimePowerModulus(11, 8))  # q = 214358881 > 1e7
    with pytest.raises(DenominatorNotUnit):
        residue_class_sum(f, 5, PrimePowerModulus(13, 2))


def test_residue_class_sum_nonroot_fixture():
    # alpha = 3 is not a stationary point of f_{1,2,1} mod 7: sum vanishes
    f = phase_function(1, 2, 1)
    brute = residue_class_sum(f, 3, M7_3)
    assert abs(brute) <= 1e-9 * math.sqrt(343)
    assert residue_class_sum_closed(f, 3, M7_3) == 0


def test_residue_class_sum_simple_root_fixture():
    # frozen by the brute-force oracle; alpha = 5 solves 6a = 4(1-a^2) mod 7
    f = phase_function(3, 4, 1)
    brute = residue_class_sum(f, 5, M7_4)
    assert brute == pytest.approx(48.99580554718199 - 0.6411230636406j, abs=1e-7)
    assert abs(brute) == pytest.approx(49.0, abs=1e-9 * 49)
    closed = residue_class_sum_closed(f, 5, M7_4)
    assert abs(brute - closed) <= 1e-9 * math.sqrt(M7_4.q)


def test_residue_class_sum_closed_hypothesis_gates():
    with pytest.raises(HypothesisViolated):  # n < 2
        residue_class_sum_closed(phase_function(1, 1, 1), 2, PrimePowerModulus(7, 1))
    with pytest.raises(HypothesisViolated):  # r = n - 1
        residue_class_sum_closed(phase_function(49, 49, 1), 2, M7_3)
    with pytest.raises(HypothesisViolated):  # f' = 0
        residue_class_sum_closed(RationalFunction(Poly([3])), 2, M7_3)
    with pytest.raises(HypothesisViolated):  # denominator not a unit at alpha
        residue_class_sum_closed(phase_function(1, 1, 1), 5, PrimePowerModulus(13, 3))
    with pytest.raises(HypothesisViolated):  # double root: p | D forces it
        residue_class_sum_closed(phase_function(1, 2, 1), 2, PrimePowerModulus(5, 3))
    with pytest.raises(HypothesisViolated, match="multiplicity"):  # f = t^3: h = 3t^2
        residue_class_sum_closed(RationalFunction(Poly([0, 0, 0, 1])), 0, M7_3)


def test_closed_matches_brute_randomized():
    rng = random.Random(424242)
    checked = 0
    for p, n in [(7, 2), (7, 3), (11, 2), (13, 3)]:
        m = PrimePowerModulus(p, n)
        for _ in range(12):
            r = rng.randrange(0, n - 1)
            l1 = rng.randrange(1, p)
            l2 = rng.randrange(1, p)
            x3 = rng.choice([x for x in range(1, 3 * p) if x % p])
            f = phase_function(l1 * p**r, l2 * p**r, x3)
            for alpha in range(1, p + 1):
                sq = alpha * alpha % p
                if sq in (0, 1, p - 1):
                    continue
                brute = residue_class_sum(f, alpha, m)
                closed = residue_class_sum_closed(f, alpha, m)
                assert abs(brute - closed) <= 1e-9 * math.sqrt(m.q), (
                    p, n, r, l1, l2, x3, alpha,
                )
                checked += 1
    assert checked > 250


def test_stationary_points_examples():
    assert stationary_points(1, 2, 7).roots == ()
    got = stationary_points(3, 4, 7)
    assert got.roots == (4, 5) and not got.is_double
    dbl = stationary_points(1, 2, 5)  # D = 5 = 0 mod 5
    assert dbl.is_double and dbl.roots == (2,)
    assert (2 * 2) % 5 == 5 - 1  # the double root squares to -1
    with pytest.raises(UnitRequired):
        stationary_points(7, 4, 7)


def test_stationary_points_against_search():
    rng = random.Random(31)
    for _ in range(200):
        p = rng.choice([5, 7, 11, 13, 17])
        l1 = rng.randrange(1, p)
        l2 = rng.randrange(1, p)
        got = stationary_points(l1, l2, p)
        brute = [a for a in range(p) if (2 * l1 * a - l2 * (1 - a * a)) % p == 0]
        assert sorted(got.roots) == brute
        assert got.is_double == ((l1 * l1 + l2 * l2) % p == 0)


def test_lift_stationary_point_examples():
    assert lift_stationary_point(3, 4, M7_2, +1) == 25
    assert lift_stationary_point(3, 4, M7_2, -1) == 47
    with pytest.raises(NotResidue):
        lift_stationary_point(1, 2, M7_2, +1)  # D = 5 is a non-residue mod 7
    with pytest.raises(ValueError):
        lift_stationary_point(3, 4, M7_2, 2)
    with pytest.raises(UnitRequired):
        lift_stationary_point(7, 4, M7_2, +1)  # p | l1
    with pytest.raises(NotResidue, match="divisible"):
        lift_stationary_point(1, 5, PrimePowerModulus(13, 2), +1)  # D = 26


def test_residues_are_plain_ints():
    f = RationalFunction(Poly([1, 0, -1]), Poly([1, 0, 1]))
    values = [
        inv_mod(3, M7_2),
        eval_rational_mod(f, 2, M7_2),
        canonical_sqrt(2, M7_2),
        lift_stationary_point(3, 4, M7_2, +1),
        inverse_param(19, 40, M7_2),
    ]
    assert [type(v) for v in values] == [int] * 5
    assert values == [33, 19, 10, 25, 2]  # (1 - 4) / 5 = -30 mod 49


def test_lift_stationary_point_congruence():
    rng = random.Random(17)
    for _ in range(100):
        p = rng.choice([7, 11, 13])
        levels = rng.randrange(1, 4)
        l1, l2 = rng.randrange(1, p), rng.randrange(1, p)
        D = l1 * l1 + l2 * l2
        if D % p == 0 or jacobi_symbol(D, p) != 1:
            continue
        m = PrimePowerModulus(p, levels)
        for branch in (+1, -1):
            a = lift_stationary_point(l1, l2, m, branch)
            assert (2 * l1 * a - l2 * (1 - a * a)) % m.q == 0


def test_stationary_phase_identity_examples():
    spec = ExpSumSpec(3, 4, 1, M7_2)
    lhs, rhs = stationary_phase_identity(spec, +1)
    assert abs(lhs - rhs) <= 1e-9
    spec2 = ExpSumSpec(21, 28, 2, M7_3)  # r = 1, levels = 2
    lhs, rhs = stationary_phase_identity(spec2, -1)
    assert abs(lhs - rhs) <= 1e-9


def test_stationary_phase_branch_flip_conjugates():
    spec = ExpSumSpec(3, 4, 1, M7_2)
    lhs_p, rhs_p = stationary_phase_identity(spec, +1)
    lhs_m, rhs_m = stationary_phase_identity(spec, -1)
    assert rhs_m == pytest.approx(rhs_p.conjugate())
    assert lhs_m == pytest.approx(lhs_p.conjugate(), abs=1e-12)


def _curvature_from_bruteforce(spec, branch):
    """Oracle: divide the brute-force class sum by its modulus and phase.

    For odd n - r the class sum is e_q(f(a*)) * p^((n+r)/2) * sym * G_p/sqrt(p)
    with sym = +-1; solve for sym without touching any derivative."""
    m = spec.modulus
    p = m.p
    assert spec.levels % 2 == 1, "symbol factor only appears for odd n - r"
    root = lift_stationary_point(spec.l1, spec.l2, PrimePowerModulus(p, spec.levels), branch)
    brute = residue_class_sum(spec.phase(), root % p, m)
    amp = p ** ((m.n + spec.r) / 2)
    lhs, _ = stationary_phase_identity(spec, branch)
    sym = brute / (amp * lhs * prime_gauss_unit(p))
    assert abs(sym.imag) < 1e-6 and abs(abs(sym.real) - 1) < 1e-6
    return round(sym.real)


def test_curvature_symbol_true_values_mod7():
    # computed from A = 2 p^-r f''(a*); the jacobi(2*x3*root) guess gives
    # the OPPOSITE sign on these branches because (-1/7) = -1
    spec = ExpSumSpec(3, 4, 1, M7_2)
    assert curvature_symbol(spec, +1) == 1
    assert curvature_symbol(spec, -1) == -1
    assert curvature_symbol_sqrt_form(spec, +1) == 1
    assert curvature_symbol_sqrt_form(spec, -1) == -1


def test_curvature_symbol_matches_bruteforce_oracle():
    rng = random.Random(5150)
    checked = 0
    for p, n in [(7, 3), (11, 3), (13, 3), (19, 3)]:
        for _ in range(10):
            l1, l2 = rng.randrange(1, p), rng.randrange(1, p)
            x3 = rng.randrange(1, p)
            D = l1 * l1 + l2 * l2
            if D % p == 0 or jacobi_symbol(D, p) != 1:
                continue
            spec = ExpSumSpec(l1, l2, x3, PrimePowerModulus(p, n))
            for branch in (+1, -1):
                oracle = _curvature_from_bruteforce(spec, branch)
                assert curvature_symbol(spec, branch) == oracle
                assert curvature_symbol_sqrt_form(spec, branch) == oracle
                checked += 1
    assert checked >= 20


def test_curvature_symbol_negated_root_law():
    # dual form uses the negated root: matched-root jacobi is off by (-1/p)
    rng = random.Random(808)
    for p in (7, 11, 13, 17):
        m = PrimePowerModulus(p, 2)
        sign = jacobi_symbol(-1, p)
        for _ in range(20):
            l1, l2 = rng.randrange(1, p), rng.randrange(1, p)
            x3 = rng.randrange(1, p)
            D = l1 * l1 + l2 * l2
            if D % p == 0 or jacobi_symbol(D, p) != 1:
                continue
            spec = ExpSumSpec(l1, l2, x3, m)
            for branch in (+1, -1):
                rho = branch * canonical_sqrt(D % m.q, m)
                matched = jacobi_symbol(2 * x3 * rho, p)
                assert curvature_symbol(spec, branch) == sign * matched


def test_curvature_symbol_square_scaling_invariance():
    spec1 = ExpSumSpec(3, 4, 1, M7_2)
    spec2 = ExpSumSpec(3, 4, 4, M7_2)  # x3 scaled by 2^2
    for branch in (+1, -1):
        assert curvature_symbol(spec1, branch) == curvature_symbol(spec2, branch)


def test_curvature_symbol_three_mod_seven():
    spec = ExpSumSpec(3, 4, 3, M7_3)  # odd n - r, so the symbol is observable
    for branch in (+1, -1):
        assert curvature_symbol(spec, branch) == _curvature_from_bruteforce(spec, branch)


def test_gauss_factor_even_is_one():
    assert gauss_factor(2, 5, 25, 7) == 1
    assert gauss_factor(4, 1, 13, 17) == 1


def test_gauss_factor_odd_example():
    # jacobi(2*1*5, 7) = -1 and G_7/sqrt(7) = i
    assert gauss_factor(3, 1, 25, 7) == pytest.approx(-1j)
    assert abs(gauss_factor(1, 2, 2, 7)) == pytest.approx(1)


def test_gauss_factor_gates():
    with pytest.raises(UnitRequired):
        gauss_factor(2, 7, 25, 7)
    with pytest.raises(ValueError):
        gauss_factor(0, 1, 25, 7)
    with pytest.raises(UnitRequired):
        gauss_factor_unified(2, 7, 25, 7)
    with pytest.raises(ValueError):
        gauss_factor_unified(0, 1, 25, 7)


@pytest.mark.parametrize(
    "fn,args,error",
    [
        # no z has (z/9) = -1, so Tonelli-Shanks would search for one forever
        (stationary_points, (1, 2, 9), ValueError),
        (stationary_points, (1, 3, 21), ValueError),  # 3 has no inverse mod 21
        (stationary_points, (1, 3, 2), ValueError),
        (excluded_param_count, (9,), ValueError),
        (excluded_param_count, (1,), ValueError),
        # even levels take no square root, yet refuse what odd levels refuse
        (gauss_factor, (2, 1, 3, 7), NotResidue),
        (gauss_factor, (2, 1, 1, 9), ValueError),
        (gauss_factor, (40, 1, 2, 7), ValueError),  # 7^40 > 2^31
        (gauss_factor_unified, (2, 1, 3, 7), NotResidue),
        (gauss_factor_unified, (2, 1, 1, 9), ValueError),
        (gauss_factor_unified, (40, 1, 2, 7), ValueError),
        (lattice_circle_weight, (3, 2, 10.0, gaussian(1.0), 9), ValueError),  # (3/9) = 0
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_raw_p_must_be_an_odd_prime(fn, args, error):
    with pytest.raises(error):
        fn(*args)


@pytest.mark.parametrize("levels", [1, 2, 3, 4])
def test_gauss_factor_unified_agreement(levels):
    rng = random.Random(levels)
    for p in (7, 11, 13):
        sub = PrimePowerModulus(p, levels)
        for _ in range(20):
            x3 = rng.randrange(1, p)
            D = rng.randrange(1, sub.q)
            if D % p == 0 or jacobi_symbol(D, p) != 1:
                continue
            a = gauss_factor(levels, x3, D, p)
            b = gauss_factor_unified(levels, x3, D, p)
            assert abs(a - b) <= 1e-9


def test_circle_exponential_sum_vanishing():
    spec = ExpSumSpec(1, 2, 1, M7_3)  # D = 5 is a non-residue mod 7
    brute = circle_exponential_sum(spec, "bruteforce")
    assert abs(brute) <= 1e-9 * math.sqrt(M7_3.q)
    assert circle_exponential_sum(spec, "closed") == 0


def test_circle_exponential_sum_two_root_magnitude():
    spec = ExpSumSpec(3, 4, 1, M7_4)
    brute = circle_exponential_sum(spec, "bruteforce")
    closed = circle_exponential_sum(spec, "closed")
    assert abs(brute - closed) <= 1e-9 * math.sqrt(M7_4.q)
    # two simple roots, each of modulus p^(n/2) = 49; frozen oracle value
    assert abs(brute) == pytest.approx(97.99161109436, abs=1e-7)
    assert abs(brute) == pytest.approx(2 * 49 * math.cos(2 * math.pi * 5 / 2401), abs=1e-9)


def test_circle_exponential_sum_gates():
    with pytest.raises(HypothesisViolated):
        circle_exponential_sum(ExpSumSpec(49, 98, 1, M7_3), "closed")  # r = 2 > n-2
    with pytest.raises(ValueError):
        circle_exponential_sum(ExpSumSpec(1, 1, 1, M7_3), "nope")
    with pytest.raises(TooLarge, match="brute-force bound"):  # 11^7 = 19487171 > 1e7
        circle_exponential_sum(ExpSumSpec(3, 4, 1, PrimePowerModulus(11, 7)), "bruteforce")


@pytest.mark.parametrize("q", [7**4, 7**8, 9999991])
def test_root_tables_match_exp(q):
    s, hi, lo = _root_tables(q)
    assert len(lo) == 2**s and len(hi) == (q - 1) // 2**s + 1
    assert len(lo) <= 4096 and len(hi) <= 2442
    if q < 10**4:
        z = np.arange(q, dtype=np.int64)
    else:
        z = np.random.default_rng(q).integers(0, q, 10**6)
        z[:2] = 0, q - 1
    got = hi[z >> s] * lo[z & (2**s - 1)]
    assert np.abs(got - np.exp(2j * np.pi * z / q)).max() <= 4e-15


def test_root_tables_are_cached_read_only():
    # every circle and class sum at q shares one pair of tables
    first = _root_tables(7**5)
    again = _root_tables(7**5)
    assert all(a is b for a, b in zip(first, again))
    for table in first[1:]:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0


def test_closed_route_trusts_the_checked_modulus(monkeypatch):
    # the spec's PrimePowerModulus has checked p, so the closed circle sum runs
    # no primality test; the public stationary_points still refuses a bad p
    spec = ExpSumSpec(3, 4, 1, M7_4)
    want = circle_exponential_sum(spec, "closed")

    def refuse(p):
        raise AssertionError("is_prime ran again")

    monkeypatch.setattr(expsums, "is_prime", refuse)
    assert circle_exponential_sum(spec, "closed") == want
    with pytest.raises(AssertionError):
        stationary_points(3, 4, 7)


def test_gauss_factor_builds_its_level_modulus_once(monkeypatch):
    built = []

    def counted(p, n):
        built.append((p, n))
        return PrimePowerModulus(p, n)

    want = gauss_factor(3, 2, 2, 7)
    monkeypatch.setattr(expsums, "PrimePowerModulus", counted)
    assert gauss_factor(3, 2, 2, 7) == want
    assert built == [(7, 3)]


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from([5, 7, 11, 13]),
    n=st.integers(1, 4),
    k1=st.integers(-10**6, 10**6),
    k2=st.integers(-10**6, 10**6),
    x3=st.integers(1, 10**6),
)
def test_circle_bruteforce_matches_scalar_loop(p, n, k1, k2, x3):
    # n = 1 takes no lifting step; p = 5 has no admissible class at all
    if (k1, k2) == (0, 0) or x3 % p == 0:
        return
    check_circle_bruteforce_by_scalar_loop(k1, k2, x3, PrimePowerModulus(p, n))


def _circle_order(p, n):
    return (p - 1 if p % 4 == 1 else p + 1) * p ** (n - 1)


def test_circle_bruteforce_blocks_of_short_classes():
    # the brute force walks j = u W + v in blocks of the W columns v of one
    # table, W = min(J, BRUTE_BLOCK) lowered to a multiple of d. At 521^2,
    # J = M/2 = 135460, d = 130 and W = 16380: eight blocks of 16254 kept
    # columns, then the kept columns v < 4420 of the last block. At 7^4,
    # J = 1372, d = 2 and W = 1372: one block of 686 kept columns
    for (p, n), sizes in [((521, 2), [16254] * 8 + [4386]), ((7, 4), [686])]:
        m = PrimePowerModulus(p, n)
        blocks = [(sign, len(z)) for sign, z in expsums._circle_phases((1, 0), m)]
        assert blocks == [(1, size) for size in sizes]
        assert max(sizes) <= BRUTE_BLOCK
        J, d = _circle_order(p, n) // 2, (p - 1 if p % 4 == 1 else p + 1) // 4
        assert sum(sizes) == J - J // d
    check_circle_bruteforce_by_scalar_loop(123456, 7890, 3, PrimePowerModulus(521, 2))
    check_circle_bruteforce_by_scalar_loop(5, 6, 2, PrimePowerModulus(7, 4))


def _enumerated_points(m):
    """Net multiset of the points z = h^j the brute force sums, and of their
    negatives -z: the phases of w = 1 are y1 = Re z, those of w = -i are
    y2 = Im z, block by block in the same order."""
    q, net = m.q, Counter()
    by_w = [list(expsums._circle_phases(w, m)) for w in ((1, 0), (0, q - 1))]
    for (sign, y1s), (sign2, y2s) in zip(*by_w, strict=True):
        assert sign == sign2
        for y1, y2 in zip(y1s.tolist(), y2s.tolist(), strict=True):
            net[y1, y2] += sign
            net[-y1 % q, -y2 % q] += sign
    return net


@pytest.mark.parametrize("p", [7, 13, 3137, 65539])
def test_circle_bruteforce_admissible_classes(p):
    # the points the brute force sums, with their negatives and net of the
    # blocks it subtracts, map back by t = y2 (1 + y1)^-1 onto every
    # admissible t exactly once. 7, 13 and 3137 drop the columns d | v; at
    # n = 1, 65539 has d = 16385 > BRUTE_BLOCK and subtracts the points d | j
    for n in range(1, 4):
        if n > 1 and p**n > 5000:
            break
        m = PrimePowerModulus(p, n)
        signs = {sign for sign, _ in expsums._circle_phases((1, 0), m)}
        assert signs == ({1, -1} if p == 65539 else {1})
        net = _enumerated_points(m)
        assert all((y1 * y1 + y2 * y2 - 1) % m.q == 0 for y1, y2 in net)
        assert set(net.values()) <= {0, 1}
        ts = sorted(y2 * pow(1 + y1, -1, m.q) % m.q for (y1, y2), c in net.items() if c)
        assert ts == enumerate_admissible_t(m), (p, n)


@pytest.mark.parametrize("p", [7, 11, 13, 17, 29, 3137])
def test_circle_generator_has_order_M(p):
    # C(p^n) is cyclic of order M = (p - (-1/p)) p^(n-1): h^M = 1, and
    # h^(M/l) != 1 for each prime l | M
    def mul(a, b, q):
        return (a[0] * b[0] - a[1] * b[1]) % q, (a[0] * b[1] + a[1] * b[0]) % q

    def power(z, e, q):
        out = (1, 0)
        for bit in bin(e)[2:]:
            out = mul(out, out, q)
            if bit == "1":
                out = mul(out, z, q)
        return out

    for n in range(1, 5):
        q, M = p**n, _circle_order(p, n)
        if q > 10**7:
            break
        h = expsums._circle_generator(p, n)
        assert (h[0] ** 2 + h[1] ** 2 - 1) % q == 0
        assert power(h, M, q) == (1, 0)
        primes = {l for l in range(2, p + 2) if M % l == 0 and is_prime(l)}
        assert all(power(h, M // l, q) != (1, 0) for l in primes), (p, n, primes)


@pytest.mark.parametrize("p", [3, 5])
def test_circle_bruteforce_vanishes_without_admissible_parameters(p):
    # every unit t mod 3 or 5 has t^2 = +-1: d = (p - (-1/p))/4 = 1
    for n in range(1, 5):
        m = PrimePowerModulus(p, n)
        assert enumerate_admissible_t(m) == []
        assert list(expsums._circle_phases((1, 0), m)) == []
        assert circle_exponential_sum(ExpSumSpec(1, 2, 1, m), "bruteforce") == 0


@pytest.mark.parametrize("p,n", [(p, n) for p in (7, 11, 13, 17, 29) for n in (1, 2, 3)])
def test_class_sums_of_partner_classes_are_conjugate(p, n):
    # t -> -1/t maps the class alpha onto the class -alpha^-1 and negates the
    # phase mod q, so the two class sums are conjugate; the brute force, which
    # sums one of each pair {z, -z} of circle points, is exactly real
    m = PrimePowerModulus(p, n)
    rng = random.Random(f"pair:{p}:{n}")
    k1, k2 = rng.randrange(-10**6, 10**6), rng.randrange(1, 10**6)
    x3 = rng.choice([x for x in range(1, 3 * p) if x % p])
    f = phase_function(k1, k2, x3)
    for alpha in enumerate_admissible_t(PrimePowerModulus(p, 1)):
        partner = -pow(alpha, -1, p) % p
        s, t = (residue_class_sum(f, a, m) for a in (alpha, partner))
        assert abs(s - t.conjugate()) <= 1e-12 * math.sqrt(m.q), alpha
    assert circle_exponential_sum(ExpSumSpec(k1, k2, x3, m), "bruteforce").imag == 0.0


def test_circle_bruteforce_long_classes_split_into_blocks():
    # at 7^6 a class has 16807 terms: one full block and a short one each
    m = PrimePowerModulus(7, 6)
    assert BRUTE_BLOCK < m.q // 7 < 2 * BRUTE_BLOCK
    check_circle_bruteforce_by_scalar_loop(3, 4, 1, m)
    check_circle_bruteforce_by_scalar_loop(987654, 12345, 10, m)


def check_circle_bruteforce_by_scalar_loop(k1, k2, x3, m):
    f = phase_function(k1, k2, x3)
    naive = 0j
    for t in enumerate_admissible_t(m):
        z = f.num.eval_mod(t, m.q) * pow(f.den.eval_mod(t, m.q), -1, m.q) % m.q
        naive += cmath.exp(2j * math.pi * z / m.q)
    got = circle_exponential_sum(ExpSumSpec(k1, k2, x3, m), "bruteforce")
    assert type(got) is complex
    assert abs(got - naive) <= 1e-10 * math.sqrt(m.q)


def test_circle_bruteforce_works_one_class_at_a_time():
    # the 7^7 sum holds a few arrays of one block (about 2^14 terms), not
    # of all 4q/7 admissible parameters
    spec = ExpSumSpec(3, 4, 1, PrimePowerModulus(7, 7))
    tracemalloc.start()
    try:
        circle_exponential_sum(spec, "bruteforce")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_circle_exponential_sum_double_root_case():
    # p | D: the double root squares to -1, an inadmissible class, so the
    # closed sum is empty and brute force confirms the vanishing
    m = PrimePowerModulus(5, 3)
    spec = ExpSumSpec(1, 2, 1, m)
    assert circle_exponential_sum(spec, "closed") == 0
    assert abs(circle_exponential_sum(spec, "bruteforce")) <= 1e-9 * math.sqrt(m.q)


@pytest.mark.parametrize("p,n", [(p, n) for p in (7, 11, 13) for n in (2, 3, 4)])
def test_closed_sum_vanishes_where_p_divides_one_of_l1_l2(p, n):
    # the stationary congruence 2 l1 a = l2 (1 - a^2) mod p then forces
    # a = 0 or +-1, all inadmissible, so the closed sum is empty
    m = PrimePowerModulus(p, n)
    rng = random.Random(f"{p}:{n}")
    for _ in range(8):
        r = rng.randrange(0, n - 1)
        unit = rng.choice([x for x in range(1, p * p) if x % p])
        multiple = p * rng.randrange(1, p * p)
        l1, l2 = (unit, multiple) if rng.random() < 0.5 else (multiple, unit)
        x3 = rng.choice([x for x in range(1, 3 * p) if x % p])
        spec = ExpSumSpec(l1 * p**r, l2 * p**r, x3, m)
        assert spec.r == r and (spec.l1 * spec.l2) % p == 0
        assert circle_exponential_sum(spec, "closed") == 0
        brute = circle_exponential_sum(spec, "bruteforce")
        assert abs(brute) <= 1e-9 * math.sqrt(m.q), (l1, l2, r, x3)


def test_lattice_circle_weight_no_points():
    w = gaussian(1.0)
    assert lattice_circle_weight(3, 2, 100.0, w, 7) == 0
    assert lattice_circle_weight(6, 2, 100.0, w, 7) == 0  # 6 = 2*3, no a^2+b^2


def test_lattice_circle_weight_eight_points():
    w = gaussian(1.0)
    levels, p, N = 4, 7, 100.0
    got = lattice_circle_weight(25, levels, N, w, p)
    # independent assembly: 8 points (+-3, +-4), (+-4, +-3), all unit mod 7
    scale = N / p**levels
    expected = 0.0
    for l1, l2 in [(3, 4), (4, 3)]:
        expected += 4 * w.fourier(l1 * scale) * w.fourier(l2 * scale)
    rho = canonical_sqrt(25, PrimePowerModulus(p, levels))
    expected *= jacobi_symbol(2 * rho, p**levels)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got != 0


def test_lattice_circle_weight_unit_filter():
    w = gaussian(1.0)
    # mod 3 every point of x^2 + y^2 = 25 has a coordinate divisible by 3
    assert lattice_circle_weight(25, 2, 100.0, w, 3) == 0


def test_lattice_circle_weight_nonresidue_pattern():
    w = gaussian(1.0)
    # D = 2 has points (+-1, +-1) but 2 is a non-residue mod 5
    assert lattice_circle_weight(2, 2, 10.0, w, 5) == 0
    # and mod 7 it is a residue: nonzero value
    assert lattice_circle_weight(2, 2, 10.0, w, 7) != 0


def test_lattice_circle_weight_gates_before_its_loop():
    w = gaussian(1.0)
    # 2 isqrt(D) + 1 points per axis: 999,999 at D = 499999^2 is under the
    # bound, 1,000,001 at D = 500000^2 is over it; 10^24 would loop 2e12 times,
    # and at D = 10^616 the count 2 isqrt(D) + 1 is an int too large for a float
    assert lattice_circle_weight(499999**2, 2, 10.0, w, 31) == 0  # 499999 = 31 * 127^2
    for D in (500000**2, 10**24, 10**616):
        with pytest.raises(TooLarge, match="lattice circle"):
            lattice_circle_weight(D, 2, 10.0, w, 11)
    for N in (0.0, 0.5, -1.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and at least 1"):
            lattice_circle_weight(25, 2, N, w, 7)
    for D, levels in ((0, 2), (-25, 2), (25, 0)):
        with pytest.raises(ValueError, match="must be positive"):
            lattice_circle_weight(D, levels, 10.0, w, 7)


def _lattice_point_loop(D, levels, N, w, p):
    """Oracle: the Jacobi factor of the smaller root of x^2 = D mod p^levels
    (a search mod p, then Newton lifts) times the sum over the unit points
    of l1^2 + l2^2 = D, point by point, of the two dual weights."""
    if D % p == 0 or jacobi_symbol(D, p) != 1:
        return 0j
    q = p**levels
    root, pk = next(x for x in range(1, p) if (x * x - D) % p == 0), p
    while pk < q:
        pk = min(pk * pk, q)
        root = (root - (root * root - D) * pow(2 * root, -1, pk)) % pk
    factor = jacobi_symbol(2 * min(root, q - root), q)
    scale = q / N  # dual argument is l * N / p^levels
    total = 0.0
    for l1 in range(-math.isqrt(D), math.isqrt(D) + 1):
        rest = D - l1 * l1
        l2 = math.isqrt(rest)
        if l2 * l2 != rest:
            continue
        for s2 in ({l2, -l2} if l2 else {0}):
            if (l1 * s2) % p == 0:
                continue
            total += w.fourier(l1 / scale) * w.fourier(s2 / scale)
    return complex(factor * total)


def test_lattice_circle_weight_matches_point_loop():
    rng = random.Random(14)
    primes = [p for p in range(7, 32) if is_prime(p)]
    nonzero = 0
    for _ in range(1500):
        p, levels = rng.choice(primes), rng.randint(1, 5)
        a, b = rng.randint(0, 60), rng.randint(1, 60)
        D = a * a + b * b  # <= 7200
        N = (p**levels) ** rng.uniform(0.5, 1.0)
        w = gaussian(rng.uniform(0.5, 2.0))
        ref = _lattice_point_loop(D, levels, N, w, p)
        got = lattice_circle_weight(D, levels, N, w, p)
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (D, levels, N, w, p)
        nonzero += ref != 0
    assert nonzero > 300
    # near the box gate, where np.sqrt must still floor to isqrt: the eight
    # primes = 1 mod 4 put r2(D) = 4 * 2^8 = 1024 lattice points on the circle
    D = 5 * 13 * 17 * 29 * 37 * 41 * 53 * 61
    p = next(p for p in (7, 11, 19, 23, 31) if jacobi_symbol(D, p) == 1)
    ref = _lattice_point_loop(D, 5, 1.0, gaussian(1.0), p)
    assert abs(ref) > 100
    assert lattice_circle_weight(D, 5, 1.0, gaussian(1.0), p) == pytest.approx(ref, rel=1e-12)


def _largest_prime_power(bound):
    for q in range(bound, 1, -1):
        for e in range(1, q.bit_length()):
            r = round(q ** (1 / e))
            if any((r + d) ** e == q and is_prime(r + d) for d in (-1, 0, 1)):
                return q


@pytest.mark.parametrize("q", [7, 7**8, 9999991, _largest_prime_power(BRUTE_MAX_Q)])
def test_fmod_is_python_mod_at_the_edges(q):
    top = q * q + q  # the largest |a| the brute force reduces
    ks = [0, 1, 2, q - 1, q, q + 1]
    a = [k * q + d for k in ks for d in (-1, 0, 1)] + [top, top - 1, q * q, q * q - 1]
    a += [-v for v in a]
    got = _fmod(np.array(a, dtype=float), q, np.empty(len(a)))
    assert got.tolist() == [v % q for v in a]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, BRUTE_MAX_Q).flatmap(
        lambda q: st.tuples(st.just(q), st.lists(st.integers(-q * q - q, q * q + q), min_size=1))
    )
)
def test_fmod_matches_python_mod(case):
    q, a = case
    got = _fmod(np.array(a, dtype=float), q, np.empty(len(a)))
    assert got.tolist() == [v % q for v in a]


def test_fmod_exactness_bound_covers_every_modulus():
    # _fmod is exact for |a| <= q^2 + q while q(q + 2) < 2^51; the brute
    # force reduces mod q <= BRUTE_MAX_Q
    assert BRUTE_MAX_Q * (BRUTE_MAX_Q + 2) < 2**51
