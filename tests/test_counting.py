import math
import time
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pythmod import counting
from pythmod.counting import (
    DUAL_TOL,
    PAIR_BLOCK,
    PYTH_MAX_N,
    SPLIT_MIN,
    CountConfig,
    _cube_sum,
    _dual_levels,
    _hyperbola_split,
    _smoothed_triple_loop,
    count_box_exact,
    count_equation_box,
    count_pythagorean,
    count_smoothed,
    dual_triple_count,
    predict_dual_terms,
    predict_main_term,
    transition_check,
)
from pythmod.errors import RangeViolation, SmallPrime, TooLarge
from pythmod.padic import PrimePowerModulus
from pythmod.weights import gaussian

W1 = gaussian(1.0)


def cfg(p, n, N, weight=W1):
    return CountConfig(PrimePowerModulus(p, n), float(N), weight)


def test_small_prime_rejected():
    for p in (3, 5):
        with pytest.raises(SmallPrime):
            cfg(p, 3, 100)


def test_config_validation():
    with pytest.raises(ValueError):
        cfg(7, 2, 0.5)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="must be finite"):
            cfg(7, 2, bad)


def test_predict_main_term_examples():
    got = predict_main_term(cfg(7, 6, 3545))
    assert got == pytest.approx(24 / 49 * 3545**3 / 117649, rel=1e-12)
    assert got == pytest.approx(1.8547e5, rel=1e-3)
    got13 = predict_main_term(cfg(13, 4, 1000))
    assert got13 == pytest.approx(8 * 12 / 169 * 1e9 / 28561, rel=1e-12)


def level_points(p, n):
    """The points a of each level of _dual_levels, in its order: 0, then
    p^j * ((4c)^-1 mod p^(n-j)) for the ascending units c of [1, p^(n-j))."""
    yield np.array([0])
    for j in range(n):
        qj = p ** (n - j)
        yield np.array([p**j * pow(4 * c, -1, qj) for c in range(1, qj) if c % p])


def unit_gauss_levels(m, k):
    # g(a, k) level by level, from coefficients that pick the one frequency |k| mod q
    k = abs(k) % m.q
    coef = np.zeros(k + 1)
    coef[k] = 1.0
    return list(_dual_levels(m, coef))


@pytest.mark.parametrize("p,n", [(7, 2), (7, 3), (13, 2)])
def test_unit_gauss_sums_match_brute(p, n):
    q = p**n
    xs = np.array([x for x in range(q) if x % p], dtype=np.int64)
    points = list(level_points(p, n))
    assert np.array_equal(np.sort(np.concatenate(points)), np.arange(q))  # each a once
    for k in (0, 1, 2, 3, -1, -4, p, -p, 2 * p + 1, p * p, 3 * p * p, q, q + 2):
        levels = unit_gauss_levels(PrimePowerModulus(p, n), k)
        for a, closed in zip(points, levels, strict=True):
            a = a[:, None]
            brute = np.exp(2j * math.pi * ((a * xs * xs + k * xs) % q) / q).sum(axis=1)
            assert np.max(np.abs(closed - brute)) <= 1e-9 * q, (p, n, k)


@pytest.mark.parametrize("p,n,N", [(7, 3, 60), (7, 4, 233), (11, 3, 200), (13, 2, 40)])
def test_dual_zero_frequency_is_main_term(p, n, N):
    # the k = 0 term of the Poisson expansion, from the closed Gauss sums
    c = cfg(p, n, N)
    m, q = c.modulus, c.modulus.q
    levels = unit_gauss_levels(m, 0)  # coef = [1.0]
    g = np.concatenate(levels)
    # -c is the mirror of c among a level's ascending units: a level
    # reversed holds the values at -a
    minus = np.concatenate([s[::-1] for s in levels])
    k0 = (N * c.weight.fourier(0.0) / q) ** 3 / q * np.sum(g * g * minus).real
    assert k0 == pytest.approx(predict_main_term(c), rel=1e-12)


@pytest.mark.parametrize(
    "p,n,N,scale",
    [
        (7, 2, 10, 1.0),
        (7, 3, 25, 1.0),
        (11, 2, 20, 1.0),
        (11, 3, 30, 1.0),
        (13, 1, 8, 1.0),
        (13, 2, 30, 1.0),
        (7, 3, 15, 2.0),
    ],
)
def test_dual_terms_reproduce_triple_loop(p, n, N, scale):
    # odd and even n, p = 3 mod 4 (7, 11) and p = 1 mod 4 (13)
    c = cfg(p, n, N, weight=gaussian(scale))
    measured = _smoothed_triple_loop(c)
    dual = predict_dual_terms(c)
    assert abs(measured - (dual.T0 + dual.T1)) <= 1e-9 * measured


def test_dual_terms_match_bucket_at_small_N():
    # K = ceil(3.425 * 7^6 / 10) = 40289 dual frequencies, far more than q / N
    c = cfg(7, 6, 10)
    measured = count_smoothed(c).measured_T
    dual = predict_dual_terms(c)
    assert abs(measured - (dual.T0 + dual.T1)) <= 1e-9 * measured


def test_dual_terms_gate():
    tracemalloc.start()
    try:
        # q = 7^8 alone fits; K = ceil(3.425 * 7^8 / 1) = 19741367 does not
        with pytest.raises(TooLarge, match=r"q \+ K \+ 1 = 25506169 .*K = 19741367"):
            predict_dual_terms(cfg(7, 8, 1))
        with pytest.raises(TooLarge, match=r"q \+ K \+ 1 = 40353609 .*q = 40353607, K = 1\)"):
            predict_dual_terms(cfg(7, 9, 10**9))  # K = ceil(3.425 * 7^9 / 10^9) = 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_dual_terms_memory_bound():
    # one level at a time, indexed by c = (4u)^-1: no q-length array of s(a)
    # and no table of units.  The traced peak is about 41 bytes per entry of q
    c = cfg(7, 6, 3545)
    tracemalloc.start()
    try:
        predict_dual_terms(c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 72 * c.modulus.q


def test_predict_main_term_scaling_laws():
    base = predict_main_term(cfg(7, 3, 50))
    assert predict_main_term(cfg(7, 3, 100)) == pytest.approx(8 * base, rel=1e-12)
    assert predict_main_term(cfg(7, 4, 50)) == pytest.approx(base / 7, rel=1e-12)
    scaled = predict_main_term(cfg(7, 3, 50, weight=gaussian(2.0)))
    assert scaled == pytest.approx(8 * base, rel=1e-12)  # mass s enters cubed


@pytest.mark.parametrize(
    "p,n,N",
    [(7, 1, 3), (7, 2, 10), (7, 3, 25), (11, 2, 20), (13, 1, 8)],
)
def test_methods_agree(p, n, N):
    a = _smoothed_triple_loop(cfg(p, n, N))
    b = count_smoothed(cfg(p, n, N)).measured_T
    assert b == pytest.approx(a, rel=1e-6)


def test_smoothed_report_fields():
    rep = count_smoothed(cfg(7, 2, 10))
    assert rep.q == 49 and rep.cutoff == 3.5
    assert rep.ratio == pytest.approx(rep.measured_T / rep.predicted_T0)
    assert rep.nu == pytest.approx(math.log(10) / math.log(49))
    assert rep.seconds >= 0
    d = rep.to_dict()
    assert d["measured_T"] == rep.measured_T


def test_smoothed_vanishing_weight():
    # scale so small that every unit point of the box carries no weight
    rep = count_smoothed(cfg(7, 1, 3, weight=gaussian(0.01)))
    assert rep.measured_T <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([7, 11, 13]),
    n=st.integers(1, 3),
    N=st.floats(1.0, 12.0),
    scale=st.sampled_from([0.5, 1.0, 2.0]),
)
def test_bucket_kernel_matches_triple_loop(p, n, N, scale):
    c = cfg(p, n, N, weight=gaussian(scale))
    loop = _smoothed_triple_loop(c)
    fft = count_smoothed(c).measured_T
    # float64 rounding in the FFT reaches a few eps * log2(q) of mass^3, with
    # mass the total box weight; boxes without solutions give loop == 0
    C = math.floor(3.5 * scale * N)
    xs = np.array([x for x in range(-C, C + 1) if x % p])
    mass = float(gaussian(scale).value(xs / N).sum())
    assert abs(fft - loop) <= 1e-6 * loop + 1e-13 * mass**3


def _two_transform_oracle(c):
    # T = <S * S, S> over the whole box, the cyclic self-convolution taken
    # by a forward and an inverse real FFT
    q, C = c.modulus.q, math.floor(c.cutoff * c.N)
    xs = np.arange(-C, C + 1, dtype=np.int64)
    xs = xs[xs % c.modulus.p != 0]
    S = np.bincount(xs * xs % q, weights=c.weight.value(xs / c.N), minlength=q)
    return float(np.dot(np.fft.irfft(np.fft.rfft(S) ** 2, n=q), S))


@pytest.mark.parametrize(
    "p,n,N,scale",
    [
        (7, 5, 912, 1.0),  # the two criterion-10 runs
        (7, 6, 3545, 1.0),
        (7, 1, 3, 1.0),  # q = p
        (13, 1, 8, 1.0),
        (11, 4, 700, 0.5),
        (13, 3, 219, 2.0),
        (17, 2, 53, 0.5),
        (7, 4, 233, 2.0),
    ],
)
def test_bucket_kernel_matches_two_transform_oracle(p, n, N, scale):
    c = cfg(p, n, N, weight=gaussian(scale))
    assert count_smoothed(c).measured_T == pytest.approx(_two_transform_oracle(c), rel=1e-12)


def _record_transforms(monkeypatch):
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        real = getattr(np.fft, name)
        monkeypatch.setattr(
            np.fft, name, lambda *a, _f=real, _n=name, **k: calls.append(_n) or _f(*a, **k)
        )
    return calls


def test_count_smoothed_takes_one_forward_fft(monkeypatch):
    calls = _record_transforms(monkeypatch)
    c = cfg(7, 6, 3545)
    first = count_smoothed(c).measured_T
    assert calls == ["rfft"]
    assert count_smoothed(c).measured_T == first  # reruns are bit-identical


def test_dual_terms_take_one_fft_per_level(monkeypatch):
    # the non-units x = p y cancel the frequencies p | k' of every level but
    # the last, so each of the n levels is one DFT of its unit frequencies
    calls = _record_transforms(monkeypatch)
    predict_dual_terms(cfg(7, 6, 3545))
    assert calls == ["fft"] * 6


def test_smoothed_sums_take_no_blas_dot(monkeypatch):
    # a float np.dot of more than 10^4 entries wakes OpenBLAS's threads, and
    # where they sleep that costs a scheduler quantum (8 ms) a call; the
    # bucket kernel's sum here has 14281 entries, the cube sum's first level 14406
    def refuse(*args, **kwargs):
        raise AssertionError("np.dot called")

    monkeypatch.setattr(np, "dot", refuse)
    count_smoothed(cfg(13, 4, 600))
    predict_dual_terms(cfg(7, 5, 343))


@pytest.mark.parametrize("p,n,N", [(7, 4, 60), (7, 5, 343), (7, 6, 3545), (11, 3, 40), (13, 4, 300)])
def test_dual_sums_conjugate_symmetric(p, n, N):
    # s(-a) = conj s(a), which lets _cube_sum read the cube sum as the sum of
    # |s(a)|^2 Re s(a); coefficients built as in predict_dual_terms.  -c is
    # the mirror of c among a level's ascending units, so each level
    # reversed holds s(-a)
    m = PrimePowerModulus(p, n)
    K = math.ceil(W1.fourier_truncation_radius(DUAL_TOL) * m.q / N)
    coef = W1.fourier(np.arange(K + 1) * N / m.q)
    coef[1:] *= 2
    levels = list(_dual_levels(m, coef))
    peak = max(np.max(np.abs(s)) for s in levels)
    for s in levels:
        assert np.max(np.abs(s[::-1] - np.conj(s))) <= 1e-13 * peak
    direct = sum(np.sum(s * s * s[::-1]).real for s in levels)
    assert sum(_cube_sum(s) for s in levels) == pytest.approx(direct, rel=1e-12)


def test_triple_loop_gate():
    with pytest.raises(TooLarge):
        _smoothed_triple_loop(cfg(7, 2, 10**4))


def test_box_gate_raises_before_allocating():
    m49 = PrimePowerModulus(7, 2)
    configs = [
        (count_smoothed, cfg(7, 2, 1e12)),
        (_smoothed_triple_loop, cfg(7, 2, 1e12)),
        (count_smoothed, cfg(7, 2, 1e308)),
    ]
    tracemalloc.start()
    try:
        for count, c in configs:
            with pytest.raises(TooLarge, match="points per axis"):
                count(c)
        for N in (10**12, 500_000):  # 2 * 500000 + 1 is one point over the bound
            with pytest.raises(TooLarge, match="points per axis"):
                count_box_exact(m49, N)
        # an int past the float range: the message must not convert it to float
        with pytest.raises(TooLarge, match=r"\|x\| <= 1\.00000e\+400 has about 2\.00000e\+400"):
            count_box_exact(m49, 10**400)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # one box of 10^6 int64 points would be 8 MB


def _box_brute(p, n, N):
    q = p**n
    total = 0
    for x1 in range(-N, N + 1):
        if x1 % p == 0:
            continue
        for x2 in range(-N, N + 1):
            if x2 % p == 0:
                continue
            s = x1 * x1 + x2 * x2
            for x3 in range(-N, N + 1):
                if x3 % p == 0:
                    continue
                if (s - x3 * x3) % q == 0:
                    total += 1
    return total


def test_count_box_exact_examples():
    m49 = PrimePowerModulus(7, 2)
    assert count_box_exact(m49, 4) == 0
    got = count_box_exact(m49, 10)
    assert got == _box_brute(7, 2, 10) == 104  # frozen from the brute oracle
    assert count_box_exact(PrimePowerModulus(7, 1), 0) == 0


@pytest.mark.parametrize(
    "p,n,N",
    # q below box^2, then q above it (the box is 2N + 1 wide)
    [(7, 2, 17), (7, 3, 30), (7, 4, 50), (11, 2, 21), (7, 4, 12), (13, 3, 15), (7, 5, 20)],
)
def test_count_box_exact_matches_brute(p, n, N):
    assert count_box_exact(PrimePowerModulus(p, n), N) == _box_brute(p, n, N)


def _class_pair_loop(xs, M):
    """Scalar oracle of the class-pair kernel: for each pair of square
    classes, their point counts times the count of the class of their sum."""
    n = Counter(x * x % M for x in xs)
    return sum(n1 * n2 * n.get((c1 + c2) % M, 0) for c1, n1 in n.items() for c2, n2 in n.items())


# block is the pair budget of one block of _square_triples: 1 and 5 give one
# class row per block, and 64 over 9 classes gives blocks of 7 rows and 2 rows
@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([7, 11, 13]),
    n=st.integers(1, 4),
    N=st.integers(0, 150),
    block=st.sampled_from([1, 5, 64, PAIR_BLOCK]),
)
@example(p=7, n=2, N=10, block=64)  # 9 classes: a last block of 2 rows
@example(p=7, n=1, N=2000, block=PAIR_BLOCK)  # about 1143 points per class: a uint16 table
@example(p=7, n=3, N=0, block=PAIR_BLOCK)  # the empty box
@example(p=13, n=4, N=150, block=1)  # one class row per block
def test_count_box_exact_matches_class_pair_loop(p, n, N, block):
    xs = [x for x in range(-N, N + 1) if x % p]
    with mock.patch.object(counting, "PAIR_BLOCK", block):
        assert count_box_exact(PrimePowerModulus(p, n), N) == _class_pair_loop(xs, p**n)


@settings(max_examples=40, deadline=None)
@given(
    L=st.integers(1, 60),
    frac=st.floats(0.0, 1.0),
    block=st.sampled_from([1, 5, 64, PAIR_BLOCK]),
)
@example(L=600, frac=0.0, block=PAIR_BLOCK)  # modulus 1: all 1201 points in one class
@example(L=300, frac=1.0, block=PAIR_BLOCK)  # modulus 2 L^2, the largest on the table path
def test_dual_triple_count_matches_class_pair_loop(L, frac, block):
    modulus = 1 + int(frac * (2 * L * L - 1))  # 1..2 L^2: the class-pair path
    with mock.patch.object(counting, "PAIR_BLOCK", block):
        got = dual_triple_count(L, modulus)
    assert got == _class_pair_loop(range(-L, L + 1), modulus) - 1


def test_square_triples_memory_bound():
    # the table of 7^8 classes fits uint8 (q bytes; int32 would take 4q), and
    # one block of PAIR_BLOCK pairs holds its int64 sums, the mask of sums to
    # reduce, the gathered counts and their int64 cast: under 32 bytes a pair
    m = PrimePowerModulus(7, 8)
    tracemalloc.start()
    try:
        got = count_box_exact(m, 1697)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == 14704
    assert peak < m.q + 32 * PAIR_BLOCK


def test_class_pair_gate_raises_before_the_table():
    # 34286 classes need 1.18e9 pairs; the 7^9 table would be 40 MB
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="34286 square classes need 1175529796 class pairs"):
            count_box_exact(PrimePowerModulus(7, 9), 40000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**22  # the box and its squares: 80001 int64 points each


def test_transition_examples():
    res = transition_check(PrimePowerModulus(7, 6), 200)
    assert res.equal and res.congruence_count == res.equation_count == 1280
    res = transition_check(PrimePowerModulus(7, 2), 4)
    assert res == (0, 0, True)
    with pytest.raises(RangeViolation):
        transition_check(PrimePowerModulus(7, 2), 10)  # 10 >= sqrt(24.5)


def _equation_box_loop(N, coprime_to=None):
    """Scalar oracle: every (x3, a) with a < x3 <= N and isqrt for the other leg."""
    total = 0
    for x3 in range(1, N + 1):
        if coprime_to is not None and x3 % coprime_to == 0:
            continue
        for a in range(1, x3):
            if coprime_to is not None and a % coprime_to == 0:
                continue
            b2 = x3 * x3 - a * a
            b = math.isqrt(b2)
            if b >= 1 and b * b == b2:
                if coprime_to is None or b % coprime_to != 0:
                    total += 1
    return 8 * total  # 4 sign choices for (x1, x2), 2 for x3


@pytest.mark.parametrize("coprime_to", [None, 3, 5, 7, 11, 13])
def test_count_equation_box_matches_scalar_loop(coprime_to):
    for N in range(151):
        assert count_equation_box(N, coprime_to) == _equation_box_loop(N, coprime_to), N


def _euclid_loop(N, coprime_to=None):
    """Scalar oracle of the array walk: one math.gcd per Euclid pair and the
    divisibility of the product of the legs, in Python ints."""
    total = 0
    for m in range(2, math.isqrt(N) + 1):
        for n in range(m % 2 + 1, m, 2):
            c = m * m + n * n
            if c > N:
                break
            if math.gcd(m, n) != 1:
                continue
            K = N // c
            if coprime_to is None:
                total += K
            elif (m * m - n * n) * 2 * m * n * c % coprime_to:
                total += K - K // coprime_to
    return 16 * total


@settings(max_examples=40, deadline=None)
@given(N=st.integers(0, 3 * 10**5), coprime_to=st.sampled_from([None, 2, 7, 11, 13]))
def test_count_equation_box_matches_euclid_loop(N, coprime_to):
    assert count_equation_box(N, coprime_to) == _euclid_loop(N, coprime_to)


def test_count_equation_box_past_int64_products():
    # from N = 2.7e6 the product (m^2 - n^2) 2mn c of the legs can pass 2^63
    assert count_equation_box(4 * 10**6, 7) == _euclid_loop(4 * 10**6, 7)
    # a prime past int64 divides no leg
    for N in (0, 5, 1000, 10**5):
        assert count_equation_box(N, 2**89 - 1) == count_equation_box(N) == _euclid_loop(N)


def test_count_pythagorean_memory_bound():
    # the lattice count holds its rows, about sqrt(N w) log N in all, in a few
    # int64 arrays at once: a traced peak of 2.6 MiB at PYTH_MAX_N
    tracemalloc.start()
    try:
        count_pythagorean(PYTH_MAX_N)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def _r2_brute(m):
    count = 0
    a = 0
    while a * a <= m:
        b2 = m - a * a
        b = math.isqrt(b2)
        if b * b == b2:
            for aa in ({a, -a} if a else {0}):
                for bb in ({b, -b} if b else {0}):
                    count += 1
        a += 1
    return count


def _pyth_brute(N):
    count = 0
    for x3 in range(-N, N + 1):
        for x1 in range(-N, N + 1):
            b2 = x3 * x3 - x1 * x1
            if b2 < 0:
                continue
            b = math.isqrt(b2)
            if b * b == b2:
                count += 1 if b == 0 else 2
    return count


def test_count_pythagorean_examples():
    assert count_pythagorean(0) == 1
    assert count_pythagorean(5) == 57


def test_count_pythagorean_brute_oracle():
    # 25, 125, 169 and 289 are prime powers: the hypotenuse of a primitive
    # triple and of multiples of smaller ones
    for N in (0, 1, 2, 3, 5, 17, 25, 100, 125, 169, 289, 345, 500):
        assert count_pythagorean(N) == _pyth_brute(N), N


def test_count_pythagorean_is_r2_prefix_sum():
    # _r2_brute counts the points on each circle and shares no code with the count
    total = 1
    for N in range(0, 2001):
        if N:
            total += 2 * _r2_brute(N * N)
        assert count_pythagorean(N) == total, N


def test_count_pythagorean_pinned_values():
    # the values of the earlier sieve over the primes 1 mod 4
    assert count_pythagorean(10**4) == 279537
    assert count_pythagorean(10**6) == 39690273
    assert count_pythagorean(PYTH_MAX_N) == 455543601


def test_pythagorean_walk_gates():
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="walk bound"):
        count_pythagorean(PYTH_MAX_N + 1)
    with pytest.raises(TooLarge, match="walk bound"):
        count_equation_box(10**12)
    assert time.perf_counter() - start < 0.1  # the walk to PYTH_MAX_N takes about 0.12 s
    for bad in (count_pythagorean, count_equation_box):
        with pytest.raises(ValueError, match="nonnegative"):
            bad(-1)
    for not_prime in (1, 15, 49):
        with pytest.raises(ValueError, match="must be a prime"):
            count_equation_box(100, coprime_to=not_prime)


@settings(max_examples=40, deadline=None)
@given(N=st.integers(0, 3 * 10**5))
@example(N=0)
@example(N=3 * 10**5)
def test_count_pythagorean_matches_walk(N):
    assert count_pythagorean(N) == 1 + 8 * N + count_equation_box(N)


def test_count_pythagorean_matches_walk_up_to_the_split_floor():
    # up to SPLIT_MIN the split u is N itself and the table alone counts;
    # N <= 5 holds the empty sums and the first hypotenuse
    assert _hyperbola_split(SPLIT_MIN + 1) == SPLIT_MIN
    for N in range(0, SPLIT_MIN + 3):
        assert _hyperbola_split(N) == max(1, min(N, SPLIT_MIN))
        assert count_pythagorean(N) == 1 + 8 * N + count_equation_box(N), N


def test_count_pythagorean_at_the_split_steps():
    # u depends on the integer cube root t of N alone, so it steps at the
    # cubes; w = N // (u + 1) steps at the multiples of u + 1 in between
    steps = set()
    for t in range(16, 61):
        u = _hyperbola_split(t**3)
        assert _hyperbola_split((t + 1) ** 3 - 1) == u
        steps.add(t**3)
        steps.update(range(t**3 + -(t**3) % (u + 1), (t + 1) ** 3, u + 1))
    steps = {N + e for N in steps for e in (-1, 0, 1)}
    for N in sorted(steps):
        assert count_pythagorean(N) == 1 + 8 * N + count_equation_box(N), N


def test_count_pythagorean_uses_no_gcd_and_no_walk(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("count_pythagorean must not call this")

    monkeypatch.setattr(counting, "count_equation_box", refuse)
    monkeypatch.setattr(np, "gcd", refuse)
    assert count_pythagorean(5) == 57
    assert count_pythagorean(10**4) == 279537
    assert count_pythagorean(10**6) == 39690273


def test_count_pythagorean_monotone():
    values = [count_pythagorean(N) for N in range(0, 120, 7)]
    assert values == sorted(values)


def test_count_pythagorean_axis_decomposition():
    # total = origin + 8N axis triples + nondegenerate equation count
    for N in (5, 20, 60):
        assert count_pythagorean(N) == 1 + 8 * N + count_equation_box(N)


def test_dual_triple_count_examples():
    assert dual_triple_count(5, 10**6) == 56  # pythagorean(5) minus the origin
    assert dual_triple_count(5, 10**6) == count_pythagorean(5) - 1
    assert dual_triple_count(0, 7) == 0
    # congruence solutions strictly exceed equation solutions for small moduli
    assert dual_triple_count(3, 7) > count_pythagorean(3) - 1


def test_exact_counters_refuse_negative_sizes():
    with pytest.raises(ValueError, match="nonnegative"):
        count_box_exact(PrimePowerModulus(7, 2), -1)
    with pytest.raises(ValueError, match="nonnegative"):
        dual_triple_count(-1, 7)
    with pytest.raises(ValueError, match="positive"):
        dual_triple_count(3, 0)


def _dual_brute(L, mod):
    total = 0
    for l1 in range(-L, L + 1):
        for l2 in range(-L, L + 1):
            for l3 in range(-L, L + 1):
                if (l1, l2, l3) == (0, 0, 0):
                    continue
                if (l1 * l1 + l2 * l2 - l3 * l3) % mod == 0:
                    total += 1
    return total


@pytest.mark.parametrize(
    "L,mod", [(3, 7), (4, 49), (5, 25), (6, 11), (2, 1), (5, 51), (3, 19)]
)
def test_dual_triple_count_brute(L, mod):
    # (5, 51) and (3, 19) exercise the equation shortcut: modulus > 2 L^2
    assert dual_triple_count(L, mod) == _dual_brute(L, mod)


def test_dual_triple_count_gate():
    with pytest.raises(TooLarge):
        dual_triple_count(10**4 + 1, 7)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="bucket-table bound"):
            dual_triple_count(10**4, 2 * 10**8)  # modulus = 2 L^2: the table path
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # a class table mod 2 * 10^8 would be 800 MB
