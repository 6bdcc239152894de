"""Reference values the benchmark computes without calling pythmod.

Each function here recomputes one program output by a different route, so
that a check against it does not share code with the code it checks.
"""
from __future__ import annotations

import math

import numpy as np


def excluded_classes(p: int) -> int:
    """Parameter classes t mod p with t(1-t^2)(1+t^2) = 0: 3 or 5."""
    return 3 if p % 4 == 3 else 5


CUTOFF = 3.5  # the box half-width in units of N; the CLI's default


def smoothed_count_fft(p: int, q: int, N: float) -> float:
    """Gaussian-weighted count of unit x1^2 + x2^2 = x3^2 mod q in |x_i| <= CUTOFF*N.

    S[c] is the weight of the units x in the box with x^2 = c mod q; the
    count is <S * S, S> with * the cyclic convolution, taken by real FFT.
    """
    C = math.floor(CUTOFF * N)
    x = np.arange(-C, C + 1, dtype=np.int64)
    x = x[x % p != 0]
    w = np.exp(-math.pi * (x / N) ** 2)
    S = np.bincount((x * x) % q, weights=w, minlength=q)
    conv = np.fft.irfft(np.fft.rfft(S) ** 2, n=q)
    return float(np.dot(conv, S))


def main_term(p: int, q: int, N: float) -> float:
    """(p - s)(p - 1)/p^2 * N^3/q with s the excluded classes."""
    return (p - excluded_classes(p)) * (p - 1) / p**2 * N**3 / q


def primitive_hypotenuses(n_max: int) -> np.ndarray:
    """Hypotenuse m^2 + n^2 <= n_max of each primitive Pythagorean triple:
    m > n > 0 coprime and of opposite parity (Euclid's parametrisation)."""
    out = [np.zeros(0, dtype=np.int64)]
    for m in range(2, math.isqrt(n_max) + 1):
        n = np.arange(1 + m % 2, m, 2, dtype=np.int64)
        c = m * m + n * n
        out.append(c[(np.gcd(n, m) == 1) & (c <= n_max)])
    return np.concatenate(out)


def pythagorean_count(N: int, hypotenuses: np.ndarray) -> int:
    """Triples (x1, x2, x3) in Z^3 with x1^2 + x2^2 = x3^2 and |x3| <= N.

    A primitive triple with hypotenuse c <= N has N // c multiples, two
    orders of its legs and 8 sign choices; the triples on the axes add 8N
    and the origin 1.  `hypotenuses` must cover every c <= N.
    """
    c = hypotenuses[hypotenuses <= N]
    return 1 + 8 * N + 16 * int(np.sum(N // c))


def dual_count_small_modulus(L: int, modulus: int) -> int:
    """Nonzero (l1, l2, l3) in [-L, L]^3 with l1^2 + l2^2 = l3^2 mod modulus,
    as <H * H, H> for the histogram H of squares mod modulus (exact FFT)."""
    ls = np.arange(-L, L + 1, dtype=np.int64)
    H = np.bincount((ls * ls) % modulus, minlength=modulus).astype(float)
    conv = np.rint(np.fft.irfft(np.fft.rfft(H) ** 2, n=modulus))
    return int(np.dot(conv, H).round()) - 1


def _legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _canonical_root(D: int, p: int, levels: int) -> int:
    """Smaller root of x^2 = D mod p^levels: search mod p, then Newton lifts."""
    root = next(x for x in range(1, p) if (x * x - D) % p == 0)
    q = p**levels
    pk = p
    while pk < q:
        pk = min(pk * pk, q)
        root = (root - (root * root - D) * pow(2 * root, -1, pk)) % pk
    return min(root, q - root)


def lattice_circle_weight(D: int, levels: int, N: float, scale: float, p: int) -> float:
    """(2 sqrt(D) / p^levels) * sum over unit lattice points l1^2 + l2^2 = D
    of w_hat(l1 N/p^levels) w_hat(l2 N/p^levels), w_hat the Gaussian transform."""
    if D % p == 0 or _legendre(D, p) != 1:
        return 0.0
    rho = _canonical_root(D, p, levels)
    factor = _legendre(2 * rho, p) ** levels
    r = math.isqrt(D)
    l1 = np.arange(-r, r + 1, dtype=np.int64)
    rest = D - l1 * l1
    l2 = np.rint(np.sqrt(rest)).astype(np.int64)
    on = l2 * l2 == rest
    l1, l2 = l1[on], l2[on]
    pts = np.concatenate([np.stack([l1, l2], 1), np.stack([l1, -l2], 1)[l2 != 0]])
    pts = pts[(pts[:, 0] * pts[:, 1]) % p != 0]
    xi = pts * (N / p**levels) * scale
    return factor * float(np.sum(scale * scale * np.exp(-math.pi * (xi[:, 0] ** 2 + xi[:, 1] ** 2))))
