import math
import tracemalloc

import numpy as np
import pytest

from pythmod.errors import TooLarge
from pythmod.weights import gaussian, poisson_check


def test_gaussian_basics():
    w = gaussian(1.0)
    assert w.value(0.0) == 1.0
    assert w.fourier(0.0) == 1.0
    assert gaussian(2.0).fourier(0.0) == 2.0
    for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            gaussian(bad)


def test_gaussian_self_dual():
    w = gaussian(1.0)
    for x in (0.0, 0.3, 1.7, 2.5):
        assert w.value(x) == pytest.approx(w.fourier(x), abs=1e-15)


def test_truncation_radius():
    w = gaussian(1.0)
    r = w.truncation_radius(1e-12)
    assert r <= 3.0  # e^{-9 pi} = 5.2e-13 so radius 3 suffices
    assert w.value(r) == pytest.approx(1e-12, rel=1e-9)
    assert w.value(r + 0.1) < 1e-12
    assert gaussian(2.0).truncation_radius(1e-12) == pytest.approx(2 * r)


def test_nonnegative_on_dense_grid():
    w = gaussian(0.7)
    xs = np.linspace(-40, 40, 4001)
    assert np.all(w.value(xs) >= 0)


def test_poisson_identity_values():
    chk = poisson_check(gaussian(1.0))
    assert chk.lhs == pytest.approx(1.086434811213308, abs=1e-14)
    assert chk.rhs == pytest.approx(1.086434811213308, abs=1e-14)
    assert chk.diff <= 1e-12
    chk2 = poisson_check(gaussian(2.0))
    assert chk2.lhs == pytest.approx(2.000013949369424, abs=1e-13)
    assert chk2.diff <= 1e-12


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 5.0])
def test_poisson_residual_small(s):
    assert poisson_check(gaussian(s)).diff <= 1e-12


def test_poisson_duality_half_vs_two():
    # value sums of scale 1/2 equal half the dual sums of scale 2
    assert poisson_check(gaussian(0.5)).lhs == pytest.approx(
        poisson_check(gaussian(2.0)).rhs / 2, abs=1e-13
    )


def test_weight_sums_gate_before_allocating():
    tracemalloc.start()
    try:
        # the value series of scale 1e8 has about 6.6e8 terms, the Fourier
        # series of scale 1e-8 about 1.9e9
        with pytest.raises(TooLarge, match="value series"):
            poisson_check(gaussian(1e8))
        with pytest.raises(TooLarge, match="Fourier series"):
            poisson_check(gaussian(1e-8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
