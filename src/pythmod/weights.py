"""Gaussian weight functions with exact Fourier transforms.

Only analytically transformable weights are provided: the smoothing and
its dual must be known in closed form so that identity checks carry no
quadrature error. A sharp box indicator is deliberately not a weight;
exact box counting is a separate integer path in the counting module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from typing import NamedTuple

import numpy as np

from .errors import TooLarge

BOX_MAX_POINTS = 10**6  # points per axis of a box, or terms of a weight sum
SERIES_TOL = 1e-15  # where poisson_check truncates each series


def _box_radius(extent: float, what: str = "box") -> int:
    """floor(extent), once the integers |x| <= extent are known to number at
    most BOX_MAX_POINTS; raises TooLarge before any loop or allocation."""
    C = math.floor(min(extent, BOX_MAX_POINTS))
    if 2 * C + 1 > BOX_MAX_POINTS:
        raise TooLarge(
            # as Decimal: '.6g' would convert an int to float, which overflows past 1.8e308
            f"{what} |x| <= {Decimal(extent):.6g} has about {Decimal(2 * extent + 1):.6g} "
            f"points per axis, above {BOX_MAX_POINTS}"
        )
    return C


@dataclass(frozen=True)
class WeightSpec:
    """Scaled Gaussian weight: value(x) = exp(-pi (x/s)^2).

    Its Fourier transform is s * exp(-pi s^2 xi^2), so the total mass
    fourier(0) equals the scale s.
    """

    scale: float

    def value(self, x):
        u = np.asarray(x, dtype=float) / self.scale
        out = np.exp(-math.pi * u * u)
        return float(out) if out.ndim == 0 else out

    def fourier(self, xi):
        u = np.asarray(xi, dtype=float) * self.scale
        out = self.scale * np.exp(-math.pi * u * u)
        return float(out) if out.ndim == 0 else out

    def truncation_radius(self, tol: float) -> float:
        """Smallest R with value(x) <= tol for all |x| > R."""
        return self.scale * math.sqrt(math.log(1.0 / tol) / math.pi)

    def fourier_truncation_radius(self, tol: float) -> float:
        """Smallest R with fourier(xi) <= tol for all |xi| > R."""
        if self.scale <= tol:
            raise ValueError(f"scale {self.scale:g} is not above the series tolerance {tol:g}")
        return math.sqrt(math.log(self.scale / tol) / math.pi) / self.scale


def gaussian(s: float) -> WeightSpec:
    """Gaussian weight of finite scale s > 0; s = 1 is the self-dual case."""
    if not (math.isfinite(s) and s > 0):
        raise ValueError(f"scale {s} must be finite and positive")
    return WeightSpec(float(s))


class PoissonCheck(NamedTuple):
    lhs: float
    rhs: float
    diff: float


def poisson_check(w: WeightSpec) -> PoissonCheck:
    """Numerically compare sum value(k) against sum fourier(k) over k in Z.

    Both series are truncated at the radius where the summand drops
    below SERIES_TOL; the two sides agree as an exact identity, so the
    residual is pure truncation and roundoff (contract: <= 1e-12).
    """
    # floor(R + 1) + 1 = ceil(R) + 1 terms on each side
    rv = _box_radius(w.truncation_radius(SERIES_TOL) + 1, "value series") + 1
    rf = _box_radius(w.fourier_truncation_radius(SERIES_TOL) + 1, "Fourier series") + 1
    lhs = math.fsum(w.value(k) for k in range(-rv, rv + 1))
    rhs = math.fsum(w.fourier(k) for k in range(-rf, rf + 1))
    return PoissonCheck(lhs, rhs, abs(lhs - rhs))

