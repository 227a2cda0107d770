"""Two-disk-in-a-disk geometry for the gap problem.

The outer boundary is the circle of radius R0 about the origin; the
inclusions are disks of radii rho1 (above) and rho2 (below) separated by a
gap eps across the x1-axis, with centers on the x2-axis.  Near the origin
the inclusion boundaries are the graphs x2 = +-(eps/2 + h_i(x1)) with
h_i(x) = rho_i - sqrt(rho_i^2 - x^2) ~ x^2/(2 rho_i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class Geometry:
    eps: float
    R0: float = 3.0
    rho1: float = 1.0
    rho2: float = 1.0

    def __post_init__(self) -> None:
        for name in ("eps", "R0", "rho1", "rho2"):
            if not math.isfinite(getattr(self, name)):
                raise GeometryError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.eps <= 0:
            raise GeometryError("gap eps must be positive")
        if min(self.R0, self.rho1, self.rho2) <= 0:
            raise GeometryError("radii must be positive")
        top = self.center1[1] + self.rho1
        bottom = -self.center2[1] + self.rho2
        if max(top, bottom) >= self.R0 - 1e-9:
            raise GeometryError("inclusions must be strictly inside the outer disk")

    @property
    def center1(self) -> tuple[float, float]:
        return (0.0, self.rho1 + self.eps / 2)

    @property
    def center2(self) -> tuple[float, float]:
        return (0.0, -(self.rho2 + self.eps / 2))

    def gamma1(self, x: float) -> float:
        """Lower boundary of the top inclusion over |x| < rho1."""
        return self.center1[1] - math.sqrt(self.rho1**2 - x * x)

    def gamma2(self, x: float) -> float:
        """Upper boundary of the bottom inclusion over |x| < rho2."""
        return self.center2[1] + math.sqrt(self.rho2**2 - x * x)

    def gap(self, x: float) -> float:
        """Vertical gap width delta(x) between the two inclusion arcs."""
        return self.gamma1(x) - self.gamma2(x)

    def gap_quadratic(self, x: float) -> float:
        """The quadratic model eps + x^2 (exact for unit disks as x -> 0)."""
        return self.eps + x * x * (1 / self.rho1 + 1 / self.rho2) / 2
