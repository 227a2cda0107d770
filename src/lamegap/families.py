"""Construction of the auxiliary field families on the neck.

For each rigid-motion index alpha the family {v^1, ..., v^m} is built so that
level 1 matches the boundary data (psi_alpha on top, 0 on bottom), every
higher level vanishes on both boundaries, and the partial residuals
f^l = sum_{j<=l} L v^j gain one power of delta per level.  Two independent
routes are provided:

* the Green-integral route: each level solves the two-point normal ODEs by
  :func:`lamegap.neck.green_solve` against the previous residual;
* the closed-form recursion route (2D alpha in {1,2}; 3D alpha in {1,2,3}):
  coefficient tables advanced by the tangential/normal recursions, with the
  printed seed coefficients.

Component ordering per alpha: translation indices along a tangential axis
extend tangential components first (the normal component is slaved); normal
translations and the in-plane 3D rotation extend the normal component
first.  Axis-mixing rotations (2D alpha=3; 3D alpha in {5,6}) extend
tangentially first and use a restricted level-2 cancellation target, which
keeps the normal-degree caps intact (full cancellation at level 2 would
grow the z-degree without bound).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .coeffs import LAM, MU, ONE, RationalCoeff, parse
from .neck import DimConfig, NeckField, NeckScalar, green_solve

__all__ = [
    "AuxFamily",
    "FactorProfile",
    "FamilyError",
    "alpha_range",
    "build_family",
    "construction_order",
    "extend_integral",
    "lame_apply",
    "rigid_basis",
    "seed_level1",
    "uses_level2_split",
]

LAM_P_MU = LAM + MU
LAM_P_2MU = LAM + MU + MU


class FamilyError(ValueError):
    """Invalid family construction request."""


# ---------------------------------------------------------------------------
# Rigid basis and the Lame operator
# ---------------------------------------------------------------------------


def alpha_range(dim: DimConfig) -> range:
    return range(1, dim.d * (dim.d + 1) // 2 + 1)


def rigid_basis(dim: DimConfig) -> list[NeckField]:
    """Rigid displacements psi_1..psi_{d(d+1)/2} as neck fields.

    The normal coordinate z plays the role of x_d.  Order: translations
    e_1..e_d, then rotations; in 3D these are x2 e1 - x1 e2, x3 e1 - x1 e3,
    x3 e2 - x2 e3.
    """
    zero = NeckScalar.zero(dim)
    one = NeckScalar.one(dim)
    x = [NeckScalar.term(dim, ONE, p=tuple(1 if j == i else 0 for j in range(dim.n_tangential)))
         for i in range(dim.n_tangential)]
    z = NeckScalar.term(dim, ONE, q=1)
    if dim.d == 2:
        return [
            NeckField([one, zero]),
            NeckField([zero, one]),
            NeckField([z, -x[0]]),
        ]
    return [
        NeckField([one, zero, zero]),
        NeckField([zero, one, zero]),
        NeckField([zero, zero, one]),
        NeckField([x[1], -x[0], zero]),
        NeckField([z, zero, -x[0]]),
        NeckField([zero, z, -x[1]]),
    ]


def lame_apply(u: NeckField) -> NeckField:
    """Exact symbolic Lame operator: (Lu)^(i) = mu Lap u^(i) + (lam+mu) d_i(div u)."""
    dim = u.dim
    axes = dim.axes
    div = NeckScalar.zero(dim)
    for j, comp in enumerate(u.components):
        div = div + comp.diff(axes[j])
    out = []
    for i, comp in enumerate(u.components):
        lap = NeckScalar.zero(dim)
        for ax in axes:
            lap = lap + comp.diff(ax).diff(ax)
        out.append(lap.scale(MU) + div.diff(axes[i]).scale(LAM_P_MU))
    return NeckField(out)


# ---------------------------------------------------------------------------
# Construction table
# ---------------------------------------------------------------------------


def construction_order(dim: DimConfig, alpha: int) -> str:
    """'tangential_first' or 'normal_first' for the integral route."""
    if alpha not in alpha_range(dim):
        raise FamilyError(f"alpha={alpha} invalid for d={dim.d}")
    if dim.d == 2:
        return {1: "tangential_first", 2: "normal_first", 3: "tangential_first"}[alpha]
    return {
        1: "tangential_first",
        2: "tangential_first",
        3: "normal_first",
        4: "normal_first",
        5: "tangential_first",
        6: "tangential_first",
    }[alpha]


def uses_level2_split(dim: DimConfig, alpha: int) -> bool:
    """Axis-mixing rotations cancel only the z-derivative part at level 2."""
    return (dim.d == 2 and alpha == 3) or (dim.d == 3 and alpha in (5, 6))


def _is_rotation(dim: DimConfig, alpha: int) -> bool:
    return alpha > dim.d


@dataclass(frozen=True)
class FactorProfile:
    """Recursion factors for the 2D closed forms.

    (c1, c2) drive the tangential-coefficient recursion, (c3, c4) the
    normal-coefficient recursion; alpha=2 swaps the two pairs.
    """

    c1: RationalCoeff
    c2: RationalCoeff
    c3: RationalCoeff
    c4: RationalCoeff

    @classmethod
    def for_alpha(cls, alpha: int) -> "FactorProfile":
        lpm_over_mu = LAM_P_MU / MU
        lp2m_over_mu = LAM_P_2MU / MU
        lpm_over_lp2m = LAM_P_MU / LAM_P_2MU
        mu_over_lp2m = MU / LAM_P_2MU
        if alpha == 1:
            return cls(lpm_over_mu, lp2m_over_mu, lpm_over_lp2m, mu_over_lp2m)
        if alpha == 2:
            return cls(lpm_over_lp2m, mu_over_lp2m, lpm_over_mu, lp2m_over_mu)
        raise FamilyError("2D recursion factors exist only for alpha in {1, 2}")


# ---------------------------------------------------------------------------
# Auxiliary family container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuxFamily:
    """Levels v^1..v^m with cached partial residuals f^l = sum_{j<=l} L v^j."""

    dim: DimConfig
    alpha: int
    route: str
    levels: tuple[NeckField, ...]
    residuals: tuple[NeckField, ...]

    @property
    def depth(self) -> int:
        return len(self.levels)

    def v(self, l: int) -> NeckField:
        if not 1 <= l <= self.depth:
            raise FamilyError(f"level {l} not built (depth {self.depth})")
        return self.levels[l - 1]

    def f(self, l: int) -> NeckField:
        if not 1 <= l <= self.depth:
            raise FamilyError(f"residual {l} not built (depth {self.depth})")
        return self.residuals[l - 1]

    def partial_sum(self, m: int | None = None) -> NeckField:
        m = self.depth if m is None else m
        acc = NeckField.zero(self.dim)
        for l in range(1, m + 1):
            acc = acc + self.v(l)
        return acc

    def _with_level(self, v_new: NeckField) -> "AuxFamily":
        f_prev = self.residuals[-1] if self.residuals else NeckField.zero(self.dim)
        f_new = f_prev + lame_apply(v_new)
        return AuxFamily(
            self.dim,
            self.alpha,
            self.route,
            self.levels + (v_new,),
            self.residuals + (f_new,),
        )

    def coefficient_stats(self) -> dict:
        """Size telemetry: term counts and the largest integer bit length."""
        terms = 0
        bits = 0
        for fld in self.levels + self.residuals:
            for comp in fld.components:
                terms += len(comp)
                for coeff in comp.terms.values():
                    for poly in (coeff.num, coeff.den):
                        for c in poly.terms.values():
                            bits = max(bits, abs(c).bit_length())
        return {"terms": terms, "max_coeff_bits": bits}

    def to_json_obj(self) -> dict:
        return {
            "dim": self.dim.d,
            "alpha": self.alpha,
            "route": self.route,
            "depth": self.depth,
            "stats": self.coefficient_stats(),
            "levels": [v.to_json_obj() for v in self.levels],
            "residuals": [f.to_json_obj() for f in self.residuals],
            "rendered": [[c.render() for c in v.components] for v in self.levels],
        }


# ---------------------------------------------------------------------------
# Integral (Green-function) route
# ---------------------------------------------------------------------------


def _profile(dim: DimConfig) -> NeckScalar:
    """Cut-off profile (z + delta/2)/delta = z/delta + 1/2."""
    return NeckScalar.term(dim, ONE, q=1, r=1) + NeckScalar.constant(dim, Fraction(1, 2))


def seed_level1(dim: DimConfig, alpha: int) -> NeckField:
    """Level-1 field: boundary data psi_alpha on top, 0 on bottom.

    Translations get the slaved-component corrector from the level-1
    cancellation ODE; rotations are the plain profile times psi_alpha.
    """
    if alpha not in alpha_range(dim):
        raise FamilyError(f"alpha={alpha} invalid for d={dim.d}")
    prof = _profile(dim)
    axes = dim.axes
    d = dim.d
    if _is_rotation(dim, alpha):
        psi = rigid_basis(dim)[alpha - 1]
        return NeckField([prof * c for c in psi.components])
    comps = [NeckScalar.zero(dim) for _ in range(d)]
    comps[alpha - 1] = prof
    if alpha <= dim.n_tangential:
        # tangential translation: normal component solves
        # (lam+2mu) w_zz = -(lam+mu) d_{x_alpha z} profile
        rhs = prof.diff(axes[alpha - 1]).diff("z").scale(-(LAM_P_MU / LAM_P_2MU))
        comps[d - 1] = green_solve(rhs)
    else:
        # normal translation: each tangential component solves
        # mu w_zz = -(lam+mu) d_{x_i z} profile
        for i in range(dim.n_tangential):
            rhs = prof.diff(axes[i]).diff("z").scale(-(LAM_P_MU / MU))
            comps[i] = green_solve(rhs)
    return NeckField(comps)


def level2_split_targets(fam: AuxFamily) -> list[NeckScalar]:
    """Restricted tangential cancellation targets at level 2.

    For axis-mixing rotations only the z-derivative part of L v^1 is
    cancelled tangentially: mu d_zz v^{1,(i)} + (lam+mu) d_{x_i z} v^{1,(d)};
    the remaining purely tangential second derivatives stay in f^2.
    """
    dim = fam.dim
    v1 = fam.v(1)
    axes = dim.axes
    out = []
    for i in range(dim.n_tangential):
        t = v1[i].diff("z").diff("z").scale(MU) + v1[dim.d - 1].diff(axes[i]).diff(
            "z"
        ).scale(LAM_P_MU)
        out.append(t)
    return out


def extend_integral(fam: AuxFamily) -> AuxFamily:
    """Append one level via the Green-function route."""
    if fam.depth < 1:
        raise FamilyError("level 1 missing; build it with seed_level1")
    dim = fam.dim
    d = dim.d
    axes = dim.axes
    l_new = fam.depth + 1
    f_prev = fam.f(fam.depth)
    order = construction_order(dim, fam.alpha)
    split = uses_level2_split(dim, fam.alpha) and l_new == 2
    comps: list[NeckScalar] = [NeckScalar.zero(dim)] * d
    if order == "tangential_first":
        split_targets = level2_split_targets(fam) if split else None
        for i in range(dim.n_tangential):
            target = split_targets[i] if split_targets is not None else f_prev[i]
            comps[i] = green_solve(target.scale(-(ONE / MU)))
        slave = NeckScalar.zero(dim)
        for i in range(dim.n_tangential):
            slave = slave + comps[i].diff(axes[i]).diff("z")
        target_d = f_prev[d - 1] + slave.scale(LAM_P_MU)
        comps[d - 1] = green_solve(target_d.scale(-(ONE / LAM_P_2MU)))
    else:
        comps[d - 1] = green_solve(f_prev[d - 1].scale(-(ONE / LAM_P_2MU)))
        for i in range(dim.n_tangential):
            target = f_prev[i] + comps[d - 1].diff(axes[i]).diff("z").scale(LAM_P_MU)
            comps[i] = green_solve(target.scale(-(ONE / MU)))
    return fam._with_level(NeckField(comps))


# ---------------------------------------------------------------------------
# Closed-form recursion route
# ---------------------------------------------------------------------------


def _x(dim: DimConfig, i: int, e: int = 1) -> NeckScalar:
    p = tuple(e if j == i else 0 for j in range(dim.n_tangential))
    return NeckScalar.term(dim, ONE, p=p)


def _seed_P12(dim: DimConfig, alpha: int) -> NeckScalar:
    """Printed level-1 slaved coefficient (lam+mu)/(denominator) x_i/delta^2."""
    if dim.d == 2:
        factor = {1: LAM_P_MU / LAM_P_2MU, 2: LAM_P_MU / MU}[alpha]
        return _x(dim, 0).scale(factor).mul_delta(-2)
    factor = LAM_P_MU / LAM_P_2MU
    return _x(dim, alpha - 1).scale(factor).mul_delta(-2)


def _seed_P21_2d(dim: DimConfig, alpha: int) -> NeckScalar:
    eps = NeckScalar.term(dim, ONE, s=1)
    x1sq = _x(dim, 0, 2)
    if alpha == 1:
        c = (parse("2*l + 3*m") / parse("3*(l + 2*m)"))
        return (eps - x1sq.scale(3)).scale(c).mul_delta(-3)
    c = LAM / (MU.scale(3))
    return (x1sq.scale(3) - eps).scale(c).mul_delta(-3)


def _seed_P21_3d_translation(dim: DimConfig, alpha: int) -> NeckScalar:
    # (1/(3 delta^3)) [ (2l+3m)/(l+2m) (delta - 4 x_a^2) + (delta - 4 x_b^2) ]
    beta = 2 if alpha == 1 else 1
    delta_num = NeckScalar.one(dim).mul_delta(1)
    ca = parse("(2*l + 3*m) / (l + 2*m)")
    part_a = (delta_num - _x(dim, alpha - 1, 2).scale(4)).scale(ca)
    part_b = delta_num - _x(dim, beta - 1, 2).scale(4)
    return (part_a + part_b).scale(Fraction(1, 3)).mul_delta(-3)


def _seed_Q21_3d_translation(dim: DimConfig) -> NeckScalar:
    c = parse("-4*(l + m) / (3*(l + 2*m))")
    return (_x(dim, 0) * _x(dim, 1)).scale(c).mul_delta(-3)


def _seed_P21_3d_normal(dim: DimConfig) -> NeckScalar:
    # ODE-forced value -(2 lam/(3 mu)) (eps - |x'|^2)/delta^3; see the
    # level-2 normal equation (lam+2mu) w_zz = -f^{1,(3)}.
    eps = NeckScalar.term(dim, ONE, s=1)
    xsq = _x(dim, 0, 2) + _x(dim, 1, 2)
    c = (LAM.scale(-2)) / (MU.scale(3))
    return (eps - xsq).scale(c).mul_delta(-3)


class _Tables:
    """Coefficient tables keyed by (level, i) with the zero convention."""

    def __init__(self, dim: DimConfig):
        self.dim = dim
        self.data: dict[tuple[int, int], NeckScalar] = {}

    def get(self, l: int, i: int) -> NeckScalar:
        return self.data.get((l, i), NeckScalar.zero(self.dim))

    def set(self, l: int, i: int, value: NeckScalar) -> None:
        self.data[(l, i)] = value

    def tilde(self, l: int, i: int) -> NeckScalar:
        # P~_{l,i} = P_{l,i} - (delta^2/4) P_{l,i-1}
        return self.get(l, i) - self.get(l, i - 1).mul_delta(2).scale(Fraction(1, 4))


def _a(l: int, i: int) -> int:
    return 2 * (l - i) - 1


def _ansatz_sum(table: _Tables, l: int, powers: Callable[[int], int], imax: int) -> NeckScalar:
    """sum_i P_{l,i} z^{powers(i)} (z^2 - delta^2/4)."""
    dim = table.dim
    acc = NeckScalar.zero(dim)
    for i in range(1, imax + 1):
        coeff = table.get(l, i)
        if coeff.is_zero():
            continue
        zp = powers(i)
        acc = acc + coeff.mul_z(zp + 2) - coeff.mul_delta(2).scale(Fraction(1, 4)).mul_z(zp)
    return acc


def _recursion_2d(dim: DimConfig, alpha: int, depth: int) -> list[NeckField]:
    prof = FactorProfile.for_alpha(alpha)
    p1, p2 = _Tables(dim), _Tables(dim)
    p2.set(1, 1, _seed_P12(dim, alpha))
    d1 = dim.axes[0]

    def dx(s: NeckScalar) -> NeckScalar:
        return s.diff(d1)

    for l in range(2, depth + 1):
        # tangential table P1: seed at l=2, recursion above
        if l == 2:
            p1.set(2, 1, _seed_P21_2d(dim, alpha))
        else:
            for i in range(0, l - 1):
                a = _a(l, i)
                lead = p1.get(l, i).mul_delta(2).scale(Fraction(1, 4))
                bracket = dx(p2.tilde(l - 1, i + 1)).scale(prof.c1).scale(a - 1) + dx(
                    dx(p1.tilde(l - 1, i + 1))
                ).scale(prof.c2)
                p1.set(l, i + 1, lead - bracket.scale(Fraction(1, (a - 1) * a)))
        # normal table P2
        for i in range(0, l):
            a = _a(l, i)
            lead = p2.get(l, i).mul_delta(2).scale(Fraction(1, 4))
            bracket = dx(p1.tilde(l, i + 1)).scale(prof.c3).scale(a) + dx(
                dx(p2.tilde(l - 1, i + 1))
            ).scale(prof.c4)
            p2.set(l, i + 1, lead - bracket.scale(Fraction(1, a * (a + 1))))

    fields = []
    prof_scalar = _profile(dim)
    corr = _ansatz_sum(p2, 1, lambda i: 0, 1)
    if alpha == 1:
        fields.append(NeckField([prof_scalar, corr]))
    else:
        fields.append(NeckField([corr, prof_scalar]))
    for l in range(2, depth + 1):
        odd = _ansatz_sum(p1, l, lambda i: 2 * l - 2 * i - 1, l - 1)
        even = _ansatz_sum(p2, l, lambda i: 2 * l - 2 * i, l)
        if alpha == 1:
            fields.append(NeckField([odd, even]))
        else:
            fields.append(NeckField([even, odd]))
    return fields


def _recursion_3d_translation(dim: DimConfig, alpha: int, depth: int) -> list[NeckField]:
    ia, ib = alpha - 1, 2 - alpha  # tangential indices of alpha and beta
    xa, xb = dim.axes[ia], dim.axes[ib]
    p1, q1, p2 = _Tables(dim), _Tables(dim), _Tables(dim)
    p2.set(1, 1, _seed_P12(dim, alpha))

    for l in range(2, depth + 1):
        if l == 2:
            p1.set(2, 1, _seed_P21_3d_translation(dim, alpha))
            q1.set(2, 1, _seed_Q21_3d_translation(dim))
        else:
            for i in range(0, l - 1):
                a = _a(l, i)
                inv = ONE / (MU.scale(a * (a - 1)))
                pt = p1.tilde(l - 1, i + 1)
                qt = q1.tilde(l - 1, i + 1)
                st = p2.tilde(l - 1, i + 1)
                br_p = (
                    st.diff(xa).scale(LAM_P_MU).scale(a - 1)
                    + pt.diff(xb).diff(xb).scale(MU)
                    + pt.diff(xa).diff(xa).scale(LAM_P_2MU)
                    + qt.diff("x1").diff("x2").scale(LAM_P_MU)
                )
                br_q = (
                    st.diff(xb).scale(LAM_P_MU).scale(a - 1)
                    + qt.diff(xa).diff(xa).scale(MU)
                    + qt.diff(xb).diff(xb).scale(LAM_P_2MU)
                    + pt.diff("x1").diff("x2").scale(LAM_P_MU)
                )
                p1.set(l, i + 1, p1.get(l, i).mul_delta(2).scale(Fraction(1, 4)) - br_p.scale(inv))
                q1.set(l, i + 1, q1.get(l, i).mul_delta(2).scale(Fraction(1, 4)) - br_q.scale(inv))
        for i in range(0, l):
            a = _a(l, i)
            inv = ONE / (LAM_P_2MU.scale(a * (a + 1)))
            st = p2.tilde(l - 1, i + 1)
            lap = st.diff("x1").diff("x1") + st.diff("x2").diff("x2")
            bracket = (
                p1.tilde(l, i + 1).diff(xa) + q1.tilde(l, i + 1).diff(xb)
            ).scale(LAM_P_MU).scale(a) + lap.scale(MU)
            p2.set(l, i + 1, p2.get(l, i).mul_delta(2).scale(Fraction(1, 4)) - bracket.scale(inv))

    zero = NeckScalar.zero(dim)
    prof_scalar = _profile(dim)
    fields = []
    corr = _ansatz_sum(p2, 1, lambda i: 0, 1)
    comps1 = [zero, zero, corr]
    comps1[ia] = prof_scalar
    fields.append(NeckField(comps1))
    for l in range(2, depth + 1):
        odd_p = _ansatz_sum(p1, l, lambda i: 2 * l - 1 - 2 * i, l - 1)
        odd_q = _ansatz_sum(q1, l, lambda i: 2 * l - 1 - 2 * i, l - 1)
        even = _ansatz_sum(p2, l, lambda i: 2 * l - 2 * i, l)
        comps = [zero, zero, even]
        comps[ia] = odd_p
        comps[ib] = odd_q
        fields.append(NeckField(comps))
    return fields


def _recursion_3d_normal(dim: DimConfig, depth: int) -> list[NeckField]:
    p1, p2, q2 = _Tables(dim), _Tables(dim), _Tables(dim)
    c = LAM_P_MU / MU
    p2.set(1, 1, _x(dim, 0).scale(c).mul_delta(-2))
    q2.set(1, 1, _x(dim, 1).scale(c).mul_delta(-2))

    for l in range(2, depth + 1):
        if l == 2:
            p1.set(2, 1, _seed_P21_3d_normal(dim))
        else:
            for i in range(0, l - 1):
                a = _a(l, i)
                inv = ONE / (LAM_P_2MU.scale(a * (a - 1)))
                pt = p1.tilde(l - 1, i + 1)
                lap = pt.diff("x1").diff("x1") + pt.diff("x2").diff("x2")
                bracket = (
                    p2.tilde(l - 1, i + 1).diff("x1") + q2.tilde(l - 1, i + 1).diff("x2")
                ).scale(LAM_P_MU).scale(a - 1) + lap.scale(MU)
                p1.set(l, i + 1, p1.get(l, i).mul_delta(2).scale(Fraction(1, 4)) - bracket.scale(inv))
        for i in range(0, l):
            a = _a(l, i)
            inv = ONE / (MU.scale(a * (a + 1)))
            st, qt = p2.tilde(l - 1, i + 1), q2.tilde(l - 1, i + 1)
            br_p = (
                p1.tilde(l, i + 1).diff("x1").scale(LAM_P_MU).scale(a)
                + st.diff("x1").diff("x1").scale(LAM_P_2MU)
                + qt.diff("x1").diff("x2").scale(LAM_P_MU)
                + st.diff("x2").diff("x2").scale(MU)
            )
            br_q = (
                p1.tilde(l, i + 1).diff("x2").scale(LAM_P_MU).scale(a)
                + qt.diff("x2").diff("x2").scale(LAM_P_2MU)
                + st.diff("x1").diff("x2").scale(LAM_P_MU)
                + qt.diff("x1").diff("x1").scale(MU)
            )
            p2.set(l, i + 1, p2.get(l, i).mul_delta(2).scale(Fraction(1, 4)) - br_p.scale(inv))
            q2.set(l, i + 1, q2.get(l, i).mul_delta(2).scale(Fraction(1, 4)) - br_q.scale(inv))

    zero = NeckScalar.zero(dim)
    fields = [NeckField([
        _ansatz_sum(p2, 1, lambda i: 0, 1),
        _ansatz_sum(q2, 1, lambda i: 0, 1),
        _profile(dim),
    ])]
    for l in range(2, depth + 1):
        odd = _ansatz_sum(p1, l, lambda i: 2 * l - 1 - 2 * i, l - 1)
        even_p = _ansatz_sum(p2, l, lambda i: 2 * l - 2 * i, l)
        even_q = _ansatz_sum(q2, l, lambda i: 2 * l - 2 * i, l)
        fields.append(NeckField([even_p, even_q, odd]))
    return fields


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


MAX_DEPTH = 6


def build_family(
    dim: DimConfig, alpha: int, depth: int, route: str = "integral"
) -> AuxFamily:
    """Build the auxiliary family to the requested depth.

    route='integral' works for every alpha; route='recursion' implements the
    closed forms and exists for 2D alpha in {1,2} and 3D alpha in {1,2,3}.
    Output size grows combinatorially with depth, so depth is capped at
    MAX_DEPTH (coefficient_stats reports the growth).
    """
    if not 1 <= depth <= MAX_DEPTH:
        raise FamilyError(f"depth must be in 1..{MAX_DEPTH}, got {depth}")
    if alpha not in alpha_range(dim):
        raise FamilyError(f"alpha={alpha} invalid for d={dim.d}")
    if route == "integral":
        fam = AuxFamily(dim, alpha, route, (), ())._with_level(seed_level1(dim, alpha))
        for _ in range(depth - 1):
            fam = extend_integral(fam)
        return fam
    if route != "recursion":
        raise FamilyError(f"unknown route {route!r}")
    if dim.d == 2:
        if alpha == 3:
            raise FamilyError("no 2D recursion for the rotation; use the integral route")
        fields = _recursion_2d(dim, alpha, depth)
    else:
        if alpha in (4, 5, 6):
            raise FamilyError("no 3D recursion for rotations; use the integral route")
        if alpha in (1, 2):
            fields = _recursion_3d_translation(dim, alpha, depth)
        else:
            fields = _recursion_3d_normal(dim, depth)
    fam = AuxFamily(dim, alpha, route, (), ())
    for v in fields:
        fam = fam._with_level(v)
    return fam

