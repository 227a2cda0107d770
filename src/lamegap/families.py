"""Construction of the auxiliary field families on the neck.

For each rigid-motion index alpha the family {v^1, ..., v^m} is built so that
level 1 matches the boundary data (psi_alpha on top, 0 on bottom), every
higher level vanishes on both boundaries, and the partial residuals
f^l = sum_{j<=l} L v^j gain one power of delta per level.  Two independent
routes are provided:

* the Green-integral route: each level solves the two-point normal ODEs by
  :func:`lamegap.neck.green_solve` against the previous residual;
* the closed-form recursion route (the translations alpha in 1..d): one
  table recursion for every case, driven by the split of the Lame operator
  into the alpha-own (odd) and the other (even) component class, started
  from the printed seed coefficients.

Each psi_alpha has one of four kinds (:func:`family_kind`), which sets the
construction.  A 'tangential' translation extends the tangential components
first (the normal component is slaved); the 'normal' translation and the
'in_plane' 3D rotation (alpha=4) extend the normal component first.  The
'mixing' rotations (2D alpha=3; 3D alpha in {5,6}) extend tangentially
first and use a restricted level-2 cancellation target, which keeps the
normal-degree caps intact (full cancellation at level 2 would grow the
z-degree without bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coeffs import LAM, MU, ONE, RationalCoeff, parse
from .neck import DimConfig, NeckField, NeckScalar, green_solve, lincomb

__all__ = [
    "AuxFamily",
    "FamilyError",
    "alpha_range",
    "build_family",
    "construction_order",
    "extend_integral",
    "family_kind",
    "lame_apply",
    "rigid_basis",
    "seed_level1",
    "uses_level2_split",
]

LAM_P_MU = LAM + MU
LAM_P_2MU = LAM + MU + MU
MINUS_QUARTER = RationalCoeff.from_fraction(Fraction(-1, 4))


class FamilyError(ValueError):
    """Invalid family construction request."""


# ---------------------------------------------------------------------------
# Rigid basis and the Lame operator
# ---------------------------------------------------------------------------


def alpha_range(dim: DimConfig, route: str = "integral") -> range:
    """Rigid-basis indices a route builds: all of them, or the translations."""
    if route == "recursion":
        return range(1, dim.d + 1)
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
    """Exact symbolic Lame operator: (Lu)^(i) = mu Lap u^(i) + (lam+mu) d_i(div u).

    div u is one :func:`lincomb` of first derivatives, and each component
    one :func:`lincomb` of the Laplacian's terms and d_i div u."""
    dim = u.dim
    axes = dim.axes
    div = lincomb(dim, [(uj, (axes[j],), ONE) for j, uj in enumerate(u.components)])
    out = []
    for i, comp in enumerate(u.components):
        parts = [(comp, (ax, ax), MU) for ax in axes] + [(div, (axes[i],), LAM_P_MU)]
        out.append(lincomb(dim, parts))
    return NeckField(out)


# ---------------------------------------------------------------------------
# Construction table
# ---------------------------------------------------------------------------


# The kind of each psi_alpha, in rigid_basis order.
_KINDS = {2: ("tangential", "normal", "mixing"),
          3: ("tangential", "tangential", "normal", "in_plane", "mixing", "mixing")}
ROTATIONS = ("in_plane", "mixing")


def family_kind(dim: DimConfig, alpha: int) -> str:
    """The kind of psi_alpha: a 'tangential' or 'normal' translation, the
    'in_plane' 3D rotation, or a 'mixing' rotation of a tangential axis and z."""
    if alpha not in alpha_range(dim):
        raise FamilyError(f"alpha={alpha} invalid for d={dim.d}")
    return _KINDS[dim.d][alpha - 1]


def construction_order(dim: DimConfig, alpha: int) -> str:
    """'tangential_first' or 'normal_first' for the integral route."""
    normal_first = family_kind(dim, alpha) in ("normal", "in_plane")
    return "normal_first" if normal_first else "tangential_first"


def uses_level2_split(dim: DimConfig, alpha: int) -> bool:
    """Axis-mixing rotations cancel only the z-derivative part at level 2."""
    return family_kind(dim, alpha) == "mixing"


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
    kind = family_kind(dim, alpha)
    prof = _profile(dim)
    axes = dim.axes
    d = dim.d
    if kind in ROTATIONS:
        psi = rigid_basis(dim)[alpha - 1]
        return NeckField([prof * c for c in psi.components])
    comps = [NeckScalar.zero(dim) for _ in range(d)]
    comps[alpha - 1] = prof
    if kind == "tangential":
        # tangential translation: normal component solves
        # (lam+2mu) w_zz = -(lam+mu) d_{x_alpha z} profile
        rhs = prof.diff2("z", axes[alpha - 1]).scale(-(LAM_P_MU / LAM_P_2MU))
        comps[d - 1] = green_solve(rhs)
    else:
        # normal translation: each tangential component solves
        # mu w_zz = -(lam+mu) d_{x_i z} profile
        for i in range(dim.n_tangential):
            rhs = prof.diff2("z", axes[i]).scale(-(LAM_P_MU / MU))
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
    return [
        lincomb(dim, [(v1[i], ("z", "z"), MU), (v1[dim.d - 1], ("z", dim.axes[i]), LAM_P_MU)])
        for i in range(dim.n_tangential)
    ]


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
        # (lam+2mu) w_zz = -(f^(d) + (lam+mu) sum_i d_z d_i v^(i))
        parts = [(f_prev[d - 1], None, -(ONE / LAM_P_2MU))]
        parts += [(comps[i], ("z", axes[i]), -(LAM_P_MU / LAM_P_2MU)) for i in range(d - 1)]
        comps[d - 1] = green_solve(lincomb(dim, parts))
    else:
        comps[d - 1] = green_solve(f_prev[d - 1].scale(-(ONE / LAM_P_2MU)))
        for i in range(dim.n_tangential):
            # mu w_zz = -(f^(i) + (lam+mu) d_z d_i v^(d))
            parts = [(f_prev[i], None, -(ONE / MU)),
                     (comps[d - 1], ("z", axes[i]), -(LAM_P_MU / MU))]
            comps[i] = green_solve(lincomb(dim, parts))
    return fam._with_level(NeckField(comps))


# ---------------------------------------------------------------------------
# Closed-form recursion route
# ---------------------------------------------------------------------------


def _x(dim: DimConfig, i: int, e: int = 1) -> NeckScalar:
    p = tuple(e if j == i else 0 for j in range(dim.n_tangential))
    return NeckScalar.term(dim, ONE, p=p)


def _level2_seeds(dim: DimConfig, alpha: int) -> dict[int, NeckScalar]:
    """Printed level-2 coefficients P_{2,1} of the odd class, by component."""
    eps = NeckScalar.term(dim, ONE, s=1)
    if dim.d == 2:
        x1sq = _x(dim, 0, 2)
        if alpha == 1:
            c = parse("2*l + 3*m") / parse("3*(l + 2*m)")
            return {0: (eps - x1sq.scale(3)).scale(c).mul_delta(-3)}
        return {1: (x1sq.scale(3) - eps).scale(LAM / MU.scale(3)).mul_delta(-3)}
    if alpha == 3:
        # ODE-forced value -(2 lam/(3 mu)) (eps - |x'|^2)/delta^3; see the
        # level-2 normal equation (lam+2mu) w_zz = -f^{1,(3)}.
        xsq = _x(dim, 0, 2) + _x(dim, 1, 2)
        return {2: (eps - xsq).scale(LAM.scale(-2) / MU.scale(3)).mul_delta(-3)}
    # own axis a: (1/(3 delta^3)) [(2l+3m)/(l+2m) (delta - 4 x_a^2) + (delta - 4 x_b^2)];
    # other axis b: -4(l+m)/(3(l+2m)) x1 x2/delta^3
    a, b = alpha - 1, 2 - alpha
    delta = NeckScalar.one(dim).mul_delta(1)
    part_a = (delta - _x(dim, a, 2).scale(4)).scale(parse("(2*l + 3*m) / (l + 2*m)"))
    part_b = delta - _x(dim, b, 2).scale(4)
    return {
        a: (part_a + part_b).scale(Fraction(1, 3)).mul_delta(-3),
        b: (_x(dim, 0) * _x(dim, 1)).scale(parse("-4*(l + m) / (3*(l + 2*m))")).mul_delta(-3),
    }


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
        lower = self.get(l, i - 1).mul_delta(2)
        return lincomb(self.dim, [(self.get(l, i), None, ONE), (lower, None, MINUS_QUARTER)])


def _ansatz_sum(table: _Tables, l: int, odd: int) -> NeckScalar:
    """sum_{i <= l-odd} P_{l,i} z^n (z^2 - delta^2/4) with n = 2l - 2i - odd."""
    parts = []
    for i in range(1, l - odd + 1):
        coeff = table.get(l, i)
        n = 2 * l - 2 * i - odd
        parts += [(coeff.mul_z(n + 2), None, ONE),
                  (coeff.mul_delta(2).mul_z(n), None, MINUS_QUARTER)]
    return lincomb(table.dim, parts)


def _own_symbol(nt: int, k: int, j: int) -> dict[tuple[int, int], RationalCoeff]:
    """mu Lap' delta_kj + (lam+mu) d_k d_j [k, j tangential] as {(a, b): coeff of d_a d_b}."""
    sym = {(a, a): MU for a in range(nt)} if j == k else {}
    if k < nt and j < nt:
        sym[(k, j)] = LAM_P_2MU if j == k else LAM_P_MU
    return sym


def _bracket(
    dim: DimConfig, k: int, own: dict[int, NeckScalar], other: dict[int, NeckScalar], n: int
) -> NeckScalar:
    """Lame forcing on the z^n coefficient of component k; own/other map j -> P~^j."""
    axes = dim.axes
    cross = LAM_P_MU.scale(n + 1)
    parts = [(pt, (axes[min(j, k)],), cross) for j, pt in other.items()]
    parts += [(pt, (axes[b], axes[a]), coeff) for j, pt in own.items()
              for (a, b), coeff in _own_symbol(dim.n_tangential, k, j).items()]
    return lincomb(dim, parts)


def _recursion(dim: DimConfig, alpha: int, depth: int) -> list[NeckField]:
    """Closed-form levels of the translation family psi_alpha = e_alpha.

    Component k of level l is sum_i P^k_{l,i} z^n (z^2 - delta^2/4) with
    n = 2l - 2i - odd_k.  The odd class (odd_k = 1, z-degree 2l-1) is
    alpha's own kind of component: the tangential ones for a tangential
    translation, the normal one for the normal translation.  The even class
    (z-degree 2l) is the rest.  P~_{l,i} = P_{l,i} - (delta^2/4) P_{l,i-1}
    is the z^{n+2} coefficient of the level, so cancelling the z^n
    coefficient of component k of the Lame operator, which carries c_k d_zz
    (c_k = mu tangential, lam+2mu normal), gives

        c_k (n+1)(n+2) P~^k_{l,i} = -[ (lam+mu)(n+1) sum_{j other} d_t P~^j_{l',i}
            + sum_{j own} (mu Lap' delta_kj + (lam+mu) d_k d_j) P~^j_{l-1,i} ],

    where t is the tangential axis of the pair (k, j), d_k d_j only acts for
    tangential k and j, and the other class is read at l' = l-1 by the odd
    class and at l' = l by the even class, which is built second.  Level 1
    is the cut-off profile on component alpha plus the even seed
    P^k_{1,1} = (lam+mu)/c_k x_t/delta^2 (t the tangential axis of
    (k, alpha)); the printed level-2 seeds start the odd class.
    """
    d, nt = dim.d, dim.n_tangential
    odd = [k for k in range(d) if (k < nt) == (alpha <= nt)]
    even = [k for k in range(d) if k not in odd]
    c = [MU] * nt + [LAM_P_2MU]
    tables = [_Tables(dim) for _ in range(d)]
    for k in even:
        tables[k].set(1, 1, _x(dim, min(k, alpha - 1)).scale(LAM_P_MU / c[k]).mul_delta(-2))
    for k, seed in _level2_seeds(dim, alpha).items():
        tables[k].set(2, 1, seed)

    for l in range(2, depth + 1):
        for parity, cls, other, l_other in ((1, odd, even, l - 1), (0, even, odd, l)):
            if parity and l == 2:
                continue  # the printed seed
            for i in range(1, l - parity + 1):
                n = 2 * l - 2 * i - parity
                own_t = {j: tables[j].tilde(l - 1, i) for j in cls}
                other_t = {j: tables[j].tilde(l_other, i) for j in other}
                for k in cls:
                    inv = ONE / c[k].scale((n + 1) * (n + 2))
                    step = _bracket(dim, k, own_t, other_t, n).scale(inv)
                    lead = tables[k].get(l, i - 1).mul_delta(2).scale(Fraction(1, 4))
                    tables[k].set(l, i, lead - step)

    fields = []
    for l in range(1, depth + 1):
        comps = [_ansatz_sum(tables[k], l, int(k in odd)) for k in range(d)]
        if l == 1:
            comps[alpha - 1] = _profile(dim)
        fields.append(NeckField(comps))
    return fields


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


MAX_DEPTH = 8

# The deepest family built so far for each (dim, alpha, route): level k of
# a family does not depend on the depth it was built to, so a shallower
# request is a prefix of the entry and a deeper one extends it.
_BUILT: dict[tuple[DimConfig, int, str], AuxFamily] = {}


def build_family(
    dim: DimConfig, alpha: int, depth: int, route: str = "integral"
) -> AuxFamily:
    """Build the auxiliary family to the requested depth.

    route='integral' works for every alpha.  route='recursion' runs the one
    closed-form table recursion (:func:`_recursion`), which exists for the
    translations alpha in 1..d.  Output size grows combinatorially with
    depth, so depth is capped at MAX_DEPTH (coefficient_stats reports the
    growth).  Each family is built once per process, to the deepest depth
    requested so far; shallower requests return its prefix.
    """
    if not 1 <= depth <= MAX_DEPTH:
        raise FamilyError(f"depth must be in 1..{MAX_DEPTH}, got {depth}")
    if alpha not in alpha_range(dim):
        raise FamilyError(f"alpha={alpha} invalid for d={dim.d}")
    if route not in ("integral", "recursion"):
        raise FamilyError(f"unknown route {route!r}")
    if alpha not in alpha_range(dim, route):
        raise FamilyError(f"no recursion for the rotation alpha={alpha}; use the integral route")
    key = (dim, alpha, route)
    fam = _BUILT.get(key)
    if fam is not None and depth <= fam.depth:
        return AuxFamily(dim, alpha, route, fam.levels[:depth], fam.residuals[:depth])
    if route == "integral":
        if fam is None:
            fam = AuxFamily(dim, alpha, route, (), ())._with_level(seed_level1(dim, alpha))
        while fam.depth < depth:
            fam = extend_integral(fam)
    else:
        # a deeper recursion builds all its tables anew
        fam = AuxFamily(dim, alpha, route, (), ())
        for v in _recursion(dim, alpha, depth):
            fam = fam._with_level(v)
    _BUILT[key] = fam
    return fam
