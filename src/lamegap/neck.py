"""Term algebra for functions on the thin gap between the inclusions.

A scalar is a finite sum of terms

    coeff * x'^p * z^q * eps^s / delta^r,      delta = eps + |x'|^2,

with ``coeff`` in the exact field Q(lam, mu), tangential exponents ``p``
(one per tangential variable), normal exponent ``q``, and nonnegative
``s``, ``r``.  The representation is not unique (delta - eps - |x'|^2 = 0);
semantic equality rewrites eps = delta - |x'|^2, which leaves a unique
Laurent polynomial in x', z and delta, and compares it to zero.

Supported calculus: exact first and second derivatives, exact linear
combinations of derivatives (:func:`lincomb`), boundary substitution
z -> +-delta/2 (the symmetric quadratic geometry) split by the parity of the
normal exponent, the two-point normal ODE solve d^2w/dz^2 = g with
w(+-delta/2) = 0, certified growth orders on the neck, and exact/float
evaluation.  All values are immutable.  Every sum except the pairwise ``+``
runs through one accumulator (:func:`_sum_terms`): each term is summed in
integers and reduced once, in the order of adding its contributions one by one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Hashable, Iterable, Mapping, Sequence

from .coeffs import ONE, RationalCoeff, _canonical, _times

__all__ = [
    "DimConfig",
    "NeckScalar",
    "NeckField",
    "NeckError",
    "green_solve",
    "lincomb",
    "term_order",
    "DIM2",
    "DIM3",
]

Key = tuple[tuple[int, ...], int, int, int]  # (p, q, s, r)


class NeckError(ValueError):
    """Invalid operation in the neck algebra (dimension mismatch etc.)."""


@dataclass(frozen=True)
class DimConfig:
    """Spatial configuration: d-1 tangential variables x' and normal z."""

    d: int

    def __post_init__(self) -> None:
        if self.d not in (2, 3):
            raise NeckError(f"unsupported dimension {self.d}")

    @property
    def n_tangential(self) -> int:
        return self.d - 1

    @property
    def axes(self) -> tuple[str, ...]:
        return tuple(f"x{i + 1}" for i in range(self.d - 1)) + ("z",)


DIM2 = DimConfig(2)
DIM3 = DimConfig(3)


def _check_same_dim(a: "NeckScalar", b: "NeckScalar") -> None:
    if a.dim != b.dim:
        raise NeckError("dimension mismatch between neck scalars")


class NeckScalar:
    """Canonicalized term map for one scalar neck function."""

    __slots__ = ("dim", "_terms", "_floats")

    def __init__(self, dim: DimConfig, terms: Mapping[Key, RationalCoeff] | None = None):
        self.dim = dim
        clean: dict[Key, RationalCoeff] = {}
        if terms:
            nt = dim.n_tangential
            for (p, q, s, r), c in terms.items():
                if c.is_zero():
                    continue
                p = tuple(int(e) for e in p)
                if len(p) != nt or any(e < 0 for e in p) or q < 0 or s < 0 or r < 0:
                    raise NeckError(f"bad term key {(p, q, s, r)}")
                clean[(p, int(q), int(s), int(r))] = c
        self._terms = clean
        # ((lam, mu), float coefficients) of the latest float-mode evaluation
        self._floats: tuple[tuple, list[float]] | None = None

    @classmethod
    def _clean(cls, dim: DimConfig, terms: dict[Key, RationalCoeff]) -> "NeckScalar":
        """Wrap a term map already in normal form (int exponents >= 0,
        nonzero coefficients) without re-checking it; internal results only."""
        n = object.__new__(cls)
        n.dim = dim
        n._terms = terms
        n._floats = None
        return n

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, dim: DimConfig) -> "NeckScalar":
        return cls(dim)

    @classmethod
    def one(cls, dim: DimConfig) -> "NeckScalar":
        return cls.term(dim, ONE)

    @classmethod
    def term(
        cls,
        dim: DimConfig,
        coeff: RationalCoeff,
        p: Sequence[int] | None = None,
        q: int = 0,
        s: int = 0,
        r: int = 0,
    ) -> "NeckScalar":
        p = tuple(p) if p is not None else (0,) * dim.n_tangential
        return cls(dim, {(p, q, s, r): coeff})

    @classmethod
    def constant(cls, dim: DimConfig, q_value: Fraction | int) -> "NeckScalar":
        c = RationalCoeff.from_fraction(Fraction(q_value))
        return cls.term(dim, c)

    # -- protocol ---------------------------------------------------------

    @property
    def terms(self) -> Mapping[Key, RationalCoeff]:
        """Read-only view of the term map (families are shared once built)."""
        return MappingProxyType(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other: object) -> bool:
        # representation equality; use .equal() for semantic equality
        if not isinstance(other, NeckScalar):
            return NotImplemented
        return self.dim == other.dim and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.dim, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        return f"NeckScalar({self.render()})"

    def __len__(self) -> int:
        return len(self._terms)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "NeckScalar") -> "NeckScalar":
        _check_same_dim(self, other)
        out = dict(self._terms)
        for k, c in other._terms.items():
            acc = out.get(k)
            if acc is None:
                out[k] = c
            else:
                s = acc + c
                if s.is_zero():
                    del out[k]
                else:
                    out[k] = s
        return NeckScalar._clean(self.dim, out)

    def __neg__(self) -> "NeckScalar":
        return NeckScalar._clean(self.dim, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "NeckScalar") -> "NeckScalar":
        return self + (-other)

    def __mul__(self, other: "NeckScalar") -> "NeckScalar":
        _check_same_dim(self, other)
        rows = []
        for (p1, q1, s1, r1), c1 in self._terms.items():
            for (p2, q2, s2, r2), c2 in other._terms.items():
                key = (tuple(a + b for a, b in zip(p1, p2)), q1 + q2, s1 + s2, r1 + r2)
                rows.append((_times(c1._t, c2._t), c1._c * c2._c, ((key, 1),)))
        return NeckScalar._clean(self.dim, _sum_terms(rows))

    def scale(self, c: RationalCoeff | Fraction | int) -> "NeckScalar":
        if not c:
            return NeckScalar(self.dim)
        if isinstance(c, RationalCoeff):
            return NeckScalar._clean(self.dim, {k: c * v for k, v in self._terms.items()})
        q = Fraction(c)
        a, b = q.numerator, q.denominator
        return NeckScalar._clean(self.dim, {k: v._scaled(a, b) for k, v in self._terms.items()})

    def mul_delta(self, k: int) -> "NeckScalar":
        """Multiply by delta^k (k may be negative, meaning division)."""
        if all(k <= r for _, _, _, r in self._terms):
            # only r moves: relabel the keys as mul_z does
            return NeckScalar._clean(
                self.dim, {(p, q, s, r - k): c for (p, q, s, r), c in self._terms.items()})
        nt = self.dim.n_tangential
        rows = [(c._t, c._c, _monomial_delta(key, k, nt)) for key, c in self._terms.items()]
        return NeckScalar._clean(self.dim, _sum_terms(rows))

    def mul_z(self, k: int = 1) -> "NeckScalar":
        terms = {(p, q + k, s, r): c for (p, q, s, r), c in self._terms.items()}
        # a negative power may leave the polynomial ring: check it
        return NeckScalar._clean(self.dim, terms) if k >= 0 else NeckScalar(self.dim, terms)

    # -- calculus -----------------------------------------------------------

    def _axis(self, axis: str) -> int:
        """Index of a differentiation axis in dim.axes; z is the last."""
        try:
            return self.dim.axes.index(axis)
        except ValueError:
            raise NeckError(f"unknown axis {axis!r} for dimension {self.dim.d}") from None

    def diff(self, axis: str) -> "NeckScalar":
        """Exact partial derivative along 'x1', 'x2' or 'z'."""
        return lincomb(self.dim, [(self, (axis,), ONE)])

    def diff2(self, a: str, b: str) -> "NeckScalar":
        """Exact second derivative d_a d_b, equal to ``diff(b).diff(a)``.

        Each term's integer multipliers are summed over both steps first,
        so every output coefficient is accumulated once.
        """
        return lincomb(self.dim, [(self, (a, b), ONE)])

    def boundary_parts(self) -> tuple["NeckScalar", "NeckScalar"]:
        """Even and odd parts (E, O) of the boundary trace, in one pass.

        Each term c z^q ... becomes (c / 2^q) delta^q ... and goes to E for
        even q and to O for odd q, so z -> +-delta/2 gives E +- O.
        """
        nt = self.dim.n_tangential
        rows: tuple[list[Row], list[Row]] = ([], [])  # even q, odd q
        for (p, q, s, r), c in self._terms.items():
            rows[q & 1].append((c._t, c._c << q, _monomial_delta((p, 0, s, r), q, nt)))
        even, odd = (NeckScalar._clean(self.dim, _sum_terms(part)) for part in rows)
        return even, odd

    def substitute_boundary(self, side: str) -> "NeckScalar":
        """Substitute z -> side * delta/2 with side in {'+', '-'}."""
        if side not in ("+", "-"):
            raise NeckError("side must be '+' or '-'")
        even, odd = self.boundary_parts()
        return even + odd if side == "+" else even - odd

    # -- structure -----------------------------------------------------------

    def z_degree(self) -> int:
        """Max normal exponent; -1 for the zero scalar."""
        if not self._terms:
            return -1
        return max(q for (_, q, _, _) in self._terms)

    def neck_order(self) -> Fraction:
        """Certified growth order: value = O(delta^order) on the neck.

        Termwise (see :func:`term_order`), so it depends on the
        representation; :meth:`expanded_order` does not.
        """
        if not self._terms:
            raise NeckError("neck order of the zero scalar is undefined (+infinity)")
        # in half-units: 2 * term_order = sum(p) + 2 (q + s - r)
        return Fraction(min(sum(p) + 2 * (q + s - r) for p, q, s, r in self._terms), 2)

    def expanded_order(self) -> Fraction:
        """Certified growth order of the function itself.

        The lowest weighted degree (x: 1/2, z: 1, eps: 1) of the
        :meth:`expand_polynomial` numerator minus its delta power R.  It is
        at least :meth:`neck_order` and does not change when numerator and
        denominator are multiplied by delta.  Read off the
        :meth:`_delta_basis` form, whose monomials keep the order of the
        terms they come from.
        """
        basis = self._delta_basis()
        if not basis:
            raise NeckError("order of the zero function is undefined (+infinity)")
        return Fraction(min(sum(p) + 2 * (q + e) for (p, q, e) in basis), 2)

    # -- equality / evaluation -------------------------------------------------

    def expand_polynomial(self) -> dict[tuple[tuple[int, ...], int, int], RationalCoeff]:
        """Expand over the common denominator delta^R into a plain polynomial.

        Returns the numerator polynomial of self * delta^R as a map
        (p, q, s) -> coeff; R is the max delta exponent.  Two scalars are
        semantically equal iff their expansions (after subtracting) vanish.
        """
        nt = self.dim.n_tangential
        big_r = max((r for (_, _, _, r) in self._terms), default=0)
        rows = []
        for (p, q, s, r), c in self._terms.items():
            mults = [
                ((tuple(a + b for a, b in zip(p, dp)), q, s + ds), mult)
                for (dp, ds), mult in _delta_power_monomials(nt, big_r - r)
            ]
            rows.append((c._t, c._c, mults))
        return _sum_terms(rows)

    def equal(self, other: "NeckScalar") -> bool:
        """Semantic equality modulo delta = eps + |x'|^2."""
        _check_same_dim(self, other)
        return not (self - other)._delta_basis()

    def _delta_basis(self) -> dict[tuple[tuple[int, ...], int, int], RationalCoeff]:
        """The scalar as a Laurent polynomial in x', z and delta.

        Substituting eps = delta - |x'|^2 turns a term with eps^s into the
        monomials x'^p z^q delta^e of (delta - |x'|^2)^s / delta^r (e may
        be negative), keyed (p, q, e).  x', z and delta are algebraically
        independent, so the map is unique: empty iff the scalar is zero.
        Each monomial has the weighted degree of its term (x: 1/2, z: 1,
        delta: 1).  Unlike :meth:`expand_polynomial` it never expands a
        power of delta, and eps^s has small s on the neck families.
        """
        nt = self.dim.n_tangential
        rows = []
        for (p, q, s, r), c in self._terms.items():
            # (delta - |x'|^2)^s from the monomials of (delta + |x'|^2)^s
            mults = [
                ((tuple(a + b for a, b in zip(p, dp)), q, ds - r), -mult if (s - ds) & 1 else mult)
                for (dp, ds), mult in _delta_power_monomials(nt, s)
            ]
            rows.append((c._t, c._c, mults))
        return _sum_terms(rows)

    def evaluate(
        self,
        xp: Sequence[Fraction | float],
        z: Fraction | float,
        eps: Fraction | float,
        lam: Fraction | float,
        mu: Fraction | float,
        mode: str = "exact",
    ) -> Fraction | float:
        """Value of the represented function at a point.

        mode='exact' takes Fractions and returns a Fraction; mode='float'
        computes in floating point, with the coefficients evaluated exactly
        and rounded once per (lam, mu) (the latest pair is kept).
        """
        if len(xp) != self.dim.n_tangential:
            raise NeckError("wrong number of tangential coordinates")
        num = {"exact": Fraction, "float": float}.get(mode)
        if num is None:
            raise NeckError(f"unknown evaluation mode {mode!r}")
        xp = [num(v) for v in xp]
        z, eps = num(z), num(eps)
        delta = eps + sum(v * v for v in xp)
        if delta == 0:
            raise NeckError("evaluation requires eps + |x'|^2 > 0")
        if num is float:
            if self._floats is None or self._floats[0] != (lam, mu):
                lam_q, mu_q = Fraction(lam), Fraction(mu)
                coeffs = [float(c.evaluate(lam_q, mu_q)) for c in self._terms.values()]
                self._floats = ((lam, mu), coeffs)
            coeffs = self._floats[1]
        else:
            lam_q, mu_q = Fraction(lam), Fraction(mu)
            coeffs = [c.evaluate(lam_q, mu_q) for c in self._terms.values()]
        one = num(1)
        acc = num(0)
        for (p, q, s, r), c in zip(self._terms, coeffs):
            mono = one
            for v, e in zip(xp, p):
                mono *= v**e
            acc += c * mono * z**q * eps**s / delta**r
        return acc

    # -- rendering / serialization ------------------------------------------

    def sorted_terms(self) -> list[tuple[Key, RationalCoeff]]:
        return sorted(self._terms.items(), key=lambda kv: kv[0])

    def render(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (p, q, s, r), c in self.sorted_terms():
            factors = [f"[{c.render()}]"]
            for i, e in enumerate(p):
                if e:
                    factors.append(f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}")
            if q:
                factors.append(f"z^{q}" if q > 1 else "z")
            if s:
                factors.append(f"eps^{s}" if s > 1 else "eps")
            body = "*".join(factors)
            if r:
                body += f"/d^{r}" if r > 1 else "/d"
            parts.append(body)
        return " + ".join(parts)

    def to_json_obj(self) -> list[dict]:
        return [
            {"coeff": c.render(), "p": list(p), "q": q, "s": s, "r": r}
            for (p, q, s, r), c in self.sorted_terms()
        ]


def term_order(key: Key) -> Fraction:
    """Growth order of one term on the neck, by |x_i| <= sqrt(delta),
    |z| <= delta/2 and eps <= delta."""
    p, q, s, r = key
    return Fraction(sum(p), 2) + q + s - r


def _monomial_diff(key: Key, i: int, nt: int) -> list[tuple[Key, int]]:
    """d/dx_i of one monomial (i = nt is z) as (key, integer multiplier) pairs."""
    p, q, s, r = key
    if i == nt:
        return [((p, q - 1, s, r), q)] if q else []
    out = []
    if p[i]:
        out.append(((p[:i] + (p[i] - 1,) + p[i + 1 :], q, s, r), p[i]))
    if r:
        # d(delta^-r)/dx_i = -r * 2 x_i * delta^-(r+1)
        out.append(((p[:i] + (p[i] + 1,) + p[i + 1 :], q, s, r + 1), -2 * r))
    return out


def _monomial_diff2(key: Key, i: int, j: int, nt: int) -> list[tuple[Key, int]]:
    """d/dx_i d/dx_j of one monomial as (key, nonzero multiplier) pairs,
    the multipliers of both steps summed per key."""
    mults: dict[Key, int] = {}
    for k1, m1 in _monomial_diff(key, j, nt):
        for k2, m2 in _monomial_diff(k1, i, nt):
            mults[k2] = mults.get(k2, 0) + m1 * m2
    return [(k, m) for k, m in mults.items() if m]


def _monomial_delta(key: Key, k: int, nt: int) -> list[tuple[Key, int]]:
    """One monomial times delta^k as (key, multiplier) pairs, expanding the
    power that leaves the denominator."""
    p, q, s, r = key
    if k <= r:
        return [((p, q, s, r - k), 1)]
    return [
        ((tuple(a + b for a, b in zip(p, dp)), q, s + ds, 0), mult)
        for (dp, ds), mult in _delta_power_monomials(nt, k - r)
    ]


Part = tuple["NeckScalar", Sequence[str] | None, RationalCoeff]


def lincomb(dim: DimConfig, parts: Iterable[Part]) -> NeckScalar:
    """The exact sum of ``factor * d_axes scalar`` over parts, summed once per term.

    Each part is (scalar, axes, factor): axes is None (the scalar itself),
    one axis (``diff``) or a pair (a, b) (``diff2(a, b)``).  The result
    equals the chain ``scalar.diff2(a, b).scale(factor) + ...`` built from
    ``diff``, ``diff2``, ``scale`` and ``+``.  Its term order is that of
    :func:`_sum_terms` over the contributions, part by part and term by term.
    """
    nt = dim.n_tangential
    rows: list[Row] = []
    for scal, axes, f in parts:
        if scal.dim != dim:
            raise NeckError("dimension mismatch between neck scalars")
        tf, cf = f._t, f._c
        if not tf:
            continue
        idx = [scal._axis(a) for a in axes] if axes else []
        for key, c in scal._terms.items():
            if not idx:
                mults = ((key, 1),)
            elif len(idx) == 1:
                mults = _monomial_diff(key, idx[0], nt)
            else:
                mults = _monomial_diff2(key, idx[0], idx[1], nt)
            if mults:
                rows.append((_times(c._t, tf), c._c * cf, mults))
    return NeckScalar._clean(dim, _sum_terms(rows))


# (integer Laurent map t with no zero entry, denominator c > 0,
# [(key, nonzero integer multiplier m)]): each pair adds m * t / c to its key
Row = tuple[dict[tuple[int, int], int], int, Sequence[tuple[Hashable, int]]]


def _sum_terms(rows: list[Row]) -> dict:
    """Every contribution of the rows summed per key: key -> coefficient.

    The sums run in integers over L, the lcm of the row denominators, and
    each key that survives is reduced once by :func:`_canonical`.  The term
    order is that of adding the contributions one at a time: a key enters
    at its first contribution, and when its running sum cancels it leaves
    and re-enters at its next contribution.
    """
    big_l = math.lcm(*{c for _, c, _ in rows})
    acc: dict[Hashable, dict[tuple[int, int], int]] = {}
    for t, c, mults in rows:
        scale = big_l // c
        for k, m in mults:
            w = m * scale
            run = acc.get(k)
            if run is None:
                acc[k] = {e: w * v for e, v in t.items()}
                continue
            for e, v in t.items():
                v = run.get(e, 0) + w * v
                if v:
                    run[e] = v
                else:
                    del run[e]
            if not run:
                del acc[k]
    return {k: _canonical(run, big_l) for k, run in acc.items()}


@functools.cache
def _delta_power_monomials(
    nt: int, k: int
) -> tuple[tuple[tuple[tuple[int, ...], int], int], ...]:
    """Monomials of (eps + x1^2 [+ x2^2])^k as ((p, s), multiplicity)."""
    if k == 0:
        return ((((0,) * nt, 0), 1),)
    acc: dict[tuple[tuple[int, ...], int], int] = {}
    for (p, s), mult in _delta_power_monomials(nt, k - 1):
        acc[(p, s + 1)] = acc.get((p, s + 1), 0) + mult
        for i in range(nt):
            pp = tuple(e + 2 if j == i else e for j, e in enumerate(p))
            acc[(pp, s)] = acc.get((pp, s), 0) + mult
    return tuple(acc.items())


def green_solve(g: NeckScalar) -> NeckScalar:
    """Solve d^2 w/dz^2 = g with w(+-delta/2) = 0, exactly.

    Termwise double antidifferentiation in z gives w0, plus the unique
    correction A + B*z matching the two boundary values.  With the parity
    split w0(+-delta/2) = E +- O (:meth:`NeckScalar.boundary_parts`), the
    sum and difference of the two traces are 2E and 2O, so A = -E and
    B = -2O/delta.
    """
    anti = {
        (p, q + 2, s, r): c._scaled(1, (q + 1) * (q + 2)) for (p, q, s, r), c in g._terms.items()
    }
    w0 = NeckScalar._clean(g.dim, anti)
    even, odd = w0.boundary_parts()
    return w0 - even + odd.scale(-2).mul_delta(-1).mul_z(1)


class NeckField:
    """Vector of d neck scalars sharing one DimConfig."""

    __slots__ = ("dim", "components")

    def __init__(self, components: Sequence[NeckScalar]):
        if not components:
            raise NeckError("empty component list")
        dim = components[0].dim
        if len(components) != dim.d:
            raise NeckError(f"expected {dim.d} components, got {len(components)}")
        for c in components[1:]:
            if c.dim != dim:
                raise NeckError("mixed dimensions in NeckField")
        self.dim = dim
        self.components = tuple(components)

    @classmethod
    def zero(cls, dim: DimConfig) -> "NeckField":
        return cls([NeckScalar.zero(dim)] * dim.d)

    def __getitem__(self, i: int) -> NeckScalar:
        return self.components[i]

    def __add__(self, other: "NeckField") -> "NeckField":
        return NeckField([a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other: "NeckField") -> "NeckField":
        return NeckField([a - b for a, b in zip(self.components, other.components)])

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def equal(self, other: "NeckField") -> bool:
        return all(a.equal(b) for a, b in zip(self.components, other.components))

    def __repr__(self) -> str:
        return "NeckField(" + ", ".join(c.render() for c in self.components) + ")"

    def to_json_obj(self) -> list[list[dict]]:
        return [c.to_json_obj() for c in self.components]
