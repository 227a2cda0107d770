"""Term algebra for functions on the thin gap between the inclusions.

A scalar is a finite sum of terms

    coeff * x'^p * z^q * eps^s / delta^r,      delta = eps + |x'|^2,

with ``coeff`` in the exact field Q(lam, mu), tangential exponents ``p``
(one per tangential variable), normal exponent ``q``, and nonnegative
``s``, ``r``.  The representation is not unique (delta - eps - |x'|^2 = 0);
semantic equality expands every delta power over a common denominator and
compares the resulting polynomial to zero.

Supported calculus: exact differentiation, boundary substitution
z -> +-delta/2 (the symmetric quadratic geometry), the two-point normal ODE
solve d^2w/dz^2 = g with w(+-delta/2) = 0, certified growth orders on the
neck, and exact/float evaluation.  All values are immutable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .coeffs import ONE, RationalCoeff

__all__ = [
    "DimConfig",
    "NeckScalar",
    "NeckField",
    "NeckError",
    "green_solve",
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

    __slots__ = ("dim", "_terms", "_hash", "_floats")

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
        self._hash: int | None = None
        # ((lam, mu), float coefficients) of the latest float-mode evaluation
        self._floats: tuple[tuple, list[float]] | None = None

    @classmethod
    def _clean(cls, dim: DimConfig, terms: dict[Key, RationalCoeff]) -> "NeckScalar":
        """Wrap a term map already in normal form (int exponents >= 0,
        nonzero coefficients) without re-checking it; internal results only."""
        n = object.__new__(cls)
        n.dim = dim
        n._terms = terms
        n._hash = None
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
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        # representation equality; use .equal() for semantic equality
        if not isinstance(other, NeckScalar):
            return NotImplemented
        return self.dim == other.dim and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.dim, frozenset(self._terms.items())))
        return self._hash

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
        out: dict[Key, RationalCoeff] = {}
        for (p1, q1, s1, r1), c1 in self._terms.items():
            for (p2, q2, s2, r2), c2 in other._terms.items():
                k = (
                    tuple(a + b for a, b in zip(p1, p2)),
                    q1 + q2,
                    s1 + s2,
                    r1 + r2,
                )
                c = c1 * c2
                acc = out.get(k)
                if acc is not None:
                    c = acc + c
                if c.is_zero():
                    out.pop(k, None)
                else:
                    out[k] = c
        return NeckScalar._clean(self.dim, out)

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
        if k == 0:
            return self
        out: dict[Key, RationalCoeff] = {}
        for key, c in self._terms.items():
            _term_times_delta(out, self.dim, key, c, k)
        return NeckScalar._clean(self.dim, out)

    def mul_z(self, k: int = 1) -> "NeckScalar":
        terms = {(p, q + k, s, r): c for (p, q, s, r), c in self._terms.items()}
        # a negative power may leave the polynomial ring: check it
        return NeckScalar._clean(self.dim, terms) if k >= 0 else NeckScalar(self.dim, terms)

    # -- calculus -----------------------------------------------------------

    def diff(self, axis: str) -> "NeckScalar":
        """Exact partial derivative along 'x1', 'x2' or 'z'."""
        if axis == "z":
            out: dict[Key, RationalCoeff] = {}
            for (p, q, s, r), c in self._terms.items():
                if q:
                    _accumulate(out, (p, q - 1, s, r), c.scale(q))
            return NeckScalar._clean(self.dim, out)
        try:
            i = self.dim.axes.index(axis)
        except ValueError:
            raise NeckError(f"unknown axis {axis!r} for dimension {self.dim.d}")
        if i >= self.dim.n_tangential:
            raise NeckError(f"axis {axis!r} is not tangential")
        out = {}
        for (p, q, s, r), c in self._terms.items():
            if p[i]:
                pm = tuple(e - 1 if j == i else e for j, e in enumerate(p))
                _accumulate(out, (pm, q, s, r), c.scale(p[i]))
            if r:
                # d(delta^-r)/dx_i = -r * 2 x_i * delta^-(r+1)
                pp = tuple(e + 1 if j == i else e for j, e in enumerate(p))
                _accumulate(out, (pp, q, s, r + 1), c.scale(-2 * r))
        return NeckScalar._clean(self.dim, out)

    def substitute_boundary(self, side: str) -> "NeckScalar":
        """Substitute z -> side * delta/2 with side in {'+', '-'}."""
        if side not in ("+", "-"):
            raise NeckError("side must be '+' or '-'")
        sign = 1 if side == "+" else -1
        out: dict[Key, RationalCoeff] = {}
        for (p, q, s, r), c in self._terms.items():
            factor = Fraction(sign**q, 2**q)
            _term_times_delta(out, self.dim, (p, 0, s, r), c.scale(factor), q)
        return NeckScalar._clean(self.dim, out)

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
        return min(map(term_order, self._terms))

    def expanded_order(self) -> Fraction:
        """Certified growth order of the function itself.

        The lowest weighted degree (x: 1/2, z: 1, eps: 1) of the
        :meth:`expand_polynomial` numerator minus its delta power R.  It is
        at least :meth:`neck_order` and does not change when numerator and
        denominator are multiplied by delta.
        """
        num = self.expand_polynomial()
        if not num:
            raise NeckError("order of the zero function is undefined (+infinity)")
        big_r = max(r for (_, _, _, r) in self._terms)
        return min(term_order((p, q, s, big_r)) for (p, q, s) in num)

    # -- equality / evaluation -------------------------------------------------

    def expand_polynomial(self) -> dict[tuple[tuple[int, ...], int, int], RationalCoeff]:
        """Expand over the common denominator delta^R into a plain polynomial.

        Returns the numerator polynomial of self * delta^R as a map
        (p, q, s) -> coeff; R is the max delta exponent.  Two scalars are
        semantically equal iff their expansions (after subtracting) vanish.
        """
        if not self._terms:
            return {}
        big_r = max(r for (_, _, _, r) in self._terms)
        out: dict[tuple[tuple[int, ...], int, int], RationalCoeff] = {}
        for (p, q, s, r), c in self._terms.items():
            for (dp, ds), mult in _delta_power_monomials(
                self.dim.n_tangential, big_r - r
            ):
                key = (tuple(a + b for a, b in zip(p, dp)), q, s + ds)
                cc = c.scale(mult)
                acc = out.get(key)
                if acc is not None:
                    cc = acc + cc
                if cc.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = cc
        return out

    def equal(self, other: "NeckScalar") -> bool:
        """Semantic equality modulo delta = eps + |x'|^2."""
        _check_same_dim(self, other)
        return not (self - other).expand_polynomial()

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
        if mode == "exact":
            xp = [Fraction(v) for v in xp]
            z, eps = Fraction(z), Fraction(eps)
            lam_f, mu_f = Fraction(lam), Fraction(mu)
            delta = eps + sum(v * v for v in xp)
            if delta == 0:
                raise NeckError("evaluation requires eps + |x'|^2 > 0")
            acc = Fraction(0)
            for (p, q, s, r), c in self._terms.items():
                mono = Fraction(1)
                for v, e in zip(xp, p):
                    mono *= v**e
                acc += c.evaluate(lam_f, mu_f) * mono * z**q * eps**s / delta**r
            return acc
        if mode == "float":
            if self._floats is None or self._floats[0] != (lam, mu):
                lam_q, mu_q = Fraction(lam), Fraction(mu)
                coeffs = [float(c.evaluate(lam_q, mu_q)) for c in self._terms.values()]
                self._floats = ((lam, mu), coeffs)
            xpf = [float(v) for v in xp]
            zf, ef = float(z), float(eps)
            delta = ef + sum(v * v for v in xpf)
            acc = 0.0
            for (p, q, s, r), cf in zip(self._terms, self._floats[1]):
                mono = 1.0
                for v, e in zip(xpf, p):
                    mono *= v**e
                acc += cf * mono * zf**q * ef**s / delta**r
            return acc
        raise NeckError(f"unknown evaluation mode {mode!r}")

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


def _accumulate(out: dict[Key, RationalCoeff], key: Key, c: RationalCoeff) -> None:
    acc = out.get(key)
    if acc is not None:
        c = acc + c
    if c.is_zero():
        out.pop(key, None)
    else:
        out[key] = c


def _term_times_delta(
    out: dict[Key, RationalCoeff], dim: DimConfig, key: Key, c: RationalCoeff, k: int
) -> None:
    """Add one term times delta^k to out, expanding when the power leaves the denominator."""
    p, q, s, r = key
    if k <= r:
        _accumulate(out, (p, q, s, r - k), c)
        return
    for (dp, ds), mult in _delta_power_monomials(dim.n_tangential, k - r):
        kk = (tuple(a + b for a, b in zip(p, dp)), q, s + ds, 0)
        _accumulate(out, kk, c.scale(mult))


_DELTA_CACHE: dict[tuple[int, int], tuple[tuple[tuple[tuple[int, ...], int], int], ...]] = {}


def _delta_power_monomials(
    nt: int, k: int
) -> tuple[tuple[tuple[tuple[int, ...], int], int], ...]:
    """Monomials of (eps + x1^2 [+ x2^2])^k as ((p, s), multiplicity)."""
    cached = _DELTA_CACHE.get((nt, k))
    if cached is not None:
        return cached
    if k == 0:
        result = ((((0,) * nt, 0), 1),)
    else:
        prev = _delta_power_monomials(nt, k - 1)
        acc: dict[tuple[tuple[int, ...], int], int] = {}
        for (p, s), mult in prev:
            acc[(p, s + 1)] = acc.get((p, s + 1), 0) + mult
            for i in range(nt):
                pp = tuple(e + 2 if j == i else e for j, e in enumerate(p))
                acc[(pp, s)] = acc.get((pp, s), 0) + mult
        result = tuple(acc.items())
    _DELTA_CACHE[(nt, k)] = result
    return result


def green_solve(g: NeckScalar) -> NeckScalar:
    """Solve d^2 w/dz^2 = g with w(+-delta/2) = 0, exactly.

    Termwise double antidifferentiation in z plus the unique correction
    A + B*z matching the two boundary values.
    """
    dim = g.dim
    anti: dict[Key, RationalCoeff] = {}
    for (p, q, s, r), c in g.terms.items():
        _accumulate(anti, (p, q + 2, s, r), c.scale(Fraction(1, (q + 1) * (q + 2))))
    w0 = NeckScalar._clean(dim, anti)
    top = w0.substitute_boundary("+")
    bot = w0.substitute_boundary("-")
    # A = -(top + bot)/2 ; B = -(top - bot)/delta
    a = (top + bot).scale(Fraction(-1, 2))
    b = (top - bot).scale(-1).mul_delta(-1)
    return w0 + a + b.mul_z(1)


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

    def __iter__(self) -> Iterator[NeckScalar]:
        return iter(self.components)

    def __add__(self, other: "NeckField") -> "NeckField":
        return NeckField([a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other: "NeckField") -> "NeckField":
        return NeckField([a - b for a, b in zip(self.components, other.components)])

    def __neg__(self) -> "NeckField":
        return NeckField([-a for a in self.components])

    def scale(self, c) -> "NeckField":
        return NeckField([a.scale(c) for a in self.components])

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def equal(self, other: "NeckField") -> bool:
        return all(a.equal(b) for a, b in zip(self.components, other.components))

    def __repr__(self) -> str:
        return "NeckField(" + ", ".join(c.render() for c in self.components) + ")"

    def to_json_obj(self) -> list[list[dict]]:
        return [c.to_json_obj() for c in self.components]

    def render(self) -> str:
        return json.dumps([c.render() for c in self.components], indent=1)
