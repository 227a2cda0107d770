"""Exact arithmetic in the field of rational functions of the Lame parameters.

Coefficients throughout the symbolic layer are elements of Q(lam, mu): ratios
of integer-coefficient polynomials in the two formal Lame parameters.  All
arithmetic is exact (Python integers), every value is kept in a canonical
reduced form, and equality is representation-independent.

Canonical form of a ratio num/den:

* gcd(num, den) over Z[lam, mu] is a unit,
* the pair carries no common integer content,
* den has a positive leading coefficient under graded lexicographic order
  with lam > mu.

Because the form is unique, each operation computes only the gcds whose
answer is not already known from its reduced operands:

* ``scale`` by an integer or a Fraction a/b changes only the integer
  content: it cancels gcd(a, content(den)) and gcd(b, content(num)), with no
  polynomial gcd.
* ``+`` is Henrici's sum: with g = gcd(d1, d2), t = n1 (d2/g) + n2 (d1/g) is
  coprime to (d1/g)(d2/g), so only h = gcd(t, g) is left to cancel.
* ``*`` cross-reduces, gcd(n1, d2) and gcd(n2, d1); the product of the
  cross-reduced parts is already reduced.
* ``poly_gcd`` is memoized: the families repeat the same few thousand
  (a, b) pairs tens of thousands of times.  The memo keeps the
  ``GCD_CACHE_SIZE`` most recently used pairs: enough for those repeats,
  while the memory it holds stays bounded in a long run (an unbounded memo
  roughly doubles the resident size of the depth-5 builds for a small
  further gain).

Results of ParamPoly arithmetic are built by a trusted internal constructor
that skips the per-term checks the public constructor applies to its input.

Text rendering uses ``l`` for lam and ``m`` for mu, e.g.
``((2*l + 3*m)) / (3*(l + 2*m))``; :func:`parse` accepts the same grammar.
"""

from __future__ import annotations

import ast
import functools
import math
from fractions import Fraction
from typing import Mapping

__all__ = [
    "ParamPoly",
    "RationalCoeff",
    "CoeffError",
    "CoeffDivisionError",
    "CoeffPoleError",
    "LAM",
    "MU",
    "ONE",
    "ZERO",
    "parse",
]


class CoeffError(ValueError):
    """Base error for coefficient-field operations."""


class CoeffDivisionError(CoeffError, ZeroDivisionError):
    """Division by the zero coefficient."""


class CoeffPoleError(CoeffError, ZeroDivisionError):
    """Evaluation at a point where the denominator vanishes."""


def _grlex_key(expo: tuple[int, int]) -> tuple[int, int, int]:
    i, j = expo
    return (i + j, i, j)


class ParamPoly:
    """Polynomial in (lam, mu) with integer coefficients.

    Stored as a mapping ``(deg_lam, deg_mu) -> int`` with no zero entries.
    Instances are immutable and hashable.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        clean: dict[tuple[int, int], int] = {}
        if terms:
            for (i, j), c in terms.items():
                if c:
                    if i < 0 or j < 0:
                        raise CoeffError("negative exponent in ParamPoly")
                    clean[(int(i), int(j))] = int(c)
        self._terms = clean
        self._hash: int | None = None

    @classmethod
    def _clean(cls, terms: dict[tuple[int, int], int]) -> "ParamPoly":
        """Wrap a dict already in normal form (int exponents >= 0, nonzero
        int coefficients) without re-checking it; internal results only."""
        p = object.__new__(cls)
        p._terms = terms
        p._hash = None
        return p

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, c: int) -> "ParamPoly":
        return cls({(0, 0): int(c)})

    @classmethod
    def lam(cls) -> "ParamPoly":
        return cls({(1, 0): 1})

    @classmethod
    def mu(cls) -> "ParamPoly":
        return cls({(0, 1): 1})

    # -- basic protocol -----------------------------------------------

    @property
    def terms(self) -> Mapping[tuple[int, int], int]:
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __repr__(self) -> str:
        return f"ParamPoly({self.render()})"

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "ParamPoly") -> "ParamPoly":
        out = dict(self._terms)
        for k, c in other._terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return ParamPoly._clean(out)

    def __neg__(self) -> "ParamPoly":
        return ParamPoly._clean({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "ParamPoly") -> "ParamPoly":
        return self + (-other)

    def __mul__(self, other: "ParamPoly") -> "ParamPoly":
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self._terms.items():
            for (i2, j2), c2 in other._terms.items():
                k = (i1 + i2, j1 + j2)
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return ParamPoly._clean(out)

    def __pow__(self, n: int) -> "ParamPoly":
        if n < 0:
            raise CoeffError("negative power of ParamPoly")
        result = ParamPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, c: int) -> "ParamPoly":
        if c == 0:
            return ParamPoly()
        return ParamPoly._clean({k: c * v for k, v in self._terms.items()})

    def _ratio(self, a: int, b: int) -> "ParamPoly":
        """self * a / b for a nonzero a and a b that divides every coefficient."""
        return ParamPoly._clean({k: v // b * a for k, v in self._terms.items()})

    # -- structure -----------------------------------------------------

    def leading(self) -> tuple[tuple[int, int], int]:
        """Leading (exponent, coefficient) under grlex with lam > mu."""
        if not self._terms:
            raise CoeffError("zero polynomial has no leading term")
        k = max(self._terms, key=_grlex_key)
        return k, self._terms[k]

    def content(self) -> int:
        """Integer content carrying the sign of the leading coefficient."""
        if not self._terms:
            return 0
        g = 0
        for c in self._terms.values():
            g = math.gcd(g, abs(c))
        _, lead = self.leading()
        return g if lead > 0 else -g

    def evaluate(self, lam: Fraction, mu: Fraction) -> Fraction:
        acc = Fraction(0)
        for (i, j), c in self._terms.items():
            acc += c * lam**i * mu**j
        return acc

    def exact_div(self, d: "ParamPoly") -> "ParamPoly":
        """Exact polynomial division; raises if d does not divide self."""
        if d.is_zero():
            raise CoeffDivisionError("division by zero polynomial")
        if self.is_zero():
            return ParamPoly()
        if _is_one(d):
            return self
        rem = dict(self._terms)
        out: dict[tuple[int, int], int] = {}
        (dk, dc) = d.leading()
        while rem:
            rk = max(rem, key=_grlex_key)
            rc = rem[rk]
            qi, qj = rk[0] - dk[0], rk[1] - dk[1]
            if qi < 0 or qj < 0 or rc % dc:
                raise CoeffError("exact_div: not divisible")
            qc = rc // dc
            out[(qi, qj)] = qc
            for (i, j), c in d._terms.items():
                k = (i + qi, j + qj)
                s = rem.get(k, 0) - qc * c
                if s:
                    rem[k] = s
                else:
                    rem.pop(k, None)
        return ParamPoly._clean(out)

    # -- rendering -----------------------------------------------------

    def render(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for (i, j) in sorted(self._terms, key=_grlex_key, reverse=True):
            c = self._terms[(i, j)]
            mono: list[str] = []
            if abs(c) != 1 or (i == 0 and j == 0):
                mono.append(str(abs(c)))
            if i:
                mono.append("l" if i == 1 else f"l**{i}")
            if j:
                mono.append("m" if j == 1 else f"m**{j}")
            body = "*".join(mono)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# Polynomial gcd over Z[lam, mu] by one primitive PRS that recurses on the
# variables.  `_gcd(a, b, v)` views a and b as univariate in variable v
# (0 = lam, 1 = mu) with coefficients free of v: the contents come from
# recursing at v + 1, and pseudo-division uses ParamPoly's own arithmetic.
# A single-term argument (every integer is one) ends the recursion.
# Polynomials are small (degrees rarely exceed ~10), so no factorization
# is attempted.
# ---------------------------------------------------------------------------

# Entries kept by the poly_gcd memo (see the module docstring).
GCD_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=GCD_CACHE_SIZE)
def poly_gcd(a: ParamPoly, b: ParamPoly) -> ParamPoly:
    """gcd over Z[lam, mu], positive leading coefficient under grlex."""
    g = _gcd(a, b, 0)
    if g.is_zero():
        return g
    _, lead = g.leading()
    return g.scale(-1) if lead < 0 else g


def _gcd(a: ParamPoly, b: ParamPoly, v: int) -> ParamPoly:
    """gcd up to sign of a and b, neither of which contains a variable < v."""
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    if len(a.terms) == 1 or len(b.terms) == 1:
        # the divisors of a monomial are monomials; at v == 2 both are integers
        expos = (*a.terms, *b.terms)
        lowest = (min(i for i, _ in expos), min(j for _, j in expos))
        return ParamPoly._clean({lowest: math.gcd(*a.terms.values(), *b.terms.values())})
    ca, cb = _content(a, v), _content(b, v)
    f, g = a.exact_div(ca), b.exact_div(cb)
    if _degree(f, v) < _degree(g, v):
        f, g = g, f
    while not g.is_zero():
        f, g = g, _primitive(_pseudo_rem(f, g, v), v)
    return f * _gcd(ca, cb, v + 1)


def _degree(p: ParamPoly, v: int) -> int:
    return max(k[v] for k in p.terms)


def _coeff(p: ParamPoly, v: int, e: int, s: int = 0) -> ParamPoly:
    """Coefficient of variable v to the power e in p, times variable v to the s."""
    return ParamPoly._clean(
        {((s, k[1]) if v == 0 else (k[0], s)): c for k, c in p.terms.items() if k[v] == e}
    )


def _content(p: ParamPoly, v: int) -> ParamPoly:
    """gcd of the coefficients of p viewed as univariate in variable v."""
    g = ParamPoly()
    for e in {k[v] for k in p.terms}:
        g = _gcd(g, _coeff(p, v, e), v + 1)
    return g


def _primitive(p: ParamPoly, v: int) -> ParamPoly:
    return p.exact_div(_content(p, v)) if not p.is_zero() else p


def _pseudo_rem(f: ParamPoly, g: ParamPoly, v: int) -> ParamPoly:
    """Pseudo-remainder of f by g in variable v."""
    dg = _degree(g, v)
    lg = _coeff(g, v, dg)
    r = f
    while not r.is_zero() and (dr := _degree(r, v)) >= dg:
        r = r * lg - g * _coeff(r, v, dr, dr - dg)
    return r


class RationalCoeff:
    """Reduced ratio of ParamPoly's; the scalar field of the term algebra.

    Immutable; arithmetic returns new values in canonical form, so exact
    equality of representations coincides with mathematical equality.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: ParamPoly, den: ParamPoly | None = None, *, _reduced: bool = False):
        if den is None:
            den = ParamPoly.const(1)
        if den.is_zero():
            raise CoeffDivisionError("zero denominator")
        if not _reduced:
            num, den = _reduce(num, den)
        self.num = num
        self.den = den
        self._hash: int | None = None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_int(cls, c: int) -> "RationalCoeff":
        return cls(ParamPoly.const(c), ParamPoly.const(1), _reduced=True)

    @classmethod
    def from_fraction(cls, q: Fraction | int) -> "RationalCoeff":
        q = Fraction(q)
        return cls(ParamPoly.const(q.numerator), ParamPoly.const(q.denominator), _reduced=True)

    # -- protocol -------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = RationalCoeff.from_int(other)
        if not isinstance(other, RationalCoeff):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __repr__(self) -> str:
        return f"RationalCoeff({self.render()})"

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "RationalCoeff") -> "RationalCoeff":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        # Henrici: with g = gcd(d1, d2), t = n1 (d2/g) + n2 (d1/g) is coprime
        # to (d1/g)(d2/g), so t/h over (d1/g)(d2/h) with h = gcd(t, g) is
        # reduced.  Quotients of positive-leading polynomials stay
        # positive-leading, so it is canonical.
        d1, d2 = self.den, other.den
        if d1 == d2:
            g, d1g, t = d1, None, self.num + other.num
        else:
            g = poly_gcd(d1, d2)
            d1g = d1.exact_div(g)
            t = self.num * d2.exact_div(g) + other.num * d1g
        if t.is_zero():
            return ZERO
        h = poly_gcd(t, g)
        den = d2.exact_div(h)
        return RationalCoeff(t.exact_div(h), den if d1g is None else d1g * den, _reduced=True)

    def __neg__(self) -> "RationalCoeff":
        return RationalCoeff(-self.num, self.den, _reduced=True)

    def __sub__(self, other: "RationalCoeff") -> "RationalCoeff":
        return self + (-other)

    def __mul__(self, other: "RationalCoeff") -> "RationalCoeff":
        if self.is_zero() or other.is_zero():
            return ZERO
        # Cross-reduce: n1/d1 and n2/d2 stay reduced, n1/d2 and n2/d1 become
        # coprime, so the product is reduced.  Dividing by a positive-leading
        # gcd keeps each denominator positive-leading, and grlex leading
        # coefficients multiply, so the product is already canonical.
        g1 = poly_gcd(self.num, other.den)
        g2 = poly_gcd(other.num, self.den)
        n1, d2 = self.num.exact_div(g1), other.den.exact_div(g1)
        n2, d1 = other.num.exact_div(g2), self.den.exact_div(g2)
        return RationalCoeff(n1 * n2, d1 * d2, _reduced=True)

    def __truediv__(self, other: "RationalCoeff") -> "RationalCoeff":
        if other.is_zero():
            raise CoeffDivisionError("division by zero coefficient")
        return self * other.inv()

    def inv(self) -> "RationalCoeff":
        if self.is_zero():
            raise CoeffDivisionError("inverse of zero coefficient")
        # den/num is already reduced; only the sign may need moving
        if self.num.leading()[1] < 0:
            return RationalCoeff(-self.den, -self.num, _reduced=True)
        return RationalCoeff(self.den, self.num, _reduced=True)

    def scale(self, q: Fraction | int) -> "RationalCoeff":
        q = Fraction(q)
        return self._scaled(q.numerator, q.denominator)

    def _scaled(self, a: int, b: int) -> "RationalCoeff":
        """self * a/b for coprime integers a and b > 0.  Only the integer
        content changes: with g1 = gcd(a, content(den)) and
        g2 = gcd(b, content(num)), num (a/g1) / g2 over den (b/g2) / g1 is
        canonical."""
        if not a:
            return ZERO
        g1 = math.gcd(a, *self.den.terms.values())
        g2 = math.gcd(b, *self.num.terms.values())
        return RationalCoeff(
            self.num._ratio(a // g1, g2), self.den._ratio(b // g2, g1), _reduced=True
        )

    # -- evaluation / rendering ------------------------------------------

    def evaluate(self, lam: Fraction | int, mu: Fraction | int) -> Fraction:
        lam, mu = Fraction(lam), Fraction(mu)
        d = self.den.evaluate(lam, mu)
        if d == 0:
            raise CoeffPoleError(f"denominator vanishes at (lam={lam}, mu={mu})")
        return self.num.evaluate(lam, mu) / d

    def render(self) -> str:
        num = self.num.render()
        if self.den == ParamPoly.const(1):
            return num
        c = abs(self.den.content())
        prim = self.den.exact_div(ParamPoly.const(c))
        if c != 1 and not _is_one(prim):
            den = f"{c}*({prim.render()})"
        elif c != 1:
            den = str(c)
        else:
            den = f"({prim.render()})" if len(prim.terms) > 1 else prim.render()
        return f"(({num})) / ({den})"


def _is_one(p: ParamPoly) -> bool:
    return p.terms == {(0, 0): 1}


def _reduce(num: ParamPoly, den: ParamPoly) -> tuple[ParamPoly, ParamPoly]:
    if num.is_zero():
        return ParamPoly(), ParamPoly.const(1)
    g = poly_gcd(num, den)
    num, den = num.exact_div(g), den.exact_div(g)
    _, lead = den.leading()
    if lead < 0:
        num, den = -num, -den
    return num, den


# Shared constants for the formal parameters.
LAM = RationalCoeff(ParamPoly.lam())
MU = RationalCoeff(ParamPoly.mu())
ONE = RationalCoeff.from_int(1)
ZERO = RationalCoeff.from_int(0)


# ---------------------------------------------------------------------------
# Parsing of the rendering grammar (Python expression syntax over l, m).
# ---------------------------------------------------------------------------


def parse(text: str) -> RationalCoeff:
    """Parse a coefficient expression such as ``(2*l + 3*m) / (3*(l + 2*m))``."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise CoeffError(f"cannot parse coefficient {text!r}: {exc}") from exc
    return _from_ast(tree.body)


def _from_ast(node: ast.AST) -> RationalCoeff:
    if isinstance(node, ast.BinOp):
        left, right = _from_ast(node.left), _from_ast(node.right)
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        if isinstance(node.op, ast.Div):
            return left / right
        if isinstance(node.op, ast.Pow):
            if not (
                isinstance(node.right, ast.Constant)
                and _is_int_literal(node.right.value)
                and node.right.value >= 0
            ):
                raise CoeffError("only nonnegative integer powers are allowed")
            n = node.right.value
            out = ONE
            for _ in range(n):
                out = out * left
            return out
        raise CoeffError(f"unsupported operator {ast.dump(node.op)}")
    if isinstance(node, ast.UnaryOp):
        if isinstance(node.op, ast.USub):
            return -_from_ast(node.operand)
        if isinstance(node.op, ast.UAdd):
            return _from_ast(node.operand)
        raise CoeffError("unsupported unary operator")
    if isinstance(node, ast.Constant):
        if _is_int_literal(node.value):
            return RationalCoeff.from_int(node.value)
        raise CoeffError("only integer literals are allowed")
    if isinstance(node, ast.Name):
        if node.id == "l":
            return LAM
        if node.id == "m":
            return MU
        raise CoeffError(f"unknown symbol {node.id!r} (expected l or m)")
    raise CoeffError(f"unsupported syntax node {type(node).__name__}")


def _is_int_literal(value: object) -> bool:
    # bool is a subclass of int, but True and False are not integer literals
    return isinstance(value, int) and not isinstance(value, bool)
