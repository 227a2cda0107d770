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

The denominator is stored factored, as (c, a, b, rest) standing for
c * mu^a * (lam+2mu)^b * rest: c is a positive integer, and rest is
primitive, positive-leading and divisible by neither mu nor lam+2mu.  Every
denominator of the auxiliary families is built from the two Lame moduli mu
and lam+2mu, so there rest is 1; a general rest comes only from parsed or
otherwise general inputs.  ``num`` is a ParamPoly, and ``den`` expands the
factors on first use.

mu and lam+2mu are primitive and irreducible, so by Gauss's lemma the
factorization is unique and, for any numerator t,

    gcd(t, den) = gcd(c, content t) * mu^min(a, ord_mu t)
                  * (lam+2mu)^min(b, ord_l t) * gcd(t, rest),

where ord_mu t is the smallest mu exponent in t, and ord_l t, the order of
lam+2mu in t, comes from the test t(-2mu, mu) = 0 (one integer sum per
total degree) and an exact synthetic division for each factor found.  Only gcd(t, rest) needs the
primitive PRS (``poly_gcd``), and only when rest is not 1.  Each operation
computes only the gcds whose answer is not already known from its reduced
operands:

* ``scale`` by an integer or a Fraction a/b changes only the integer
  contents: it cancels gcd(a, c) and gcd(b, content(num)).
* ``+`` is Henrici's sum: with g = gcd(d1, d2), t = n1 (d2/g) + n2 (d1/g) is
  coprime to (d1/g)(d2/g), so only h = gcd(t, g) is left to cancel.
  gcd(d1, d2), d1/g and the product of denominators are integer and
  exponent arithmetic on the factors.
* ``*`` cross-reduces, gcd(n1, d2) and gcd(n2, d1); the product of the
  cross-reduced parts is already reduced.

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
# is attempted.  The field operations reach it only through the `rest`
# factor of a denominator, which is 1 for every family coefficient.
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Factored denominators (c, a, b, rest) = c * mu^a * (lam+2mu)^b * rest; see
# the module docstring.
# ---------------------------------------------------------------------------

Den = tuple[int, int, int, ParamPoly]

# The shared 1 that every `rest` free of other factors is (tested by identity).
_ONE = ParamPoly._clean({(0, 0): 1})
_UNIT: Den = (1, 0, 0, _ONE)
_L2M = ParamPoly._clean({(1, 0): 1, (0, 1): 2})


def _one_or(p: ParamPoly) -> ParamPoly:
    return _ONE if _is_one(p) else p


def _l2m_divides(p: ParamPoly) -> bool:
    """Whether lam + 2mu divides p: p(-2mu, mu) = 0, which is one integer
    sum per total degree."""
    sums: dict[int, int] = {}
    for (i, j), c in p._terms.items():
        v = c << i
        sums[i + j] = sums.get(i + j, 0) + (-v if i & 1 else v)
    return not any(sums.values())


def _div_l2m(p: ParamPoly) -> ParamPoly:
    """p / (lam + 2mu) for a p that lam + 2mu divides: synthetic division in
    lam, quotient rows q_{i-1} = p_i - 2 mu q_i from the top lam degree down."""
    rows: dict[int, dict[int, int]] = {}
    for (i, j), c in p._terms.items():
        rows.setdefault(i, {})[j] = c
    out: dict[tuple[int, int], int] = {}
    carry: dict[int, int] = {}
    for i in range(max(rows), 0, -1):
        row = dict(rows.get(i, ()))
        for j, q in carry.items():
            v = row.get(j + 1, 0) - 2 * q
            if v:
                row[j + 1] = v
            else:
                row.pop(j + 1, None)
        for j, q in row.items():
            out[(i - 1, j)] = q
        carry = row
    return ParamPoly._clean(out)


def _strip(p: ParamPoly, a: int, b: int) -> tuple[int, int, ParamPoly]:
    """(i, k, p / (mu^i (lam+2mu)^k)) for a nonzero p, with i = min(a, the
    mu order of p) and k = min(b, the lam+2mu order of p)."""
    i = min(a, min(j for _, j in p._terms)) if a else 0
    if i:
        p = ParamPoly._clean({(x, y - i): c for (x, y), c in p._terms.items()})
    k = 0
    while k < b and _l2m_divides(p):
        p = _div_l2m(p)
        k += 1
    return i, k, p


def _factor(p: ParamPoly) -> tuple[int, Den]:
    """(sign, den) with p = sign * den, for a nonzero p."""
    deg = max(i + j for i, j in p._terms)
    a, b, q = _strip(p, deg, deg)
    sign = 1 if q.leading()[1] > 0 else -1
    c = math.gcd(*q._terms.values())
    return sign, (c, a, b, _one_or(q._ratio(sign, c)))


@functools.lru_cache(maxsize=None)
def _modulus_power(a: int, b: int) -> ParamPoly:
    """mu^a (lam+2mu)^b, expanded."""
    return ParamPoly._clean({(0, a): 1}) * _L2M**b


def _times(n: ParamPoly, d: Den) -> ParamPoly:
    """n times the expanded d."""
    c, a, b, rest = d
    if a or b:
        n = n * _modulus_power(a, b)
    if rest is not _ONE:
        n = n * rest
    return n.scale(c) if c != 1 else n


def _expand(d: Den) -> ParamPoly:
    return _times(_ONE, d)


def _den_mul(d1: Den, d2: Den) -> Den:
    c1, a1, b1, r1 = d1
    c2, a2, b2, r2 = d2
    return (c1 * c2, a1 + a2, b1 + b2, r2 if r1 is _ONE else r1 if r2 is _ONE else r1 * r2)


def _den_div(d: Den, g: Den) -> Den:
    """d / g for a g that divides d."""
    c, a, b, r = d
    gc, ga, gb, gr = g
    return (c // gc, a - ga, b - gb, r if gr is _ONE else _one_or(r.exact_div(gr)))


def _den_gcd(d1: Den, d2: Den) -> Den:
    c1, a1, b1, r1 = d1
    c2, a2, b2, r2 = d2
    if r1 is _ONE or r2 is _ONE:
        r = _ONE
    else:
        r = r1 if r1 == r2 else _one_or(poly_gcd(r1, r2))
    return (math.gcd(c1, c2), min(a1, a2), min(b1, b2), r)


def _cancel(n: ParamPoly, d: Den) -> tuple[ParamPoly, Den]:
    """n / d in lowest terms, (n/h, d/h) with h = gcd(n, d), for a nonzero n."""
    c, a, b, rest = d
    i, k, n = _strip(n, a, b)
    g = math.gcd(c, *n._terms.values()) if c != 1 else 1
    if g != 1:
        n = n._ratio(1, g)
    if rest is not _ONE:
        h = poly_gcd(n, rest)
        if not _is_one(h):
            n, rest = n.exact_div(h), _one_or(rest.exact_div(h))
    return n, (c // g, a - i, b - k, rest)


def _make(num: ParamPoly, d: Den) -> "RationalCoeff":
    """A RationalCoeff from a numerator and denominator already in canonical
    form."""
    x = object.__new__(RationalCoeff)
    x.num = num
    x._d = d
    x._den = None
    x._hash = None
    return x


class RationalCoeff:
    """Reduced ratio of ParamPoly's; the scalar field of the term algebra.

    Immutable; arithmetic returns new values in canonical form, so exact
    equality of representations coincides with mathematical equality.
    ``num`` is a ParamPoly; the denominator is kept factored (see the module
    docstring), and ``den`` expands it on first use.
    """

    __slots__ = ("num", "_d", "_den", "_hash")

    def __init__(self, num: ParamPoly, den: ParamPoly | None = None):
        if den is None:
            den = _ONE
        if den.is_zero():
            raise CoeffDivisionError("zero denominator")
        if num.is_zero():
            num, d = ParamPoly(), _UNIT
        else:
            sign, d = _factor(den)
            num, d = _cancel(-num if sign < 0 else num, d)
        self.num = num
        self._d = d
        self._den: ParamPoly | None = None
        self._hash: int | None = None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_int(cls, c: int) -> "RationalCoeff":
        return _make(ParamPoly.const(c), _UNIT)

    @classmethod
    def from_fraction(cls, q: Fraction | int) -> "RationalCoeff":
        q = Fraction(q)
        return _make(ParamPoly.const(q.numerator), (q.denominator, 0, 0, _ONE))

    # -- protocol -------------------------------------------------------

    @property
    def den(self) -> ParamPoly:
        """The denominator, expanded (and cached)."""
        if self._den is None:
            self._den = _expand(self._d)
        return self._den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = RationalCoeff.from_int(other)
        if not isinstance(other, RationalCoeff):
            return NotImplemented
        return self.num == other.num and self._d == other._d

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
        # to (d1/g)(d2/g), so t/h over (d1/g)(d2/g)(g/h) with h = gcd(t, g)
        # is reduced.
        d1, d2 = self._d, other._d
        if d1 == d2:
            g, d12, t = d1, _UNIT, self.num + other.num
        else:
            g = _den_gcd(d1, d2)
            d1g, d2g = _den_div(d1, g), _den_div(d2, g)
            d12, t = _den_mul(d1g, d2g), _times(self.num, d2g) + _times(other.num, d1g)
        if t.is_zero():
            return ZERO
        t, gh = _cancel(t, g)
        return _make(t, _den_mul(d12, gh))

    def __neg__(self) -> "RationalCoeff":
        return _make(-self.num, self._d)

    def __sub__(self, other: "RationalCoeff") -> "RationalCoeff":
        return self + (-other)

    def __mul__(self, other: "RationalCoeff") -> "RationalCoeff":
        if self.is_zero() or other.is_zero():
            return ZERO
        # Cross-reduce: n1/d1 and n2/d2 stay reduced, n1/d2 and n2/d1 become
        # coprime, so the product is reduced.
        n1, d2 = _cancel(self.num, other._d)
        n2, d1 = _cancel(other.num, self._d)
        return _make(n1 * n2, _den_mul(d1, d2))

    def __truediv__(self, other: "RationalCoeff") -> "RationalCoeff":
        if other.is_zero():
            raise CoeffDivisionError("division by zero coefficient")
        return self * other.inv()

    def inv(self) -> "RationalCoeff":
        if self.is_zero():
            raise CoeffDivisionError("inverse of zero coefficient")
        # den/num is already reduced; only the sign may need moving
        sign, d = _factor(self.num)
        return _make(-self.den if sign < 0 else self.den, d)

    def scale(self, q: Fraction | int) -> "RationalCoeff":
        q = Fraction(q)
        return self._scaled(q.numerator, q.denominator)

    def _scaled(self, n: int, m: int) -> "RationalCoeff":
        """self * n/m for coprime integers n and m > 0.  Only the integer
        contents change: with g1 = gcd(n, c) and g2 = gcd(m, content(num)),
        num (n/g1) / g2 over the denominator with c (m/g2) / g1 is
        canonical."""
        if not n:
            return ZERO
        c, a, b, rest = self._d
        g1 = math.gcd(n, c)
        g2 = math.gcd(m, *self.num._terms.values())
        return _make(self.num._ratio(n // g1, g2), (c // g1 * (m // g2), a, b, rest))

    # -- evaluation / rendering ------------------------------------------

    def evaluate(self, lam: Fraction | int, mu: Fraction | int) -> Fraction:
        lam, mu = Fraction(lam), Fraction(mu)
        c, a, b, rest = self._d
        d = c * mu**a * (lam + 2 * mu) ** b * rest.evaluate(lam, mu)
        if d == 0:
            raise CoeffPoleError(f"denominator vanishes at (lam={lam}, mu={mu})")
        return self.num.evaluate(lam, mu) / d

    def render(self) -> str:
        num = self.num.render()
        c, a, b, rest = self._d
        if self._d == _UNIT:
            return num
        prim = _expand((1, a, b, rest))
        if c != 1 and not _is_one(prim):
            den = f"{c}*({prim.render()})"
        elif c != 1:
            den = str(c)
        else:
            den = f"({prim.render()})" if len(prim.terms) > 1 else prim.render()
        return f"(({num})) / ({den})"


def _is_one(p: ParamPoly) -> bool:
    return p.terms == {(0, 0): 1}


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
