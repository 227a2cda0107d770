"""Exact arithmetic in the ring of the auxiliary families' coefficients.

Every coefficient of the auxiliary neck families lies in the ring

    R = Q[lam, mu][1/mu, 1/(lam+2mu)]:

the families divide only by integers and by the two Lame moduli mu and
lam+2mu.  With s = lam + 2mu, R is the ring of Laurent polynomials in mu
and s over Q, and a coefficient is stored as

    x = (1/c) * sum n_ij mu^i s^j,        i, j in Z,

a map (i, j) -> n_ij of nonzero integers over one positive integer c, with
gcd(c, n_ij, ...) = 1.  mu and s are algebraically independent, so this
form is canonical: exact equality of representations is equality in R, and
no polynomial gcd is ever needed.

* ``+`` merges the maps over lcm(c1, c2), ``*`` convolves them over c1 c2,
  and ``_scaled`` by an integer or a Fraction touches only integers; each
  ends with one integer gcd that restores gcd(c, content) = 1.
* Multiplying by a one-term coefficient such as ``MU`` or ``LAM_P_2MU``
  shifts exponents.
* An operation whose result leaves R raises :class:`CoeffError` where it
  happens: a constructor or :func:`parse` input whose denominator is not
  +-c mu^a (lam+2mu)^b, and ``inv`` of a coefficient with more than one term.

The (lam, mu) form of x is P / (c mu^a (lam+2mu)^b): a and b are the
smallest shifts that make every exponent of mu^a s^b x nonnegative, and P
is the polynomial c mu^a s^b x expanded in lam and mu.  It is in lowest
terms over Z[lam, mu] (mu does not divide P when a > 0, nor lam+2mu when
b > 0, and s = lam + 2mu is an integer change of variables, so the content
of P is that of the n_ij), and its denominator has a positive leading
coefficient.  ``num`` (cached per instance), ``den`` and ``render`` give
that form, so every rendering is the one of the ratio num/den in lowest
terms.

``ParamPoly`` is the integer polynomial in (lam, mu) that ``num`` and
``den`` return, with its own exact division and a primitive-PRS gcd
(:func:`poly_gcd`).

Text rendering uses ``l`` for lam and ``m`` for mu, e.g.
``((2*l + 3*m)) / (3*(l + 2*m))``; :func:`parse` accepts the same grammar.
"""

from __future__ import annotations

import ast
import functools
import math
import operator
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


def _is_one(p: "ParamPoly") -> bool:
    return p.terms == {(0, 0): 1}


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
        c = int(c)
        return cls._clean({(0, 0): c} if c else {})

    @classmethod
    def lam(cls) -> "ParamPoly":
        return cls._clean({(1, 0): 1})

    @classmethod
    def mu(cls) -> "ParamPoly":
        return cls._clean({(0, 1): 1})

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
        t1, t2 = self._terms, other._terms
        if len(t1) < len(t2):
            t1, t2 = t2, t1
        if len(t2) == 1:
            # a monomial factor shifts exponents; Z has no zero divisors
            ((i2, j2), c2), = t2.items()
            return ParamPoly._clean({(i + i2, j + j2): c * c2 for (i, j), c in t1.items()})
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
        if len(self._terms) == 1:
            ((i, j), c), = self._terms.items()
            return ParamPoly._clean({(i * n, j * n): c**n})
        result = ParamPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def scale(self, c: int) -> "ParamPoly":
        if c == 0:
            return ParamPoly()
        return ParamPoly._clean({k: c * v for k, v in self._terms.items()})

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
# is attempted.  RationalCoeff needs no gcd of polynomials (see the module
# docstring); this is a ParamPoly utility.
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
# Laurent polynomials in (mu, s = lam + 2mu); see the module docstring.
# ---------------------------------------------------------------------------

Terms = dict[tuple[int, int], int]  # (mu exponent, s exponent) -> integer

_L2M = ParamPoly._clean({(1, 0): 1, (0, 1): 2})


@functools.lru_cache(maxsize=None)
def _modulus_power(a: int, b: int) -> ParamPoly:
    """mu^a (lam+2mu)^b, expanded."""
    return ParamPoly._clean({(0, a): 1}) * _L2M**b


def _from_lam_mu(p: ParamPoly) -> Terms:
    """p in the (mu, s) basis: lam^i mu^j = sum_k C(i, k) (-2)^k mu^(j+k) s^(i-k)."""
    out: Terms = {}
    for (i, j), v in p.terms.items():
        for k in range(i + 1):
            key = (j + k, i - k)
            out[key] = out.get(key, 0) + v * math.comb(i, k) * (-2) ** k
    return {k: v for k, v in out.items() if v}


def _shifts(t: Terms) -> tuple[int, int]:
    """(a, b): the smallest mu and s powers whose product with t is a polynomial."""
    return max(0, -min(i for i, _ in t)), max(0, -min(j for _, j in t))


def _make(t: Terms, c: int) -> "RationalCoeff":
    """A RationalCoeff from a map and a denominator already in canonical form."""
    x = object.__new__(RationalCoeff)
    x._t = t
    x._c = c
    return x


def _canonical(t: Terms, c: int) -> "RationalCoeff":
    """t / c for a nonzero map t and c > 0, with gcd(c, content t) cancelled."""
    if c != 1:
        g = math.gcd(c, *t.values())
        if g != 1:
            t = {k: v // g for k, v in t.items()}
            c //= g
    return _make(t, c)


class RationalCoeff:
    """Element of Q[lam, mu][1/mu, 1/(lam+2mu)]; the scalar ring of the term algebra.

    Immutable; arithmetic returns new values in canonical form (see the
    module docstring), so exact equality of representations coincides with
    mathematical equality.  ``num`` and ``den`` are the (lam, mu) form,
    computed on first use.
    """

    __slots__ = ("_t", "_c", "_num")

    def __init__(self, num: ParamPoly, den: ParamPoly | None = None):
        c = 1
        t = _from_lam_mu(num)
        if den is not None:
            if den.is_zero():
                raise CoeffDivisionError("zero denominator")
            d = _from_lam_mu(den)
            if len(d) != 1:
                raise CoeffError(
                    f"denominator {den.render()} is not of the form +-c mu^a (lam+2mu)^b"
                )
            ((a, b), dv), = d.items()
            sign = 1 if dv > 0 else -1
            t = {(i - a, j - b): sign * v for (i, j), v in t.items()}
            c = abs(dv)
        x = _canonical(t, c) if t else ZERO
        self._t, self._c = x._t, x._c

    # -- constructors -------------------------------------------------

    @classmethod
    def from_int(cls, c: int) -> "RationalCoeff":
        return _make({(0, 0): int(c)} if c else {}, 1)

    @classmethod
    def from_fraction(cls, q: Fraction | int) -> "RationalCoeff":
        q = Fraction(q)
        return _make({(0, 0): q.numerator} if q else {}, q.denominator)

    # -- the (lam, mu) form ---------------------------------------------

    @property
    def num(self) -> ParamPoly:
        """The numerator P(lam, mu) of the lowest-terms ratio (cached)."""
        try:
            return self._num
        except AttributeError:
            out: dict[tuple[int, int], int] = {}
            if self._t:
                a, b = _shifts(self._t)
                # mu^i s^j = sum_r C(j, r) 2^(j-r) lam^r mu^(i+j-r)
                for (i, j), v in self._t.items():
                    i, j = i + a, j + b
                    for r in range(j + 1):
                        key = (r, i + j - r)
                        out[key] = out.get(key, 0) + v * math.comb(j, r) * 2 ** (j - r)
            self._num = ParamPoly._clean({k: v for k, v in out.items() if v})
            return self._num

    @property
    def den(self) -> ParamPoly:
        """The denominator c mu^a (lam+2mu)^b, expanded."""
        if not self._t:
            return ParamPoly.const(1)
        return _modulus_power(*_shifts(self._t)).scale(self._c)

    # -- protocol -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._t

    def __bool__(self) -> bool:
        return bool(self._t)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = RationalCoeff.from_int(other)
        if not isinstance(other, RationalCoeff):
            return NotImplemented
        return self._c == other._c and self._t == other._t

    def __hash__(self) -> int:
        return hash((frozenset(self._t.items()), self._c))

    def __repr__(self) -> str:
        return f"RationalCoeff({self.render()})"

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "RationalCoeff") -> "RationalCoeff":
        t1, t2 = self._t, other._t
        if not t1:
            return other
        if not t2:
            return self
        c1, c2 = self._c, other._c
        if len(t1) < len(t2):
            t1, t2, c1, c2 = t2, t1, c2, c1
        # copy the larger map over the common denominator, merge the smaller one
        g = math.gcd(c1, c2)
        m1, m2 = c2 // g, c1 // g
        out = t1.copy() if m1 == 1 else {k: v * m1 for k, v in t1.items()}
        c1 *= m1
        for k, v in t2.items():
            v = v * m2 + out.get(k, 0)
            if v:
                out[k] = v
            else:
                del out[k]
        if not out:
            return ZERO
        return _canonical(out, c1)

    def __neg__(self) -> "RationalCoeff":
        return _make({k: -v for k, v in self._t.items()}, self._c)

    def __sub__(self, other: "RationalCoeff") -> "RationalCoeff":
        return self + (-other)

    def __mul__(self, other: "RationalCoeff") -> "RationalCoeff":
        t1, t2 = self._t, other._t
        if not t1 or not t2:
            return ZERO
        if len(t1) < len(t2):
            t1, t2 = t2, t1
        if len(t2) == 1:
            ((i2, j2), v2), = t2.items()
            out = {(i + i2, j + j2): v * v2 for (i, j), v in t1.items()}
        else:
            out = {}
            for (i2, j2), v2 in t2.items():
                for (i, j), v in t1.items():
                    k = (i + i2, j + j2)
                    out[k] = out.get(k, 0) + v * v2
            # R is an integral domain: the product of nonzero factors is nonzero
            out = {k: v for k, v in out.items() if v}
        return _canonical(out, self._c * other._c)

    def __truediv__(self, other: "RationalCoeff") -> "RationalCoeff":
        if other.is_zero():
            raise CoeffDivisionError("division by zero coefficient")
        return self * other.inv()

    def inv(self) -> "RationalCoeff":
        """1/self; the units of R are the one-term coefficients."""
        if not self._t:
            raise CoeffDivisionError("inverse of zero coefficient")
        if len(self._t) != 1:
            raise CoeffError(
                f"1/({self.render()}) is not in Q[lam, mu][1/mu, 1/(lam+2mu)]"
            )
        ((i, j), v), = self._t.items()
        return _make({(-i, -j): self._c if v > 0 else -self._c}, abs(v))

    def scale(self, q: Fraction | int) -> "RationalCoeff":
        q = Fraction(q)
        return self._scaled(q.numerator, q.denominator)

    def _scaled(self, n: int, m: int) -> "RationalCoeff":
        """self * n/m for coprime integers n and m > 0.  With g1 = gcd(n, c)
        and g2 = gcd(m, content), the map times (n/g1)/g2 over c (m/g2)/g1
        is canonical."""
        if not n:
            return ZERO
        t, c = self._t, self._c
        if not t or n == m == 1:
            return self
        g1 = math.gcd(n, c) if c != 1 else 1
        g2 = math.gcd(m, *t.values()) if m != 1 else 1
        n //= g1
        if g2 == 1:
            out = {k: v * n for k, v in t.items()}
        else:
            out = {k: v // g2 * n for k, v in t.items()}
        return _make(out, c // g1 * (m // g2))

    # -- evaluation / rendering ------------------------------------------

    def evaluate(self, lam: Fraction | int, mu: Fraction | int) -> Fraction:
        """The value at (lam, mu), summed in integers.

        With mu = p/q, s = lam + 2mu = r/w, the shifts (a, b) and A, B the
        largest shifted exponents i + a and j + b, the integer
        N = sum n_ij p^(i+a) q^(A-i-a) r^(j+b) w^(B-j-b) gives
        x = N q^a w^b / (c q^A w^B p^a r^b).
        """
        lam, mu = Fraction(lam), Fraction(mu)
        if not self._t:
            return Fraction(0)
        a, b = _shifts(self._t)
        s = lam + 2 * mu
        p, q, r, w = mu.numerator, mu.denominator, s.numerator, s.denominator
        if (a and not p) or (b and not r):
            raise CoeffPoleError(f"denominator vanishes at (lam={lam}, mu={mu})")
        big_a = max(i for i, _ in self._t) + a
        big_b = max(j for _, j in self._t) + b
        total = 0
        for (i, j), v in self._t.items():
            i, j = i + a, j + b
            total += v * p**i * q ** (big_a - i) * r**j * w ** (big_b - j)
        return Fraction(total * q**a * w**b, self._c * q**big_a * w**big_b * p**a * r**b)

    def render(self) -> str:
        num = self.num.render()
        if not self._t:
            return num
        c = self._c
        a, b = _shifts(self._t)
        if c == 1 and not (a or b):
            return num
        prim = _modulus_power(a, b).render()
        if c != 1 and (a or b):
            den = f"{c}*({prim})"
        elif c != 1:
            den = str(c)
        else:
            den = f"({prim})" if b else prim
        return f"(({num})) / ({den})"


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
    return _in_ring(_from_ast(tree.body))


def _in_ring(x: "ParamPoly | RationalCoeff") -> RationalCoeff:
    return x if isinstance(x, RationalCoeff) else RationalCoeff(x)


_RING_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
             ast.Div: operator.truediv}
_SYMBOLS = {"l": ParamPoly.lam(), "m": ParamPoly.mu()}


def _from_ast(node: ast.AST) -> "ParamPoly | RationalCoeff":
    """A division-free subtree as a ParamPoly, converted to the ring only
    where it meets a division; any other subtree as a RationalCoeff."""
    kind = type(node)
    if kind is ast.BinOp:
        left, right = _from_ast(node.left), _from_ast(node.right)
        op = type(node.op)
        if op is ast.Pow:
            if not (
                isinstance(node.right, ast.Constant)
                and _is_int_literal(node.right.value)
                and node.right.value >= 0
            ):
                raise CoeffError("only nonnegative integer powers are allowed")
            n = node.right.value
            if type(left) is ParamPoly:
                return left**n
            out = ONE
            for _ in range(n):
                out = out * left
            return out
        fn = _RING_OPS.get(op)
        if fn is None:
            raise CoeffError(f"unsupported operator {ast.dump(node.op)}")
        if op is not ast.Div and type(left) is ParamPoly and type(right) is ParamPoly:
            return fn(left, right)
        return fn(_in_ring(left), _in_ring(right))
    if kind is ast.Constant:
        if _is_int_literal(node.value):
            return ParamPoly.const(node.value)
        raise CoeffError("only integer literals are allowed")
    if kind is ast.Name:
        poly = _SYMBOLS.get(node.id)
        if poly is None:
            raise CoeffError(f"unknown symbol {node.id!r} (expected l or m)")
        return poly
    if kind is ast.UnaryOp:
        if isinstance(node.op, ast.USub):
            return -_from_ast(node.operand)
        if isinstance(node.op, ast.UAdd):
            return _from_ast(node.operand)
        raise CoeffError("unsupported unary operator")
    raise CoeffError(f"unsupported syntax node {type(node).__name__}")


def _is_int_literal(value: object) -> bool:
    # bool is a subclass of int, but True and False are not integer literals
    return isinstance(value, int) and not isinstance(value, bool)
