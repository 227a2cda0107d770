"""An independent check of the 2D families: sympy re-derives L v^l and the
boundary traces from the serialized levels (``to_json_obj``), without the
term algebra's equality or the coefficient field's.

The arithmetic is sympy's sparse field Q(x, z, eps, l, m): its elements are
kept cancelled over a polynomial gcd, so a difference is zero exactly when
it compares equal to 0.  (The same check through generic expressions and
``sympy.cancel`` takes several times as long.)
"""

from __future__ import annotations

import pytest

from lamegap.families import build_family
from lamegap.neck import DIM2

sympy = pytest.importorskip("sympy")
from sympy.polys.fields import field  # noqa: E402

F, x, z, eps, l, m = field("x,z,eps,l,m", sympy.QQ)
NAMES = {"l": sympy.Symbol("l"), "m": sympy.Symbol("m")}
delta = eps + x**2
DEPTH = 3


def _scalar(terms: list[dict], zval=z):
    """The sum of coeff * x^p * z^q * eps^s / delta^r, with z = zval."""
    out = F(0)
    for t in terms:
        coeff = F.from_expr(sympy.sympify(t["coeff"], locals=NAMES))
        (p,) = t["p"]
        out += coeff * x**p * zval ** t["q"] * eps ** t["s"] / delta ** t["r"]
    return out


def _lame(u: list) -> list:
    """mu Lap u_i + (lam + mu) d_i div u, with axes (x, z)."""
    axes = (x, z)
    div = sum((c.diff(a) for c, a in zip(u, axes)), F(0))
    return [
        m * sum((c.diff(a).diff(a) for a in axes), F(0)) + (l + m) * div.diff(a)
        for c, a in zip(u, axes)
    ]


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_residuals_and_traces_match_sympy(alpha):
    fam = build_family(DIM2, alpha, DEPTH)
    top, bottom = delta / 2, -delta / 2
    # psi_alpha of rigid_basis(DIM2) on z = delta/2
    psi = ((F(1), F(0)), (F(0), F(1)), (top, -x))[alpha - 1]
    acc = [F(0), F(0)]
    for level in range(1, DEPTH + 1):
        v_obj = fam.v(level).to_json_obj()
        acc = [a + b for a, b in zip(acc, _lame([_scalar(c) for c in v_obj]))]
        f = [_scalar(c) for c in fam.f(level).to_json_obj()]
        assert acc == f, (alpha, level)
        # level 1 is psi_alpha on the top boundary and 0 on the bottom; every
        # later level vanishes on both
        want = psi if level == 1 else (F(0), F(0))
        assert [_scalar(c, top) for c in v_obj] == list(want), (alpha, level)
        assert [_scalar(c, bottom) for c in v_obj] == [F(0), F(0)], (alpha, level)


def test_oracle_sees_a_perturbed_level():
    # the same comparison fails once one coefficient of v^2 moves
    fam = build_family(DIM2, 1, 2)
    v_obj = fam.v(2).to_json_obj()
    v_obj[0][0] = dict(v_obj[0][0], coeff=f"({v_obj[0][0]['coeff']}) + 1/m")
    acc = [a + b for a, b in zip(_lame([_scalar(c) for c in fam.v(1).to_json_obj()]),
                                 _lame([_scalar(c) for c in v_obj]))]
    assert acc != [_scalar(c) for c in fam.f(2).to_json_obj()]
    assert _scalar(v_obj[0], delta / 2) != 0
