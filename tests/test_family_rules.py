"""The per-family rules, pinned as literal tables for every d in {2, 3},
every alpha of the integral route and the levels 1..12: the kind of rigid
motion, the construction order, the level-2 split, the normal-degree caps
and the residual-order targets.

The construction and its checks read the same rules, so a misclassified
family would move both together and every other check would still pass;
these tables are what catches it.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from lamegap.checks import residual_order_targets, z_degree_caps
from lamegap.families import (
    FamilyError,
    alpha_range,
    construction_order,
    family_kind,
    uses_level2_split,
)
from lamegap.neck import DIM2, DIM3

LEVELS = range(1, 13)

# (d, alpha): (family_kind, construction_order, uses_level2_split)
RULES = {
    (2, 1): ("tangential", "tangential_first", False),
    (2, 2): ("normal", "normal_first", False),
    (2, 3): ("mixing", "tangential_first", True),
    (3, 1): ("tangential", "tangential_first", False),
    (3, 2): ("tangential", "tangential_first", False),
    (3, 3): ("normal", "normal_first", False),
    (3, 4): ("in_plane", "normal_first", False),
    (3, 5): ("mixing", "tangential_first", True),
    (3, 6): ("mixing", "tangential_first", True),
}
# one row per component, one column per level 1..12
Z_DEGREE_CAPS = {
    (2, 1): [
        [1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23],
        [2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24],
    ],
    (2, 2): [
        [2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24],
        [1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23],
    ],
    (2, 3): [
        [2, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22],
        [1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23],
    ],
    (3, 1): [
        [1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23],
        [1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23],
        [2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24],
    ],
    (3, 2): [
        [1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23],
        [1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23],
        [2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24],
    ],
    (3, 3): [
        [2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24],
        [2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24],
        [1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23],
    ],
    (3, 4): [
        [1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23],
        [1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23],
        [0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22],
    ],
    (3, 5): [
        [2, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22],
        [2, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22],
        [1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23],
    ],
    (3, 6): [
        [2, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22],
        [2, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22],
        [1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23],
    ],
}
# one row per component, one column per level 1..12
RESIDUAL_ORDER_TARGETS = {
    (2, 1): [
        ["-1", "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10"],
        ["-1/2", "1/2", "3/2", "5/2", "7/2", "9/2", "11/2", "13/2", "15/2", "17/2", "19/2", "21/2"],
    ],
    (2, 2): [
        ["-1/2", "1/2", "3/2", "5/2", "7/2", "9/2", "11/2", "13/2", "15/2", "17/2", "19/2", "21/2"],
        ["-1", "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10"],
    ],
    (2, 3): [
        ["-1", "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10"],
        ["-1/2", "1/2", "3/2", "5/2", "7/2", "9/2", "11/2", "13/2", "15/2", "17/2", "19/2", "21/2"],
    ],
    (3, 1): [
        ["-1", "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10"],
        ["-1", "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10"],
        ["-1/2", "1/2", "3/2", "5/2", "7/2", "9/2", "11/2", "13/2", "15/2", "17/2", "19/2", "21/2"],
    ],
    (3, 2): [
        ["-1", "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10"],
        ["-1", "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10"],
        ["-1/2", "1/2", "3/2", "5/2", "7/2", "9/2", "11/2", "13/2", "15/2", "17/2", "19/2", "21/2"],
    ],
    (3, 3): [
        ["-1/2", "1/2", "3/2", "5/2", "7/2", "9/2", "11/2", "13/2", "15/2", "17/2", "19/2", "21/2"],
        ["-1/2", "1/2", "3/2", "5/2", "7/2", "9/2", "11/2", "13/2", "15/2", "17/2", "19/2", "21/2"],
        ["-1", "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10"],
    ],
    (3, 4): [
        ["-1/2", "1/2", "3/2", "5/2", "7/2", "9/2", "11/2", "13/2", "15/2", "17/2", "19/2", "21/2"],
        ["-1/2", "1/2", "3/2", "5/2", "7/2", "9/2", "11/2", "13/2", "15/2", "17/2", "19/2", "21/2"],
        ["-1/2", "1/2", "3/2", "5/2", "7/2", "9/2", "11/2", "13/2", "15/2", "17/2", "19/2", "21/2"],
    ],
    (3, 5): [
        ["-1", "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10"],
        ["-1", "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10"],
        ["-1/2", "1/2", "3/2", "5/2", "7/2", "9/2", "11/2", "13/2", "15/2", "17/2", "19/2", "21/2"],
    ],
    (3, 6): [
        ["-1", "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10"],
        ["-1", "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10"],
        ["-1/2", "1/2", "3/2", "5/2", "7/2", "9/2", "11/2", "13/2", "15/2", "17/2", "19/2", "21/2"],
    ],
}

CELLS = sorted(RULES)


def _dim(d):
    return DIM2 if d == 2 else DIM3


def test_the_tables_cover_every_family():
    assert CELLS == [(dim.d, a) for dim in (DIM2, DIM3) for a in alpha_range(dim)]


@pytest.mark.parametrize("d, alpha", CELLS)
def test_family_kind(d, alpha):
    assert family_kind(_dim(d), alpha) == RULES[(d, alpha)][0]


@pytest.mark.parametrize("d, alpha", CELLS)
def test_construction_order_and_level2_split(d, alpha):
    _, order, split = RULES[(d, alpha)]
    assert construction_order(_dim(d), alpha) == order
    assert uses_level2_split(_dim(d), alpha) is split


@pytest.mark.parametrize("d, alpha", CELLS)
def test_z_degree_caps(d, alpha):
    got = [z_degree_caps(_dim(d), alpha, l) for l in LEVELS]
    assert [list(col) for col in zip(*got)] == Z_DEGREE_CAPS[(d, alpha)]


@pytest.mark.parametrize("d, alpha", CELLS)
def test_residual_order_targets(d, alpha):
    got = [residual_order_targets(_dim(d), alpha, l) for l in LEVELS]
    want = [[Fraction(t) for t in row] for row in RESIDUAL_ORDER_TARGETS[(d, alpha)]]
    assert [list(col) for col in zip(*got)] == want


@pytest.mark.parametrize("d, alpha", [(2, 0), (2, 4), (3, 0), (3, 7)])
def test_an_alpha_out_of_range_has_no_kind(d, alpha):
    with pytest.raises(FamilyError, match=f"alpha={alpha} invalid for d={d}"):
        family_kind(_dim(d), alpha)
    with pytest.raises(FamilyError):
        construction_order(_dim(d), alpha)
