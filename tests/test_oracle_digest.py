"""The numeric oracles, pinned byte for byte: for every nonzero component of
levels 1-3 of every integral family, its exact and float values at one
point and the ``fd_oracle`` reports along every axis.

The SHA-256 of that stream is ``fd_oracle_depth3`` in
``tests/data/exact_digests.json``.  A change to ``NeckScalar.evaluate`` or
to ``fd_oracle`` that moves one rounding, one report field or one witness
fails here.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

from lamegap.checks import fd_oracle
from lamegap.families import alpha_range, build_family
from lamegap.neck import DIM2, DIM3

DIGESTS = json.loads((Path(__file__).parent / "data" / "exact_digests.json").read_text())

# an interior point of the neck for either dimension: |z| < delta/2
POINT = dict(z=Fraction(1, 50), eps=Fraction(1, 20), lam=Fraction(3, 2), mu=Fraction(2, 3))
X = (Fraction(1, 10), Fraction(-1, 7))
# the default tolerance, and one that most draws miss, so that failing
# reports and their witnesses are pinned too
TOLS = (1e-6, 1e-13)


def oracle_stream() -> bytes:
    rng = random.Random(5)
    rows = []
    for dim in (DIM2, DIM3):
        xp = list(X[: dim.n_tangential])
        for alpha in alpha_range(dim):
            fam = build_family(dim, alpha, 3)
            for l in (1, 2, 3):
                for i, comp in enumerate(fam.v(l).components):
                    if comp.is_zero():
                        continue
                    rows.append({
                        "family": f"d{dim.d}_a{alpha}",
                        "level": l,
                        "comp": i + 1,
                        "exact": str(comp.evaluate(xp, **POINT)),
                        "float": comp.evaluate(xp, **POINT, mode="float"),
                        "fd_oracle": [
                            fd_oracle(comp, axis, samples=6, eps=0.05, seed=seed, tol=tol).to_json_obj()
                            for axis in dim.axes
                            for seed in [rng.randrange(10**6)]
                            for tol in TOLS
                        ],
                    })
    return json.dumps(rows, indent=1, sort_keys=True).encode()


def test_oracle_stream_matches_its_digest():
    assert hashlib.sha256(oracle_stream()).hexdigest() == DIGESTS["fd_oracle_depth3"]
