"""The three workloads: inputs made from the seed, the lamegap calls one
repeat makes, and the checks on their outputs.

Every call goes through ``lamegap.cli.main`` or a public module function.
A repeat runs in its own process (see ``child.py``); ``run`` below is what
that process times.
"""

from __future__ import annotations

import ast
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

# certify: the full check suite on all nine families.  Depth 3, because
# depth 4 takes about 28 s per repeat on a 2-core x86_64 machine, which
# leaves no room for a median within one run.
CERTIFY_DEPTH = 3
FD_POINTS = 100
FD_EPS = 0.05
FD_FAMILIES = ((2, 1), (2, 2), (2, 3), (3, 1))
# A failed fd_oracle draw counts as correct only if, at the point it names,
# the exact derivative matches a central difference computed in exact
# rationals with this step (truncation error of order 1e-55 there).
EXACT_FD_STEP = Fraction(1, 10**30)
EXACT_FD_TOL = 1e-20
# the six families with a levels-1-2 golden dump under tests/data
DUMPED = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3))

# sweep: the default eps grid shape (four halvings from eps_max) on a
# coarser bulk mesh, so that five studies take a few seconds, not 30.
SWEEP_EPS_MAX = (0.08, 0.12)
STUDIES = ("rates", "constants", "compare", "cancel", "holes")
SWEEP_MESH = {"mesh.nr": 8, "mesh.arc_target": 0.24}

# export: three hard-inclusion solves, one eps per third of the decades in
# [1e-4, 1e-2], with gradients sampled at every fourth node.
EXPORT_LOG10_EPS = (-4.0, -2.0)
EXPORT_SOLVES = 3
EXPORT_STRIDE = 4

WHY = {
    "certify": "Entirely symbolic: family builds, the full check suite and a seeded fd_oracle "
               "draw. Coefficient-field work shows here; FEM changes must not.",
    "sweep": "The five eps-sweep studies: many small solves that repeat meshes, assemblies and "
             "factorizations. Factor-once caching shows here.",
    "export": "Field export: one factorization per mesh, nothing reused, sample dominates. "
              "A vectorized sample shows here; a factorization cache must not.",
}

# Which (metric, workload) pairs each roadmap performance item should move,
# and which it should leave within the metric's bound.
EXPECTATIONS = [
    {
        "item": "ROADMAP 2: coefficient field (gcd memo, integer scale, structured denominators)",
        "moves": [["wall_s", "certify"]],
        "unchanged": [["wall_s", "export"], ["peak_rss_mb", "export"], ["peak_rss_mb", "sweep"],
                      ["wall_s", "sweep"], ["setup_s", "certify"], ["setup_s", "sweep"],
                      ["setup_s", "export"]],
        "note": "sweep touches coefficients only through the depth-2 family build of the "
                "compare study, a few percent of its wall time",
    },
    {
        "item": "ROADMAP 3: one reduced system per constraint pattern, factorized once",
        "moves": [["wall_s", "sweep"]],
        "unchanged": [["wall_s", "certify"], ["peak_rss_mb", "certify"], ["wall_s", "export"],
                      ["peak_rss_mb", "export"], ["setup_s", "certify"], ["setup_s", "sweep"],
                      ["setup_s", "export"]],
        "note": "export factorizes each matrix once, so a cache has nothing to reuse there",
    },
    {
        "item": "ROADMAP 3: vectorized sample",
        "moves": [["wall_s", "export"], ["wall_s", "sweep"]],
        "unchanged": [["wall_s", "certify"], ["peak_rss_mb", "certify"], ["setup_s", "certify"],
                      ["setup_s", "sweep"], ["setup_s", "export"]],
        "note": "sample is most of export and a small part of sweep",
    },
]


def make_inputs(workload: str, seed: int) -> dict:
    rng = random.Random(f"lamebench/{workload}/{seed}")
    if workload == "certify":
        return {"depth": CERTIFY_DEPTH, "fd_seed": rng.randrange(2**32)}
    if workload == "sweep":
        e = rng.uniform(*SWEEP_EPS_MAX)
        lines = [f"study.id = bench{seed}", "sweep.eps = " + ", ".join(repr(e / 2**k) for k in range(4))]
        lines += [f"{k} = {v}" for k, v in SWEEP_MESH.items()]
        return {"config": "\n".join(lines) + "\n"}
    if workload == "export":
        lo, hi = EXPORT_LOG10_EPS
        width = (hi - lo) / EXPORT_SOLVES
        eps = [10 ** (lo + width * (k + rng.random())) for k in range(EXPORT_SOLVES)]
        return {"eps": eps}
    raise ValueError(f"unknown workload {workload!r}")


def run(workload: str, inputs: dict, out: Path) -> dict:
    """One repeat: the timed calls.  Output files are left in `out`; the
    returned dict holds what the checks need from memory."""
    from lamegap import cli

    if workload == "certify":
        return _certify(cli, inputs, out)
    codes = {}
    if workload == "sweep":
        cfg = out / "sweep.cfg"
        cfg.write_text(inputs["config"])
        for kind in STUDIES:
            codes[f"study {kind}"] = cli.main(
                ["study", kind, "--config", str(cfg),
                 "--json", str(out / f"{kind}.json"), "--out", str(out / f"{kind}.csv")])
    else:
        for k, eps in enumerate(inputs["eps"]):
            codes[f"fem solve eps={eps!r}"] = cli.main(
                ["fem", "solve", "--problem", "hard", "--eps", repr(eps),
                 "--stride", str(EXPORT_STRIDE), "--out", str(out / f"field{k}.csv")])
    return {"codes": codes}


def _certify(cli, inputs: dict, out: Path) -> dict:
    from lamegap import checks, families
    from lamegap.neck import DIM2, DIM3

    codes = {"aux verify": cli.main(
        ["aux", "verify", "--depth", str(inputs["depth"]), "--json", str(out / "verify.json")])}
    fams = {(d, a): families.build_family(DIM2 if d == 2 else DIM3, a, 3 if (d, a) in FD_FAMILIES else 2)
            for d, a in DUMPED}
    # the pool of acceptance criterion 6: nonzero components of levels 1-3
    pool = [c for key in FD_FAMILIES for l in (1, 2, 3) for c in fams[key].v(l).components
            if not c.is_zero()]
    rng = random.Random(inputs["fd_seed"])
    fd = []
    total = 0
    while total < FD_POINTS:
        scal = pool[len(fd) % len(pool)]
        axis = rng.choice(scal.dim.axes)
        n = min(4, FD_POINTS - total)
        fd.append((scal, axis, checks.fd_oracle(scal, axis, samples=n, eps=FD_EPS,
                                                seed=rng.randrange(10**6))))
        total += n
    return {
        "codes": codes,
        "fd_oracle": fd,
        "families": fams,
    }


def check(workload: str, result: dict, out: Path, root: Path) -> tuple[list, list[str]]:
    """(check, passed, witness) rows for one repeat, and notes to print."""
    notes: list[str] = []
    rows = [(f"{name} exit code", rc == 0, rc) for name, rc in result["codes"].items()]
    if workload == "certify":
        for r in json.loads((out / "verify.json").read_text()):
            md = r["metadata"]
            rows.append((f"{r['name']} d={md.get('d')} alpha={md.get('alpha')}",
                         r["status"] == "pass", r["witness"]))
        for k, (scal, axis, rep) in enumerate(result["fd_oracle"]):
            if rep.passed:
                rows.append((f"fd_oracle draw {k}", True, None))
                continue
            # fd_oracle stops at its first point over tol.  Its central
            # differences can miss tol by truncation alone where the
            # derivative is small, so the derivative is checked exactly there.
            err = _exact_fd_rel_err(scal, axis, rep)
            exact = err is not None and err < EXACT_FD_TOL
            rows.append((f"fd_oracle draw {k}: derivative exact at the failing point", exact,
                         f"{rep.witness}; exact-rational rel err {err!r}"))
            if exact:
                notes.append(f"known defect: fd_oracle draw {k} reports {rep.witness}, but the "
                             f"derivative there agrees with an exact-rational central difference "
                             f"to {err:.1e}")
        for (d, a), fam in result["families"].items():
            golden = json.loads((root / "tests" / "data" / f"family_d{d}_a{a}_levels12.json").read_text())
            levels = [fam.v(1).to_json_obj(), fam.v(2).to_json_obj()]
            rows.append((f"levels 1-2 d={d} alpha={a} equal the dump", golden["levels"] == levels, None))
    elif workload == "export":
        for path in sorted(out.glob("field*.csv")):
            with open(path) as fh:
                header = fh.readline().strip()
                cells = [line.rstrip("\n").split(",") for line in fh]
            shape_ok = header == "x,y,u1,u2,g11,g12,g21,g22" and cells and all(len(c) == 8 for c in cells)
            rows.append((f"{path.name} has the header and 8 columns per row", bool(shape_ok), None))
            # Not a gate yet: under numpy 2 the CLI writes np.float64 reprs,
            # so no cell parses as a float.  Gate on it once it writes floats.
            bad = sum(not _is_float(v) for c in cells for v in c)
            if bad:
                notes.append(f"known defect: {bad} of {8 * len(cells)} cells in {path.name} "
                             f"are not float literals, e.g. {cells[0][0]!r}")
    return rows, notes


def _exact_fd_rel_err(scal, axis: str, rep) -> float | None:
    """Relative error of ``scal.diff(axis)`` against a central difference
    in exact rationals (step EXACT_FD_STEP) at the point named in the
    witness of a failed fd_oracle report; None if it names no point."""
    m = re.search(r" at \((\[.*?\]), (\S+)\): min rel err", rep.witness or "")
    if not m:
        return None
    xp = [Fraction(v) for v in ast.literal_eval(m.group(1))]
    z = Fraction(float(m.group(2)))
    eps = Fraction(rep.metadata["eps"])
    h = EXACT_FD_STEP
    if axis == "z":
        up = scal.evaluate(xp, z + h, eps, 1, 1)
        dn = scal.evaluate(xp, z - h, eps, 1, 1)
    else:
        i = scal.dim.axes.index(axis)
        xu, xd = list(xp), list(xp)
        xu[i] += h
        xd[i] -= h
        up = scal.evaluate(xu, z, eps, 1, 1)
        dn = scal.evaluate(xd, z, eps, 1, 1)
    ex = scal.diff(axis).evaluate(xp, z, eps, 1, 1)
    return float(abs((up - dn) / (2 * h) - ex) / max(abs(ex), Fraction(1, 10**12)))


def _is_float(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def compared_files(workload: str) -> list[str]:
    """Output files that must be byte-identical across the repeats of a run."""
    if workload == "sweep":
        return [f"{k}.{ext}" for k in STUDIES for ext in ("json", "csv")]
    if workload == "export":
        return [f"field{k}.csv" for k in range(EXPORT_SOLVES)]
    return ["verify.json"]
