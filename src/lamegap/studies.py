"""Epsilon-sweep studies tying the FEM solutions to the asymptotic claims.

One pass over the gap widths serves every study: at each eps a single case
meshes and assembles its one system, solves each boundary-value problem at
most once, and hands the fields to each study's record function.
Each study then fits log-log rates to its records and evaluates its
pass/fail criteria against tolerances carried in the configuration (every
threshold is echoed into the report; there are no hidden numbers).

The sorted eps grid is shared by two owners: the calling process takes
every other eps from the largest, and, with more than one CPU to run on,
one forked worker kept for the life of the caller takes the rest (with one
CPU the caller takes them all).  Each owner solves the eps it owns and
keeps their cases; only the configuration, the eps list and the records
cross the one duplex connection between the caller and its worker.

The cases outlive the call: each owner keeps those of the latest
configuration, so a later study on the same meshes reads the fields an
earlier one solved.  Once an eps has been read, its stiffness matrices and
factors are dropped (a later solve assembles the stiffness again), so only
the meshes and the solved fields stay.

Every quantity is read at mesh nodes.  Gradient magnitudes are measured as
the maximum absolute matrix entry.  "Gap" quantities are maximized over the
mid-gap band: the nodes of neck elements on the gap's mid-line with
|x1| <= 0.65 neck_halfwidth, each read in every incident element because P2
gradients jump across element edges (for the tangential translations the
maximum sits at the origin; for the rotation it sits near x1 ~ sqrt(eps)).
Origin quantities read the gap-center node.  The neck comparison reads the
nodal values of the interior band nodes and of the inclusion-1 arc nodes
with |x1| <= 0.2.
"""

from __future__ import annotations

import atexit
import contextlib
import csv
import functools
import io
import json
import math
import os
import pickle
import signal
import threading
import time
import traceback
from dataclasses import asdict, dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .families import MAX_DEPTH, build_family
from .fem.assembly import ElasticitySystem, assemble, check_ellipticity
from .fem.geometry import Geometry
from .fem.mesh import Mesh, MeshParams, generate_mesh
from .fem.solve import (
    PSI,
    DisplacementField,
    gap_center_node,
    incident_gradients,
    sample,
    solve_components,
    solve_hard_inclusion,
    solve_holes,
)
from .neck import DIM2

SCHEMA = "lamegap-study/1"


class StudyError(RuntimeError):
    pass


class SweepConfigError(StudyError, ValueError):
    """A sweep configuration the studies cannot run."""


class ReportFormatError(ValueError):
    """A JSON file that is not a study report."""


# ---------------------------------------------------------------------------
# Boundary data registry (outer Dirichlet data phi)
# ---------------------------------------------------------------------------

BOUNDARY_DATA = {
    # odd linear datum; activates the translation functionals b*_{11}, b*_{12}
    "default_odd": lambda x, y: (y, x + y),
    # odd cubic alternative for the sensitivity report
    "odd_cubic": lambda x, y: ((x * x + y * y) * y, (x * x + y * y) * (x + y)),
    # the rigid motions psi_1..3 of the inclusion problems
    **{f"rigid_psi{a}": psi for a, psi in enumerate(PSI, start=1)},
}


DEFAULT_TOLERANCES: dict[str, float] = {
    "u11_slope_lo": -1.1,
    "u11_slope_hi": -0.9,
    "u12_slope_lo": -1.1,
    "u12_slope_hi": -0.9,
    "u13_slope_lo": -0.6,
    "u13_slope_hi": -0.4,
    "full_slope_lo": -0.65,
    "full_slope_hi": -0.35,
    "dc1_slope_lo": 0.4,
    "dc1_slope_hi": 0.6,
    "dc3_rel_max": 1e-8,
    "bstar_rel_spread_max": 0.15,
    "compare_ratio_max": 3.0,
    "compare_control_slope_lo": -1.15,
    "compare_control_slope_hi": -0.85,
    "compare_boundary_trace_max": 1e-4,
    "cancel_slope_min": -0.1,
    "cancel_control_slope_lo": -1.15,
    "cancel_control_slope_hi": -0.85,
    "cancel_noise_floor": 1e-6,
    "rot_pair_bound": 1.05,
    "holes_slope_min": -0.6,
    "holes_rigid_abs_max": 1e-8,
}


@dataclass(frozen=True)
class SweepConfig:
    eps_grid: tuple[float, ...] = (0.1, 0.05, 0.025, 0.0125)
    R0: float = Geometry.R0
    rho1: float = Geometry.rho1
    rho2: float = Geometry.rho2
    lam: float = 1.0
    mu: float = 1.0
    phi: str = "default_odd"
    nz: int = MeshParams.nz
    ct: float = MeshParams.ct
    neck_halfwidth: float = MeshParams.neck_halfwidth
    arc_target: float = MeshParams.arc_target
    nr: int = MeshParams.nr
    radial_growth: float = MeshParams.radial_growth
    collar_width: float = MeshParams.collar_width
    compare_depth: int = 2
    study_id: str = "study"
    tolerances: tuple[tuple[str, float], ...] = tuple(sorted(DEFAULT_TOLERANCES.items()))

    def __post_init__(self):
        if len(set(self.eps_grid)) != len(self.eps_grid):
            raise SweepConfigError(f"eps grid has a repeated value: {list(self.eps_grid)}")
        if len(self.eps_grid) < 4:
            raise SweepConfigError("need at least 4 distinct grid points for an exponent fit")
        if not all(math.isfinite(e) and e > 0 for e in self.eps_grid):
            raise SweepConfigError("eps grid must be finite and positive")
        if self.phi not in BOUNDARY_DATA:
            raise SweepConfigError(f"unknown boundary datum {self.phi!r}")
        if BOUNDARY_DATA[self.phi] in PSI:
            # that rigid motion solves every inclusion problem: no study measures anything
            raise SweepConfigError(f"boundary datum {self.phi!r} is a rigid motion, which solves "
                                   "every inclusion problem; the studies need a deforming datum")
        if not 1 <= self.compare_depth <= MAX_DEPTH:
            raise SweepConfigError(
                f"compare depth must be in 1..{MAX_DEPTH}, got {self.compare_depth}"
            )
        names = [name for name, _ in self.tolerances]
        wrong = {
            "missing": DEFAULT_TOLERANCES.keys() - set(names),
            "unknown": set(names) - DEFAULT_TOLERANCES.keys(),
            "repeated": {name for name in names if names.count(name) > 1},
        }
        listed = "; ".join(f"{how} {', '.join(sorted(bad))}" for how, bad in wrong.items() if bad)
        if listed:
            raise SweepConfigError(f"tolerances must name each default tolerance once: {listed}")
        tol = self.tol
        for name, value in self.tolerances:
            if not math.isfinite(value):
                raise SweepConfigError(f"tolerance {name} must be finite, got {value!r}")
            hi = name[:-2] + "hi"
            if name.endswith("_slope_lo") and value > tol[hi]:
                raise SweepConfigError(f"tolerance {name} = {value!r} is above {hi} = {tol[hi]!r}: "
                                       "no slope can pass")
        check_ellipticity(self.lam, self.mu)
        # a GeometryError or MeshError for bad geometry or mesh parameters;
        # nothing is meshed here, so a mesh that folds (rho2 = 0.7) still
        # fails at its first eps (ROADMAP item 5(b))
        for eps in self.eps_grid:
            self.geometry(eps)
        self.mesh_params(max(self.eps_grid))

    @property
    def tol(self) -> dict[str, float]:
        return dict(self.tolerances)

    def geometry(self, eps: float) -> Geometry:
        return Geometry(eps=eps, R0=self.R0, rho1=self.rho1, rho2=self.rho2)

    def mesh_params(self, eps: float) -> MeshParams:
        # tangential grading sharpens like (eps/eps_max)^(1/3); the neck
        # comparison needs it so the value error scales with the gap
        scale = (eps / max(self.eps_grid)) ** (1.0 / 3.0)
        knobs = {f.name: getattr(self, f.name) for f in fields(MeshParams)}
        return MeshParams(**knobs | {"ct": self.ct * scale})

    def to_json_obj(self) -> dict:
        return {**asdict(self), "eps_grid": list(self.eps_grid), "tolerances": self.tol}


@dataclass
class RateFit:
    slope: float
    intercept: float
    r2: float
    residuals: list[float]
    sign_change: bool = False


def rate_fit(series: list[tuple[float, float]]) -> RateFit:
    """Least-squares log-log fit of |value| against eps.

    Requires >= 4 nonzero values; a sign change across the series is
    flagged (magnitudes are fitted either way).
    """
    if len(series) < 4:
        raise StudyError("rate_fit needs at least 4 points")
    if any(v == 0 for _, v in series):
        raise StudyError("rate_fit requires nonzero values")
    signs = {v > 0 for _, v in series}
    xs = [math.log(e) for e, _ in series]
    ys = [math.log(abs(v)) for _, v in series]
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    resid = [y - (slope * x + intercept) for x, y in zip(xs, ys)]
    ss_tot = sum((y - my) ** 2 for y in ys)
    r2 = 1.0 if ss_tot == 0 else 1.0 - sum(r * r for r in resid) / ss_tot
    return RateFit(slope, intercept, r2, resid, sign_change=len(signs) > 1)


@dataclass
class StudyReport:
    study: str
    study_id: str
    config: dict
    records: list[dict]
    fits: dict[str, dict]
    checks: dict[str, dict]

    @property
    def passed(self) -> bool:
        """Every applicable check passed (a check whose `passed` is None does
        not apply to this configuration)."""
        return all(c["passed"] for c in self.checks.values() if c["passed"] is not None)

    def to_json(self) -> str:
        obj = {**asdict(self), "schema": SCHEMA, "passed": self.passed}
        return json.dumps(obj, indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "StudyReport":
        obj = json.loads(text)
        if not isinstance(obj, dict) or obj.get("schema") != SCHEMA:
            raise ReportFormatError(f"not a study report (expected schema {SCHEMA!r})")
        keys = [f.name for f in fields(cls)]
        missing = [k for k in keys if k not in obj]
        if missing:
            raise ReportFormatError(f"study report lacks {', '.join(missing)}")
        if not (isinstance(obj["study"], str) and isinstance(obj["study_id"], str)
                and isinstance(obj["config"], dict)):
            raise ReportFormatError("study report 'study' and 'study_id' must be strings and 'config' an object")
        records, fits, checks = obj["records"], obj["fits"], obj["checks"]
        if not (isinstance(records, list) and all(isinstance(r, dict) for r in records)):
            raise ReportFormatError("study report 'records' is not a list of objects")
        if not (isinstance(fits, dict) and all(isinstance(f, dict) for f in fits.values())):
            raise ReportFormatError("study report 'fits' is not an object of objects")
        if not (
            isinstance(checks, dict)
            and all(
                isinstance(c, dict)
                and "passed" in c
                and (c["passed"] is None or isinstance(c["passed"], bool))
                for c in checks.values()
            )
        ):
            raise ReportFormatError(
                "study report 'checks' does not map names to objects whose 'passed' is true, false or null"
            )
        return cls(**{k: obj[k] for k in keys})

    def to_csv(self) -> str:
        """Row per (quantity, eps): eps, value, fit data and pass flag."""
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["study", "quantity", "eps", "value", "fit_slope", "fit_r2", "pass"])
        for key in sorted(self.fits):
            f = self.fits[key]
            for rec in self.records:
                if key in rec:
                    w.writerow(
                        [
                            self.study_id,
                            key,
                            repr(rec["eps"]),
                            repr(rec[key]),
                            repr(f["slope"]),
                            repr(f["r2"]),
                            int(self.passed),
                        ]
                    )
        return buf.getvalue()


def emit_report(report: StudyReport, fmt: str, path: str) -> None:
    if fmt == "json":
        text = report.to_json() + "\n"
    elif fmt == "csv":
        text = report.to_csv()
    else:
        raise StudyError(f"unknown report format {fmt!r}")
    with open(path, "w") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# One case per eps, shared by every study
# ---------------------------------------------------------------------------


class _EpsCase:
    """The geometry, its mesh and system, and the solved fields at one eps.

    The mesh is the case's geometry meshed with `cfg.mesh_params(eps)`, and
    the system assembles it with cfg.lam and cfg.mu; each is made on the
    first request.  A solver is called
    as `solver(system, *args)`, and each field is solved at most once,
    keyed by (solver, arguments).  The six component fields are solved
    together, on the first component request, and the hard-inclusion solve
    (`hard`) reuses them and their factor, solving only v_0.
    A case serves every config with the same `_solve_key`; `cfg` is the one
    it was made for, read only for what reaches a mesh or a solve.  A
    solver's result is kept as returned: a `DisplacementField` is read-only
    from construction.
    """

    def __init__(self, cfg: SweepConfig, eps: float):
        self.cfg, self.eps = cfg, eps
        self.geom = cfg.geometry(eps)
        self._system: ElasticitySystem | None = None
        self._fields: dict[tuple, object] = {}

    @functools.cached_property
    def mesh(self) -> Mesh:
        return generate_mesh(self.geom, self.cfg.mesh_params(self.eps))

    def field(self, solver: Callable, *args, **solved):
        """The kept result of `solver` on the case's system.  `solved`
        passes fields already solved on it; they follow from the key, so
        they are not part of it."""
        key = (solver, args)
        if key not in self._fields:
            if self._system is None:
                self._system = assemble(self.mesh, self.cfg.lam, self.cfg.mu)
            self._fields[key] = solver(self._system, *args, **solved)
        return self._fields[key]

    def component(self, i: int, alpha: int) -> DisplacementField:
        """v_i^alpha."""
        return self.field(solve_components)[i, alpha]

    def hard(self) -> tuple[DisplacementField, np.ndarray]:
        """The hard-inclusion field and C, from the kept component fields."""
        phi = BOUNDARY_DATA[self.cfg.phi]
        return self.field(solve_hard_inclusion, phi, components=self.field(solve_components))

    def release(self) -> None:
        """Drop the system's stiffness and factor; the mesh and fields stay."""
        if self._system is not None:
            self._system.release()

    def mid_gap(self) -> np.ndarray:
        """The mid-gap band nodes of the mesh: nodes of neck elements with
        |x| <= 0.65 neck_halfwidth on the gap's mid-line (gamma1 + gamma2)/2,
        to within 1e-9 of the local gap.  The band stations are graded like
        sqrt(gap), so these nodes resolve the neck at every eps."""
        nodes = _neck_nodes(self.mesh, 0.65 * self.cfg.neck_halfwidth)
        geom = self.geom
        x, y = self.mesh.nodes[nodes].T
        # Geometry.gamma1/gamma2 on the arrays (both square roots are correctly rounded)
        g1 = geom.center1[1] - np.sqrt(geom.rho1**2 - x * x)
        g2 = geom.center2[1] + np.sqrt(geom.rho2**2 - x * x)
        return nodes[np.abs(y - (g1 + g2) / 2) <= 1e-9 * (g1 - g2)]


def _neck_nodes(mesh: Mesh, half_extent: float) -> np.ndarray:
    """The nodes of neck elements with |x| <= half_extent, in index order."""
    nodes = np.unique(mesh.tris[mesh.elements_in("neck")])
    return nodes[np.abs(mesh.nodes[nodes, 0]) <= half_extent]


def _band_grads(case: _EpsCase, fld: DisplacementField) -> np.ndarray:
    """|gradient| entries at the mid-gap band nodes, in every incident element."""
    return np.abs(incident_gradients(fld, case.mid_gap()))


def _gap_max(case: _EpsCase, fld: DisplacementField) -> float:
    """Largest gradient entry over the mid-gap band."""
    return float(_band_grads(case, fld).max())


def _origin_grad(case: _EpsCase, fld: DisplacementField) -> float:
    """Largest gradient entry at the gap-center node."""
    center = gap_center_node(fld.mesh, case.eps)
    return float(np.abs(sample(fld, [center], "gradient")[0]).max())


def _record_rates(cfg: SweepConfig, case: _EpsCase) -> dict:
    rec = {}
    for alpha in (1, 2, 3):
        fld = case.component(1, alpha)
        grads = _band_grads(case, fld)
        # a translation's shear entry du_alpha/dz; every entry for the rotation
        rec[f"u1{alpha}_gap_max"] = float((grads[:, alpha - 1, 1] if alpha < 3 else grads).max())
        rec[f"u1{alpha}_origin"] = _origin_grad(case, fld)
    fld, _ = case.hard()
    rec["full_gap_max"] = _gap_max(case, fld)
    return rec


def _record_constants(cfg: SweepConfig, case: _EpsCase) -> dict:
    # the gap is eps + kappa x^2 near the origin (Geometry.gap_quadratic)
    kappa = (1 / case.geom.rho1 + 1 / case.geom.rho2) / 2
    root_gap = math.sqrt(kappa * case.eps)
    _, c = case.hard()
    rec = {"c_norm": float(np.abs(c).max())}
    for alpha in (1, 2, 3):
        rec[f"dc{alpha}"] = float(abs(c[0, alpha - 1] - c[1, alpha - 1]))
        rec[f"c1_{alpha}"] = float(c[0, alpha - 1])
        rec[f"c2_{alpha}"] = float(c[1, alpha - 1])
    rec["bstar11"] = math.pi * cfg.mu * rec["dc1"] / root_gap
    rec["bstar12"] = math.pi * (cfg.lam + 2 * cfg.mu) * rec["dc2"] / root_gap
    return rec


def _record_compare(cfg: SweepConfig, case: _EpsCase) -> dict:
    eps, geom = case.eps, case.geom
    fld = case.component(1, 1)

    vsum = build_family(DIM2, 1, cfg.compare_depth).partial_sum()

    def neck(x: float, z: float) -> np.ndarray:
        return np.array(
            [c.evaluate([x], z, eps, cfg.lam, cfg.mu, mode="float") for c in vsum.components]
        )

    mesh = fld.mesh
    near = _neck_nodes(mesh, 0.2)
    arc = np.intersect1d(near, mesh.boundary_nodes("incl1"))
    inner = np.setdiff1d(near, np.union1d(arc, mesh.boundary_nodes("incl2")))
    us = fld.u.reshape(-1, 2)
    err_max = err_norm_max = 0.0
    for n in inner.tolist():
        x, z = mesh.nodes[n].tolist()
        dc = geom.gap(x)
        # map onto the quadratic-model gap so boundary traces agree
        e = float(np.abs(us[n] - neck(x, z * (eps + x * x) / dc)).max())
        err_max = max(err_max, e)
        err_norm_max = max(err_norm_max, e / dc)
    u_max = float(np.abs(us[inner]).max())
    # boundary traces on the top arc
    trace_err = 0.0
    for n in arc.tolist():
        x = float(mesh.nodes[n, 0])
        trace_err = max(trace_err, float(np.abs(us[n] - neck(x, (eps + x * x) / 2)).max()))
    return {
        "err_max": err_max,
        "err_norm_max": err_norm_max,
        "u_max": u_max,
        "trace_err": trace_err,
        "control_grad_max": _gap_max(case, fld),
    }


def _record_cancel(cfg: SweepConfig, case: _EpsCase) -> dict:
    f11, f21, f13, f23 = (
        case.component(i, alpha) for alpha in (1, 3) for i in (1, 2)
    )
    return {
        "cancel_sum": _origin_grad(case, DisplacementField(f11.system, f11.u + f21.u)),
        "control_u11": _origin_grad(case, f11),
        "rot_pair": _origin_grad(case, DisplacementField(f13.system, f13.u + f23.u)),
    }


def _record_holes(cfg: SweepConfig, case: _EpsCase) -> dict:
    fld = case.field(solve_holes, BOUNDARY_DATA[cfg.phi])
    rigid = case.field(solve_holes, BOUNDARY_DATA["rigid_psi3"])
    rec = {"holes_gap_max": _gap_max(case, fld)}
    rec["u_inf_neck"] = float(np.abs(sample(fld, case.mid_gap(), "value")).max())
    rec["holes_normalized"] = rec["holes_gap_max"] / rec["u_inf_neck"]
    rec["rigid_grad"] = _origin_grad(case, rigid)
    rec["rigid_energy"] = rigid.energy()
    # variational identity: strain energy equals boundary work
    rec["energy"] = fld.energy()
    rec["boundary_work"] = fld.boundary_work()
    return rec


# ---------------------------------------------------------------------------
# Fits and checks
# ---------------------------------------------------------------------------


def _fit(records: list[dict], key: str) -> dict:
    return asdict(rate_fit([(r["eps"], r[key]) for r in records]))


def _bound_check(passed: bool, value, bound: float) -> dict:
    return {"passed": passed, "value": value, "bound": bound}


def _slope_check(tol: dict, fits: dict, checks: dict, key: str, window: str) -> None:
    """Check the fitted slope of `key` against tol[<window>_slope_lo/hi]."""
    slope, lo, hi = fits[key]["slope"], tol[f"{window}_slope_lo"], tol[f"{window}_slope_hi"]
    checks[f"{key}_slope"] = {"passed": lo <= slope <= hi, "value": slope, "lo": lo, "hi": hi}


def _report_rates(tol: dict, records: list[dict]) -> tuple[dict, dict]:
    fits, checks = {}, {}
    for name in ("u11", "u12", "u13", "full"):
        fits[f"{name}_gap_max"] = _fit(records, f"{name}_gap_max")
        _slope_check(tol, fits, checks, f"{name}_gap_max", name)
    return fits, checks


def _report_constants(tol: dict, records: list[dict]) -> tuple[dict, dict]:
    fits, checks = {}, {}
    usable = [r for r in records if r["dc1"] > 1e-10]
    if len(usable) >= 4:
        fits["dc1"] = _fit(usable, "dc1")
        _slope_check(tol, fits, checks, "dc1", "dc1")
        checks["dc1_slope"]["near_zero_excluded"] = len(usable) != len(records)
    else:
        checks["dc1_slope"] = {"passed": False, "value": None, "reason": "degenerate dc1"}
    dc3_rel = max(r["dc3"] / max(r["c_norm"], 1e-300) for r in records)
    checks["dc3_zero"] = _bound_check(dc3_rel < tol["dc3_rel_max"], dc3_rel, tol["dc3_rel_max"])
    bs = [r["bstar11"] for r in records]
    spread = (max(bs) - min(bs)) / abs(sum(bs) / len(bs)) if any(bs) else math.inf
    bound = tol["bstar_rel_spread_max"]
    checks["bstar11_stable"] = {**_bound_check(spread < bound, spread, bound), "estimates": bs}
    return fits, checks


def _report_compare(tol: dict, records: list[dict]) -> tuple[dict, dict]:
    fits = {"control_grad_max": _fit(records, "control_grad_max")}
    norm_vals = [r["err_norm_max"] for r in records]
    ratio = max(norm_vals) / min(norm_vals)
    trace_max = tol["compare_boundary_trace_max"]
    checks = {
        "normalized_error_bounded": _bound_check(
            ratio < tol["compare_ratio_max"], ratio, tol["compare_ratio_max"]
        ),
        "unnormalized_small": _bound_check(
            all(r["err_max"] < 0.1 * r["u_max"] for r in records),
            max(r["err_max"] / r["u_max"] for r in records),
            0.1,
        ),
        "boundary_trace": _bound_check(
            all(r["trace_err"] < trace_max for r in records),
            max(r["trace_err"] for r in records),
            trace_max,
        ),
    }
    _slope_check(tol, fits, checks, "control_grad_max", "compare_control")
    return fits, checks


def _report_cancel(tol: dict, records: list[dict]) -> tuple[dict, dict]:
    fits = {"control_u11": _fit(records, "control_u11")}
    checks: dict[str, dict] = {}
    _slope_check(tol, fits, checks, "control_u11", "cancel_control")
    floor = tol["cancel_noise_floor"] * max(r["control_u11"] for r in records)
    above = [r for r in records if r["cancel_sum"] > floor]
    if len(above) >= 4:
        fits["cancel_sum"] = _fit(above, "cancel_sum")
        slope = fits["cancel_sum"]["slope"]
        checks["cancel_bounded"] = _bound_check(
            slope >= tol["cancel_slope_min"], slope, tol["cancel_slope_min"]
        )
    else:
        # sums at discretization noise: bounded trivially
        checks["cancel_bounded"] = {
            "passed": True,
            "value": None,
            "note": "cancellation sums below noise floor",
            "floor": floor,
        }
    rot = max(r["rot_pair"] for r in records)
    checks["rotation_pair_bound"] = _bound_check(
        rot <= tol["rot_pair_bound"], rot, tol["rot_pair_bound"]
    )
    return fits, checks


def _report_holes(tol: dict, records: list[dict]) -> tuple[dict, dict]:
    fits = {key: _fit(records, key) for key in ("holes_gap_max", "holes_normalized")}
    slope = {key: fit["slope"] for key, fit in fits.items()}
    lo, rigid_max = tol["holes_slope_min"], tol["holes_rigid_abs_max"]
    # the rigid rotation's gradient is exactly 1 in magnitude at every eps
    rigid_dev = max(abs(r["rigid_grad"] - 1) for r in records)
    # |2 * energy - boundary work| against the boundary work, per eps
    balance = [
        (abs(2 * r["energy"] - r["boundary_work"]), max(abs(r["boundary_work"]), 1e-300))
        for r in records
    ]
    checks = {
        "holes_slope": _bound_check(slope["holes_gap_max"] >= lo, slope["holes_gap_max"], lo),
        "holes_normalized_slope": _bound_check(
            slope["holes_normalized"] >= lo, slope["holes_normalized"], lo
        ),
        "rigid_control": _bound_check(rigid_dev <= rigid_max, rigid_dev, rigid_max),
        "energy_balance": _bound_check(
            all(gap <= 1e-8 * work for gap, work in balance),
            max(gap / work for gap, work in balance),
            1e-8,
        ),
    }
    return fits, checks


# ---------------------------------------------------------------------------
# Studies
# ---------------------------------------------------------------------------

# kind -> (record function, report function), in command-line order, which
# is also the pass order: every kind before holes solves on the components'
# prescribed boundaries, so each system factorizes every set once although
# it keeps only the latest factor
_STUDIES = {
    "rates": (_record_rates, _report_rates),
    "constants": (_record_constants, _report_constants),
    "compare": (_record_compare, _report_compare),
    "cancel": (_record_cancel, _report_cancel),
    "holes": (_record_holes, _report_holes),
}


# checks that rest on a symmetry exchanging the two inclusions, which the
# domain has only for equal radii
_EXCHANGE_CHECKS = frozenset({"dc3_zero", "cancel_bounded", "rotation_pair_bound"})


def _mark_not_applicable(cfg: SweepConfig, checks: dict[str, dict]) -> None:
    """With unequal radii, record the exchange-symmetry checks with their
    values but as not applicable (`passed` None), so they cannot pass by
    accident or fail a run."""
    if cfg.rho1 == cfg.rho2:
        return
    reason = (
        "rests on the symmetry exchanging the inclusions, which needs "
        f"rho1 == rho2 (rho1 = {cfg.rho1!r}, rho2 = {cfg.rho2!r})"
    )
    for name in _EXCHANGE_CHECKS & checks.keys():
        checks[name] = {**checks[name], "passed": None, "reason": reason}


# SweepConfig fields that reach no mesh and no solve.  A config that differs
# from the kept cases' in any other field, or in max(eps_grid) (it grades
# the meshes), drops them.
_READ_ONLY_FIELDS = frozenset({"eps_grid", "compare_depth", "study_id", "tolerances"})

# the cases of the latest configuration: {_solve_key(cfg): {eps: case}}, at
# most one entry.  Each owner keeps its own: a worker starts with none.
_CASES: dict[tuple, dict[float, _EpsCase]] = {}


def _solve_key(cfg: SweepConfig) -> tuple:
    named = [(f.name, getattr(cfg, f.name)) for f in fields(cfg) if f.name not in _READ_ONLY_FIELDS]
    return (max(cfg.eps_grid), *named)


def _share_records(cfg: SweepConfig, kinds: tuple[str, ...], share: list[float]) -> tuple:
    """One owner's part of a pass: ({eps: {kind: record}} for the eps of
    `share` in order up to the first that raises, None or (that eps, its
    exception)).  Each eps's case is kept, made if need be, and released
    once read.  The cases of another configuration are dropped first, even
    for an empty share."""
    key = _solve_key(cfg)
    if key not in _CASES:
        _CASES.clear()
    cases = _CASES.setdefault(key, {})
    done = {}
    for eps in share:
        case = cases.get(eps) or cases.setdefault(eps, _EpsCase(cfg, eps))
        try:
            done[eps] = {
                kind: {"eps": eps, **record(cfg, case)}
                for kind, (record, _) in _STUDIES.items()
                if kind in kinds
            }
        except Exception as exc:
            return done, (eps, exc)
        finally:
            case.release()
    return done, None


# ---------------------------------------------------------------------------
# Owners: the calling process and at most one forked worker
# ---------------------------------------------------------------------------


class _Worker:
    """The forked owner.  It talks to the caller over one duplex
    `multiprocessing.connection` connection and closes the caller's end it
    inherits, so it sees EOF, and exits, once the caller has closed its end
    or died.  Forked, not spawned: a spawned worker would import numpy,
    scipy and lamegap again, about 0.6 s, which is more than the five
    studies of the benchmark's sweep take.  A fork copies only the forking
    thread, so `_owners` forks from a process with one Python thread;
    OpenBLAS stops its own thread pool before a fork (its pthread_atfork
    handler) and starts it again on next use."""

    def __init__(self) -> None:
        from multiprocessing.connection import Pipe  # a one-owner run loads none of it

        self.conn, child = Pipe()
        try:
            pid = os.fork()
        except OSError:
            self.conn.close()
            child.close()
            raise
        if pid == 0:
            code = 1
            try:
                self.conn.close()
                _serve(child)
                code = 0
            finally:
                os._exit(code)
        child.close()
        self.pid = pid

    def stop(self) -> None:
        """Close the connection and reap the worker; one that has not exited
        a second later is killed."""
        try:
            self.conn.close()
        finally:
            deadline = time.monotonic() + 1.0
            while not os.waitpid(self.pid, os.WNOHANG)[0]:
                if time.monotonic() > deadline:
                    os.kill(self.pid, signal.SIGKILL)
                    os.waitpid(self.pid, 0)
                    break
                time.sleep(0.001)


def _serve(conn) -> None:
    """A worker's life: answer each (cfg, kinds, share) request with
    `_share_records` until the caller's end closes."""
    # Ctrl-C reaches the caller, which still reads this worker's reply
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _CASES.clear()
    while True:
        try:
            request = conn.recv()
        except EOFError:
            return
        done, failure = _share_records(*request)
        if failure is not None:
            eps, exc = failure
            where = "".join(traceback.format_tb(exc.__traceback__))
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:  # pickle cannot carry it: send its class name and message
                exc = StudyError(f"{type(exc).__name__}: {exc}")
            if hasattr(exc, "add_note"):  # shown below the exception where the caller raises it
                exc.add_note(f"raised in study worker {os.getpid()}:\n{where}")
            failure = eps, exc
        conn.send((done, failure))


# the caller's worker, if it has one
_WORKERS: list[_Worker] = []


def _stop_workers() -> None:
    """Close the worker's connection and wait for it to exit."""
    while _WORKERS:
        _WORKERS.pop().stop()


atexit.register(_stop_workers)


def _owners() -> int:
    """How many processes share a pass: two, the caller and one worker,
    where this process may run on two CPUs or more; one where there is no
    fork, or where another Python thread runs (a fork copies only this one,
    whatever locks the others hold).  Two is the configuration that was
    measured; more workers would add a process each, and BLAS threads per
    process, for a gain not measured."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1:
        return 1
    return min(2, len(os.sched_getaffinity(0)))


def _pass(cfg: SweepConfig, kinds: tuple[str, ...]) -> list[dict[str, dict]]:
    """Every eps's records, in sweep order (largest eps first).  With two
    owners the caller solves grid[::2] and the worker grid[1::2]; with one,
    a kept worker gets an empty share, so it drops the cases of another
    configuration.  An exception is that of the first eps in sweep order
    that raised."""
    grid = sorted(cfg.eps_grid, reverse=True)
    two = _owners() == 2
    if two and not _WORKERS:
        try:
            _WORKERS.append(_Worker())
        except OSError:  # no process to be had: one owner
            two = False
    ours, theirs = (grid[::2], grid[1::2]) if two else (grid, [])
    worker = _WORKERS[0] if _WORKERS else None
    # the worker is stopped unless its request is written whole and its
    # reply read whole, so no later pass meets a message cut short, not
    # even by Ctrl-C
    results, asked, replied = [], False, worker is None
    try:
        if worker:
            with contextlib.suppress(OSError):
                worker.conn.send((cfg, kinds, theirs))
                asked = True
        results.append(_share_records(cfg, kinds, ours))
    finally:
        # the reply is read whatever raises, so the next pass reads its own
        try:
            if asked:
                with contextlib.suppress(EOFError, OSError):
                    results.append(worker.conn.recv())
                    replied = True
        finally:
            if not replied:
                _stop_workers()
    if not replied:
        raise StudyError(f"study worker {worker.pid} exited; the next pass starts another")
    done = {}
    for part, _ in results:
        done.update(part)
    failures = [failure for _, failure in results if failure is not None]
    if failures:
        raise max(failures, key=lambda failure: failure[0])[1]
    return [done[eps] for eps in grid]


def run_studies(cfg: SweepConfig, kinds: Sequence[str] | None = None) -> dict[str, StudyReport]:
    """Run the studies in `kinds` (default: all) from one pass over the eps
    grid and return their reports by kind."""
    kinds = tuple(_STUDIES if kinds is None else kinds)
    if not set(kinds) <= set(_STUDIES):
        raise StudyError(f"unknown study in {kinds}")
    per_eps = _pass(cfg, kinds)
    reports = {}
    for kind in kinds:
        records = [recs[kind] for recs in per_eps]
        fits, checks = _STUDIES[kind][1](cfg.tol, records)
        _mark_not_applicable(cfg, checks)
        reports[kind] = StudyReport(kind, cfg.study_id, cfg.to_json_obj(), records, fits, checks)
    return reports


# kind -> its report from a pass of its own
RUNNERS = {kind: lambda cfg, kind=kind: run_studies(cfg, [kind])[kind] for kind in _STUDIES}
