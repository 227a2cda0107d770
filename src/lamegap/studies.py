"""Epsilon-sweep studies tying the FEM solutions to the asymptotic claims.

Each study solves the relevant boundary-value problems on a sweep of gap
widths, records the probed quantities, fits log-log rates, and evaluates
its pass/fail criteria against tolerances carried in the configuration
(every threshold is echoed into the report; there are no hidden numbers).

Gradient magnitudes are measured as the maximum absolute matrix entry and
"gap" quantities are maximized over a sampled centerline z = 0 (for the
tangential translations this maximum sits at the origin; for the rotation
it sits near x1 ~ sqrt(eps)).
"""

from __future__ import annotations

import csv
import io
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from .families import MAX_DEPTH, build_family
from .fem.assembly import assemble
from .fem.geometry import Geometry
from .fem.mesh import MeshParams, generate_mesh
from .fem.solve import (
    DisplacementField,
    gap_centerline_points,
    sample,
    solve_component,
    solve_hard_inclusion,
    solve_holes,
)
from .neck import DIM2

SCHEMA = "lamegap-study/1"


class StudyError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Boundary data registry (outer Dirichlet data phi)
# ---------------------------------------------------------------------------

BOUNDARY_DATA = {
    # odd linear datum; activates the translation functionals b*_{11}, b*_{12}
    "default_odd": lambda x, y: (y, x + y),
    # odd cubic alternative for the sensitivity report
    "odd_cubic": lambda x, y: ((x * x + y * y) * y, (x * x + y * y) * (x + y)),
    "rigid_psi1": lambda x, y: (1.0, 0.0),
    "rigid_psi2": lambda x, y: (0.0, 1.0),
    "rigid_psi3": lambda x, y: (y, -x),
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
    "holes_rigid_slope_abs_max": 0.05,
}


@dataclass(frozen=True)
class SweepConfig:
    eps_grid: tuple[float, ...] = (0.1, 0.05, 0.025, 0.0125)
    R0: float = 3.0
    rho1: float = 1.0
    rho2: float = 1.0
    lam: float = 1.0
    mu: float = 1.0
    phi: str = "default_odd"
    nz: int = 8
    ct: float = 0.35
    neck_halfwidth: float = 0.45
    arc_target: float = 0.12
    nr: int = 16
    radial_growth: float = 1.25
    collar_width: float = 0.03
    # tangential grading sharpens like (eps/eps_max)^power; the neck
    # comparison needs 1/3 so the value error scales with the gap
    ct_eps_power: float = 0.0
    compare_depth: int = 2
    study_id: str = "study"
    workers: int = 1
    tolerances: tuple[tuple[str, float], ...] = tuple(sorted(DEFAULT_TOLERANCES.items()))

    def __post_init__(self):
        if len(set(self.eps_grid)) < 4:
            raise StudyError("need at least 4 distinct grid points for an exponent fit")
        if not all(math.isfinite(e) and e > 0 for e in self.eps_grid):
            raise StudyError("eps grid must be finite and positive")
        if self.phi not in BOUNDARY_DATA:
            raise StudyError(f"unknown boundary datum {self.phi!r}")
        if not 1 <= self.compare_depth <= MAX_DEPTH:
            raise StudyError(f"compare depth must be in 1..{MAX_DEPTH}, got {self.compare_depth}")
        if self.workers < 1:
            raise StudyError(f"workers must be at least 1, got {self.workers}")

    @property
    def tol(self) -> dict[str, float]:
        return dict(self.tolerances)

    def geometry(self, eps: float) -> Geometry:
        return Geometry(eps=eps, R0=self.R0, rho1=self.rho1, rho2=self.rho2)

    def mesh_params(self, eps: float, ct_power: float | None = None) -> MeshParams:
        power = self.ct_eps_power if ct_power is None else ct_power
        scale = (eps / max(self.eps_grid)) ** power if power else 1.0
        return MeshParams(
            nz=self.nz,
            ct=self.ct * scale,
            neck_halfwidth=self.neck_halfwidth,
            arc_target=self.arc_target,
            nr=self.nr,
            radial_growth=self.radial_growth,
            collar_width=self.collar_width,
        )

    def to_json_obj(self) -> dict:
        out = asdict(self)
        out["eps_grid"] = list(self.eps_grid)
        out["tolerances"] = dict(self.tolerances)
        return out


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
    schema: str = SCHEMA

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks.values())

    def to_json(self) -> str:
        obj = {
            "schema": self.schema,
            "study": self.study,
            "study_id": self.study_id,
            "passed": self.passed,
            "config": self.config,
            "records": self.records,
            "fits": self.fits,
            "checks": self.checks,
        }
        return json.dumps(obj, indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "StudyReport":
        obj = json.loads(text)
        return cls(
            study=obj["study"],
            study_id=obj["study_id"],
            config=obj["config"],
            records=obj["records"],
            fits=obj["fits"],
            checks=obj["checks"],
            schema=obj["schema"],
        )

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
# Per-eps case solvers (module-level so they can cross process boundaries)
# ---------------------------------------------------------------------------


def _grad_max_entry(g: np.ndarray) -> float:
    return float(np.abs(g).max())


def _centerline(cfg: SweepConfig, geom: Geometry) -> np.ndarray:
    return gap_centerline_points(geom, half_extent=cfg.neck_halfwidth * 0.65)


def _case_blowup(cfg: SweepConfig, eps: float) -> dict:
    geom = cfg.geometry(eps)
    mesh = generate_mesh(geom, cfg.mesh_params(eps))
    system = assemble(mesh, cfg.lam, cfg.mu)
    pts = _centerline(cfg, geom)
    origin = [(0.0, 0.0)]
    rec: dict[str, float] = {"eps": eps}
    for alpha in (1, 2, 3):
        fld = solve_component(geom, cfg.lam, cfg.mu, 1, alpha, system=system)
        grads = sample(fld, pts, "gradient")
        if alpha in (1, 2):
            vals = np.abs(grads[:, alpha - 1, 1])
        else:
            vals = np.abs(grads).reshape(len(pts), -1).max(axis=1)
        rec[f"u1{alpha}_gap_max"] = float(vals.max())
        g0 = sample(fld, origin, "gradient")[0]
        rec[f"u1{alpha}_origin"] = _grad_max_entry(g0)
    fld, _ = solve_hard_inclusion(
        geom, cfg.lam, cfg.mu, BOUNDARY_DATA[cfg.phi], system=system
    )
    grads = sample(fld, pts, "gradient")
    rec["full_gap_max"] = float(np.abs(grads).reshape(len(pts), -1).max())
    return rec


def _case_constants(cfg: SweepConfig, eps: float) -> dict:
    geom = cfg.geometry(eps)
    mesh = generate_mesh(geom, cfg.mesh_params(eps))
    system = assemble(mesh, cfg.lam, cfg.mu)
    _, c = solve_hard_inclusion(
        geom, cfg.lam, cfg.mu, BOUNDARY_DATA[cfg.phi], system=system
    )
    rec = {"eps": eps, "c_norm": float(np.abs(c).max())}
    for alpha in (1, 2, 3):
        rec[f"dc{alpha}"] = float(abs(c[0, alpha - 1] - c[1, alpha - 1]))
    rec["bstar11"] = math.pi * cfg.mu * rec["dc1"] / math.sqrt(eps)
    rec["bstar12"] = math.pi * (cfg.lam + 2 * cfg.mu) * rec["dc2"] / math.sqrt(eps)
    for alpha in range(1, 4):
        rec[f"c1_{alpha}"] = float(c[0, alpha - 1])
        rec[f"c2_{alpha}"] = float(c[1, alpha - 1])
    return rec


def _case_compare(cfg: SweepConfig, eps: float) -> dict:
    power = cfg.ct_eps_power if cfg.ct_eps_power else 1.0 / 3.0
    geom = cfg.geometry(eps)
    mesh = generate_mesh(geom, cfg.mesh_params(eps, ct_power=power))
    system = assemble(mesh, cfg.lam, cfg.mu)
    fld = solve_component(geom, cfg.lam, cfg.mu, 1, 1, system=system)

    fam = build_family(DIM2, 1, cfg.compare_depth)
    vsum = fam.partial_sum()
    fractions = (-0.8, -0.4, 0.0, 0.4, 0.8)
    grid = []  # (x, z, gap, quadratic-model gap)
    for x in np.linspace(-0.2, 0.2, 17):
        dc = geom.gap(float(x))
        grid += [(float(x), tz * dc / 2, dc, eps + float(x) ** 2) for tz in fractions]
    ufs = sample(fld, [(x, z) for x, z, _, _ in grid], "value")
    err_max = 0.0
    err_norm_max = 0.0
    u_max = 0.0
    for (x, z, dc, dq), uf in zip(grid, ufs):
        # map onto the quadratic-model gap so boundary traces agree
        zt = z * dq / dc
        vv = np.array(
            [
                comp.evaluate([x], zt, eps, cfg.lam, cfg.mu, mode="float")
                for comp in vsum.components
            ]
        )
        e = float(np.abs(uf - vv).max())
        err_max = max(err_max, e)
        err_norm_max = max(err_norm_max, e / dc)
        u_max = max(u_max, float(np.abs(uf).max()))
    # boundary traces on the top arc
    arc = (-0.15, -0.05, 0.05, 0.15)
    ufs = sample(fld, [(x, geom.gamma1(x) - 1e-12) for x in arc], "value")
    trace_err = 0.0
    for x, uf in zip(arc, ufs):
        vv = np.array(
            [
                comp.evaluate([x], (eps + x * x) / 2, eps, cfg.lam, cfg.mu, mode="float")
                for comp in vsum.components
            ]
        )
        trace_err = max(trace_err, float(np.abs(uf - vv).max()))
    pts = _centerline(cfg, geom)
    grads = sample(fld, pts, "gradient")
    return {
        "eps": eps,
        "err_max": err_max,
        "err_norm_max": err_norm_max,
        "u_max": u_max,
        "trace_err": trace_err,
        "control_grad_max": float(np.abs(grads).reshape(len(pts), -1).max()),
    }


def _case_cancel(cfg: SweepConfig, eps: float) -> dict:
    geom = cfg.geometry(eps)
    mesh = generate_mesh(geom, cfg.mesh_params(eps))
    system = assemble(mesh, cfg.lam, cfg.mu)
    origin = [(0.0, 0.0)]
    rec = {"eps": eps}
    f11 = solve_component(geom, cfg.lam, cfg.mu, 1, 1, system=system)
    f21 = solve_component(geom, cfg.lam, cfg.mu, 2, 1, system=system)
    pair = DisplacementField(system, f11.u + f21.u)
    rec["cancel_sum"] = _grad_max_entry(sample(pair, origin, "gradient")[0])
    rec["control_u11"] = _grad_max_entry(sample(f11, origin, "gradient")[0])
    f13 = solve_component(geom, cfg.lam, cfg.mu, 1, 3, system=system)
    f23 = solve_component(geom, cfg.lam, cfg.mu, 2, 3, system=system)
    pair3 = DisplacementField(system, f13.u + f23.u)
    rec["rot_pair"] = _grad_max_entry(sample(pair3, origin, "gradient")[0])
    return rec


def _case_holes(cfg: SweepConfig, eps: float) -> dict:
    geom = cfg.geometry(eps)
    mesh = generate_mesh(geom, cfg.mesh_params(eps))
    system = assemble(mesh, cfg.lam, cfg.mu)
    pts = _centerline(cfg, geom)
    rec = {"eps": eps}
    fld = solve_holes(geom, cfg.lam, cfg.mu, BOUNDARY_DATA[cfg.phi], system=system)
    grads = sample(fld, pts, "gradient")
    rec["holes_gap_max"] = float(np.abs(grads).reshape(len(pts), -1).max())
    vals = sample(fld, pts, "value")
    rec["u_inf_neck"] = float(np.abs(vals).max())
    rec["holes_normalized"] = rec["holes_gap_max"] / rec["u_inf_neck"]
    rigid = solve_holes(geom, cfg.lam, cfg.mu, BOUNDARY_DATA["rigid_psi3"], system=system)
    rec["rigid_grad"] = _grad_max_entry(sample(rigid, [(0.0, 0.0)], "gradient")[0])
    rec["rigid_energy"] = rigid.energy()
    # variational identity: strain energy equals boundary work
    rec["energy"] = fld.energy()
    rec["boundary_work"] = fld.boundary_work()
    return rec


def _run_cases(cfg: SweepConfig, case: Callable[[SweepConfig, float], dict]) -> list[dict]:
    run = partial(case, cfg)
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            recs = list(pool.map(run, cfg.eps_grid))
    else:
        recs = [run(eps) for eps in cfg.eps_grid]
    # merge deterministically in sweep order
    recs.sort(key=lambda r: -r["eps"])
    return recs


def _slope_check(tol: dict, fits: dict, checks: dict, key: str, lo: str, hi: str) -> None:
    slope = fits[key]["slope"]
    checks[f"{key}_slope"] = {
        "passed": tol[lo] <= slope <= tol[hi],
        "value": slope,
        "lo": tol[lo],
        "hi": tol[hi],
    }


# ---------------------------------------------------------------------------
# Studies
# ---------------------------------------------------------------------------


def run_blowup_study(cfg: SweepConfig) -> StudyReport:
    records = _run_cases(cfg, _case_blowup)
    tol = cfg.tol
    fits = {}
    for key in ("u11_gap_max", "u12_gap_max", "u13_gap_max", "full_gap_max"):
        fits[key] = asdict(rate_fit([(r["eps"], r[key]) for r in records]))
    checks: dict[str, dict] = {}
    _slope_check(tol, fits, checks, "u11_gap_max", "u11_slope_lo", "u11_slope_hi")
    _slope_check(tol, fits, checks, "u12_gap_max", "u12_slope_lo", "u12_slope_hi")
    _slope_check(tol, fits, checks, "u13_gap_max", "u13_slope_lo", "u13_slope_hi")
    _slope_check(tol, fits, checks, "full_gap_max", "full_slope_lo", "full_slope_hi")
    return StudyReport("rates", cfg.study_id, cfg.to_json_obj(), records, fits, checks)


def run_constant_study(cfg: SweepConfig) -> StudyReport:
    records = _run_cases(cfg, _case_constants)
    tol = cfg.tol
    fits = {}
    usable = [(r["eps"], r["dc1"]) for r in records if r["dc1"] > 1e-10]
    flagged = len(usable) != len(records)
    if len(usable) >= 4:
        fits["dc1"] = asdict(rate_fit(usable))
    checks: dict[str, dict] = {}
    if "dc1" in fits:
        _slope_check(tol, fits, checks, "dc1", "dc1_slope_lo", "dc1_slope_hi")
        checks["dc1_slope"]["near_zero_excluded"] = flagged
    else:
        checks["dc1_slope"] = {"passed": False, "value": None, "reason": "degenerate dc1"}
    dc3_rel = max(r["dc3"] / max(r["c_norm"], 1e-300) for r in records)
    checks["dc3_zero"] = {
        "passed": dc3_rel < tol["dc3_rel_max"],
        "value": dc3_rel,
        "bound": tol["dc3_rel_max"],
    }
    bs = [r["bstar11"] for r in records]
    spread = (max(bs) - min(bs)) / abs(sum(bs) / len(bs)) if any(bs) else math.inf
    checks["bstar11_stable"] = {
        "passed": spread < tol["bstar_rel_spread_max"],
        "value": spread,
        "bound": tol["bstar_rel_spread_max"],
        "estimates": bs,
    }
    return StudyReport("constants", cfg.study_id, cfg.to_json_obj(), records, fits, checks)


def run_neck_comparison(cfg: SweepConfig, depth: int | None = None) -> StudyReport:
    if depth is not None:
        cfg = replace(cfg, compare_depth=depth)
    records = _run_cases(cfg, _case_compare)
    tol = cfg.tol
    fits = {
        "control_grad_max": asdict(
            rate_fit([(r["eps"], r["control_grad_max"]) for r in records])
        )
    }
    norm_vals = [r["err_norm_max"] for r in records]
    ratio = max(norm_vals) / min(norm_vals)
    checks: dict[str, dict] = {
        "normalized_error_bounded": {
            "passed": ratio < tol["compare_ratio_max"],
            "value": ratio,
            "bound": tol["compare_ratio_max"],
        },
        "unnormalized_small": {
            "passed": all(r["err_max"] < 0.1 * r["u_max"] for r in records),
            "value": max(r["err_max"] / r["u_max"] for r in records),
            "bound": 0.1,
        },
        "boundary_trace": {
            "passed": all(r["trace_err"] < tol["compare_boundary_trace_max"] for r in records),
            "value": max(r["trace_err"] for r in records),
            "bound": tol["compare_boundary_trace_max"],
        },
    }
    _slope_check(
        tol, fits, checks, "control_grad_max",
        "compare_control_slope_lo", "compare_control_slope_hi",
    )
    return StudyReport("compare", cfg.study_id, cfg.to_json_obj(), records, fits, checks)


def run_symmetric_cancellation(cfg: SweepConfig) -> StudyReport:
    records = _run_cases(cfg, _case_cancel)
    tol = cfg.tol
    fits = {
        "control_u11": asdict(rate_fit([(r["eps"], r["control_u11"]) for r in records]))
    }
    checks: dict[str, dict] = {}
    _slope_check(
        tol, fits, checks, "control_u11",
        "cancel_control_slope_lo", "cancel_control_slope_hi",
    )
    floor = tol["cancel_noise_floor"] * max(r["control_u11"] for r in records)
    vals = [(r["eps"], r["cancel_sum"]) for r in records if r["cancel_sum"] > floor]
    if len(vals) >= 4:
        fits["cancel_sum"] = asdict(rate_fit(vals))
        slope_ok = fits["cancel_sum"]["slope"] >= tol["cancel_slope_min"]
        detail = {"passed": slope_ok, "value": fits["cancel_sum"]["slope"],
                  "bound": tol["cancel_slope_min"]}
    else:
        # sums at discretization noise: bounded trivially
        detail = {
            "passed": True,
            "value": None,
            "note": "cancellation sums below noise floor",
            "floor": floor,
        }
    checks["cancel_bounded"] = detail
    rot = max(r["rot_pair"] for r in records)
    checks["rotation_pair_bound"] = {
        "passed": rot <= tol["rot_pair_bound"],
        "value": rot,
        "bound": tol["rot_pair_bound"],
    }
    return StudyReport("cancel", cfg.study_id, cfg.to_json_obj(), records, fits, checks)


def run_holes_study(cfg: SweepConfig) -> StudyReport:
    records = _run_cases(cfg, _case_holes)
    tol = cfg.tol
    fits = {
        "holes_gap_max": asdict(rate_fit([(r["eps"], r["holes_gap_max"]) for r in records])),
        "holes_normalized": asdict(
            rate_fit([(r["eps"], r["holes_normalized"]) for r in records])
        ),
        "rigid_grad": asdict(rate_fit([(r["eps"], r["rigid_grad"]) for r in records])),
    }
    checks: dict[str, dict] = {
        "holes_slope": {
            "passed": fits["holes_gap_max"]["slope"] >= tol["holes_slope_min"],
            "value": fits["holes_gap_max"]["slope"],
            "bound": tol["holes_slope_min"],
        },
        "holes_normalized_slope": {
            "passed": fits["holes_normalized"]["slope"] >= tol["holes_slope_min"],
            "value": fits["holes_normalized"]["slope"],
            "bound": tol["holes_slope_min"],
        },
        "rigid_control": {
            "passed": abs(fits["rigid_grad"]["slope"]) <= tol["holes_rigid_slope_abs_max"],
            "value": fits["rigid_grad"]["slope"],
            "bound": tol["holes_rigid_slope_abs_max"],
        },
        "energy_balance": {
            "passed": all(
                abs(2 * r["energy"] - r["boundary_work"])
                <= 1e-8 * max(abs(r["boundary_work"]), 1e-300)
                for r in records
            ),
            "value": max(
                abs(2 * r["energy"] - r["boundary_work"])
                / max(abs(r["boundary_work"]), 1e-300)
                for r in records
            ),
            "bound": 1e-8,
        },
    }
    return StudyReport("holes", cfg.study_id, cfg.to_json_obj(), records, fits, checks)


RUNNERS = {
    "rates": run_blowup_study,
    "constants": run_constant_study,
    "compare": run_neck_comparison,
    "cancel": run_symmetric_cancellation,
    "holes": run_holes_study,
}
