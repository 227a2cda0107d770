"""Command-line front end.

Subcommands: `aux build`, `aux verify`, `fem solve`, `study <kind>` (or
`study all`: every study from one pass), `report`.  Exit codes: 0 all checks
passed, 1 a check or tolerance failed, 2 usage/config error, 3 runtime
(solver/IO) error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

import numpy as np

from . import checks as checks_mod
from .config import ConfigError, load_config
from .families import FamilyError, alpha_range, build_family
from .fem.assembly import assemble, check_ellipticity
from .fem.geometry import Geometry
from .fem.mesh import MeshParams, generate_mesh, write_mesh
from .fem.solve import (
    SolverError,
    gap_center_node,
    sample,
    solve_component,
    solve_hard_inclusion,
    solve_holes,
)
from .neck import DIM2, DIM3, NeckError
from .studies import (
    BOUNDARY_DATA, RUNNERS, StudyError, StudyReport, SweepConfig, emit_report, run_studies,
)

# The imports above leave ~42,000 long-lived container objects (numpy, scipy,
# lamegap), and every full collection of the cyclic collector would walk them
# all: 15-30 ms per run, on objects that never become garbage.  Freezing them
# once moves them to the permanent generation, which no collection walks; the
# collector stays on for everything made later.  Only the command-line entry
# freezes (library users keep their collector as it is), and only at import:
# a freeze per `main()` call would also freeze the uncollected garbage of the
# calls before it.
gc.freeze()

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


def _dim(d: int):
    return DIM2 if d == 2 else DIM3


def _cmd_aux_build(args) -> int:
    fam = build_family(_dim(args.dim), args.alpha, args.depth, route=args.route)
    obj = fam.to_json_obj()
    if args.dump:
        with open(args.dump, "w") as fh:
            json.dump(obj, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.dump}")
    else:
        for l, rendered in enumerate(obj["rendered"], start=1):
            print(f"level {l}:")
            for i, comp in enumerate(rendered, start=1):
                print(f"  v^({i}) = {comp}")
    return EXIT_OK


def _cmd_aux_verify(args) -> int:
    fams = []
    for d in [2, 3] if args.dim == 0 else [args.dim]:
        scope = alpha_range(_dim(d), args.route)
        alphas = scope if args.alpha == 0 else [args.alpha]
        for alpha in alphas:
            # with both dimensions, one alpha runs where the route builds it
            if args.dim or alpha in scope:
                fams.append(build_family(_dim(d), alpha, args.depth, route=args.route))
    if not fams:
        raise FamilyError(
            f"alpha={args.alpha} is out of range for d=2 and d=3 on the {args.route} route")
    reports = checks_mod.run_suite(fams)
    rows = [r.to_json_obj() for r in reports]
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(rows, fh, indent=1, sort_keys=True)
            fh.write("\n")
    width = max(len(r.name) for r in reports)
    for r in reports:
        md = r.metadata
        cell = f"d={md.get('d')} alpha={md.get('alpha')}"
        extra = f" m={md['m']} r={md['r']}" if "m" in md else ""
        print(f"{r.name:<{width}}  {cell:<14}{extra:<12} {r.status}")
        if r.witness:
            print(f"    witness: {r.witness}")
    failed = [r for r in reports if not r.passed]
    print(f"{len(reports) - len(failed)}/{len(reports)} checks passed")
    return EXIT_OK if not failed else EXIT_CHECK_FAILED


def _cmd_fem_solve(args) -> int:
    if args.stride < 1:
        raise ValueError(f"--stride must be a positive integer, got {args.stride}")
    check_ellipticity(args.lam, args.mu)
    geom = Geometry(eps=args.eps, R0=args.R0, rho1=args.rho1, rho2=args.rho2)
    params = MeshParams(nz=args.nz, ct=args.grading)
    mesh = generate_mesh(geom, params)
    system = assemble(mesh, args.lam, args.mu)
    if args.problem.startswith("component"):
        alpha = int(args.problem[-1])
        fld = solve_component(system, 1, alpha)
    elif args.problem == "hard":
        fld, c = solve_hard_inclusion(system, BOUNDARY_DATA[args.phi])
        print("rigid parameters C_i^alpha:")
        for i, row in enumerate(c, start=1):
            print(f"  inclusion {i}: " + " ".join(f"{v:+.8e}" for v in row))
    elif args.problem == "holes":
        fld = solve_holes(system, BOUNDARY_DATA[args.phi])
    else:
        raise ValueError(f"unknown problem {args.problem!r}")
    if args.mesh_out:
        write_mesh(mesh, args.mesh_out)
        print(f"wrote {args.mesh_out}")
    if args.out:
        idx = np.arange(0, mesh.n_nodes, args.stride)
        grads = sample(fld, idx, "gradient")
        rows = np.column_stack(
            (mesh.nodes[idx], fld.u.reshape(-1, 2)[idx], grads.reshape(-1, 4))
        ).tolist()
        with open(args.out, "w") as fh:
            fh.write("x,y,u1,u2,g11,g12,g21,g22\n")
            fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)
        print(f"wrote {args.out}")
    g0 = sample(fld, [gap_center_node(mesh, geom.eps)], "gradient")[0]
    print(f"gap-center gradient: {g0.tolist()}")
    print(f"strain energy: {fld.energy():.10e}")
    return EXIT_OK


def _status(passed: bool | None) -> str:
    """A check's status word; `passed` None marks a check that does not apply."""
    return "n/a" if passed is None else "pass" if passed else "FAIL"


def _print_study(kind: str, report: StudyReport) -> None:
    print(f"study {kind} ({report.study_id}):")
    for name in sorted(report.checks):
        c = report.checks[name]
        val = c.get("value")
        shown = f"{val:.6g}" if isinstance(val, float) else str(val)
        print(f"  {name:<28} {_status(c['passed'])}  value={shown}")
        if c["passed"] is None:
            print(f"    not applicable: {c['reason']}")
        if c.get("near_zero_excluded"):
            print("    near-zero values excluded from the fit")
        if "note" in c:
            print(f"    note: {c['note']} (floor={c['floor']:.6g})")
    for key in sorted(report.fits):
        if report.fits[key]["sign_change"]:
            print(f"  fit {key}: sign change across the sweep (|value| fitted)")


def _cmd_study(args) -> int:
    cfg = load_config(args.config) if args.config else SweepConfig()
    if args.kind == "all":
        for folder in {args.out, args.json} - {None}:
            os.makedirs(folder, exist_ok=True)
        reports = run_studies(cfg)
    else:
        reports = {args.kind: RUNNERS[args.kind](cfg)}
    for kind, report in reports.items():
        _print_study(kind, report)
        for fmt, dest in (("csv", args.out), ("json", args.json)):
            if dest:
                path = os.path.join(dest, f"{kind}.{fmt}") if args.kind == "all" else dest
                emit_report(report, fmt, path)
                print(f"wrote {path}")
    return EXIT_OK if all(r.passed for r in reports.values()) else EXIT_CHECK_FAILED


def _cmd_report(args) -> int:
    ok = True
    rows = []
    for path in args.inputs:
        with open(path) as fh:
            rep = StudyReport.from_json(fh.read())
        for name, c in sorted(rep.checks.items()):
            rows.append((rep.study_id, rep.study, name, c["passed"], c.get("value")))
            ok = ok and c["passed"] is not False
    print(f"{'study':<16} {'kind':<10} {'check':<28} {'status':<7} value")
    for sid, kind, name, passed, value in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{sid:<16} {kind:<10} {name:<28} {_status(passed):<7} {shown}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(
                [
                    {"study_id": s, "kind": k, "check": n, "passed": p, "value": v}
                    for s, k, n, p, v in rows
                ],
                fh,
                indent=1,
                sort_keys=True,
            )
            fh.write("\n")
        print(f"wrote {args.out}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lamegap",
        description="Symbolic and finite-element verification of thin-gap "
        "singularities in the Lame system with two rigid inclusions.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    sub = p.add_subparsers(dest="command", required=True)

    aux = sub.add_parser("aux", help="symbolic auxiliary families")
    aux_sub = aux.add_subparsers(dest="subcommand", required=True)
    b = aux_sub.add_parser(
        "build", help="build a family and dump its levels",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    b.add_argument("--dim", type=int, choices=(2, 3), required=True, help="spatial dimension")
    b.add_argument("--alpha", type=int, required=True, help="rigid-basis index")
    b.add_argument("--depth", type=int, default=2, help="number of levels")
    b.add_argument("--route", choices=("integral", "recursion"), default="integral", help="construction route")
    b.add_argument("--dump", help="write JSON term dump to this path")
    b.set_defaults(func=_cmd_aux_build)
    v = aux_sub.add_parser(
        "verify", help="run the symbolic check suite",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    v.add_argument("--dim", type=int, choices=(0, 2, 3), default=0, help="0 = both")
    v.add_argument("--alpha", type=int, default=0, help="0 = all in the route's scope")
    v.add_argument("--depth", type=int, default=4, help="family depth to check")
    v.add_argument("--route", choices=("integral", "recursion"), default="integral", help="construction route")
    v.add_argument("--json", help="write the report array to this path")
    v.set_defaults(func=_cmd_aux_verify)

    fem = sub.add_parser("fem", help="finite-element solves")
    fem_sub = fem.add_subparsers(dest="subcommand", required=True)
    s = fem_sub.add_parser(
        "solve", help="solve one problem at one eps",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    s.add_argument("--eps", type=float, required=True, help="gap width")
    s.add_argument("--lam", type=float, default=1.0, help="first Lame parameter")
    s.add_argument("--mu", type=float, default=1.0, help="shear modulus")
    s.add_argument("--R0", type=float, default=3.0, help="outer radius")
    s.add_argument("--rho1", type=float, default=1.0, help="top inclusion radius")
    s.add_argument("--rho2", type=float, default=1.0, help="bottom inclusion radius")
    s.add_argument("--nz", type=int, default=8, help="element layers across the gap")
    s.add_argument("--grading", type=float, default=0.35, help="tangential spacing factor")
    s.add_argument(
        "--problem",
        choices=("component1", "component2", "component3", "hard", "holes"),
        default="component1",
        help="boundary-value problem",
    )
    s.add_argument("--phi", choices=sorted(BOUNDARY_DATA), default="default_odd", help="outer boundary datum")
    s.add_argument("--out", help="CSV field export path")
    s.add_argument("--mesh-out", help="ASCII mesh export path")
    s.add_argument("--stride", type=int, default=1, help="node stride for the export")
    s.set_defaults(func=_cmd_fem_solve)

    st = sub.add_parser(
        "study", help="epsilon-sweep studies",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    st.add_argument("kind", choices=[*sorted(RUNNERS), "all"], help="a study, or all from one pass")
    st.add_argument("--config", help="flat key=value config file")
    st.add_argument("--out", help="CSV output path (a directory for all: <kind>.csv)")
    st.add_argument("--json", help="JSON report path (a directory for all: <kind>.json)")
    st.set_defaults(func=_cmd_study)

    r = sub.add_parser("report", help="merge study JSON reports")
    r.add_argument("inputs", nargs="+")
    r.add_argument("--out", help="merged JSON summary path")
    r.set_defaults(func=_cmd_report)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ConfigError, FamilyError, NeckError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SolverError, StudyError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
