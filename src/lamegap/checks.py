"""Machine checks of the symbolic claims: boundary data, cancellation
identities, residual orders, degree caps, derivative correctness, and the
lower-bound exponent, read exactly on a ray into the neck.

Every check returns a :class:`CheckReport`; a failing report always carries
a concrete witness (the offending term or the measured deviation).  Random
sampling is seeded and the seed is recorded in the report metadata.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Iterable

from .coeffs import MU, ONE, ZERO, RationalCoeff
from .families import (
    LAM_P_2MU,
    LAM_P_MU,
    ROTATIONS,
    AuxFamily,
    construction_order,
    family_kind,
    level2_split_targets,
    rigid_basis,
    uses_level2_split,
)
from .neck import DimConfig, NeckField, NeckScalar, lincomb, term_order

__all__ = [
    "CheckReport",
    "check_boundary",
    "check_cancel_identity",
    "check_residual_order",
    "check_z_degree",
    "fd_oracle",
    "lower_bound_probe",
    "run_suite",
    "residual_order_targets",
    "z_degree_caps",
]

# fd_oracle's central-difference steps, each scaled by sqrt(eps)
FD_STEPS = (1e-3, 1e-4, 1e-5)


@dataclass
class CheckReport:
    name: str
    status: str  # 'pass' | 'fail'
    witness: str | None = None
    metadata: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_obj(self) -> dict:
        return asdict(self)


def _meta(fam: AuxFamily, **extra) -> dict:
    out = {"d": fam.dim.d, "alpha": fam.alpha, "depth": fam.depth, "route": fam.route}
    out.update(extra)
    return out


def _witness_scalar(s: NeckScalar) -> str:
    """`s` shown by its first four terms."""
    terms = s.sorted_terms()[:4]
    shown = NeckScalar(s.dim, dict(terms)).render()
    more = len(s) - len(terms)
    return shown + (f" ... (+{more} terms)" if more > 0 else "")


# ---------------------------------------------------------------------------
# Boundary conditions
# ---------------------------------------------------------------------------


def check_boundary(fam: AuxFamily) -> CheckReport:
    """Level 1 equals psi_alpha on the top boundary and 0 on the bottom;
    every level >= 2 vanishes on both.

    Each component is substituted once: with the parity split E +- O of
    its trace, the trace on side +- vanishes iff E = -+O, and it is built
    only for a witness."""
    psi = rigid_basis(fam.dim)[fam.alpha - 1]
    for l in range(1, fam.depth + 1):
        parts = [comp.boundary_parts() for comp in fam.v(l).components]
        for side in ("+", "-"):
            for i, (even, odd) in enumerate(parts):
                if l == 1 and side == "+":
                    even = even - psi[i].substitute_boundary(side)
                if not even.equal(-odd if side == "+" else odd):
                    trace = even + odd if side == "+" else even - odd
                    return CheckReport(
                        "boundary",
                        "fail",
                        witness=f"level {l} comp {i + 1} side {side}: {_witness_scalar(trace)}",
                        metadata=_meta(fam, level=l),
                    )
    return CheckReport("boundary", "pass", metadata=_meta(fam))


# ---------------------------------------------------------------------------
# Defining cancellation identities and residual structure
# ---------------------------------------------------------------------------


def _level_residuals(fam: AuxFamily, l: int) -> list[tuple[str, NeckScalar]]:
    """The defining ODE identities of level l, then its residual-structure
    identities (the slaved components of f^l are purely tangential second
    derivatives of v^l), as labelled must-be-zero scalars.

    The component class built second also cancels the cross derivative of
    the class built first."""
    dim = fam.dim
    d = dim.d
    axes = dim.axes
    if l == 1 and family_kind(dim, fam.alpha) in ROTATIONS:
        return []  # no corrector ODE at level 1 for rotations
    f_prev = fam.f(l - 1) if l >= 2 else NeckField.zero(dim)
    vl, fl = fam.v(l), fam.f(l)
    tangential_first = construction_order(dim, fam.alpha) == "tangential_first"
    split = uses_level2_split(dim, fam.alpha) and l == 2
    targets = level2_split_targets(fam) if split else f_prev.components[:-1]
    tangential = []
    for i in range(d - 1):
        parts = [(vl[i], ("z", "z"), MU), (targets[i], None, ONE)]
        if not tangential_first:
            parts.append((vl[d - 1], ("z", axes[i]), LAM_P_MU))
        tangential.append((f"tangential ODE comp {i + 1}", lincomb(dim, parts)))
    parts = [(vl[d - 1], ("z", "z"), LAM_P_2MU), (f_prev[d - 1], None, ONE)]
    if tangential_first:
        parts += [(vl[i], ("z", axes[i]), LAM_P_MU) for i in range(d - 1)]
    normal = [("normal ODE", lincomb(dim, parts))]
    out = tangential + normal if tangential_first else normal + tangential
    for k in [d - 1] if tangential_first else range(d - 1):
        parts = [(fl[k], None, ONE)] + [(vl[k], (ax, ax), -MU) for ax in axes[:-1]]
        if not tangential_first:
            parts += [(vl[j], (axes[k], axes[j]), -LAM_P_MU) for j in range(d - 1)]
        out.append((f"residual structure comp {k + 1}", lincomb(dim, parts)))
    return out


def check_cancel_identity(fam: AuxFamily) -> CheckReport:
    """The defining second-order identities and the residual structure hold
    as exact symbolic zeros at every level."""
    for l in range(1, fam.depth + 1):
        for label, res in _level_residuals(fam, l):
            if not res.equal(NeckScalar.zero(fam.dim)):
                return CheckReport(
                    "cancel_identity",
                    "fail",
                    witness=f"level {l}, {label}: {_witness_scalar(res)}",
                    metadata=_meta(fam, level=l),
                )
    return CheckReport("cancel_identity", "pass", metadata=_meta(fam))


# ---------------------------------------------------------------------------
# Residual orders and degree caps
# ---------------------------------------------------------------------------


def residual_order_targets(dim: DimConfig, alpha: int, l: int) -> list[Fraction]:
    """Refined per-component lower bounds on the growth order of f^l."""
    base = Fraction(l - 2)
    half_up = Fraction(2 * l - 3, 2)
    # (tangential, normal) per kind; the in-plane rotation gains half an
    # order in every component
    tangential, normal = {
        "tangential": (base, half_up),
        "normal": (half_up, base),
        "in_plane": (half_up, half_up),
        "mixing": (base, half_up),
    }[family_kind(dim, alpha)]
    return [tangential] * dim.n_tangential + [normal]


def check_residual_order(fam: AuxFamily) -> CheckReport:
    """The growth order of f^l meets the refined per-component target for
    every built level; every target is at least the base bound l-2.

    The termwise neck_order is tried first; only a miss pays for the
    expanded_order of the function, which is what fails the check.
    """
    orders: dict[str, list[str]] = {}
    for l in range(1, fam.depth + 1):
        fl = fam.f(l)
        targets = residual_order_targets(fam.dim, fam.alpha, l)
        row = []
        for i, comp in enumerate(fl.components):
            if comp.is_zero():
                row.append("inf")
                continue
            got = comp.neck_order()
            if got < targets[i]:
                # the termwise bound depends on the representation: take the
                # order of the function itself before failing
                got = comp.expanded_order()
            row.append(str(got))
            if got < targets[i]:
                worst = min(comp.terms, key=term_order)
                return CheckReport(
                    "residual_order",
                    "fail",
                    witness=(
                        f"level {l} comp {i + 1}: order {got} < {targets[i]};"
                        f" term {worst}"
                    ),
                    metadata=_meta(fam, level=l, orders=orders),
                )
        orders[str(l)] = row
    # refined_ok stays in the metadata so that reports keep their shape
    return CheckReport(
        "residual_order",
        "pass",
        metadata=_meta(fam, orders=orders, refined_ok=True),
    )


def z_degree_caps(dim: DimConfig, alpha: int, l: int) -> list[int]:
    """Normal-degree caps per component for level l."""
    tangential, normal = {
        "tangential": (2 * l - 1, 2 * l),
        "normal": (2 * l, 2 * l - 1),
        "in_plane": (2 * l - 1, 2 * l - 2),
        "mixing": (max(2 * l - 2, 2), 2 * l - 1),
    }[family_kind(dim, alpha)]
    return [tangential] * dim.n_tangential + [normal]


def check_z_degree(fam: AuxFamily) -> CheckReport:
    for l in range(1, fam.depth + 1):
        caps = z_degree_caps(fam.dim, fam.alpha, l)
        for i, comp in enumerate(fam.v(l).components):
            got = comp.z_degree()
            if got > caps[i]:
                return CheckReport(
                    "z_degree",
                    "fail",
                    witness=f"level {l} comp {i + 1}: deg_z {got} > cap {caps[i]}",
                    metadata=_meta(fam, level=l),
                )
    return CheckReport("z_degree", "pass", metadata=_meta(fam))


# ---------------------------------------------------------------------------
# Lower bound
# ---------------------------------------------------------------------------


def lower_bound_probe(fam: AuxFamily, m: int, r: Fraction = Fraction(1, 10)) -> CheckReport:
    """The leading power of eps of d_x1^{m-1} d_z (v^1)^(1) on the ray
    x1 = r sqrt(eps) (other tangential variables and z zero), read exactly.

    On the ray delta = (1 + r^2) eps, so a term c x1^p eps^s / delta^k with
    no z and no other tangential variable is
    c r^p (1 + r^2)^(-k) eps^(p/2 + s - k), and every other term vanishes.
    Passes when the lowest power with a nonzero coefficient in Q(lam, mu) is
    -(m+1)/2 and that coefficient is nonzero at lam = mu = 1.
    """
    if fam.alpha != 1:
        raise ValueError("the lower-bound probe is defined for alpha=1")
    if m < 1:
        raise ValueError("m must be at least 1")
    probe = fam.v(1)[0]
    for _ in range(m - 1):
        probe = probe.diff("x1")
    probe = probe.diff("z")
    by_power: dict[Fraction, RationalCoeff] = {}
    for (p, q, s, k), c in probe.terms.items():
        if q == 0 and not any(p[1:]):
            e = Fraction(p[0], 2) + s - k
            by_power[e] = by_power.get(e, ZERO) + c.scale(r ** p[0] / (1 + r * r) ** k)
    target = Fraction(-(m + 1), 2)
    meta = _meta(fam, m=m, r=str(r), target=str(target))
    exponent = min((e for e, c in by_power.items() if c), default=None)
    witness = None
    if exponent is None:
        witness = f"probe vanishes on the ray x1 = {r} sqrt(eps)"
    else:
        coeff = by_power[exponent]
        meta.update(exponent=str(exponent), coefficient=coeff.render())
        if exponent != target:
            witness = f"leading power eps^({exponent}) vs target eps^({target})"
        elif not coeff.evaluate(1, 1):
            witness = f"leading coefficient {coeff.render()} vanishes at lam = mu = 1"
    return CheckReport("lower_bound", "fail" if witness else "pass", witness=witness, metadata=meta)


# ---------------------------------------------------------------------------
# Numeric oracles
# ---------------------------------------------------------------------------


def fd_oracle(
    a: NeckScalar,
    axis: str,
    samples: int,
    eps: float,
    seed: int = 0,
    tol: float = 1e-6,
) -> CheckReport:
    """Central finite differences of s_eval against the exact derivative,
    at lam = mu = 1.

    For each random admissible point the relative error is minimized over a
    step-size sweep (FD_STEPS scaled by sqrt(eps)) and over the Richardson
    extrapolation of each pair of consecutive steps, which cancels the h^2
    truncation term; all samples must beat tol.
    """
    for name, value in (("eps", eps), ("tol", tol)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    if samples < 1:
        raise ValueError("samples must be positive")
    rng = random.Random(seed)
    exact = a.diff(axis)
    i = a.dim.axes.index(axis)
    nt = a.dim.n_tangential

    def shifted(xp: list[float], z: float, h: float) -> float:
        """The float value of a at (x', z) moved by h along axis."""
        pt = [*xp, z]
        pt[i] += h
        return a.evaluate(pt[:-1], pt[-1], eps, 1.0, 1.0, mode="float")

    worst = 0.0
    worst_pt = None
    for _ in range(samples):
        xp = [rng.uniform(-0.3, 0.3) for _ in range(nt)]
        delta = eps + sum(v * v for v in xp)
        z = 0.8 * (delta / 2) * rng.uniform(-1, 1)
        ex = exact.evaluate(xp, z, eps, 1.0, 1.0, mode="float")
        fds: list[tuple[float, float]] = []
        for h0 in FD_STEPS:
            h = h0 * math.sqrt(eps)
            fds.append((h, (shifted(xp, z, h) - shifted(xp, z, -h)) / (2 * h)))
        estimates = [fd for _, fd in fds]
        for (h1, d1), (h2, d2) in zip(fds, fds[1:]):
            r2 = (h1 / h2) ** 2
            estimates.append((r2 * d2 - d1) / (r2 - 1))
        best = min(abs(fd - ex) / max(abs(ex), 1e-12) for fd in estimates)
        if best > worst:
            worst = best
            worst_pt = (xp, z)
        if best >= tol:
            return CheckReport(
                "fd_oracle",
                "fail",
                witness=f"axis {axis} at {worst_pt}: min rel err {best:.3e} >= {tol}",
                metadata={"axis": axis, "eps": eps, "seed": seed},
            )
    return CheckReport(
        "fd_oracle",
        "pass",
        metadata={
            "axis": axis,
            "eps": eps,
            "seed": seed,
            "samples": samples,
            "worst_rel_err": worst,
        },
    )


# ---------------------------------------------------------------------------
# Suite
# ---------------------------------------------------------------------------


def run_suite(families: Iterable[AuxFamily]) -> list[CheckReport]:
    """All symbolic checks for the given families, merged deterministically."""
    reports: list[CheckReport] = []
    for fam in families:
        reports.append(check_boundary(fam))
        reports.append(check_cancel_identity(fam))
        reports.append(check_residual_order(fam))
        reports.append(check_z_degree(fam))
        if fam.alpha == 1:
            for m in range(1, fam.depth + 1):
                for r in (Fraction(1, 10), Fraction(1, 20)):
                    reports.append(lower_bound_probe(fam, m, r=r))
    reports.sort(key=lambda c: (c.metadata.get("d", 0), c.metadata.get("alpha", 0), c.name))
    return reports
