"""Span recorder for the traced benchmark runs.

The recorder wraps lamegap's layer functions from the outside: it replaces
every binding of a layer function in the loaded ``lamegap`` modules (the
defining module and every module that imported it by name), the layer
methods on their classes, the study runner table, and scipy's ``splu``
as used by ``lamegap.fem.solve``.  Spans (name, start, end, parent) stay in
memory until :meth:`Tracer.write_spans`; their times come from the clock
the recorder is given.  Work the recorder does after a call returns
(argument hashing, size probes) is timed as hook time and charged to no
layer, so self times exclude it.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import defaultdict

import numpy as np

# Span names are "<layer>.<function>"; a layer is a lamegap module.
LAYERS = (
    "coeffs", "neck", "families", "checks",
    "fem.mesh", "fem.assembly", "fem.solve", "studies", "cli",
)

CHECK_FUNCS = (
    "check_boundary", "check_cancel_identity", "check_residual_order",
    "check_z_degree", "lower_bound_probe", "fd_oracle",
)
SOLVE_FUNCS = ("solve_component", "solve_hard_inclusion", "solve_holes")
STUDIES = ("rates", "constants", "compare", "cancel", "holes")


def layer_of(span_name: str) -> str:
    parts = span_name.split(".")
    return ".".join(parts[:2]) if parts[0] == "fem" else parts[0]


def _digest(*parts) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        h.update(np.ascontiguousarray(p).tobytes() if isinstance(p, np.ndarray) else repr(p).encode())
    return h.digest()


class Tracer:
    def __init__(self, clock) -> None:
        self._clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.hook_s: dict[int, float] = defaultdict(float)  # by parent span
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, float] = defaultdict(float)
        self.distinct: dict[str, set] = defaultdict(set)
        self.lu_fill: dict[bytes, float] = {}
        self.family_terms = 0
        self._restore: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def call(self, name, fn, args, kwargs, hook=None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = self._clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = self._clock()
            self._stack.pop()
        if hook is not None:
            hook(args, kwargs, result)
            self.hook_s[parent] += self._clock() - span[2]
        return result

    def wrap(self, name, fn, hook=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, hook)

        return traced

    def count_only(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        if isinstance(owner, dict):
            self._restore.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._restore.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def _rebind(self, original, replacement) -> None:
        """Replace every module-level binding of `original` in lamegap."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith("lamegap"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def install(self) -> None:
        import scipy.sparse.linalg as spla

        from lamegap import checks, cli, coeffs, families, neck, studies
        from lamegap.fem import assembly, mesh, solve

        def gcd_hook(args, kwargs, result):
            self.distinct["coeffs.poly_gcd"].add(args)

        def family_hook(args, kwargs, fam):
            stats = fam.coefficient_stats()
            self.family_terms += stats["terms"]
            self.maxima["families.max_coeff_bits"] = max(
                self.maxima["families.max_coeff_bits"], stats["max_coeff_bits"])

        def mesh_hook(args, kwargs, m):
            geom = args[0] if args else kwargs["geom"]
            params = args[1] if len(args) > 1 else kwargs.get("params")
            self.distinct["fem.mesh.generate_mesh"].add((geom, params or mesh.MeshParams()))
            self.maxima["fem.mesh.nodes_max"] = max(self.maxima["fem.mesh.nodes_max"], m.n_nodes)

        def assemble_hook(args, kwargs, system):
            m = system.mesh
            key = _digest(m.nodes, m.tris, (system.lam, system.mu, sorted(system.materials.items())))
            self.distinct["fem.assembly.assemble"].add(key)
            self.maxima["fem.assembly.K_nnz_max"] = max(
                self.maxima["fem.assembly.K_nnz_max"], system.K.nnz)

        def sample_hook(args, kwargs, out):
            self.counts["fem.solve.sample.points"] += len(out)

        def factor(a, *args, **kwargs):
            lu = self.call("fem.solve.factor", raw_splu, (a,) + args, kwargs, factor_hook)
            return _TracedFactor(lu, self)

        def factor_hook(args, kwargs, lu):
            a = args[0]
            key = _digest(a.data, a.indices, a.indptr, a.shape)
            self.distinct["fem.solve.factor"].add(key)
            self.maxima["fem.solve.n_red_max"] = max(self.maxima["fem.solve.n_red_max"], a.shape[0])
            if key not in self.lu_fill:
                self.lu_fill[key] = (lu.L.nnz + lu.U.nnz) / a.nnz

        plain = [
            (coeffs, "poly_gcd", "coeffs.poly_gcd", gcd_hook),
            (neck, "green_solve", "neck.green_solve", None),
            (families, "build_family", "families.build_family", family_hook),
            (families, "extend_integral", "families.extend_integral", None),
            (families, "lame_apply", "families.lame_apply", None),
            (mesh, "generate_mesh", "fem.mesh.generate_mesh", mesh_hook),
            (assembly, "assemble", "fem.assembly.assemble", assemble_hook),
            (solve, "sample", "fem.solve.sample", sample_hook),
            (cli, "main", "cli.main", None),
        ]
        plain += [(checks, f, f"checks.{f}", None) for f in CHECK_FUNCS]
        plain += [(solve, f, f"fem.solve.{f}", None) for f in SOLVE_FUNCS]
        for mod, attr, name, hook in plain:
            original = getattr(mod, attr)
            self._rebind(original, self.wrap(name, original, hook))

        for meth in ("diff", "expand_polynomial", "evaluate"):
            fn = neck.NeckScalar.__dict__[meth]
            self._set(neck.NeckScalar, meth, self.wrap(f"neck.NeckScalar.{meth}", fn))
        for meth, name in (("__mul__", "mul"), ("scale", "scale")):
            fn = coeffs.RationalCoeff.__dict__[meth]
            self._set(coeffs.RationalCoeff, meth,
                      self.count_only(f"coeffs.RationalCoeff.{name}.calls", fn))

        for kind in STUDIES:
            self._set(studies.RUNNERS, kind, self.wrap(f"studies.{kind}", studies.RUNNERS[kind]))

        raw_splu = spla.splu
        self._set(spla, "splu", factor)
        if solve.spla is not spla:
            raise RuntimeError("lamegap.fem.solve no longer reaches splu through scipy.sparse.linalg")

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._restore.clear()

    # -- reporting ----------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Inclusive seconds, self seconds and call counts per span name."""
        child_s = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        incl: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            incl[name] += t1 - t0
            own[name] += t1 - t0 - child_s[i] - self.hook_s.get(i, 0.0)
            calls[name] += 1
        return incl, own, calls

    def layer_self_s(self) -> dict[str, float]:
        _, own, _ = self.self_times()
        out = {layer: 0.0 for layer in LAYERS}
        for name, s in own.items():
            out[layer_of(name)] += s
        return out

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics, keyed by the names in BENCHMARK.json."""
        incl, own, calls = self.self_times()
        m: dict[str, float] = {}

        def timed(name, with_distinct=False):
            m[f"{name}.calls"] = calls.get(name, 0)
            m[f"{name}.s"] = incl.get(name, 0.0)
            if with_distinct:
                n = len(self.distinct[name])
                m[f"{name}.distinct"] = n
                m[f"{name}.distinct_ratio"] = n / calls[name] if calls.get(name) else 0.0

        timed("coeffs.poly_gcd", True)
        m["coeffs.RationalCoeff.mul.calls"] = self.counts["coeffs.RationalCoeff.mul.calls"]
        m["coeffs.RationalCoeff.scale.calls"] = self.counts["coeffs.RationalCoeff.scale.calls"]
        for name in ("neck.green_solve", "neck.NeckScalar.diff",
                     "neck.NeckScalar.expand_polynomial", "neck.NeckScalar.evaluate",
                     "families.build_family"):
            timed(name)
        m["families.extend_integral.s"] = incl.get("families.extend_integral", 0.0)
        m["families.lame_apply.s"] = incl.get("families.lame_apply", 0.0)
        m["families.terms"] = self.family_terms
        m["families.max_coeff_bits"] = int(self.maxima["families.max_coeff_bits"])
        for f in CHECK_FUNCS:
            m[f"checks.{f}.s"] = incl.get(f"checks.{f}", 0.0)
        timed("fem.mesh.generate_mesh", True)
        m["fem.mesh.nodes_max"] = int(self.maxima["fem.mesh.nodes_max"])
        timed("fem.assembly.assemble", True)
        m["fem.assembly.K_nnz_max"] = int(self.maxima["fem.assembly.K_nnz_max"])
        timed("fem.solve.factor", True)
        m["fem.solve.n_red_max"] = int(self.maxima["fem.solve.n_red_max"])
        fills = list(self.lu_fill.values())
        m["fem.solve.lu_fill"] = max(fills) if fills else 0.0
        timed("fem.solve.trisolve")
        m["fem.solve.solve_self_s"] = sum(own.get(f"fem.solve.{f}", 0.0) for f in SOLVE_FUNCS)
        timed("fem.solve.sample")
        points = self.counts["fem.solve.sample.points"]
        m["fem.solve.sample.points"] = points
        m["fem.solve.sample.us_per_point"] = (
            1e6 * incl.get("fem.solve.sample", 0.0) / points if points else 0.0)
        for kind in STUDIES:
            m[f"studies.{kind}.s"] = incl.get(f"studies.{kind}", 0.0)
        m["cli.main.s"] = incl.get("cli.main", 0.0)
        m["cli.main.self_s"] = own.get("cli.main", 0.0)
        m["trace.spans"] = len(self.spans)
        m["trace.hook_s"] = sum(self.hook_s.values())
        return m

    def write_spans(self, path) -> None:
        t_origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "spans": [[n, t0 - t_origin, t1 - t_origin, p] for n, t0, t1, p in self.spans],
                },
                fh,
            )


class _TracedFactor:
    """splu result whose triangular solves are recorded."""

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, *args, **kwargs):
        return self._tracer.call("fem.solve.trisolve", self._lu.solve, (rhs,) + args, kwargs)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)
