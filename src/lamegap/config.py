"""Flat key=value study configuration files.

Grammar: one `key = value` pair per line; `#` starts a comment; blank lines
ignored.  Unknown and repeated keys are hard errors so tolerance-name typos
and leftover edits cannot pass silently.  `sweep.eps` is a comma-separated
list.
"""

from __future__ import annotations

from .studies import DEFAULT_TOLERANCES, SweepConfig


class ConfigError(ValueError):
    pass


_SCALAR_KEYS: dict[str, tuple[str, type]] = {
    "study.id": ("study_id", str),
    "geometry.R0": ("R0", float),
    "geometry.rho1": ("rho1", float),
    "geometry.rho2": ("rho2", float),
    "material.lambda": ("lam", float),
    "material.mu": ("mu", float),
    "boundary.phi": ("phi", str),
    "mesh.nz": ("nz", int),
    "mesh.grading": ("ct", float),
    "mesh.neck_halfwidth": ("neck_halfwidth", float),
    "mesh.arc_target": ("arc_target", float),
    "mesh.nr": ("nr", int),
    "mesh.radial_growth": ("radial_growth", float),
    "mesh.collar_width": ("collar_width", float),
    "compare.depth": ("compare_depth", int),
}


def _coerce(raw: str, typ: type):
    try:
        return typ(raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {raw!r} as {typ.__name__}") from exc


def parse_config_text(text: str) -> SweepConfig:
    kwargs: dict = {}
    tolerances = dict(DEFAULT_TOLERANCES)
    seen: dict[str, int] = {}  # key -> line of its first occurrence
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key in seen:
            raise ConfigError(f"line {lineno}: key {key!r} repeats line {seen[key]}")
        seen[key] = lineno
        if key == "sweep.eps":
            try:
                kwargs["eps_grid"] = tuple(float(v) for v in raw.split(","))
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: bad eps list {raw!r}") from exc
        elif key.startswith("study.tolerance."):
            name = key[len("study.tolerance."):]
            if name not in tolerances:
                raise ConfigError(f"line {lineno}: unknown tolerance {name!r}")
            tolerances[name] = _coerce(raw, float)
        elif key in _SCALAR_KEYS:
            attr, typ = _SCALAR_KEYS[key]
            kwargs[attr] = _coerce(raw, typ)
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    kwargs["tolerances"] = tuple(sorted(tolerances.items()))
    return SweepConfig(**kwargs)


def load_config(path: str) -> SweepConfig:
    with open(path) as fh:
        return parse_config_text(fh.read())
