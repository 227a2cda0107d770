"""The benchmark's span recorder still finds lamegap's solver entry points.

`lamebench/tracing.py` patches lamegap by name from the outside; a renamed
or re-routed entry point would otherwise surface only in a traced benchmark
run.  The recorder is loaded from its file as it is.
"""

from __future__ import annotations

import importlib.util
import sys
import time
from pathlib import Path

import scipy.sparse.linalg as spla

from lamegap import coeffs, neck, studies
from lamegap.cli import main

TRACING = Path(__file__).resolve().parents[1] / "lamebench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("lamebench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    """Every binding the recorder may replace, by owner and name."""
    out = {("scipy", "splu"): spla.splu}
    for name, mod in list(sys.modules.items()):
        if mod is not None and name.startswith("lamegap"):
            out.update({(name, attr): v for attr, v in vars(mod).items() if callable(v)})
    out.update({("RUNNERS", kind): fn for kind, fn in studies.RUNNERS.items()})
    for cls in (neck.NeckScalar, coeffs.RationalCoeff):
        out.update({(cls.__name__, attr): v for attr, v in vars(cls).items()})
    return out


def test_tracer_records_the_solver_spans_and_uninstalls(tmp_path, monkeypatch, capsys, one_cpu):
    monkeypatch.setattr(studies, "_CASES", {})
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text("mesh.nr = 8\nmesh.arc_target = 0.24\n")
    before = _bindings()
    tracer = _load_tracing().Tracer(time.perf_counter)
    # install looks up every patched name, so a renamed entry point fails here
    tracer.install()
    try:
        assert spla.splu is not before["scipy", "splu"]
        assert main(["fem", "solve", "--problem", "hard", "--eps", "0.1"]) == 0
        hard_solve = _span_counts(tracer)
        assert main(["study", "constants", "--config", str(cfg)]) == 0
        both = _span_counts(tracer)
    finally:
        tracer.uninstall()
    capsys.readouterr()

    # one factor per mesh: a hard solve factors its boundaries once, and the
    # constants study solves one hard field per eps of the grid; each hard
    # solve with no component fields given is two triangular solves, the
    # 6-column component block and the v_0 column
    for counts, solves in ((hard_solve, 1), (both, 1 + 4)):
        assert counts["fem.solve.factor"] == solves
        assert counts["fem.solve.solve_hard_inclusion"] == solves
        assert counts["fem.solve.trisolve"] == 2 * solves
    assert both["studies.constants"] == 1

    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []


def _span_counts(tracer) -> dict[str, int]:
    counts: dict[str, int] = {}
    for name, *_ in tracer.spans:
        counts[name] = counts.get(name, 0) + 1
    return counts
