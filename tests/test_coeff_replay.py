"""Replay of the coefficient layer's operations, for timing it alone.

``aux verify`` runs once at each depth with ``RationalCoeff.__add__``,
``__mul__`` and ``_scaled`` wrapped to record their operands.  Operands are
kept as rendered strings, so a stream recorded by one implementation of
the coefficient ring parses and replays unchanged on another; calls made
inside ``parse`` are not recorded.  The replay parses each distinct operand
once and then times each operation alone, best of ``ROUNDS``.

Slow (about a minute at depth 6): run with ``pytest -m slow``.  The seconds
per operation, the operation counts and a digest of the stream go into the
benchmark's ``extra_info``; ``--benchmark-json=PATH`` writes them to a file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import time

import pytest

from lamegap import families
from lamegap.cli import main
from lamegap.coeffs import RationalCoeff, parse

pytestmark = pytest.mark.slow

ROUNDS = 3
# every SAMPLE-th operation keeps its rendered result, checked after the replay
SAMPLE = 997


def _record(monkeypatch, depth: int) -> tuple[list[tuple], list[str], dict[int, str]]:
    """(ops, operands, results): ops are ("add" | "mul", i, j) or
    ("scaled", i, n, m) over the indices of the distinct rendered operands."""
    slots: dict[RationalCoeff, int] = {}
    ops: list[tuple] = []
    results: dict[int, str] = {}
    recording = [True]

    def slot(x: RationalCoeff) -> int:
        k = slots.get(x)
        if k is None:
            k = slots[x] = len(slots)
        return k

    def recorded(name, fn):
        def op(a, *args):
            if not recording[0]:
                return fn(a, *args)
            rest = (slot(args[0]),) if name != "scaled" else args
            ops.append((name, slot(a), *rest))
            out = fn(a, *args)
            if len(ops) % SAMPLE == 0:
                results[len(ops) - 1] = out.render()
            return out

        return op

    def unrecorded_parse(text):
        recording[0] = False
        try:
            return parse(text)
        finally:
            recording[0] = True

    with monkeypatch.context() as mp:
        for attr, name in (("__add__", "add"), ("__mul__", "mul"), ("_scaled", "scaled")):
            mp.setattr(RationalCoeff, attr, recorded(name, getattr(RationalCoeff, attr)))
        mp.setattr(families, "parse", unrecorded_parse)
        mp.setattr(families, "_BUILT", {})
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["aux", "verify", "--depth", str(depth)]) == 0
    operands = [x.render() for x in slots]
    return ops, operands, results


def _replay(ops: list[tuple], xs: list[RationalCoeff]) -> dict[str, float]:
    """Best-of-ROUNDS seconds of each operation over the stream."""
    fns = {"add": RationalCoeff.__add__, "mul": RationalCoeff.__mul__}
    calls: dict[str, list[tuple]] = {"add": [], "mul": [], "scaled": []}
    for name, i, *rest in ops:
        calls[name].append((xs[i], xs[rest[0]]) if name in fns else (xs[i], *rest))
    best = {}
    for name, args in calls.items():
        fn = fns.get(name, RationalCoeff._scaled)
        times = []
        for _ in range(ROUNDS):
            t0 = time.perf_counter()
            for a in args:
                fn(*a)
            times.append(time.perf_counter() - t0)
        best[name] = min(times)
    return best


def _digest(ops: list[tuple], operands: list[str]) -> str:
    h = hashlib.sha256()
    h.update(repr(ops).encode())
    h.update("\n".join(operands).encode())
    return h.hexdigest()


@pytest.mark.parametrize("depth", [3, 6])
def test_replay_coefficient_stream(request, monkeypatch, depth):
    pytest.importorskip("pytest_benchmark")
    benchmark = request.getfixturevalue("benchmark")
    ops, operands, results = _record(monkeypatch, depth)
    digest = _digest(ops, operands)
    xs = [parse(s) for s in operands]
    assert [x.render() for x in xs] == operands

    # the replay recomputes what the run computed
    for k, shown in results.items():
        name, i, *rest = ops[k]
        a = xs[i]
        out = a + xs[rest[0]] if name == "add" else a * xs[rest[0]] if name == "mul" else a._scaled(*rest)
        assert out.render() == shown

    seconds = benchmark.pedantic(_replay, args=(ops, xs), rounds=1, iterations=1)
    counts = {name: sum(op[0] == name for op in ops) for name in seconds}
    row = {"seconds": {k: round(v, 4) for k, v in seconds.items()}, "calls": counts,
           "distinct_operands": len(operands), "stream_sha256": digest}
    benchmark.extra_info.update(row)
