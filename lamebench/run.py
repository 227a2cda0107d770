"""Benchmark for lamegap.

    python3 lamebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 lamebench/run.py --all [--seed N] [--seconds S]

Run from the repository root (the program is imported from ``src/``).  One
run measures set-up time, then starts repeats of the workload, each in a
fresh process with one BLAS thread, as long as the next one is expected
to end within ``--seconds``.

``--trace 0`` prints the end-to-end metrics: medians over the run of
``wall_s`` (a repeat's time after set-up), ``setup_s`` and ``peak_rss_mb``.
Both times are scaled to a nominal machine speed (see REF_NOMINAL_S); the
raw seconds are printed above them.  ``--trace 1`` starts one untraced
repeat and at least two traced ones, and prints the per-layer metrics (raw
seconds, except the scaled ``trace.wall_s`` and ``trace.overhead_s``), the
layer shares and the tracing overhead.  Every repeat's outputs are checked;
the last line of output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--all`` runs every workload both ways and
writes ``lamebench/recorded.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

# Timings are scaled to the machine speed at which the reference loop in
# child.py takes this long (about its time on a 2-core x86_64 machine): on a
# shared host the same repeat can run 30% slower from one minute to the
# next, and the reference loop, timed next to and during each timing, slows
# with it.
REF_NOMINAL_S = 0.03
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 2
MIN_TRACED = 2
RUN_LIMIT_S = 170  # a run must end within 180 s
WORKLOADS = tuple(workloads.WHY)
# per-layer metrics that must repeat exactly across traced repeats
EXACT_UNITS = ("count", "bits", "ratio")


class Tally:
    """Attempted and failed checks over one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: list[str] = []

    def add(self, name: str, passed: bool, witness=None) -> None:
        self.attempted += 1
        if not passed:
            self.failed.append(f"{name}: {witness}" if witness is not None else name)


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(args: list[str], stdout, deadline: float) -> subprocess.CompletedProcess:
    t0 = time.perf_counter()
    return subprocess.run(
        [sys.executable, str(BENCH / "child.py"), *args, repr(t0)],
        cwd=ROOT, env=_child_env(), stdout=stdout, stderr=subprocess.PIPE, text=True,
        timeout=max(deadline - t0, 1.0),
    )


def setup_probe(deadline: float) -> dict:
    proc = _spawn(["--setup-only"], subprocess.PIPE, deadline)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _scaled(rec: dict, key: str) -> float:
    return rec[key] * REF_NOMINAL_S / rec["ref_s"]


def repeat(workload: str, inputs: dict, trace: bool, out: Path, deadline: float) -> dict:
    out.mkdir(parents=True)
    job = out / "job.json"
    job.write_text(json.dumps(
        {"workload": workload, "inputs": inputs, "trace": trace, "out": str(out), "root": str(ROOT)}))
    try:
        proc = _spawn([str(job)], subprocess.DEVNULL, deadline)
    except subprocess.TimeoutExpired:
        return {"error": f"repeat still running after {RUN_LIMIT_S} s; stopped", "out": out,
                "traced": trace}
    result_path = out / "result.json"
    res = json.loads(result_path.read_text()) if result_path.exists() else {}
    if proc.returncode != 0 and "error" not in res:
        res["error"] = f"exit code {proc.returncode}: {proc.stderr[-2000:]}"
    res["out"] = out
    res["traced"] = trace
    return res


def _median(values):
    return statistics.median(values) if values else float("nan")


def run(workload: str, seed: int, seconds: float, trace: bool, units: dict) -> dict:
    """One run; `units` maps the declared per-layer metric names to units."""
    inputs = workloads.make_inputs(workload, seed)
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tally = Tally()
    deadline = time.perf_counter() + RUN_LIMIT_S
    try:
        setups = [setup_probe(deadline) for _ in range(SETUP_PROBES)]
        reps: list[dict] = []
        durations: list[float] = []
        start = time.perf_counter()
        while True:
            traced = trace and len(reps) > 0
            t = time.perf_counter()
            reps.append(repeat(workload, inputs, traced, work / f"r{len(reps)}", deadline))
            durations.append(time.perf_counter() - t)
            if "error" in reps[-1] and time.perf_counter() >= deadline:
                break
            if trace and sum(r["traced"] for r in reps) < MIN_TRACED:
                continue
            # stop before a repeat that would end after the measuring window
            if time.perf_counter() - start + _median(durations) > seconds:
                break
        return _summarize(workload, seed, inputs, trace, reps, setups, tally, units)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _summarize(workload, seed, inputs, trace, reps, setups, tally, units) -> dict:
    ok = [r for r in reps if "error" not in r]
    for r in reps:
        if "error" in r:
            tally.add("repeat", False, r["error"].strip().splitlines()[-1])
        for name, passed, witness in r.get("checks", []):
            tally.add(name, passed, witness)
    # outputs must not depend on the repeat (nor on whether it was traced)
    for name in workloads.compared_files(workload):
        ref = ok[0]["out"] / name if ok else None
        for r in ok[1:]:
            same = ref.exists() and (r["out"] / name).exists() and \
                (r["out"] / name).read_bytes() == ref.read_bytes()
            tally.add(f"{name} identical across repeats", same)

    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    summary = {
        "workload": workload,
        "seed": seed,
        "inputs": inputs,
        "repeats": len(reps),
        "setup_samples": len(setups) + len(ok),
        "wall_samples": len(plain),
        "walls": [round(r["wall_s"], 3) for r in ok],
        "speed": [round(REF_NOMINAL_S / r["ref_s"], 3) for r in ok],
        "raw_wall_s": _median([r["wall_s"] for r in plain]),
        "raw_setup_s": _median([r["setup_s"] for r in setups + ok]),
        "cpu_per_wall": _median([r["cpu_s"] / r["wall_s"] for r in ok]),
        "end_to_end": {
            "wall_s": _median([_scaled(r, "wall_s") for r in plain]),
            "setup_s": _median([_scaled(r, "setup_s") for r in setups + ok]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
        },
        "tally": tally,
        "notes": sorted({n for r in ok for n in r.get("notes", [])}),
    }
    if trace:
        summary.update(_trace_summary(workload, traced, plain, tally, units))
    return summary


def _trace_summary(workload, traced, plain, tally, units) -> dict:
    if not traced:
        return {"per_layer": {}, "layer_shares": {}}
    first = traced[0]["trace"]["metrics"]
    for r in traced[1:]:
        other = r["trace"]["metrics"]
        diff = [k for k in first if units.get(k) in EXACT_UNITS and other[k] != first[k]]
        tally.add("per-layer counts repeat exactly", not diff, diff)
    per_layer = {}
    for name in first:
        values = [r["trace"]["metrics"][name] for r in traced]
        per_layer[name] = values[0] if units.get(name) in EXACT_UNITS else _median(values)
    traced_wall = _median([r["wall_s"] for r in traced])
    per_layer["trace.wall_s"] = _median([_scaled(r, "wall_s") for r in traced])
    per_layer["trace.overhead_s"] = per_layer["trace.wall_s"] - _median([_scaled(r, "wall_s") for r in plain])
    shares = {}
    for layer in tracing.LAYERS:
        shares[layer] = _median([r["trace"]["layer_self_s"][layer] for r in traced]) / traced_wall
    shares["trace.hooks"] = per_layer["trace.hook_s"] / traced_wall
    shares["outside spans"] = 1.0 - sum(shares.values())
    spans = traced[0]["out"] / "spans.json"
    (WORK / "spans").mkdir(parents=True, exist_ok=True)
    kept = WORK / "spans" / f"{workload}.json"
    shutil.copyfile(spans, kept)
    return {"per_layer": per_layer, "layer_shares": shares, "spans_file": str(kept.relative_to(ROOT))}


def _declared(spec: dict) -> dict:
    return {group: {m["name"]: m["unit"] for m in spec[group]} for group in ("end_to_end", "per_layer")}


def _environment() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), **BLAS_ENV, "python": platform.python_version(),
            "machine": platform.machine()}


def _print_summary(s: dict, trace: bool) -> None:
    inputs = {k: v for k, v in s["inputs"].items() if k != "config"}
    print(f"workload {s['workload']} seed {s['seed']} inputs {json.dumps(inputs)}")
    print(f"  repeats {s['repeats']}: wall_s over {s['wall_samples']} untraced, "
          f"setup_s over {s['setup_samples']} set-ups; cpu/wall {s['cpu_per_wall']:.3f}")
    print(f"  raw seconds: wall_s {s['raw_wall_s']!r}, setup_s {s['raw_setup_s']!r}; "
          f"per repeat {s['walls']} at speed {s['speed']} of nominal")
    tally = s["tally"]
    ratio = len(tally.failed) / tally.attempted if tally.attempted else 1.0
    print(f"  failed_ratio = {ratio!r} ({len(tally.failed)} of {tally.attempted} checks)")
    for line in tally.failed[:20]:
        print(f"    FAILED {line}")
    for note in s["notes"]:
        print(f"    {note}")
    if trace:
        print("  layer shares of traced wall time:")
        for layer, share in s["layer_shares"].items():
            print(f"    {layer:<14} {100 * share:6.2f} %")
        print(f"  spans written to {s.get('spans_file')}")


def _metrics(s: dict, declared: dict, trace: bool) -> dict:
    group = "per_layer" if trace else "end_to_end"
    values = s[group]
    missing = sorted(set(declared[group]) - set(values))
    if missing:
        raise RuntimeError(f"declared metrics not measured: {missing}")
    return {name: {"value": values[name], "unit": unit} for name, unit in declared[group].items()}


def _run_and_print(name: str, seed: int, seconds: float, trace: bool, declared: dict):
    s = run(name, seed, seconds, trace, declared["per_layer"])
    _print_summary(s, trace)
    metrics = _metrics(s, declared, trace)
    for metric, m in metrics.items():
        print(f"  {metric} = {m['value']!r} {m['unit']}")
    return s, metrics


def _check_checkout() -> str | None:
    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "lamegap" / "cli.py"]
    needed += [ROOT / "tests" / "data" / f"family_d{d}_a{a}_levels12.json" for d, a in workloads.DUMPED]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    return f"not a lamegap checkout, missing: {', '.join(missing)}" if missing else None


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    problem = _check_checkout()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    if args.all == bool(args.workload):
        p.error("give exactly one of --workload and --all")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = _declared(spec)
    seconds = args.seconds or spec["run_seconds"]
    env = _environment()
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))

    if args.workload:
        s, metrics = _run_and_print(args.workload, args.seed, seconds, bool(args.trace), declared)
        tally = s["tally"]
        print(json.dumps({"correct": not tally.failed, "attempted": tally.attempted,
                          "failed": len(tally.failed), "metrics": metrics}))
        return 0

    record = {"environment": env, "seed": args.seed, "run_seconds": seconds, "workloads": {},
              "expectations": workloads.EXPECTATIONS}
    for name in WORKLOADS:
        entry = {"why": workloads.WHY[name]}
        for trace in (False, True):
            s, metrics = _run_and_print(name, args.seed, seconds, trace, declared)
            tally = s["tally"]
            entry["traced" if trace else "untraced"] = {
                "failed": len(tally.failed), "attempted": tally.attempted,
                "metrics": {k: m["value"] for k, m in metrics.items()},
            }
            if trace:
                entry["layer_shares"] = s["layer_shares"]
                entry["tracing_overhead_s"] = s["per_layer"]["trace.overhead_s"]
        record["workloads"][name] = entry
    path = BENCH / "recorded.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
