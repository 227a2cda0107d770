"""One repeat of a workload, in a fresh interpreter.

    python3 lamebench/child.py JOB_JSON SPAWN_TIME
    python3 lamebench/child.py --setup-only SPAWN_TIME

SPAWN_TIME is the parent's ``time.perf_counter()`` just before it started
this process (a system-wide monotonic clock on Linux), so set-up time runs
from interpreter start through ``import lamegap.cli``.  Next to each timing,
and every SAMPLE_EVERY_S during a repeat, the process times a short fixed
reference loop; the parent scales the timing by the machine speed those
samples give (``ref_s``) to a nominal speed.  The result goes to
``result.json`` in the job's output directory.
"""

import time

import lamegap.cli  # noqa: F401  (the set-up being timed)

READY = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

REF_LOOPS = 200_000
EDGE_SAMPLES = 3
# On a shared host the speed changes within seconds, so it is also sampled
# during the timed work, from a timer signal; the sampling time is taken out.
SAMPLE_EVERY_S = 0.5


def reference() -> float:
    """Seconds for fixed pure-Python work: the machine's current speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOPS):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def ref_s(samples: list[float]) -> float:
    """Reference time at the mean speed of the samples (speed ~ 1/time)."""
    return len(samples) / sum(1 / t for t in samples)


class SpeedSampler:
    """Reference samples taken every SAMPLE_EVERY_S while active."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a signal during the handler itself
            return
        self._busy = True
        t0 = time.perf_counter()
        self.samples.append(reference())
        self.spent_s += time.perf_counter() - t0
        self._busy = False

    def clock(self) -> float:
        """``time.perf_counter()`` without the time spent sampling."""
        return time.perf_counter() - self.spent_s

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main(argv: list[str]) -> int:
    setup_s = READY - float(argv[1])
    if argv[0] == "--setup-only":
        print(json.dumps({"setup_s": setup_s, "ref_s": ref_s([reference() for _ in range(EDGE_SAMPLES)])}))
        return 0
    job = json.loads(Path(argv[0]).read_text())
    out = Path(job["out"])
    samples = [reference() for _ in range(EDGE_SAMPLES)]
    res = {"setup_s": setup_s}
    sampler = SpeedSampler()
    tracer = tracing.Tracer(clock=sampler.clock) if job["trace"] else None
    try:
        if tracer:
            tracer.install()
        with sampler:
            t0, c0 = sampler.clock(), time.process_time()
            result = workloads.run(job["workload"], job["inputs"], out)
            res["wall_s"] = sampler.clock() - t0
            res["cpu_s"] = time.process_time() - c0 - sampler.spent_s
        samples += sampler.samples + [reference() for _ in range(EDGE_SAMPLES)]
        res["ref_s"] = ref_s(samples)
        res["ref_samples"] = len(samples)
        res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            tracer.uninstall()
            res["trace"] = {
                "metrics": tracer.metrics(),
                "layer_self_s": tracer.layer_self_s(),
            }
            tracer.write_spans(out / "spans.json")
        res["checks"], res["notes"] = workloads.check(job["workload"], result, out, Path(job["root"]))
    except Exception:  # reported to the parent, which counts the repeat as failed
        res["error"] = traceback.format_exc()
    (out / "result.json").write_text(json.dumps(res, default=repr))
    return 1 if "error" in res else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
