from __future__ import annotations

import os

import pytest

from lamegap import studies
from lamegap.families import build_family
from lamegap.neck import DIM2, DIM3


@pytest.fixture(scope="session")
def families_depth3():
    """Integral-route families to depth 3 for every alpha in scope, cached."""
    fams = {}
    for dim in (DIM2, DIM3):
        n = dim.d * (dim.d + 1) // 2
        for alpha in range(1, n + 1):
            fams[(dim.d, alpha)] = build_family(dim, alpha, 3, route="integral")
    return fams


@pytest.fixture(scope="session")
def families_depth5():
    """Integral-route families to depth 5 for the required check matrix."""
    fams = {}
    for dim in (DIM2, DIM3):
        for alpha in (1, 2, 3):
            fams[(dim.d, alpha)] = build_family(dim, alpha, 5, route="integral")
    return fams


@pytest.fixture
def one_cpu():
    """Narrow this process to one CPU for the test and restore it after, so
    a study pass has one owner: all its work runs in the test process,
    where monkeypatches, counters and `studies._CASES` see it."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


@pytest.fixture(autouse=True)
def no_study_worker_outlives_its_test():
    """Stop the study workers a test started: a worker keeps whatever was
    patched when it forked, so no later test may meet it."""
    yield
    studies._stop_workers()
