"""The command-line entry freezes the objects its imports made out of the
cyclic collector; the library alone leaves the collector as it is.  Each
probe runs in a fresh interpreter, so that the test runner's own objects
play no part."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lamegap

SRC = str(Path(lamegap.__file__).resolve().parents[1])


def probe(code: str) -> str:
    paths = [SRC, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip().splitlines()[-1]


def test_cli_import_freezes_and_keeps_the_collector_on():
    frozen, enabled = probe(
        "import gc, lamegap.cli; print(gc.get_freeze_count(), gc.isenabled())"
    ).split()
    assert int(frozen) > 0 and enabled == "True"


def test_library_import_freezes_nothing():
    assert probe("import gc, lamegap; print(gc.get_freeze_count())") == "0"


@pytest.mark.skipif(
    sys.version_info >= (3, 14), reason="the collector is not generational from 3.14"
)
def test_aux_verify_runs_no_full_collection():
    # without the freeze a depth-4 run makes one generation-2 collection, over
    # every object the imports left
    code = (
        "import gc, lamegap.cli\n"
        "gens = []\n"
        "gc.callbacks.append(lambda phase, info: phase == 'start' and gens.append(info['generation']))\n"
        "code = lamegap.cli.main(['aux', 'verify', '--depth', '4'])\n"
        "print(code, gens.count(0), gens.count(2))\n"
    )
    code, young, full = map(int, probe(code).split())
    assert code == 0 and young > 0
    assert full == 0
