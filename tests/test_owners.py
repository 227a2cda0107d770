"""The owner split of a study pass: the calling process and its forked
worker each solve and keep the eps they own.

Every test here but the owner-count ones needs two CPUs, so that a pass has a
worker.  Each test starts with no worker, and the worker it starts is
stopped after it (`no_study_worker_outlives_its_test` in conftest.py).
"""

from __future__ import annotations

import contextlib
import os
import select
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from lamegap import studies
from lamegap.cli import main
from lamegap.fem.mesh import MeshError
from lamegap.fem.solve import SolverError

two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="a pass has a worker only with two CPUs",
)

KINDS = ("rates", "constants", "compare", "cancel", "holes")
COARSE = "mesh.nr = 8\nmesh.arc_target = 0.24\n"  # default eps grid
SRC = str(Path(studies.__file__).resolve().parents[1])


@contextlib.contextmanager
def owners(n: int):
    """Run the body with `n` owners per pass (n <= the CPUs at hand)."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, sorted(cpus)[:n])
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


@pytest.fixture
def coarse_cfg(tmp_path):
    path = tmp_path / "coarse.cfg"
    path.write_text("study.id = owners\n" + COARSE)
    return str(path)


@pytest.fixture
def mesh_log(tmp_path, monkeypatch):
    """Log "<pid> <eps>" for every mesh a study makes, in any process (the
    patch is inherited by workers forked after it)."""
    log = tmp_path / "meshes.log"
    log.touch()
    make = studies.generate_mesh

    def logged(geom, params):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {geom.eps!r}\n")
        return make(geom, params)

    monkeypatch.setattr(studies, "generate_mesh", logged)

    def read() -> list[tuple[int, float]]:
        rows = [line.split() for line in log.read_text().splitlines()]
        log.write_text("")
        return [(int(pid), float(eps)) for pid, eps in rows]

    return read


def _outputs(cfg: str, dest: Path) -> dict[str, bytes]:
    dest.mkdir()
    for kind in KINDS:
        assert main(["study", kind, "--config", cfg, "--json", str(dest / f"{kind}.json"),
                     "--out", str(dest / f"{kind}.csv")]) == 0
    assert main(["study", "all", "--config", cfg, "--json", str(dest / "all"),
                 "--out", str(dest / "all")]) == 0
    return {str(p.relative_to(dest)): p.read_bytes() for p in sorted(dest.rglob("*.*"))}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="one owner where there is no fork")
@pytest.mark.parametrize("cpus, n_eps, n", [(1, 4, 1), (2, 4, 2), (8, 4, 2), (64, 40, 2)])
def test_the_owners_are_at_most_the_cpus_the_eps_and_two(monkeypatch, cpus, n_eps, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert studies._owners() == n
    # the shares of a pass, the worker's first, from a stub worker that
    # answers in this process
    shares = []

    def share_records(cfg, kinds, share):
        shares.append(share)
        return {eps: {"holes": eps} for eps in share}, None

    class Stub:
        pid = 0

        def __init__(self):
            self.conn = self

        def send(self, request):
            self.reply = share_records(*request)

        def recv(self):
            return self.reply

        def stop(self):
            pass

    monkeypatch.setattr(studies, "_share_records", share_records)
    monkeypatch.setattr(studies, "_Worker", Stub)
    grid = tuple(0.1 * 0.9**k for k in range(n_eps))
    assert studies._pass(studies.SweepConfig(eps_grid=grid), ("holes",)) == [{"holes": e} for e in grid]
    assert shares == ([list(grid[1::2]), list(grid[::2])] if n == 2 else [list(grid)])


def test_a_process_with_another_python_thread_forks_no_worker(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert studies._owners() == 1
    finally:
        stop.set()
        other.join()


@two_cpus
def test_one_and_two_owners_write_the_same_bytes(tmp_path, monkeypatch, capsys,
                                                 coarse_cfg):
    with owners(1):
        monkeypatch.setattr(studies, "_CASES", {})
        one = _outputs(coarse_cfg, tmp_path / "one")
    with owners(2):
        monkeypatch.setattr(studies, "_CASES", {})
        two = _outputs(coarse_cfg, tmp_path / "two")
        # the caller kept only the eps it owns, the largest and the third
        (cases,) = studies._CASES.values()
        assert sorted(cases, reverse=True) == [0.1, 0.025]
        assert len(studies._WORKERS) == 1
    capsys.readouterr()
    assert len(one) == 20 and one.keys() == two.keys()
    for name in one:
        assert two[name] == one[name], name


@two_cpus
def test_each_eps_is_meshed_once_by_its_owner(mesh_log, capsys, coarse_cfg):
    with owners(2):
        for kind in KINDS:
            assert main(["study", kind, "--config", coarse_cfg]) == 0
        (worker,) = studies._WORKERS
    capsys.readouterr()
    made = mesh_log()
    # one mesh per eps, made once, by the owner of its eps
    assert len(made) == 4
    assert {eps for pid, eps in made if pid == os.getpid()} == {0.1, 0.025}
    assert {eps for pid, eps in made if pid == worker.pid} == {0.05, 0.0125}


@two_cpus
def test_a_config_change_drops_the_cases_in_every_owner(mesh_log, capsys, tmp_path,
                                                        coarse_cfg):
    other = tmp_path / "other.cfg"
    other.write_text("material.lambda = 2.0\n" + COARSE)
    with owners(2):
        assert main(["study", "constants", "--config", coarse_cfg]) == 0
        (worker,) = studies._WORKERS
    with owners(1):  # the worker owns no eps of this pass
        assert main(["study", "constants", "--config", str(other)]) == 0
    mesh_log()
    with owners(2):
        assert main(["study", "constants", "--config", coarse_cfg]) == 0
    capsys.readouterr()
    # both owners dropped the first configuration's cases, so both mesh again
    assert sorted(eps for pid, eps in mesh_log() if pid == worker.pid) == [0.0125, 0.05]


@two_cpus
@pytest.mark.parametrize("error, code", [(SolverError, 3), (MeshError, 2)])
@pytest.mark.parametrize("fail_eps", [0.05, 0.1], ids=["worker-owned", "caller-owned"])
def test_a_failed_eps_raises_as_in_one_process_and_the_next_pass_is_clean(
    monkeypatch, capsys, tmp_path, coarse_cfg, error, code, fail_eps
):
    # the constants record raises once in each process at fail_eps; a
    # worker starts armed, the caller is armed again before the one-owner run
    record, report = studies._STUDIES["constants"]
    armed = [True]

    def failing(cfg, case):
        if armed[0] and case.eps == fail_eps:
            armed[0] = False
            raise error(f"no constants at eps={case.eps!r}")
        return record(cfg, case)

    monkeypatch.setitem(studies._STUDIES, "constants", (failing, report))
    runs = {}
    for n in (2, 1):
        armed[0] = True
        holes = tmp_path / f"holes{n}.json"
        with owners(n):
            rc = main(["study", "constants", "--config", coarse_cfg])
            err = capsys.readouterr().err
            # a kind the failed pass did not run: an unread reply of that
            # pass would not hold its records
            assert main(["study", "holes", "--config", coarse_cfg, "--json", str(holes)]) == 0
        runs[n] = rc, err, holes.read_bytes()
    assert runs[2] == runs[1]
    assert runs[2][:2] == (code, f"{'runtime error' if code == 3 else 'error'}: "
                                 f"no constants at eps={fail_eps!r}\n")


@two_cpus
@pytest.mark.parametrize("cut", ["request", "reply"])
def test_a_message_cut_by_ctrl_c_stops_its_worker_and_the_next_pass_is_clean(monkeypatch, cut):
    cfg = studies.SweepConfig(nr=8, arc_target=0.24)
    with owners(1):
        monkeypatch.setattr(studies, "_CASES", {})
        want = studies.run_studies(cfg, ["holes"])["holes"].records

    def cut_short(*request):
        # Ctrl-C after the first 4 bytes of a message, its length
        if cut == "request":
            os.write(worker.conn.fileno(), (1 << 20).to_bytes(4, "big"))
        else:
            os.read(worker.conn.fileno(), 4)
        raise KeyboardInterrupt

    with owners(2):
        studies.run_studies(cfg, ["constants"])
        (worker,) = studies._WORKERS
        with monkeypatch.context() as patch:
            patch.setattr(worker.conn, "send" if cut == "request" else "recv", cut_short)
            with pytest.raises(KeyboardInterrupt):
                studies.run_studies(cfg, ["holes"])
        # the worker with the message cut short is gone, not kept for the next pass
        assert studies._WORKERS == [] and not _running(worker.pid)
        got = studies.run_studies(cfg, ["holes"])["holes"].records
        (again,) = studies._WORKERS
    assert again.pid != worker.pid
    assert got == want


@two_cpus
def test_a_worker_killed_between_passes_is_reaped_and_the_next_pass_forks_another(
    monkeypatch, capsys, coarse_cfg
):
    cfg = studies.SweepConfig(nr=8, arc_target=0.24)
    with owners(1):
        monkeypatch.setattr(studies, "_CASES", {})
        want = studies.run_studies(cfg, ["holes"])["holes"].records

    def kill_worker() -> int:
        (worker,) = studies._WORKERS
        os.kill(worker.pid, signal.SIGKILL)
        while _running(worker.pid):  # dead, so the next request meets a closed end
            time.sleep(0.01)
        return worker.pid

    with owners(2):
        studies.run_studies(cfg, ["constants"])
        pid = kill_worker()
        with pytest.raises(studies.StudyError) as exc:
            studies.run_studies(cfg, ["holes"])
        assert str(exc.value) == f"study worker {pid} exited; the next pass starts another"
        with pytest.raises(ChildProcessError):  # reaped, not left a zombie
            os.waitpid(pid, os.WNOHANG)
        got = studies.run_studies(cfg, ["holes"])["holes"].records
        again = kill_worker()
        assert main(["study", "holes", "--config", coarse_cfg]) == 3
    assert again != pid and got == want
    assert capsys.readouterr().err == (f"runtime error: study worker {again} exited; "
                                       "the next pass starts another\n")


# -- lifecycle, in a subprocess --------------------------------------------------

CALLER = textwrap.dedent("""
    import sys, time
    from lamegap import studies
    cfg = studies.SweepConfig(nr=8, arc_target=0.24)
    studies.run_studies(cfg, ["constants"])
    print(*[w.pid for w in studies._WORKERS], flush=True)
    if sys.argv[1] == "wait":
        time.sleep(60)
""")


def _caller(mode: str) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    with owners(2):  # the caller inherits this mask: one worker
        return subprocess.Popen([sys.executable, "-c", CALLER, mode], env=env, stdout=subprocess.PIPE)


def _running(pid: int) -> bool:
    """Whether `pid` is a process that has not exited (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _kill(pids: list[int]) -> None:
    for pid in pids:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)


@two_cpus
def test_no_worker_outlives_a_normal_exit():
    proc = _caller("exit")
    try:
        out, _ = proc.communicate(timeout=60)  # returns once no process holds stdout
    finally:
        proc.kill()
    assert proc.returncode == 0
    pids = [int(p) for p in out.split()]
    assert len(pids) == 1
    assert not any(_running(pid) for pid in pids)


@two_cpus
def test_a_worker_exits_soon_after_its_caller_is_killed():
    proc = _caller("wait")
    pids = []
    try:
        pids += [int(p) for p in proc.stdout.readline().split()]
        assert len(pids) == 1
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)
        deadline = time.monotonic() + 2.0
        # the worker inherited the caller's stdout: EOF means it closed too
        ready = select.select([proc.stdout], [], [], 2.0)[0]
        assert ready and os.read(proc.stdout.fileno(), 1) == b"", "a worker holds the caller's stdout"
        while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not any(_running(pid) for pid in pids)
    finally:
        proc.kill()
        proc.stdout.close()
        _kill([pid for pid in pids if _running(pid)])
