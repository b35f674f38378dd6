"""Starting, watching and stopping the program's processes.

The benchmark runs the program from the checkout's ``src`` directory in
child processes of its own: ``python -m repro serve`` exactly as a user
starts it, or the sweep host (``sweep_host.py``) that calls
``run_sweep`` as a library user does.  Memory is sampled over the whole
process tree, workers included.

Each process starts in a process group of its own; :func:`stop` ends
it and waits for everything left in its group, and
:func:`end_descendants` does the same for whatever else the run
started, so no process outlives a run.
"""

from __future__ import annotations

import ctypes
import json
import os
import signal
import statistics
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any

from reference_sampler import ITERATIONS, REFERENCE_ITERATIONS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: How long the program may take to become ready before the run fails.
READY_TIMEOUT_S = 60.0


class BenchError(RuntimeError):
    """The benchmark could not run (not a measurement)."""


def nproc() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def program_env() -> dict[str, str]:
    """Environment that makes ``import repro`` load the checkout's source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


def _children(pid: int) -> list[int]:
    out: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as handle:
                out.extend(int(child) for child in handle.read().split())
        except OSError:
            continue
    return out


def _rss_kb(pid: int, field: str = "VmRSS:") -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_cpu_s(pid: int) -> float:
    """CPU seconds of a process plus its waited-for children, so far.

    CPU time leaves out time the process waited, including time the
    virtual machine's host took the CPU away, so it repeats far better
    than wall time on a shared host.
    """
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # utime, stime, cutime, cstime (fields 14-17 of proc(5)).
    return sum(int(value) for value in fields[11:15]) / os.sysconf("SC_CLK_TCK")


class HostSpeed:
    """Reference-loop samples from ``reference_sampler.py``, running in
    a process of its own beside the program.

    :meth:`reference_s` is the mean sample over a window of the
    monotonic clock, scaled to the full reference loop (one ``ref``).
    The program's CPU times are divided by it, so a host that runs
    faster or slower for minutes at a time (shared CPUs) moves both
    alike and the ratio stays put.  The mean, like the program's CPU
    time per unit of work, takes in every slow spell of the host in
    that window in proportion to its length.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self.proc = start(
            [sys.executable, str(HERE / "reference_sampler.py"), str(path)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        )

    def stop(self) -> None:
        stop(self.proc)

    def reference_s(self, since: float, until: float) -> float:
        samples = []
        for line in self.path.read_text(encoding="ascii").splitlines():
            fields = line.split()
            if len(fields) == 2 and since <= float(fields[0]) <= until:
                samples.append(REFERENCE_ITERATIONS / ITERATIONS * float(fields[1]))
        if not samples:
            raise BenchError("no host-speed samples in a measured window")
        return statistics.fmean(samples)


class MemoryWatch:
    """Peak resident memory of a process tree, sampled on demand.

    Each sample sums resident memory over the root and all of its
    descendants; the root's own kernel-tracked peak (``VmHWM``) is a
    floor for samples that missed its high point.
    """

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.peak_kb = 0

    def sample(self) -> None:
        total = sum(_rss_kb(pid) for pid in [self.pid, *descendants(self.pid)])
        self.peak_kb = max(self.peak_kb, total, _rss_kb(self.pid, "VmHWM:"))

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0


#: ``prctl`` option that makes a process the reaper of its orphaned
#: descendants.
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt this process's orphaned descendants (Linux ``prctl``).

    A worker whose parent has exited is re-parented to this process
    instead of the system's init, so :func:`end_descendants` still
    finds it, and can wait for it.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def start(command: list[str], **kwargs: Any) -> subprocess.Popen:
    """Start a program process in a process group of its own."""
    return subprocess.Popen(command, env=program_env(), start_new_session=True, **kwargs)


def _proc_stat(pid: int) -> list[str] | None:
    """Fields of ``/proc/PID/stat`` from the state on (field 3 of proc(5))."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


def descendants(pid: int) -> list[int]:
    """Every live descendant of a process, children before grandchildren."""
    out: list[int] = []
    pending = [pid]
    while pending:
        children = _children(pending.pop())
        out.extend(children)
        pending.extend(children)
    return out


def _group(pgid: int) -> list[int]:
    """Processes of a process group, exited or not."""
    out = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _proc_stat(int(entry))
            # pgrp is field 5 of proc(5).
            if fields is not None and int(fields[2]) == pgid:
                out.append(int(entry))
    return out


def _still_running(pids: list[int]) -> list[int]:
    """Those of ``pids`` that have not exited.

    Exited ones that are this process's children are waited for here;
    any other exited one is its own parent's to wait for.
    """
    running = []
    for pid in pids:
        fields = _proc_stat(pid)
        if fields is None:
            continue
        if fields[0] not in "ZX":
            running.append(pid)
        elif int(fields[1]) == os.getpid():
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
    return running


def _signal_all(pids: list[int], signum: int) -> None:
    for pid in pids:
        try:
            os.kill(pid, signum)
        except ProcessLookupError:
            pass


def _end(listed: Any, grace_s: float) -> None:
    """SIGTERM the processes ``listed()`` names, SIGKILL those left after
    ``grace_s``, and wait until none of them is running."""
    _signal_all(_still_running(listed()), signal.SIGTERM)
    deadline = time.monotonic() + grace_s
    while pids := _still_running(listed()):
        if time.monotonic() > deadline:
            _signal_all(pids, signal.SIGKILL)
        time.sleep(0.01)
    _still_running(listed())


def end_descendants(grace_s: float = 5.0) -> None:
    """End and wait for every process this one started, at any depth."""
    _end(lambda: descendants(os.getpid()), grace_s)


def stop(proc: subprocess.Popen, timeout_s: float = 30.0) -> int:
    """SIGTERM, wait, and SIGKILL a process that does not exit in time;
    then end and wait for whatever it left running in its group."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    _end(lambda: _group(proc.pid), 5.0)
    return proc.returncode


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, run_dir: Path, name: str, jobs: int, traced_dir: Path | None = None) -> None:
        self.dir = run_dir / name
        self.dir.mkdir(parents=True)
        self.log = self.dir / "serve.log"
        args = [
            "serve", "--port", "0", "--jobs", str(jobs),
            "--cache-dir", str(self.dir / "cache"),
            "--flight-dir", str(self.dir),
        ]
        if traced_dir is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            command = [sys.executable, str(HERE / "serve_host.py"), str(traced_dir), *args]
        self.started = time.perf_counter()
        with open(self.log, "wb") as log:
            self.proc = start(
                command, cwd=self.dir,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=log,
            )
        self.memory = MemoryWatch(self.proc.pid)
        try:
            self.url = self._await_banner()
            host, port = self.url[len("http://"):].rsplit(":", 1)
            self.address = (host, int(port))
            self._await_ready()
        except BaseException:
            stop(self.proc)
            raise
        self.setup_s = time.perf_counter() - self.started

    def _check_alive(self) -> None:
        if self.proc.poll() is not None:
            tail = self.log.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise BenchError(f"repro serve exited with {self.proc.returncode}:\n{tail}")
        if time.perf_counter() - self.started > READY_TIMEOUT_S:
            raise BenchError("repro serve did not become ready in time")

    def _await_banner(self) -> str:
        while True:
            for line in self.log.read_text(encoding="utf-8", errors="replace").splitlines():
                if line.startswith("serving at "):
                    return line.split()[2]
            self._check_alive()
            time.sleep(0.005)

    def _await_ready(self) -> None:
        while True:
            try:
                with urllib.request.urlopen(self.url + "/readyz", timeout=5) as answer:
                    if answer.status == 200:
                        return
            except (OSError, urllib.error.HTTPError):
                pass
            self._check_alive()
            time.sleep(0.005)

    def status(self) -> dict[str, Any]:
        with urllib.request.urlopen(self.url + "/status", timeout=10) as answer:
            return json.loads(answer.read())

    def stop(self) -> int:
        self.memory.sample()
        return stop(self.proc)


def launch_sweep_host(args: list[str], log: Path) -> tuple[subprocess.Popen, float]:
    """Start the sweep host; return it and its time to ready (seconds)."""
    started = time.perf_counter()
    with open(log, "ab") as handle:
        proc = start(
            [sys.executable, str(HERE / "sweep_host.py"), *args],
            cwd=ROOT,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=handle,
        )
    assert proc.stdout is not None
    line = proc.stdout.readline()
    if line.strip() != b"ready":
        stop(proc)
        raise BenchError(
            "sweep host failed before ready:\n"
            + log.read_text(encoding="utf-8", errors="replace")[-2000:]
        )
    return proc, time.perf_counter() - started
