"""Process helpers: timed launches, process-tree memory, ``/dev/shm`` use.

Memory is read from ``/proc``: each process's ``VmHWM`` (its peak
resident set) is sampled every :data:`POLL_S` seconds for the launched
process and all its descendants (pool workers), and the tree's peak is
the sum of the per-process peaks.  A process with no descendants is
read exactly from ``wait4``'s ``ru_maxrss`` instead.
"""

from __future__ import annotations

import math
import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path

POLL_S = 0.02
SHM_DIR = Path("/dev/shm")


def tree_pids(root: int) -> list[int]:
    """``root`` and every live descendant, from ``/proc/*/task/*/children``."""
    out = [root]
    i = 0
    while i < len(out):
        pid = out[i]
        i += 1
        try:
            for task in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as fh:
                    out.extend(int(c) for c in fh.read().split())
        except (FileNotFoundError, ProcessLookupError, PermissionError):
            continue
    return out


def hwm_bytes(pid: int) -> int:
    """Peak resident bytes of one live process (0 once it has gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0


def shm_bytes(baseline: set[str]) -> int:
    """Bytes held by ``/dev/shm`` entries that are not in ``baseline``."""
    total = 0
    try:
        entries = list(os.scandir(SHM_DIR))
    except FileNotFoundError:
        return 0
    for entry in entries:
        if entry.name in baseline:
            continue
        try:
            total += entry.stat().st_size
        except FileNotFoundError:
            continue
    return total


def shm_names() -> set[str]:
    try:
        return set(os.listdir(SHM_DIR))
    except FileNotFoundError:
        return set()


class TreeMonitor:
    """Samples a process tree's per-process peak RSS (and shm) in a thread."""

    def __init__(self, pid: int, watch_shm: bool = False) -> None:
        self.pid = pid
        self.peaks: dict[int, int] = {}
        self.shm_peak = 0
        self._shm_base = shm_names() if watch_shm else None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def sample(self) -> None:
        for pid in tree_pids(self.pid):
            peak = hwm_bytes(pid)
            if peak > self.peaks.get(pid, 0):
                self.peaks[pid] = peak
        if self._shm_base is not None:
            self.shm_peak = max(self.shm_peak, shm_bytes(self._shm_base))

    def _run(self) -> None:
        while not self._stop.is_set():
            self.sample()
            self._stop.wait(POLL_S)

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def descendants(self) -> int:
        return len(self.peaks) - (1 if self.pid in self.peaks else 0)

    def tree_peak(self, root_maxrss: int | None = None) -> int:
        if root_maxrss is not None and not self.descendants:
            return root_maxrss
        return sum(self.peaks.values())


@dataclass
class Launch:
    """One finished command: exit code, spawn-to-exit seconds, tree peak."""

    returncode: int
    wall: float
    peak_rss: int
    shm_peak: int = 0
    #: ``perf_counter`` just before the spawn (one clock for all processes)
    started: float = 0.0


def run(
    argv: list[str],
    *,
    env: dict[str, str],
    cwd: Path,
    stdout: Path,
    stderr: Path,
    timeout: float = 60.0,
    watch_shm: bool = False,
) -> Launch:
    """Spawn ``argv``, wait for it, and time it from spawn to exit."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err)
        monitor = TreeMonitor(proc.pid, watch_shm=watch_shm)
        watchdog = threading.Timer(timeout, kill_tree, args=(proc.pid,))
        watchdog.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        watchdog.cancel()
        monitor.stop()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Launch(
        proc.returncode,
        wall,
        monitor.tree_peak(usage.ru_maxrss * 1024),
        monitor.shm_peak,
        start,
    )


def kill_tree(pid: int) -> None:
    for child in reversed(tree_pids(pid)):
        try:
            os.kill(child, signal.SIGKILL)
        except ProcessLookupError:
            pass


def stop(proc: subprocess.Popen, timeout: float = 60.0) -> int:
    """SIGTERM ``proc`` (graceful drain), SIGKILL its tree if it hangs."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        return proc.wait(timeout)
    except subprocess.TimeoutExpired:
        kill_tree(proc.pid)
        return proc.wait(timeout)


def cpu_times() -> list[int] | None:
    """The machine's aggregate CPU times from ``/proc/stat`` (jiffies)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before: list[int] | None, after: list[int] | None) -> float | None:
    """Percent of the machine's CPU time the hypervisor took between two reads."""
    if not before or not after or len(before) < 8 or len(after) < 8:
        return None
    total = sum(after) - sum(before)
    return 100.0 * (after[7] - before[7]) / total if total > 0 else None


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
