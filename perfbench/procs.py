"""Process hygiene and memory sampling from ``/proc`` (no psutil here)."""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import threading
import time


def _read(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return fh.read().decode(errors="replace")
    except OSError:
        return None


def _pids() -> list[int]:
    return [int(p) for p in os.listdir("/proc") if p.isdigit()]


def cmdline(pid: int) -> str:
    raw = _read(f"/proc/{pid}/cmdline")
    return raw.replace("\0", " ").strip() if raw else ""


def descendants(root: int) -> list[int]:
    """Every live process below ``root`` in the parent tree."""
    children: dict[int, list[int]] = {}
    for pid in _pids():
        stat = _read(f"/proc/{pid}/stat")
        if not stat:
            continue
        # the command field may hold spaces/parens: ppid follows the last ')'
        ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        children.setdefault(ppid, []).append(pid)
    out, todo = [], [root]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def rss_mb(pid: int) -> float:
    status = _read(f"/proc/{pid}/status") or ""
    for line in status.splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def ray_processes() -> list[int]:
    """Ray daemons and workers visible to this process."""
    out = []
    for pid in _pids():
        if pid == os.getpid():
            continue
        cmd = cmdline(pid)
        if cmd.startswith("ray::") or "raylet" in cmd or "gcs_server" in cmd \
                or "default_worker.py" in cmd:
            out.append(pid)
    return out


def ray_workers() -> list[int]:
    """This process's Ray worker processes (descendants whose command line
    starts with ``ray::``)."""
    return [p for p in descendants(os.getpid())
            if cmdline(p).startswith("ray::")]


def stop_orphan_ray() -> dict:
    """Stop Ray processes left behind by an earlier run (they share the
    core with the run about to start). Returns the counts before/after."""
    before = ray_processes()
    if before:
        ray_cli = shutil.which("ray")
        cmd = [ray_cli] if ray_cli else [sys.executable, "-m",
                                         "ray.scripts.scripts"]
        subprocess.run(cmd + ["stop", "--force"], stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, timeout=60, check=False)
        wait_gone(before, timeout=10.0)
    return {"orphans_found": len(before), "orphans_left": len(ray_processes())}


def wait_gone(pids: list[int], timeout: float) -> list[int]:
    """Wait for ``pids`` to exit; SIGKILL what is left at the deadline and
    wait again. Returns the pids still alive (should be none)."""
    deadline = time.monotonic() + timeout
    alive = list(pids)
    while alive and time.monotonic() < deadline:
        time.sleep(0.1)
        alive = [p for p in alive if os.path.exists(f"/proc/{p}")
                 and "zombie" not in (_read(f"/proc/{p}/status") or "")]
    for p in alive:
        try:
            os.kill(p, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 5.0
    while alive and time.monotonic() < deadline:
        time.sleep(0.1)
        alive = [p for p in alive if os.path.exists(f"/proc/{p}")
                 and "zombie" not in (_read(f"/proc/{p}/status") or "")]
    return alive


def bind_cpus(n: int) -> list[int]:
    """Bind every thread of this process, and so every process it starts
    later, to the last ``n`` CPUs it may use. Returns those CPUs.

    A host can grant fewer CPUs than a guest sees (``nproc`` below the
    affinity mask). Unbound, Ray's daemons and workers spread over the idle
    ones, and job times then follow other guests' load on those CPUs as
    much as the program's own work.
    """
    cpus = sorted(os.sched_getaffinity(0))[-n:]
    for tid in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(tid), cpus)
        except OSError:         # the thread ended meanwhile
            pass
    return cpus


def cpu_ticks(cpus: list[int]) -> list[int]:
    """The ``cpuN`` lines of ``/proc/stat`` for ``cpus``, summed (user,
    nice, system, idle, iowait, irq, softirq, steal, ...), in clock ticks."""
    names = {f"cpu{c}" for c in cpus}
    total: list[int] = []
    for line in (_read("/proc/stat") or "").splitlines():
        name, *ticks = line.split()
        if name in names:
            total = [a + int(b) for a, b in
                     zip(total or [0] * len(ticks), ticks)]
    return total


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests between two
    ``cpu_ticks`` readings: a high value means the run's figures carry the
    host's load."""
    d = [b - a for a, b in zip(before, after)]
    return d[7] / sum(d) if len(d) > 7 and sum(d) > 0 else 0.0


def load_average() -> list[float]:
    return [float(x) for x in (_read("/proc/loadavg") or "0 0 0").split()[:3]]


class RssSampler:
    """Background sampler of summed RSS: this driver plus its Ray worker
    processes (descendants whose command line starts with ``ray::``).
    ``peak_mb`` stops moving after ``freeze()``."""

    def __init__(self, interval: float = 0.25):
        self.interval = interval
        self.peak_mb = 0.0
        self._frozen = False
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def sample(self) -> float:
        total = rss_mb(os.getpid()) + sum(rss_mb(p) for p in ray_workers())
        with self._lock:
            if not self._frozen:
                self.peak_mb = max(self.peak_mb, total)
        return total

    def freeze(self):
        self.sample()
        with self._lock:
            self._frozen = True

    def _loop(self):
        # sampling walks /proc; stop once the peak is frozen so it does not
        # take CPU from the jobs still being timed
        while not self._stop.wait(self.interval) and not self._frozen:
            self.sample()

    def __enter__(self):
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5.0)
        self.sample()
