"""Where and on what a result was measured.

Every result carries a host fingerprint, the git revision, the seed and
the score of a short fixed calibration kernel, so results from two
machines are never compared silently: compare ``host`` first, and read
timings relative to ``calibration_mops`` when the hosts differ.
"""

from __future__ import annotations

import os
import platform
import random
import statistics
import time
from importlib import metadata
from pathlib import Path


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def host() -> dict:
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "networkx": _version("networkx"),
    }


def git_rev(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git;
    ``"unknown"`` outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def calibrate(rounds: int = 5, n: int = 300_000) -> float:
    """Millions of loop iterations per second of a fixed pure-Python
    kernel (integer arithmetic, a branch, a list append): the median of
    ``rounds`` timings."""
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        acc, out = 0, []
        for i in range(n):
            acc = (acc + i * i) % 1_000_003
            if acc & 1:
                out.append(acc)
        times.append(time.perf_counter() - t0)
    return n / statistics.median(times) / 1e6


class _Slot:
    __slots__ = ("a", "b")

    def __init__(self, a: int) -> None:
        self.a, self.b = a, 0


class ReferenceKernel:
    """A fixed pure-Python workload shaped like the simulator's: random
    lookups into a dict of 2**18 slotted objects (some 40 MB, past the L2
    cache), updating an attribute of each.  Its time tracks how fast the
    host runs the program at the moment it is taken: on a shared host
    whose speed drifts by tens of percent its time moved with the
    simulator's (log-log slope 1.0), where the loop of :func:`calibrate`
    moved more (slope 0.7)."""

    def __init__(self, n_objects: int = 1 << 18, n_lookups: int = 50_000) -> None:
        rng = random.Random(1)
        self.table = {i * 2654435761 % (1 << 31): _Slot(i) for i in range(n_objects)}
        keys = list(self.table)
        self.order = [keys[rng.randrange(n_objects)] for _ in range(n_lookups)]

    def time_s(self, rounds: int = 3) -> float:
        """Seconds one pass takes: the median of ``rounds`` timings."""
        times = []
        for _ in range(rounds):
            t0 = time.perf_counter()
            acc = 0
            for k in self.order:
                o = self.table[k]
                o.b += 1
                acc += o.a
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


def record(root: Path, seed: int) -> dict:
    return {
        "host": host(),
        "git_rev": git_rev(root),
        "seed": seed,
        "calibration_mops": round(calibrate(), 3),
    }
