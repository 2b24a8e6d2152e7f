"""Host fingerprint, memory-bandwidth probe and host-speed references.

Results only compare like with like when they come from the same kind of
host, so every result carries :func:`fingerprint`.  The copy probe measures
the bandwidth ceiling ``wse.sim.gbs`` is judged against; each of its two
arrays is at least four times the last-level cache so the copy streams
from memory.  It allocates two such arrays, so it runs in its own process
(``python3 perfbench/host.py``) and never inflates the workload's peak
memory.

The host this benchmark was defined on shares its cores, caches and
memory with other tenants, and their load moved its speed by 20-40% over
minutes, far more than a change worth detecting.  A :class:`Reference` is
a small fixed kernel, independent of the program under test, timed between
jobs in the same process; the job time of an interpreter-bound workload is
scaled by its speed relative to a nominal host, so a slower minute of the
host largely cancels out while a slower program does not.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

#: assumed last-level cache when sysfs does not tell.
DEFAULT_LLC_BYTES = 32 << 20

#: copies timed by the probe; the fastest is reported, as STREAM does.
COPY_REPEATS = 5

#: size of the reference kernel's sort.
KEYS = 80_000


class Reference:
    """A fixed pure-Python kernel (a keyed sort and an arithmetic loop),
    timed on demand: interpreter speed is what the program's jobs, compiles
    and imports are mostly bound by.  It allocates no objects the garbage
    collector tracks, so the program's heap cannot slow it down."""

    #: the kernel's median time on the nominal host: the 2-CPU Xeon VM the
    #: benchmark was defined on, in a quiet minute.
    NOMINAL_S = 0.012

    def __init__(self):
        self.samples: list[float] = []
        self._keys = list(range(KEYS))

    def sample(self, repeats: int = 3) -> None:
        for _ in range(repeats):
            started = time.perf_counter()
            total = 0
            for value in sorted(self._keys, key=lambda key: -key):
                total += value * value % 7
            self.samples.append(time.perf_counter() - started)

    def speed(self) -> float:
        """Nominal time over the median time measured: below 1 on a host
        (or in a minute) slower than nominal."""
        return self.NOMINAL_S / statistics.median(self.samples)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _size_bytes(text: str) -> int:
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    text = text.strip()
    if text[-1:] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text)


def llc_bytes() -> int:
    """Size of the highest cache level sysfs reports for CPU 0."""
    best_level, best_size = -1, DEFAULT_LLC_BYTES
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = _size_bytes((index / "size").read_text())
        except (OSError, ValueError):
            continue
        if level > best_level:
            best_level, best_size = level, size
    return best_size


def _version(module: str) -> str | None:
    try:
        return __import__(module).__version__
    except ImportError:
        return None


def fingerprint() -> dict:
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        cpus = os.cpu_count() or 1
    return {
        "cpu_model": _cpu_model(),
        "usable_cpus": cpus,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "cffi": _version("cffi"),
        "gcc": shutil.which("gcc") is not None,
        "llc_bytes": llc_bytes(),
    }


def copy_probe() -> dict:
    """STREAM-style copy bandwidth: 2 x bytes / fastest copy (read + write)."""
    import numpy as np

    llc = llc_bytes()
    count = 4 * llc // 8
    source = np.ones(count)
    target = np.zeros(count)
    best = float("inf")
    for _ in range(COPY_REPEATS):
        started = time.perf_counter()
        np.copyto(target, source)
        best = min(best, time.perf_counter() - started)
    return {
        "copy_gbs": 2 * source.nbytes / best / 1e9,
        "array_bytes": source.nbytes,
        "llc_bytes": llc,
    }


if __name__ == "__main__":
    json.dump(copy_probe(), sys.stdout)
