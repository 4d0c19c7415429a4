"""Machine speed and memory: the calibration kernel and peak RSS.

The benchmark runs on shared virtual machines whose speed drifts by
±25% over tens of seconds as neighbours come and go (five identical
15-second runs of the chain loop read 77 to 125 ms, with CPU time
tracking wall time, so the process was not waiting: the cores were
slower).  A latency taken alone therefore moves more between two runs
than any bound worth having.  So every run also times a fixed
calibration kernel, interleaved with its operations, and reports each
time at the reference speed at which the kernel takes
:data:`NOMINAL_KERNEL_MS`::

    reported_ms = measured_ms * NOMINAL_KERNEL_MS / kernel_ms

The kernel uses only the standard library (``sqlite3``, ``hashlib``,
dicts, sorting: the same mix of C and interpreter work the engine
does), never the program under test, so a slower program still reads
slower while a slower machine does not.  Raw times are printed beside
the scaled ones.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import random
import sqlite3
import statistics
import time

__all__ = ["NOMINAL_KERNEL_MS", "kernel_ms", "Timeline", "peak_rss_mb"]

#: What the kernel takes on the reference machine (a quiet 2.1 GHz Xeon
#: vCPU); it sets the scale of every reported time.
NOMINAL_KERNEL_MS = 12.0

_rng = random.Random(20201)
_ROWS = [(_rng.randrange(60), _rng.randrange(60), f"s{i}") for i in range(1500)]


def kernel_ms() -> float:
    """Run the calibration kernel once; its wall time in ms."""
    start = time.perf_counter()
    connection = sqlite3.connect(":memory:")
    try:
        connection.execute("CREATE TABLE a (x, y, z)")
        connection.executemany("INSERT INTO a VALUES (?, ?, ?)", _ROWS)
        connection.execute(
            "SELECT count(*) FROM a a1 JOIN a a2 ON a1.y = a2.x WHERE a1.z < a2.z"
        ).fetchone()
    finally:
        connection.close()
    groups: dict = {}
    digest = hashlib.sha1()
    for row in _ROWS * 4:
        groups.setdefault((row[0], row[1]), []).append(hash(row))
        digest.update(row[2].encode())
    sorted(groups.items())
    return (time.perf_counter() - start) * 1000.0


class Timeline:
    """Kernel samples interleaved with a run's operations.

    :meth:`tick` samples the kernel whenever ``every_ms`` of operation
    time has passed since the last sample.  The machine's slow spells
    last from tens of milliseconds to minutes, so each time is scaled
    by the median of the five samples nearest to it (two before, three
    after or the reverse at the ends): close enough to follow a spell,
    many enough that one noisy sample does not move the scale.
    """

    def __init__(self, every_ms: float):
        self.every_ms = every_ms
        self.samples: list[float] = []
        self._since = every_ms

    def tick(self, elapsed_ms: float = 0.0) -> int:
        """Account ``elapsed_ms`` of work, sample if due; the position of what runs next."""
        self._since += elapsed_ms
        if self._since >= self.every_ms:
            self.sample()
        return len(self.samples)

    def sample(self) -> None:
        self.samples.append(kernel_ms())
        self._since = 0.0

    def factor(self, position: int) -> float:
        """Scale for a time measured at ``position`` (samples taken before it)."""
        window = self.samples[max(0, position - 2) : position + 3]
        return NOMINAL_KERNEL_MS / statistics.median(window)

    @property
    def overall(self) -> float:
        return NOMINAL_KERNEL_MS / statistics.median(self.samples)


def _vm_hwm_kib(pid: int | str) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its live worker processes.

    Linux only (``/proc``).  Workers forked from this process share
    pages with it, and each count in full, so the sum is an upper bound.
    """
    total = _vm_hwm_kib("self")
    for child in multiprocessing.active_children():
        try:
            total += _vm_hwm_kib(child.pid)
        except OSError:
            pass
    return total / 1024.0
