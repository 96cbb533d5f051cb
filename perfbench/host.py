"""Host facts recorded with every result, resident-set readings, and
wall time with the host's stolen CPU time taken out.

On a shared virtual machine the hypervisor runs other guests on our
virtual CPUs for stretches of seconds to minutes; the time they take is
counted as *steal* in ``/proc/stat``.  Measured on a 2-vCPU guest, steal
moved a ``dist-local`` call from 1.6 s to 2.85 s and back, while the
call's own CPU time barely changed.  :class:`Stopwatch` therefore
reports, next to the wall time, the wall time scaled by the share of
the CPU time the guest asked for that it actually received:
``wall * (1 - steal share)``, where the steal share is stolen ticks over
the ticks the CPUs were not idle (steal included).  Idle ticks are left
out because a CPU that has nothing to run is never stolen from.  No
commit can change the steal share, so the adjusted time is what the
benchmark compares; the raw wall time is printed with it.

Steal is not the only drift.  With no steal at all, a single-threaded,
memory-heavy call (``run_serial`` at n=128) ran anywhere from 0.46 s to
0.85 s within one minute, in phases of seconds, as other guests loaded
the shared caches and memory.  A fixed numpy task timed right after each
call slows down with it: the ratio of the two halved the spread of
20-call medians.  :class:`Calibration` is that task; the workloads that
use it report times scaled by ``CALIBRATION_REF_S`` over the task's time,
that is, seconds on a host where the task takes ``CALIBRATION_REF_S``.
The task runs numpy only, so no commit of the program can change it.
"""

from __future__ import annotations

import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Tuple

import numpy as np


def git_rev(root: Path) -> str:
    """Commit of the checkout, or ``"unknown"`` outside a git work tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def host_facts(root: Path, seed: int, busy_threads: int) -> dict:
    """Usable cores, oversubscription, versions, git rev and seed.

    ``busy_threads`` counts the ranks plus the driver the workload keeps
    busy; ``oversubscribed`` flags when they exceed the usable cores.
    """
    cores = len(os.sched_getaffinity(0))
    return {
        "usable_cores": cores,
        "busy_threads": busy_threads,
        "oversubscribed": busy_threads > cores,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_rev": git_rev(root),
        "seed": seed,
        "argv": sys.argv[1:],
    }


def self_peak_rss_mb() -> float:
    """High-water resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pids: Iterable[int]) -> float:
    """Largest ``VmHWM`` among live processes ``pids``, in MiB."""
    peak = 0.0
    for pid in pids:
        try:
            text = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in text.splitlines():
            if line.startswith("VmHWM:"):
                peak = max(peak, int(line.split()[1]) / 1024.0)
    return peak


def cpu_ticks() -> Tuple[int, int]:
    """``(stolen, wanted)`` CPU ticks of the host since boot, from the
    ``cpu`` line of ``/proc/stat``: wanted ticks are all but the idle and
    iowait ones.  ``(0, 0)`` where there is no such line."""
    try:
        with open("/proc/stat") as stat:
            # user nice system idle iowait irq softirq steal
            ticks = [int(x) for x in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    if len(ticks) < 8:
        return 0, 0
    return ticks[7], sum(ticks) - ticks[3] - ticks[4]


@dataclass(frozen=True)
class Interval:
    """A measured interval: wall seconds and the host's steal share."""

    wall: float
    #: stolen / wanted CPU ticks of the host during the interval
    steal: float
    #: host-speed factor (:meth:`Calibration.scale`); 1.0 when not calibrated
    scale: float = 1.0

    @property
    def adjusted(self) -> float:
        """Wall seconds with the stolen share taken out, times ``scale``."""
        return self.wall * (1.0 - self.steal) * self.scale

    def scaled(self, scale: float) -> "Interval":
        return replace(self, scale=scale)


class Stopwatch:
    """Starts on construction; :meth:`stop` returns the :class:`Interval`."""

    def __init__(self) -> None:
        self.ticks = cpu_ticks()
        self.start = time.perf_counter()

    def stop(self) -> Interval:
        end = time.perf_counter()
        stolen, wanted = (b - a for a, b in zip(self.ticks, cpu_ticks()))
        return Interval(end - self.start,
                        min(stolen / wanted, 0.9) if wanted > 0 else 0.0)


#: Seconds :class:`Calibration` takes on the 2-vCPU Xeon (Sapphire
#: Rapids) KVM guest the baseline was measured on (median of 166 runs,
#: steal near 0: 0.118 s).
CALIBRATION_REF_S = 0.12


class Calibration:
    """A fixed host-speed probe: a real 3-D FFT round trip of an n^3 array
    (n=128 by default: 16 MiB, far past the caches, like the call it
    calibrates).  Built after the code under test has run, so it warms no
    cache that code uses."""

    def __init__(self, n: int = 128):
        self.data = np.random.default_rng(0).standard_normal((n, n, n))
        self.run()  # numpy's FFT plan cache

    def run(self) -> Interval:
        watch = Stopwatch()
        np.fft.irfftn(np.fft.rfftn(self.data), self.data.shape, axes=(0, 1, 2))
        return watch.stop()

    def scale(self) -> float:
        """``CALIBRATION_REF_S`` over one run's steal-adjusted seconds:
        above 1 while the host is faster than the reference, below while
        it is slower."""
        return CALIBRATION_REF_S / max(self.run().adjusted, 1e-6)
