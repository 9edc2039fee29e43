"""A speed probe that puts timings from a shared host on one scale.

Neighbours on the host slow a core of this machine by up to 2x, in bursts
that last from a fraction of a second to minutes, and each core on its own.
Raw medians therefore move from run to run by more than a regression bound.
The probe times a short fixed kernel on the core the sample runs on: a few
calls between samples and one call every ``INTERVAL_S`` while a sample is
being taken. A sample is then reported in reference seconds, its wall (or
CPU) time scaled by ``REFERENCE_S / mean kernel time over the sample``. A
change in the program moves the sample and not the kernel, so it shows in
full. The probe only tracks the core it runs on; callers pin the benchmark,
and the processes it starts, to one core.
"""

from __future__ import annotations

import os
import select
import signal
import statistics
import subprocess
import time
from dataclasses import dataclass

import numpy as np

REFERENCE_S = 1e-3  # kernel time that defines one reference second
INTERVAL_S = 0.025  # kernel runs this often while a sample is being taken
EDGE_CALLS = 4      # kernel calls between consecutive samples


def kernel(values=np.linspace(0.0, 1.0, 50)) -> float:
    """Fixed work of the engine's kind: interpreter loops over small arrays."""
    total = 0.0
    for i in range(300):
        scaled = values * 1.0001 + i
        total += float(scaled[i % 50]) * 0.5
    return total


@dataclass
class Sample:
    wall: float    # seconds, with the probe's own calls taken out
    kernel: float  # mean kernel seconds before, during and after the sample

    def scale(self, seconds: float) -> float:
        """``seconds`` measured over this sample, in reference seconds."""
        return seconds * REFERENCE_S / self.kernel


@dataclass
class Process(Sample):
    cpu: float = 0.0      # user+sys CPU seconds of the child
    peak_mb: float = 0.0  # peak RSS of the child
    code: int = 0


class Probe:
    def __init__(self):
        self.kernel_times: list[float] = []
        self.edge = self._run(EDGE_CALLS)

    def _run(self, calls: int) -> list[float]:
        times = []
        for _ in range(calls):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
        self.kernel_times += times
        return times

    def _close(self, during: list[float]) -> float:
        after = self._run(EDGE_CALLS)
        mean = statistics.fmean(self.edge + during + after)
        self.edge = after
        return mean

    def call(self, fn) -> tuple[object, Sample]:
        """Run ``fn()`` in-process; a timer signal runs the kernel during it."""
        during: list[float] = []
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: during.extend(self._run(1)))
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        return result, Sample(wall - sum(during), self._close(during))

    def spawn(self, argv: list[str], cwd, env: dict, stderr=subprocess.DEVNULL) -> Process:
        """Run ``argv`` to completion, running the kernel while it is alive."""
        during: list[float] = []
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=stderr)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                poller = select.poll()
                poller.register(pidfd, select.POLLIN)
                while not poller.poll(INTERVAL_S * 1000):
                    during += self._run(1)
            finally:
                os.close(pidfd)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Process(wall - sum(during), self._close(during), usage.ru_utime + usage.ru_stime,
                       usage.ru_maxrss / 1024.0, proc.returncode)
