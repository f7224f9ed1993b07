"""Host speed probes that let timings cancel the host's drift.

The machine this benchmark was built on changes speed by up to 2x over tens
of seconds as neighbours load it, and each CPU drifts on its own. A fixed
pure-Python calibration loop measures the speed: its CPU time per iteration
over REF_NS_PER_ITER is the host *slowdown* at that moment. The benchmark
divides measured times by the slowdown observed while they ran (and
multiplies rates by it), so its figures read as wall times on a host that
runs the loop at REF_NS_PER_ITER.

- ``slowdown_now`` runs one short loop on the calling thread; in-process
  work interleaves it between small steps.
- ``Sampler`` watches a child process: one thread per CPU runs a short loop
  every SAMPLE_PERIOD_S and keeps the sample only when one of the child's
  threads was running on that CPU, so a child that moves between CPUs is
  scaled by the speed of the CPUs it used.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

ITERATIONS = 20_000
REF_NS_PER_ITER = 160.0
SAMPLE_PERIOD_S = 0.05


def _step(a, b):
    return a * 1.0001 + b


def slowdown_now() -> float:
    """Slowdown of the CPU running the calling thread, from one calibration loop."""
    table = {i: (i * 0.5, i & 7) for i in range(256)}
    acc = 0.0
    start = time.thread_time()
    for i in range(ITERATIONS):
        a, b = table[i & 255]
        acc += _step(a, b)
    return (time.thread_time() - start) * 1e9 / ITERATIONS / REF_NS_PER_ITER


def _running_cpus(pid: int) -> set[int]:
    """CPUs on which a thread of pid is running or runnable right now."""
    cpus = set()
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return cpus
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] == "R":
            cpus.add(int(fields[36]))  # field 39 of stat: last CPU
    return cpus


class Sampler:
    """Samples the speed of the CPUs a child process runs on, while it runs."""

    def __init__(self, pid: int):
        self.pid = pid
        self.kept: list[float] = []
        self.all: list[float] = []
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._loop, args=(cpu,), daemon=True)
                         for cpu in sorted(os.sched_getaffinity(0))]

    def _loop(self, cpu: int):
        os.sched_setaffinity(threading.get_native_id(), {cpu})
        while not self._stop.is_set():
            sample = slowdown_now()
            self.all.append(sample)
            if cpu in _running_cpus(self.pid):
                self.kept.append(sample)
            self._stop.wait(SAMPLE_PERIOD_S)

    def __enter__(self):
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        for thread in self._threads:
            thread.join()
        return False

    def slowdown(self) -> float:
        samples = self.kept or self.all
        return statistics.mean(samples) if samples else slowdown_now()
