"""Reference kernels that track how fast the machine runs at the moment.

The benchmark shares a small VM with other tenants. Over minutes, the same
``run_mc`` call or ``hyperfit fit`` command slows by 20–60 % in wall and
CPU time alike, and the slowdowns are not preemption. A fixed kernel of
the same kind of work slows down in step with it:

- ``python_loop`` is pure-Python arithmetic, for the warm in-process
  workloads.
- ``interpreter_start`` runs ``python -I -c pass``, for the CLI workload,
  whose time is mostly process start and imports.

The kernel runs before and after each slice of ops (one op when ops are
long). Each op time is divided by the mean of the two kernel times around
it and multiplied by the kernel's reference time. That expresses op times
in seconds at the speed the baseline machine has when nothing else loads it.

Measured on that machine:

- Over 80 s of one repeated ``run_mc``, raw medians of 20 s chunks ranged
  over 13 %, and loop-scaled ones over 5 %.
- Over 110 s of ``hyperfit fit`` commands, the coefficient of variation of
  chunk medians was 0.043 raw, 0.054 loop-scaled and 0.021 start-scaled.

Neither kernel runs hyperfit code, so no change to the program moves them.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

#: Seconds between kernel runs; ops shorter than this share one slice.
INTERVAL_S = 0.25


def python_loop() -> None:
    total = 0.0
    for i in range(150_000):
        total += i * 0.5


def interpreter_start() -> None:
    subprocess.run([sys.executable, "-I", "-c", "pass"], check=True)


#: Kernel time on the baseline machine when nothing else loads it
#: (2-vCPU Xeon VM at 2.1 GHz).
REFERENCE_S = {python_loop: 0.0085, interpreter_start: 0.045}


class Calibrator:
    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self.samples: list[float] = []
        self._last = float("-inf")

    def tick(self, force: bool = False) -> int:
        """Run the kernel if ``INTERVAL_S`` has passed; return the slice number."""
        if force or time.perf_counter() - self._last >= INTERVAL_S:
            started = time.perf_counter()
            self.kernel()
            self._last = time.perf_counter()
            self.samples.append(self._last - started)
        return len(self.samples) - 1

    def scales(self, slices: list[int]) -> list[float]:
        """Factors from measured to reference seconds, one per op.

        ``slices`` holds the slice number ``tick`` returned before each op.
        A slice is closed by the next kernel run, so the last one is closed here.
        """
        self.tick(force=True)
        s = self.samples
        return [2.0 * REFERENCE_S[self.kernel] / (s[i] + s[i + 1]) for i in slices]

    def speed(self) -> float:
        """The machine's median speed during the run, as a share of the reference."""
        return REFERENCE_S[self.kernel] / statistics.median(self.samples)
