"""Host-speed calibration.

The host shares its cores, and its speed drifts by half or more within
minutes.  A calibration is a fixed piece of work that runs no equiloc code,
timed next to each measurement; its reference time over its measured time
is the host's speed at that moment, and a measured time times that speed
is the time at the reference speed.

- LOOP, a pure-Python loop of integer arithmetic and dict updates, tracks
  ops that run in the benchmark's own process.
- PROCESS, a fresh interpreter that imports numpy, tracks ops that start a
  process of their own and import numpy through scipy (cli ops and their
  set-up): the loop slows under contention about twice as much as
  interpreter start and imports do.

The reference times are those on a 2-vCPU Xeon VM at 2.1 GHz in a typical
state of its shared host, with Python 3.11.
"""

from __future__ import annotations

import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Calibration:
    run: Callable[[], float]
    reference_s: float

    def speed(self, *samples: float) -> float:
        """The host's speed from calibration times taken around a
        measurement."""
        return self.reference_s / (sum(samples) / len(samples))


def _loop() -> float:
    start = time.perf_counter()
    acc, table = 1, {}
    for i in range(30_000):
        acc = (acc * 1103515245 + i) % 2147483648
        table[i & 255] = table.get(i & 255, 0) + acc
    return time.perf_counter() - start


def _process() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   capture_output=True, timeout=60)
    return time.perf_counter() - start


LOOP = Calibration(_loop, 0.010)
PROCESS = Calibration(_process, 0.150)
