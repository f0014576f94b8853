"""Machine-speed calibration for the benchmark's time metrics.

This benchmark runs on a few cores of a shared host.  How fast those cores
execute single-threaded Python drifts by 10-40% over seconds and minutes as
other tenants' load comes and goes; CPU time drifts the same way, so the
drift is contention, not the scheduler.  Two fixed tasks that do not touch
riskdp gauge the speed, each shaped like the work it calibrates:

- ``seconds_per_batch`` times a batch with riskdp's run-time profile
  (small ``np.unique``, ``np.interp``, ``np.argsort`` and ``cumsum`` calls
  between short pure-Python loops).  It is timed between operations, and
  an operation is paired with the mean of the batches either side.
- ``IMPORT_PROBE`` is a fresh interpreter importing numpy, most of what
  set-up does.  It runs after each set-up probe, which it is paired with.

The benchmark divides each timed sample by its calibration and multiplies
the run's median ratio by the reference time: the result is the time the
work takes on the reference machine when it is quiet.  Pairing tracks
changes in speed within a run as well as between runs.  A change to riskdp moves the measured work and
not the calibration, so it shows in full.
"""

import time

import numpy as np

#: median batch and import times on a quiet 2-vCPU Intel Xeon (2.0 GHz),
#: Python 3.11.7, numpy 2.4.6; scaled times on that machine read as wall times
REFERENCE_BATCH_S = 2.8e-3
REFERENCE_IMPORT_S = 0.11

IMPORT_PROBE = """\
import time
start = time.perf_counter()
import numpy
print(time.perf_counter() - start)
"""

_ATOMS = np.random.default_rng(20180604).standard_normal((64, 7)).round(1)
_GRID = np.linspace(-3.0, 3.0, 41)
_COSTS = np.sin(_GRID)


def _batch():
    total = 0.0
    for atoms in _ATOMS:
        support, inverse = np.unique(atoms, return_inverse=True)
        weights = np.bincount(inverse, minlength=len(support)) / len(atoms)
        costs = np.interp(support, _GRID, _COSTS)
        order = np.argsort(costs)
        total += float(np.cumsum(weights[order]) @ costs[order])
        for k in range(40):
            total += (k * 0.5) % 3.0
    return total


def seconds_per_batch(min_seconds=0.25):
    """Mean wall time of one batch over at least ``min_seconds``."""
    batches, start = 0, time.perf_counter()
    while True:
        _batch()
        batches += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return elapsed / batches
