"""Machine-speed calibration.

The benchmark runs on shared machines whose speed drifts: on a shared
2-core x86-64 sandbox, the same CPU-bound work took between 1.0x and 2.0x
its fastest time, in phases lasting seconds to minutes.  Raw wall times of
CPU-bound steps therefore spread by 15-30% across runs made minutes apart,
more than any useful regression bound.

A fixed kernel that mixes the kinds of work rankkit does (interpreted
Python, JSON decoding, a NumPy reduction) runs just before and just after
each CPU-bound step of the timing process.  The step's time is scaled by
``REFERENCE_S / mean(kernel before, kernel after)``: seconds at the speed
where the kernel takes ``REFERENCE_S``.  The kernel is benchmark code, so a
change to rankkit moves only the numerator.  Over sets of ten seeds on
that sandbox, the spread (interquartile range over median) of the per-run
medians of the three CPU-bound workloads fell from 10-19% to 1-7%.

``setup_s`` samples are separate processes and are bracketed by a bare
interpreter start instead; their spread fell from 8-37% to 2-12%.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time

import numpy as np

# Kernel time on an idle 2-core x86-64 sandbox (Python 3.11, NumPy 2.4,
# OpenBLAS 0.3.31).  It only fixes the unit; any constant would do.
REFERENCE_S = 0.016

# Start-up of a bare interpreter (``python3 -c pass``) on the same sandbox.
# Interpreter start-up is mostly process creation, page faults and file
# reads, which a virtual machine slows differently from computation; the
# in-process kernel did not track it, a bare interpreter does.
SPAWN_REFERENCE_S = 0.050


def scaled(seconds: float, before: float, after: float, reference: float) -> float:
    """``seconds`` measured between calibration times ``before`` and
    ``after``, at the speed where the calibration takes ``reference``."""
    return seconds * reference / ((before + after) / 2.0)


def spawn_seconds(code: str, cwd: str, env: dict) -> float:
    """Wall time of a fresh interpreter that runs ``code`` and exits."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=cwd, env=env)
    # wait() without a timeout blocks in waitpid; with one, it polls at up to
    # 50 ms intervals, which would quantize the measurement.
    watchdog = threading.Timer(60, proc.kill)
    watchdog.start()
    try:
        code_ = proc.wait()
    finally:
        watchdog.cancel()
    took = time.perf_counter() - t0
    if code_ != 0:
        raise RuntimeError(f"interpreter running {code!r} exited with {code_}")
    return took


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._rows = rng.standard_normal((1000, 384))
        # Preallocated buffers: the kernel must not depend on the state of
        # the process heap, which the workload before it leaves behind.
        self._diff = np.empty_like(self._rows)
        self._norms = np.empty(len(self._rows))
        self._line = json.dumps({"id": "x", "vector": np.round(self._rows[0], 4).tolist()})
        self()

    def __call__(self) -> float:
        """Seconds the kernel takes now."""
        t0 = time.perf_counter()
        acc = 0
        for j in range(60000):
            acc += j * j
        for _ in range(150):
            json.loads(self._line)
        for j in range(8):
            np.subtract(self._rows, self._rows[j], out=self._diff)
            np.multiply(self._diff, self._diff, out=self._diff)
            np.sum(self._diff, axis=1, out=self._norms)
        return time.perf_counter() - t0
