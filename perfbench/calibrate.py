"""Machine-speed calibration for timings taken on a shared, noisy host.

Other tenants of a host change how fast the same code runs by up to 2x over
tens of seconds, in CPU time as well as wall time.  The benchmark therefore
runs a fixed kernel, which calls nothing from ``tfqkd``, at most every
``EVERY_S`` seconds between commands, and scales each command's time by
``ref_s / kernel time`` around it.  A scaled time reads as the time the
command would take on this host when the kernel takes ``ref_s``; a change to
the program moves it as it moves the raw time.

Each workload uses the kernel whose mix of work resembles its own: large
NumPy arrays, many small NumPy calls, or the Python interpreter loop.  The
cold start is scaled by a fresh interpreter that imports NumPy.
"""
from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time


def python_kernel() -> None:
    """Interpreter-bound loop: calls, attribute updates, scalar math."""
    class State:
        out = 0.0
        acc = 0.0

    def step(c, st):
        err = math.asin(max(-1.0, min(1.0, c / 60.0 - 1.0)))
        st.acc += err
        st.out = math.remainder(st.out - 0.8 * err - 0.05 * st.acc, 6.283)
        return st.out

    st = State()
    for i in range(20000):
        step(60.0 + 30.0 * math.sin(i * 0.01 + st.out), st)


def small_numpy_kernel() -> None:
    """Many NumPy calls on 16 x 17 arrays, dominated by call overhead."""
    import numpy as np

    base = np.arange(16.0)[:, None] * 0.3927 + np.linspace(-1.0, 1.0, 17)
    ones = np.ones(17)
    for i in range(350):
        ma = np.full(base.shape, 0.1 + i * 1e-3) * 1e-5
        mb = np.full(base.shape, 0.2) * 1e-5
        cross = 0.98 * np.sqrt(ma * mb) * np.cos(base)
        p0 = 1.0 - 0.999 * np.exp(-0.8 * (0.5 * (ma + mb) + cross))
        p1 = 1.0 - 0.999 * np.exp(-0.5 * (0.5 * (ma + mb) - cross))
        float(((p0 * (1.0 - p1) + p1 * (1.0 - p0)) @ ones).mean())


def large_numpy_kernel() -> None:
    """Random draws, transcendental maps and bincounts on 2**18 elements."""
    import numpy as np

    rng = np.random.default_rng(12345)
    n = 1 << 18
    u = rng.random(n)
    v = rng.random(n)
    x = np.exp(-np.cos(u * 6.283185307179586) * v)
    idx = (u * 16).astype(np.int16) * 2 + (x > 1.0)
    np.bincount(idx, minlength=32)
    np.bincount(idx[v < 0.5], minlength=32)


def numpy_import_kernel(env=None) -> None:
    """A fresh interpreter that imports NumPy and exits."""
    subprocess.run([sys.executable, "-c", "import numpy"], env=env,
                   check=True, timeout=60)


#: Kernel and its reference duration (s): about its time on an idle 2-vCPU
#: Xeon (Sapphire Rapids) KVM guest with Python 3.11 and NumPy 2.4.
KERNELS = {
    "python": (python_kernel, 0.0120),
    "small_numpy": (small_numpy_kernel, 0.0100),
    "large_numpy": (large_numpy_kernel, 0.0155),
    "numpy_import": (numpy_import_kernel, 0.130),
}


#: Shortest interval (s) between kernel runs in a workload.
EVERY_S = 0.25


class Calibrator:
    """Kernel timings taken between commands, and the scale they imply."""

    def __init__(self, kernel: str, **kwargs):
        fn, self.ref_s = KERNELS[kernel]
        self.kernel = lambda: fn(**kwargs)
        self.values: list[float] = []
        self._last = 0.0
        self.measure()

    def measure(self) -> int:
        """Time the kernel once; returns the index of this measurement."""
        t0 = time.perf_counter()
        self.kernel()
        self._last = time.perf_counter()
        self.values.append(self._last - t0)
        return len(self.values) - 1

    def mark(self) -> int:
        """Index of the latest measurement, measuring first if one is due."""
        if time.perf_counter() - self._last >= EVERY_S:
            return self.measure()
        return len(self.values) - 1

    def scale(self, index: int) -> float:
        """Scale for work done between measurements ``index`` and ``index+1``.

        Uses the median of the two measurements on each side, so that one
        interrupted kernel run does not skew the commands around it.
        """
        near = self.values[max(0, index - 1):index + 3]
        return self.ref_s / statistics.median(near)
