"""Fixed reference work that gauges the machine's speed at a moment.

Shared 2-vCPU x86_64 virtual machines, where the baseline was measured,
change speed by up to 1.7x over seconds (other tenants; CPU time tracks
wall time, so it is not steal).  Every operation is therefore bracketed
by a small solve_ivp problem, which mixes interpreter, numpy and scipy
work as the program does but shares no code with it, and its time is
scaled to the speed at which the reference takes NOMINAL_S:

    scaled = wall * NOMINAL_S / mean(reference before, reference after)

The swings are per vCPU: at one moment the two vCPUs can differ by 1.5x.
So the reference runs in the benchmark's own thread, right after the
operation, on the vCPU the operation ended on; a reference run in
another process correlated far less with the operation times.  The
reference reacts more strongly to the speed swings than some operations
do, so scaling narrows the run-to-run spread without removing it.

Run in the benchmark's process, the reference would also absorb any
slowdown the program leaves in that process (a larger heap, slower
garbage collection, a busy leftover thread), and scaling would divide it
away.  ``ReferenceHelper`` therefore runs the same solve in a
long-lived helper process that never imports edgeray, right after a
solve in the process under test and on the same vCPU, so the two see
the same speed: once after each set-up probe, and after the operations
alternately with the benchmark's own thread, while the state the
operations left persists.  The run checks that the median ratio of the
two is below ``DRAG_MAX``.  Run as a script, this file is that helper:
it answers each line on stdin, a vCPU number, with the time of one
reference solve on that vCPU.
"""

from __future__ import annotations

import ctypes
import os
import subprocess
import sys
import time

import numpy as np
from scipy.integrate import solve_ivp

NOMINAL_S = 0.02
# Largest median ratio of a reference solve in the process under test to
# the helper's next solve on the same vCPU under which scaled times are
# valid.
DRAG_MAX = 1.25

_M = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.0]])
_Y0 = np.array([1.0, 0.0, 0.5, 0.0, 1.0, 0.2])


def _rhs(t, y):
    w = np.linalg.solve(_M, y[3:])
    return np.concatenate((w, -y[:3] * (1.0 + 0.1 * float(w @ _M @ w))))


_LIBC = ctypes.CDLL(None)


def current_cpu():
    """The vCPU the calling thread runs on."""
    return _LIBC.sched_getcpu()


def reference_s():
    """Wall time of the reference work (692 right-hand-side calls)."""
    t0 = time.perf_counter()
    solve_ivp(_rhs, (0.0, 5.0), _Y0, rtol=1e-9, atol=1e-12)
    return time.perf_counter() - t0


class ReferenceHelper:
    """``reference_s`` run on request in a helper process.

    ``helper(cpu)`` pins the helper to vCPU ``cpu`` and returns the time
    of one reference solve there, so that it can be compared with a
    solve just run on that vCPU by another process.
    """

    def __enter__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        return self

    def __call__(self, cpu):
        self._proc.stdin.write("%d\n" % cpu)
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise SystemExit("bench: reference helper exited (code %s)"
                             % self._proc.wait())
        return float(line)

    def __exit__(self, *exc):
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait()
        return False


class SpeedGauge:
    """Scales wall times measured between consecutive reference runs."""

    def __init__(self):
        self.refs = [reference_s()]

    def scaled(self, wall_s):
        ref = reference_s()
        out = wall_s * NOMINAL_S / (0.5 * (self.refs[-1] + ref))
        self.refs.append(ref)
        return out


if __name__ == "__main__":
    for line in iter(sys.stdin.readline, ""):
        os.sched_setaffinity(0, {int(line)})
        print(repr(reference_s()), flush=True)
