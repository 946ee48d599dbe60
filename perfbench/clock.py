"""Operation timing on a machine whose speed drifts.

Virtual machines share their host's cores, and the speed of a core
drifts: the same operation can take 1.5x longer for tens of seconds
while neighbours are busy, and the speed changes within a long call.  The
speed is therefore measured with a fixed calibration kernel (Python
integer and Fraction arithmetic plus small numpy matrix products, the mix
the solver itself runs) on the CPU the call runs on:

* during the call, in bursts of BURST_RUNS kernels every SAMPLE_EVERY
  seconds (an interval timer interrupts the call; the bursts' time is
  taken out of its wall time), so a long call is scaled by the speed over
  its whole length;
* after the call, in a window long enough to average the kernel's own
  jitter (a tenth of the call, at least 20 ms, at most 0.5 s).

The call's wall time is reported both as is (bursts taken out) and scaled
to a fixed reference speed:

    scaled = (wall - bursts) * NOMINAL / (mean kernel time)

where the mean kernel time is that of the bursts alone for a call that ran
at least MIN_BURST_RUNS kernels in bursts (about a second or more), and
otherwise that of the window before (the one after the previous call), the
bursts and the window after.  The windows around a long call would give
the speed outside it as much weight as the speed within.  A
child process runs its bursts itself (``cli_child.py --clock``) and hands
their totals back through a file; bursts in the parent would share the
CPU with the child.  A later commit measured on the same machine is
compared in the same units.
"""

from __future__ import annotations

import json
import signal
import time
from fractions import Fraction

import numpy as np

NOMINAL = 0.0012         # seconds the kernel takes at the reference speed
MIN_WINDOW = 0.02
MAX_WINDOW = 0.5
SAMPLE_EVERY = 0.2       # seconds between bursts inside a call
BURST_RUNS = 4           # kernel runs per burst (5-8 ms)
MIN_BURST_RUNS = 20      # from here on a call is scaled by its bursts alone

_A = np.linspace(-1.0, 1.0, 48 * 48).reshape(48, 48)


def _kernel():
    acc = 0
    for i in range(4000):
        acc += (i * i) % 7
    q = Fraction(1)
    for i in range(1, 120):
        q = q * Fraction(i + 1, i) - Fraction(1, i * i + 1)
    b = _A
    for _ in range(6):
        b = np.tanh(b @ _A * 0.05)


def _window(seconds: float):
    """(total kernel time, kernel runs) over at least ``seconds``."""
    t0 = time.perf_counter()
    runs = 0
    while True:
        _kernel()
        runs += 1
        spent = time.perf_counter() - t0
        if spent >= seconds:
            return spent, runs


class Sampler:
    """Bursts while a call runs: SIGALRM every SAMPLE_EVERY seconds runs
    BURST_RUNS kernels on this thread and adds their time and count to
    ``spent`` and ``runs``."""

    def __init__(self):
        self.spent = 0.0
        self.runs = 0
        self._old = None

    def _burst(self, signum, frame):
        t0 = time.perf_counter()
        for _ in range(BURST_RUNS):
            _kernel()
        self.spent += time.perf_counter() - t0
        self.runs += BURST_RUNS

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._burst)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def save(self, path: str):
        with open(path, "w") as fh:
            json.dump({"spent": self.spent, "runs": self.runs}, fh)


def load_bursts(path: str):
    """(spent, runs) that a child process saved, (0, 0) if it saved none."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
        return float(obj["spent"]), int(obj["runs"])
    except (OSError, ValueError, KeyError):
        return 0.0, 0


class Clock:
    def __init__(self, sample: bool = True):
        """``sample=False`` runs no bursts inside in-process calls (the
        traced run, whose spans should hold the program's work only)."""
        self.sample = sample
        self._last = _window(MIN_WINDOW)

    def timed(self, fn, child_bursts: str | None = None):
        """Run ``fn()``; return (value, error, wall_s, scaled_s).  An
        exception from ``fn`` is returned, not raised, so a failed call is
        timed too.  ``child_bursts`` names the file in which the child
        process that ``fn`` runs saves its bursts."""
        value = error = None
        sampler = Sampler()
        t0 = time.perf_counter()
        try:
            if self.sample and child_bursts is None:
                with sampler:
                    value = fn()
            else:
                value = fn()
        except Exception as exc:  # the caller counts and reports it
            error = exc
        wall = time.perf_counter() - t0
        spent, runs = (sampler.spent, sampler.runs) if child_bursts is None \
            else load_bursts(child_bursts)
        work = max(wall - spent, 0.0)
        after = _window(min(max(work / 10, MIN_WINDOW), MAX_WINDOW))
        if runs < MIN_BURST_RUNS:
            spent += self._last[0] + after[0]
            runs += self._last[1] + after[1]
        self._last = after
        return value, error, work, work * NOMINAL * runs / spent
