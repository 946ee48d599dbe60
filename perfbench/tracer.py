"""Spans and counters recorded from outside the program.

The tracer replaces public functions of the ``solenoid`` modules with thin
wrappers.  A function is wrapped under every name where callers look it up
(``nse.project_pair`` as well as ``helmholtz.project_pair``), so each call is
seen once whatever the import path.  Spans are kept in memory: name, start,
end and the index of the enclosing span.  A layer's self time is its busy
time minus the time covered by its wrapped children.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

# (module, attribute) of every timed layer; the span is named after the
# module that defines the function
TIMED = (
    ("approxcore", "beta"),
    ("approxcore", "gamma_tail"),
    ("polyfield", "gamma0"),
    ("spectral", "mollifier_mode_grid"),
    ("spectral", "mollified_field_pair"),
    ("helmholtz", "project_pair"),
    ("helmholtz", "project"),
    ("stokes", "semigroup_apply"),
    ("stokes", "frac_power_apply"),
    ("stokes", "tail_cutoff_l"),
    ("stokes", "contour_factors"),
    ("nse", "compute_horizon"),
    ("nse", "solve"),
    ("nse", "nonlinearity_pair"),
    ("nse", "smoothness_lift"),
    ("nse", "pressure_field"),
    ("nse", "pressure"),
)

MODULES = ("approxcore", "floatball", "taylor", "polyfield", "spectral",
           "helmholtz", "stokes", "nse", "cli")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent]
        self.counts = defaultdict(float)
        self._stack = []

    # -- recording ----------------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _exit(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def timed(self, name, fn, on_exit=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if on_exit:
                on_exit(self, idx, args, kwargs, out)
            return out
        return wrapper

    def counted(self, fn, on_call):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            on_call(self, args)
            return fn(*args, **kwargs)
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every layer under each name that refers to it."""
        mods = {m: sys.modules["solenoid." + m] for m in MODULES
                if "solenoid." + m in sys.modules}
        hooks = {"nse.smoothness_lift": _lift_exit,
                 "stokes.contour_factors": _contour_exit}
        for mod_name, attr in TIMED:
            name = mod_name + "." + attr
            fn = getattr(mods[mod_name], attr)
            _rebind(mods, fn, self.timed(name, fn, hooks.get(name)))
        prod = mods["nse"]._mul_fast
        _rebind(mods, prod, self.counted(prod, _product_call))

    # -- aggregation --------------------------------------------------------

    def layer_totals(self, lo=0, hi=None):
        """calls, busy and self seconds per layer over spans[lo:hi]."""
        spans = self.spans[lo:hi]
        calls = defaultdict(int)
        busy = defaultdict(float)
        self_t = defaultdict(float)
        child = defaultdict(float)
        for i, (name, t0, t1, parent) in enumerate(spans, lo):
            if parent >= lo:
                child[parent] += t1 - t0
        for i, (name, t0, t1, parent) in enumerate(spans, lo):
            calls[name] += 1
            self_t[name] += (t1 - t0) - child[i]
            # busy time counts the outermost span of each name only
            p = parent
            nested = False
            while p >= lo:
                if self.spans[p][0] == name:
                    nested = True
                    break
                p = self.spans[p][3]
            if not nested:
                busy[name] += t1 - t0
        return calls, busy, self_t

    def dump(self):
        return {"spans": self.spans, "counts": dict(self.counts)}


def _rebind(mods, fn, wrapper):
    for mod in mods.values():
        for key, val in list(vars(mod).items()):
            if val is fn:
                setattr(mod, key, wrapper)


def _product_call(tracer, args):
    f, g = args[0], args[1]
    tracer.counts["nse.product.calls"] += 1
    tracer.counts["nse.product.terms"] += \
        (f.cutoff + 1) ** 2 * (g.cutoff + 1) ** 2


def _lift_exit(tracer, idx, args, kwargs, out):
    # every span opened after the lift's own one is one of its descendants
    m = args[0]
    start = kwargs.get("panels", 8)
    cells = sum(1 for s in tracer.spans[idx + 1:]
                if s[0] == "nse.nonlinearity_pair")
    tracer.counts["nse.smoothness_lift.panels"] += out.panels
    tracer.counts["nse.smoothness_lift.doublings"] += \
        math.log2(out.panels / start)
    tracer.counts["nse.smoothness_lift.useful_cells"] += m * out.panels
    tracer.counts["nse.smoothness_lift.cells"] += cells


def _contour_exit(tracer, idx, args, kwargs, out):
    tracer.counts["stokes.contour_factors.modes"] += len(args[0])
