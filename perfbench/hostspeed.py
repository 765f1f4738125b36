"""Host-speed calibration for the end-to-end timings.

The benchmark shares a few cores of a host whose speed drifts by up to
about 1.7x over seconds to minutes, and the drift moves the galimech CLI
and a plain Python loop alike.  Each timed op is therefore scaled by a
fixed calibration loop, run between every two ops:

    normalized op = wall * REF_S / mean(the WINDOW loops before and after it)
    normalized total = sum(walls) * REF_S / mean(all loops of the run)

which is wall time on a host where the calibration loop takes ``REF_S``
seconds.  A change to galimech moves the wall time and not the
calibration, so it shows in full; a change of host speed moves both and
cancels.  One 20 ms loop is a noisy sample of host speed, so an op is
scaled by the mean of several loops around it, and a run's total by the
mean of all of them.  On a 2-core VM whose raw median op time varied from
0.44 s to 0.76 s within four minutes, the normalized median of 25 s of
ops varied by 3-5% and the normalized total by 2-3%.

The loop mixes the kinds of work the CLI does, written here so that it
does not depend on galimech: dual-number arithmetic on small objects with
``__slots__``, a JSON round trip of a model-like document with list and
dict building, and small numpy arrays.  A loop of arithmetic alone tracked
the op times of configs-random (JSON loading and fresh models) about half
as well.  The garbage collector is off while it runs, so objects left
behind by the program do not slow it.

Set-up time is process start, imports and file reads more than Python
arithmetic, and it slows less than the loop when the host slows.  It is
scaled instead by fresh processes that start the same interpreter and
import only the standard library and numpy (``BARE_CHILD``), which take
``SPAWN_REF_S`` seconds on the reference host.
"""

import gc
import json
import subprocess
import sys
import time

import numpy

# Nominal wall time of one calibration loop, in seconds: the scale of every
# normalized timing.  It is a fixed constant, not a measurement.
REF_S = 0.02
ITERATIONS = 15000
ROUND_TRIPS = 28
# Calibration loops on each side of an op that scale its wall time.
WINDOW = 2
# Nominal wall time of one BARE_CHILD process, in seconds; also a constant.
SPAWN_REF_S = 0.1
# Prints the wall clock once its imports are done, as the set-up child does.
BARE_CHILD = "import sys, time, json, fractions, numpy; print(time.time())"


class _Dual:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __mul__(self, other):
        return _Dual(self.a * other.a, self.a * other.b + self.b * other.a)

    def __add__(self, other):
        return _Dual(self.a + other.a, self.b + other.b)


_DOC = json.dumps({"entries": {
    f"{a},{b}": {"kind": "polynomial", "coeffs": [[0.1 * a, [b, 1]], [0.2, []]]}
    for a in range(8) for b in range(8)}})


def _loop():
    x, y, acc, store = _Dual(1.0001, 0.5), _Dual(0.9999, 0.25), _Dual(0.0, 0.0), {}
    for i in range(ITERATIONS):
        acc = acc + x * y
        store[i & 255] = acc.a
    total = 0.0
    for _ in range(ROUND_TRIPS):
        doc = json.loads(json.dumps(json.loads(_DOC)))
        rows = [[c[0] * k for c in v["coeffs"]] for k, v in enumerate(doc["entries"].values())]
        m = numpy.array(rows[:16]).reshape(8, 4)
        total += float((m.T @ m).sum())
    return acc.b + total


def calibration_seconds():
    """Wall time of one calibration loop, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def normalize_ops(walls, cals):
    """Per-op wall times scaled to a host where the calibration loop takes
    REF_S.  ``cals[j]`` ran just before op ``j`` and ``cals[j + 1]`` just
    after it."""
    assert len(cals) == len(walls) + 1
    out = []
    for j, wall in enumerate(walls):
        near = cals[max(0, j + 1 - WINDOW):j + 1 + WINDOW]
        out.append(wall * REF_S * len(near) / sum(near))
    return out


def normalize_total(walls, cals):
    """Summed wall time scaled by the mean of every calibration loop."""
    return sum(walls) * REF_S * len(cals) / sum(cals)


def spawn_seconds(code, *args, cwd=None):
    """Wall time from starting ``python -c code args`` until it prints the
    wall clock on its last line of output."""
    t0 = time.time()
    child = subprocess.run([sys.executable, "-c", code, *args], check=True, cwd=cwd,
                           timeout=120, capture_output=True, text=True)
    return float(child.stdout.split()[-1]) - t0


def normalize_spawn(wall_s, bare_before, bare_after):
    """Process wall time scaled to a host where BARE_CHILD takes SPAWN_REF_S."""
    return wall_s * SPAWN_REF_S * 2.0 / (bare_before + bare_after)
