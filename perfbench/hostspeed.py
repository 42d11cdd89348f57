"""Times measured against the host's speed.

The host's cores are shared, and its speed moves by up to a factor of two
from second to second and over minutes.  A fixed kernel that does not use
lyfam is therefore timed again and again during a run.  A stretch of
measured time is scaled by REF_S / (the mean of the kernel times at its two
ends), which gives seconds at one fixed host speed.  REF_S is about the
kernel's time on a 2-vCPU x86 VM, so that scaled times read close to raw
ones there.
"""
from __future__ import annotations

from fractions import Fraction
from time import perf_counter

REF_S = 0.05
# a pass is cut into stretches of at least this long, one kernel time apart
SAMPLE_S = 0.3
REF_MATRIX = [[Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i + j) % 3)
               for j in range(14)] for i in range(14)]
REF_TENSOR = [[[(i * j + k) % 5 - 2 for k in range(6)] for j in range(6)]
              for i in range(6)]


def reference_kernel():
    """Exact elimination of a fixed Fraction matrix and contractions of a
    fixed integer tensor: the kind of work lyfam does, without lyfam."""
    m = [list(row) for row in REF_MATRIX]
    n = len(m)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    t = REF_TENSOR
    s = 0
    for _ in range(40):
        for i in range(6):
            for j in range(6):
                s += sum(x * y for x, y in zip(t[i][j], t[j][i]))
    return m, s


def host_time():
    """Seconds the reference kernel takes, three times over, now."""
    t0 = perf_counter()
    for _ in range(3):
        reference_kernel()
    return perf_counter() - t0


def scale(before, after):
    """The factor from raw seconds to seconds at the speed of REF_S, for a
    stretch with these kernel times at its ends."""
    return 2 * REF_S / (before + after)


class Clock:
    """The time of one pass, raw and scaled.

    The workload calls `lap` between its operations.  Once SAMPLE_S has
    passed since the last kernel time, `lap` closes the stretch and times
    the kernel; the kernel's own time is not part of the pass.  `record`
    notes an operation's raw time under a key; it is scaled with the
    stretch it falls in, into `sums` and `samples`."""

    def __init__(self):
        self.first = self.last = host_time()
        self.raw = self.scaled = 0.0
        self.sums, self.samples, self.pending = {}, {}, []
        self.start = perf_counter()

    def record(self, key, seconds):
        self.pending.append((key, seconds))

    def lap(self, force=False):
        now = perf_counter()
        if not force and now - self.start < SAMPLE_S:
            return
        kernel = host_time()
        factor = scale(self.last, kernel)
        self.raw += now - self.start
        self.scaled += factor * (now - self.start)
        for key, seconds in self.pending:
            self.sums[key] = self.sums.get(key, 0.0) + factor * seconds
            self.samples.setdefault(key, []).append(factor * seconds)
        self.pending, self.last = [], kernel
        self.start = perf_counter()

    def close(self):
        self.lap(force=True)
