"""Host pace: how fast the host ran a fixed block of work during a run.

On a shared host the same work runs faster in some stretches than in
others, and a stretch can outlast a whole run: in one set of ten
`ring360` runs, two timed the same `gcn_retrieve` work at 1.9 s and the
others at 2.3-2.8 s. Raw times of identical work then spread between runs
by more than any change worth measuring. The benchmark probes a fixed
block of work that touches nothing of matchgraph after every timed unit
and scales the run's times by the square root of REFERENCE_S over the
run's median probe: times are reported in seconds at the reference pace.
A change to the program moves the units' times and not the probes, so it
shows in full.

Why the square root: the probe follows the host's swings more strongly
than the program does, and not equally for every phase. In those two fast
runs the probes were 1.3-1.5x faster while the program's phases were
1.17-1.27x faster; on `ring-large`, whose phases are memory-bound, runs
with 1.3x faster probes were hardly faster at all. Over seven recorded
sets of nine or ten runs, the square root kept the largest interquartile
spread of the timed phases within about a point of the best of none,
square root and full scaling in every set, while none fell up to 8 and
full scaling up to 7 points behind (`bench/README.md`, "Reference pace").

The block mixes interpreted Python (dict updates), scattered reads over a
few megabytes of Python objects, and small numpy products and sorts. A
probe runs the block once untimed and times the second pass, with the
garbage collector off, so it depends neither on what the program left in
the caches nor on the program's heap. Single probes flicker by up to 2x
from one millisecond to the next; only the median of a run's probes, of
which there are 60 to 500, is used.
"""

import gc
import statistics
import time

import numpy as np

# About a run's median probe on the reference machine (nproc 2,
# scipy-openblas 0.3.31 with one thread, numpy 2.4.6, Python 3.11.7),
# where runs' medians lay between 3 and 6 ms. Only a scale: a
# different value multiplies every time by the same factor.
REFERENCE_S = 0.005


class Pace:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((110, 128))
        self._b = rng.standard_normal((128, 128))
        self._v = rng.standard_normal(2000)
        self._cells = [(i, float(i)) for i in range(50_000)]
        self._order = [int(i) for i in rng.permutation(50_000)[:5000]]
        self.probes = []

    def probe(self):
        """Time the block once, after one untimed pass that brings its data
        back into cache, and keep the result."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._block()
            t0 = time.perf_counter()
            self._block()
            seconds = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self.probes.append(seconds)

    def _block(self):
        counts = {}
        for i in range(3000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        acc = 0.0
        for i in self._order:
            acc += self._cells[i][1]
        for _ in range(10):
            self._a @ self._b
            np.argsort(self._v)

    def factor(self):
        """What multiplies this run's seconds into seconds at the reference pace."""
        return (REFERENCE_S / statistics.median(self.probes)) ** 0.5
