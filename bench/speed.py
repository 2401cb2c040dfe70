"""The host's speed, measured while the benchmark runs, and engine time
scaled to a fixed reference speed.

The benchmark runs on a few cores of a shared host whose speed moves in
phases of seconds to minutes: a fixed pure-Python computation took from
0.21 to 0.47 s over two minutes on the machine in ``design.json``, with
process CPU time moving the same way (no steal time is reported), so
neither CPU time nor a median within one run removes it.  The benchmark
therefore times a fixed reference computation, the *probe*, every
``INTERVAL_S`` seconds while it times the engine, from a timer signal in
its own thread (no second thread or process runs), and reports engine time
at the reference speed::

    scaled seconds = measured seconds * REFERENCE_PROBE_S / probe seconds

where ``probe seconds`` is the median of the ``WINDOW`` probes nearest in
time.  A change that makes the engine 20% faster makes its scaled times 20%
smaller at any host speed; a phase in which the host runs everything 30%
slower leaves them where they were.  The probe is written here, in the
benchmark's own code, and calls nothing in the engine, so no change to the
engine changes it.  Probe time is taken out of the interval it falls in.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from fractions import Fraction

# Seconds between probes while the clock is armed.
INTERVAL_S = 0.15
# Probes whose median gives the speed at a moment (about 1.4 s of them).
WINDOW = 9
# The probe's time at the reference speed: its median over quiet phases of
# the machine in design.json.  Scaled times are seconds at this speed.
REFERENCE_PROBE_S = 0.0080


def _probe_inputs():
    """The probe's fixed inputs: a sparse rational matrix and a polynomial
    with tuple-keyed terms, the kinds of object the engine computes with."""
    rng = random.Random(20120508)
    matrix = [{c: Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3)))
               for c in range(12) if rng.random() < 0.7} for _ in range(12)]
    poly = {(i, j, k): rng.randint(-5, 5) for i in range(4) for j in range(4)
            for k in range(3) if rng.random() < 0.6}
    return matrix, poly


def reference_work(matrix, poly) -> tuple[int, int]:
    """A fixed computation of the kind the engine does: exact Gaussian
    elimination over the rationals with dict rows, and products of sparse
    polynomials with tuple monomials.  Returns (rank, terms) so its result
    is used."""
    rows = [dict(r) for r in matrix]
    rank = 0
    for col in range(12):
        pivot = next((i for i in range(rank, len(rows)) if rows[i].get(col)),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = 1 / rows[rank][col]
        head = {c: v * inverse for c, v in rows[rank].items()}
        rows[rank] = head
        for i, row in enumerate(rows):
            factor = row.get(col) if i != rank else None
            if factor:
                new = dict(row)
                for c, v in head.items():
                    new[c] = new.get(c, 0) - factor * v
                rows[i] = {c: v for c, v in new.items() if v}
        rank += 1
    product = poly
    for _ in range(2):
        out: dict = {}
        for ma, ca in product.items():
            for mb, cb in poly.items():
                m = (ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2])
                out[m] = out.get(m, 0) + ca * cb
        product = {m: c for m, c in out.items() if c}
    return rank, len(product)


class SpeedClock:
    """Probes the host's speed during timed work and scales intervals of
    that work to the reference speed.

    Used as a context manager, it fires a probe every ``INTERVAL_S``
    seconds of wall time from ``SIGALRM``; ``probe()`` fires one at once.
    ``scaled(start, end)`` takes ``perf_counter`` readings around a piece
    of work and returns its seconds without the probes inside, at the
    reference speed.  Call it after the probes around the work were taken.
    """

    def __init__(self) -> None:
        self._inputs = _probe_inputs()
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._previous = None

    def probe(self) -> None:
        start = time.perf_counter()
        reference_work(*self._inputs)
        self.starts.append(start)
        self.seconds.append(time.perf_counter() - start)

    def _fire(self, signum, frame) -> None:
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def __enter__(self) -> "SpeedClock":
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def probe_seconds(self, at: float) -> float:
        """Median time of the ``WINDOW`` probes nearest to ``at``."""
        i = bisect.bisect_left(self.starts, at)
        lo = max(0, min(i - WINDOW // 2, len(self.starts) - WINDOW))
        return statistics.median(self.seconds[lo:lo + WINDOW])

    def scaled(self, start: float, end: float) -> float:
        """Seconds of work in ``[start, end]`` at the reference speed: each
        stretch between probes is scaled by the speed around it."""
        i = bisect.bisect_left(self.starts, start)
        total, at = 0.0, start
        while i < len(self.starts) and self.starts[i] < end:
            total += self._stretch(at, self.starts[i])
            at = self.starts[i] + self.seconds[i]
            i += 1
        return total + self._stretch(at, end)

    def _stretch(self, start: float, end: float) -> float:
        if end <= start:
            return 0.0
        speed = REFERENCE_PROBE_S / self.probe_seconds((start + end) / 2)
        return (end - start) * speed
