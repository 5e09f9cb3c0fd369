"""A fixed reference kernel that tracks how fast the machine runs right now.

On a shared host the same pure-Python work can take 50% longer for minutes
at a time, with no CPU time lost to other processes: the host's cores just
run slower.  Every job of the program slows down together with this kernel,
so the benchmark samples the kernel about once a second between jobs and
reports each job's time at a fixed reference speed::

    reported = measured * REFERENCE_S / median(the NEAREST kernel samples)

The nearest samples in time are used, not all samples of the run, because
the speed can change within one run.

The kernel does the two kinds of work the program spends its time in, exact
``Fraction`` elimination and composition of sparse maps keyed by tuples,
with the standard library only.  It never calls the program, so no change
to the program can move it.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from fractions import Fraction

#: the kernel's median time, in seconds, on the 2-vCPU Xeon VM (Python 3.11)
#: where the benchmark was defined; reported times are scaled to this speed
REFERENCE_S = 0.2
#: take a sample once at least this many seconds have passed since the last
SAMPLE_EVERY_S = 1.0
#: how many samples nearest in time set the speed for one measured time
NEAREST = 3


def _eliminate(n: int) -> int:
    """Gauss-Jordan on a fixed dense ``n x n`` rational matrix; return its rank."""
    rng = random.Random(1)
    rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
            for _ in range(n)]
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = 1 / rows[rank][col]
        rows[rank] = [x * inverse for x in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _compose(dim: int, degree: int, rounds: int) -> int:
    """Compose a fixed sparse map on words of ``degree`` letters with itself."""
    rng = random.Random(2)
    words = [tuple(rng.randrange(dim) for _ in range(degree)) for _ in range(dim**degree)]
    entries = {(rng.choice(words), w): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
               for w in words for _ in range(3)}
    result = entries
    for _ in range(rounds):
        by_mid: dict[tuple, list] = {}
        for (out_word, mid_word), c in result.items():
            by_mid.setdefault(mid_word, []).append((out_word, c))
        composed: dict[tuple, Fraction] = {}
        for (mid_word, in_word), c2 in entries.items():
            for out_word, c1 in by_mid.get(mid_word, ()):
                key = (out_word, in_word)
                composed[key] = composed.get(key, Fraction(0)) + c1 * c2
        result = {k: v for k, v in composed.items() if v}
    return len(result)


def kernel() -> int:
    return _eliminate(26) + _compose(3, 4, 3)


class SpeedProbe:
    """Samples :func:`kernel` between jobs and turns times into reference times."""

    def __init__(self):
        #: ``(midpoint, seconds)`` of each kernel run, midpoints on ``perf_counter``
        self.samples: list[tuple[float, float]] = []
        self.last = time.perf_counter()

    def sample(self) -> None:
        # with the collector off, the program's live objects cannot slow the kernel
        gc.disable()
        try:
            start = time.perf_counter()
            kernel()
            self.last = time.perf_counter()
        finally:
            gc.enable()
        self.samples.append(((start + self.last) / 2, self.last - start))

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= SAMPLE_EVERY_S:
            self.sample()

    def scale(self, at: float | None = None) -> float:
        """The factor from measured seconds to seconds at the reference speed.

        With ``at`` (a ``perf_counter`` time) only the :data:`NEAREST` samples
        count; without it, all of them.
        """
        samples = self.samples
        if at is not None:
            samples = sorted(samples, key=lambda sample: abs(sample[0] - at))[:NEAREST]
        return REFERENCE_S / statistics.median(seconds for _, seconds in samples)
