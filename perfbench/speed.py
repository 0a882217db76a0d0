"""Machine-speed probe: times a fixed pure-Python kernel on a timer signal.

On a shared machine the same code runs up to about 1.7 times slower for
seconds at a time, and a busy neighbour slows one core and not the other.
The probe runs ``kernel`` every ``PERIOD`` seconds of wall time from a
SIGALRM handler, which Python executes in the main thread between
bytecodes, so it samples the speed of the very core running pgr, during
pgr's calls.  An operation's time minus the probe's pauses, divided by the
kernel's time measured alongside, is its cost at reference speed: the
speed at which one kernel run takes exactly ``REFERENCE_S``.
"""

from __future__ import annotations

import signal
import time

import reference as ref

PERIOD = 0.05
REFERENCE_S = 0.001
RECENT = 4


# A fixed rewrite instance, as plain data, for the kernel.
_HOST_VERTICES = frozenset(range(6))
_HOST_EDGES = {i: (i % 6, "ab"[i % 2], (i * 5 + 1) % 6) for i in range(10)}
_RULE = ref.RuleData(
    frozenset({0, 1}), {0: (0, "a", 1)},
    {20: (ref.CTX, 0), 21: (1, ref.CTX), 22: (0, 0), 23: (1, 0), 24: (0, ref.CTX),
     25: (ref.CTX, 1)},
    frozenset({10, 11}), {100: (10, "b", 11)},
    {30: (ref.CTX, 10), 31: (11, ref.CTX), 32: (10, 10)}, {30: 20, 31: 21, 32: 22})


def kernel() -> int:
    """The benchmark's own reference code on a fixed instance.

    A kernel that exercises the same kinds of Python objects and calls as
    pgr (small dicts, sets, tuples, sorting, itertools) slows down with pgr
    under contention: on a 2-core VM it cut the run-to-run variation of a
    grammar round from 12% to 2%, where a tight dict loop left 4%.
    """
    acc = 0
    for _ in range(3):
        for vm, _, h_l in ref.redexes(_HOST_VERTICES, _HOST_EDGES, _RULE):
            acc += len(ref.step_result(_HOST_VERTICES, _HOST_EDGES, _RULE, vm, h_l)[3])
        classes = ref.Classes()
        for k in range(3):
            classes.add(_HOST_VERTICES, {e: (s, lab, (t + k) % 6)
                                         for e, (s, lab, t) in _HOST_EDGES.items()})
        acc += classes.count
    return acc


class SpeedProbe:
    """Context manager that samples ``kernel``'s time while it is active."""

    def __init__(self):
        self.samples: list[float] = []
        self.paused = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.paused += took

    def __enter__(self) -> "SpeedProbe":
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def now(self) -> float:
        """Wall time with the probe's own pauses taken out."""
        return time.perf_counter() - self.paused

    def start(self) -> tuple:
        return time.perf_counter(), len(self.samples), self.paused

    def cost(self, mark: tuple) -> float:
        """Seconds at reference speed since ``start`` returned ``mark``.

        The probe's own pauses are taken out; the speed is that of the
        samples taken in between and the ``RECENT`` ones before, so that a
        call shorter than ``PERIOD`` is not scaled by one noisy sample.
        """
        start, since, paused = mark
        elapsed = time.perf_counter() - start - (self.paused - paused)
        taken = self.samples[max(0, since - RECENT):]
        return elapsed * REFERENCE_S * len(taken) / sum(taken)
