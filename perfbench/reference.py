"""A fixed reference computation that gauges the host's current speed.

The shared host this benchmark was built on runs the same code anywhere
from 0.65x to 1.5x its usual speed, and the speed changes within a second,
so a raw wall time mostly measures the neighbours.  The gauge is a short
fixed computation, `chunk()`, about 4 ms long.  During an experiment a
`Sampler` runs it from a SIGALRM handler every `PERIOD_S` seconds, so it
meets the host in the same states as the program; run.py then states the
program's time at the speed at which one chunk takes `NOMINAL_S`.

The work is fixed (it depends neither on the seed nor on sbmchroma) and is
written in the program's own idiom: greedy colourings of a fixed graph held
as int bitsets, and the corner products of the w* search.  A third part
reads a 16 MiB buffer at scattered places: the host's slow spells slow the
program's memory accesses more than its arithmetic, and without this part
the gauge missed much of them.  A change to the program moves the
benchmark's times and cannot move the gauge.
"""

from __future__ import annotations

import signal
import time

import numpy as np

NOMINAL_S = 0.004     # one chunk's time at the speed times are stated at
PERIOD_S = 0.1        # sampling interval during an experiment
SETUP_CHUNKS = 20     # chunks timed right after setup
BUFFER_MB = 16        # the scattered reads' buffer, in MiB

_N = 60               # vertices of the fixed graph
_ORDERINGS = 8        # greedy colourings per chunk
_PRODUCTS = 2         # corner products per chunk
_READS = 12000        # scattered buffer reads per chunk


def _fixed_graph() -> list[int]:
    """G(60, 1/2) drawn with a fixed linear congruential generator."""
    adj = [0] * _N
    state = 12345
    for u in range(_N):
        for v in range(u + 1, _N):
            state = (1103515245 * state + 12345) & 0x7FFFFFFF
            if state >> 30:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


_ADJ = _fixed_graph()
_MASKS = ((np.arange(1, 1 << 7)[:, None] >> np.arange(7)) & 1).astype(float)
_Q = np.linspace(0.1, 0.9, 49).reshape(7, 7)
_ROWS = np.linspace(0.0, 6.0, 48 * 7).reshape(48, 7)
_BUFFER = bytearray(b"\x01") * (BUFFER_MB << 20)
_PLACES = [(i * 2654435761) % len(_BUFFER) for i in range(_READS)]


def _greedy_colours(order: list[int]) -> int:
    classes: list[int] = []            # bitset of each colour class
    for v in order:
        nb = _ADJ[v]
        for i, members in enumerate(classes):
            if not members & nb:
                classes[i] = members | (1 << v)
                break
        else:
            classes.append(1 << v)
    return len(classes)


def chunk() -> None:
    """The fixed reference work."""
    for shift in range(_ORDERINGS):
        order = sorted(range(_N), key=lambda v: ((v * 7 + shift) % _N,
                                                 _ADJ[v].bit_count()))
        _greedy_colours(order)
    for _ in range(_PRODUCTS):
        outer = _ROWS[:, :, None] * _ROWS[:, None, :] * _Q[None, :, :]
        np.einsum("ck,mkl,cl->mc", _MASKS, outer, _MASKS, optimize=True)
    total = 0
    for i in _PLACES:
        total += _BUFFER[i]


def time_chunks(count: int = SETUP_CHUNKS) -> tuple[float, float]:
    """Mean (wall s, CPU s) of `count` chunks run back to back."""
    chunk()                             # first call pays for numpy's setup
    cpu0, t0 = time.process_time(), time.perf_counter()
    for _ in range(count):
        chunk()
    t1, cpu1 = time.perf_counter(), time.process_time()
    return (t1 - t0) / count, (cpu1 - cpu0) / count


class Sampler:
    """Runs chunk() every PERIOD_S seconds of wall time while installed and
    keeps the wall and CPU time the chunks took."""

    def __init__(self):
        self.count = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def _tick(self, signum, frame) -> None:
        cpu0, t0 = time.process_time(), time.perf_counter()
        chunk()
        self.wall_s += time.perf_counter() - t0
        self.cpu_s += time.process_time() - cpu0
        self.count += 1

    def install(self) -> None:
        chunk()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
