"""How fast the machine runs right now, and time rescaled to a fixed speed.

The benchmark shares a small virtual machine with other tenants, and the
speed it gets swings by up to 2x within seconds, for the whole machine at
once.  A fixed pure-Python loop, timed at short intervals during a
measurement, slows down by nearly the same factor as the program does:
over twelve back-to-back runs of the algebra-scan-n5 workload whose
times ranged from 11.8 s to 16.5 s, the times rescaled by the loop
ranged within 6 %.  Dividing a measured time by the mean slowness of the
loop samples taken during it gives the time at the reference speed, the
speed at which the loop takes REF_LOOP_S.
"""
from __future__ import annotations

from itertools import permutations
from statistics import fmean
from time import perf_counter
from typing import Sequence

LOOP_N = 8_000
# Every seventh permutation of 1..6, and the ones the loop composes them with.
PERMS = list(permutations(range(1, 7)))[::7]
LEFT = PERMS[:6]
# The loop's time at the reference speed: about its median on a quiet
# 2-core Xeon virtual machine with Python 3.11.  Only ratios between runs
# on one machine matter, so this is a fixed unit, not a measurement.
REF_LOOP_S = 0.0025


def loop_s() -> float:
    """Time one pass of a fixed loop of the operations the program spends
    its time on: integer arithmetic and dict updates, and permutations
    composed into tuples that key a dict."""
    t0 = perf_counter()
    counts: dict[int, int] = {}
    for i in range(LOOP_N):
        k = (i * 7919) % 5003
        counts[k] = counts.get(k, 0) + i
    products: dict[tuple[int, ...], int] = {}
    for i, pa in enumerate(LEFT):
        for pb in PERMS:
            key = tuple(pa[x - 1] for x in pb)
            products[key] = products.get(key, 0) + i
    return perf_counter() - t0


def to_reference(seconds: float, loop_samples: Sequence[float]) -> float:
    """`seconds` measured while the loop took `loop_samples`, rescaled to
    the reference speed.

    The samples are taken at even intervals of real time, so the mean of
    their speeds (1 / duration) is the mean speed over the measurement,
    and work done is time multiplied by speed.
    """
    if not loop_samples:
        raise ValueError("no speed samples were taken")
    return seconds * REF_LOOP_S * fmean(1.0 / s for s in loop_samples)
