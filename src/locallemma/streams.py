"""Primitives that fix the bytes of a run: owned draws and ordered sums.

``below`` and ``shuffle`` draw through ``getrandbits`` exactly as
``Random.randrange(m)`` and ``Random.shuffle`` do on CPython 3.10 to 3.13,
without a Python method call per draw.  ``seqsum`` adds left to right, as
the builtin ``sum`` did up to 3.11; from 3.12 the builtin compensates float
sums (gh-100425) and rounds differently.  README, "Random streams", lists
every sampler's draws.
"""

from __future__ import annotations

import sys
from typing import Iterable


def below(m: int, rng) -> int:
    """Uniform int in [0, m), the value ``rng.randrange(m)`` returns."""
    if m <= 0:
        raise ValueError(f"empty range for below({m})")
    getrandbits = rng.getrandbits
    k = m.bit_length()
    r = getrandbits(k)
    while r >= m:
        r = getrandbits(k)
    return r


def shuffle(x: list, rng) -> None:
    """Fisher-Yates shuffle of x in place, as ``rng.shuffle(x)`` draws it."""
    getrandbits = rng.getrandbits
    for i in range(len(x) - 1, 0, -1):
        m = i + 1
        k = m.bit_length()
        j = getrandbits(k)
        while j >= m:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


def _loop_sum(values: Iterable, start=0):
    total = start
    for v in values:
        total += v
    return total


#: start + v_1 + v_2 + ..., added left to right.  Up to Python 3.11 the
#: builtin sum is exactly this loop, run in C (on the 487,614 floats of a
#: Latin acceptance instance's y vector, 2 ms against 15 ms for the loop);
#: later versions get the loop itself.
seqsum = sum if sys.version_info < (3, 12) else _loop_sum
