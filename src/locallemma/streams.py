"""Primitives that fix the bytes of a run: owned draws and ordered sums.

``below`` and ``shuffle`` draw through ``getrandbits`` exactly as
``Random.randrange(m)`` and ``Random.shuffle`` do on CPython 3.10 to 3.13,
without a Python method call per draw.  ``seqsum`` adds left to right, as
the builtin ``sum`` did up to 3.11; from 3.12 the builtin compensates float
sums (gh-100425) and rounds differently.  ``repeated_sum`` gives
``seqsum`` of n copies of one value in closed form.  README, "Random
streams", lists every sampler's draws.
"""

from __future__ import annotations

import math
import sys
from itertools import repeat
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


#: The Fisher-Yates steps of a list of n < 64 items: (i, bit count of
#: i + 1) for i = n - 1 down to 1, each the tail of the steps for n = 63.
_STEPS = [(m - 1, m.bit_length()) for m in range(63, 1, -1)]
_TAILS = [tuple(_STEPS[63 - n:]) for n in range(64)]


def shuffle(x: list, rng) -> None:
    """Fisher-Yates shuffle of x in place, as ``rng.shuffle(x)`` draws it.

    Step i draws ``below(i + 1)`` and swaps x[i] with the draw.  While
    i + 1 has seven bits or more the steps run one binade at a time, each
    run sharing its bit count k; the last 62 steps at most come from
    ``_TAILS``.
    """
    getrandbits = rng.getrandbits
    n = len(x)
    while n > 63:
        k = n.bit_length()
        low = 1 << (k - 1)  # the shortest prefix whose length has k bits
        for i in range(n - 1, low - 2, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]
        n = low - 1
    for i, k in _TAILS[n]:
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


def _loop_sum(values: Iterable, start=0):
    total = start
    for v in values:
        total += v
    return total


#: start + v_1 + v_2 + ..., added left to right.  Up to Python 3.11 the
#: builtin sum is exactly this loop, run in C, several times faster than
#: the loop in Python; later versions get the loop itself.
seqsum = sum if sys.version_info < (3, 12) else _loop_sum


def _grid(x: float) -> tuple[int, int]:
    """(M, e) with x = M * 2**e exactly, e the exponent of x's ulp."""
    m, k = math.frexp(x)
    e = max(k, -1021) - 53
    return int(math.ldexp(m, k - e)), e


def repeated_sum(v, n: int):
    """``seqsum([v] * n)`` to the bit and in type, in about one step per binade.

    While the running total s stays below 2**53 ulps of its binade, adding
    v moves it by a fixed number of ulps: v's share of the ulp, rounded to
    nearest.  On a tie (v a half-integer number of ulps) the sum rounds to
    the even multiple, so after one plain step the total is even and the
    even one of q and q + 1 is the step from then on.  The additions that
    stay inside the binade are taken in one jump; the one that crosses
    into the next binade, where the ulp doubles, is a plain float step.
    Values other than positive finite floats take the plain loop.
    """
    if n <= 0:
        return 0
    if not (isinstance(v, float) and 0 < v < math.inf):
        return seqsum(repeat(v, n))
    top = 1 << 53
    vm, ve = _grid(v)
    s, left = v, n - 1
    while left and s < math.inf:
        sm, se = _grid(s)
        d = se - ve  # v <= s, so v's ulp divides s's ulp
        unit = 1 << d
        q, r = divmod(vm, unit)
        if 2 * r < unit:
            step = q
        elif 2 * r > unit:
            step = q + 1
        elif sm & 1:
            s += v
            left -= 1
            continue
        else:
            step = q + (q & 1)
        if step == 0:
            break
        # additions that keep s + v below the top of the binade
        jumps = min(left, (top - 2 - q - sm) // step + 1)
        if jumps > 0:
            s = math.ldexp(sm + jumps * step, se)
            left -= jumps
        else:
            s += v
            left -= 1
    return s
