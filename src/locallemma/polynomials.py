"""Independence polynomials, convergence criteria, and resampling bounds.

For a dependency graph G on [n] with event probabilities p, the central
objects are the signed independence-polynomial values

    breve_q(S) = sum over independent I contained in S of (-1)^|I| p^I
    q(I)       = p^I * breve_q([n] minus Gamma^+(I))   for independent I

q(I) is the stationary probability that exactly the events in I occur;
breve_q([n]) = q(empty) is the probability that no event occurs.  The
criteria of interest (the general local lemma, its clique-sum variant,
and the exact region where q(empty) stays positive) are all expressed
through these values, and the engine's running-time guarantees come out
as explicit functions of them.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import repeat
from typing import Iterable

import numpy as np

from .graphs import DependencyGraph, ENUMERATION_CAP, independent_subset_masks
from .streams import repeated_sum, seqsum

#: Most events of an exact (Fraction) table: its time about doubles with
#: each event, and 20 events already take seconds.
EXACT_CAP = 20

#: Magnitudes below this are reported as boundary diagnostics rather than
#: trusted sign information.
BOUNDARY_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Uniform(Sequence):
    """A vector of ``length`` equal entries, stored as the value and the length.

    The cluster parameters of the applications give every event the same
    value; ``CriterionParams.bound_sums`` sums a Uniform in closed form.
    """

    value: float
    length: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("length must be nonnegative")

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, i: int) -> float:
        i = operator.index(i)
        if not -self.length <= i < self.length:
            raise IndexError("Uniform index out of range")
        return self.value

    def __iter__(self):
        return repeat(self.value, self.length)


def _sum_of(f, vector: Sequence[float]):
    """seqsum of f over the vector; a nonempty Uniform in closed form."""
    if isinstance(vector, Uniform) and vector.length:
        return repeated_sum(f(vector.value), vector.length)
    return seqsum(map(f, vector))


@dataclass(frozen=True)
class CriterionParams:
    """Witness vectors for a convergence criterion.

    kind is "gll" (vector x in (0,1)), "cll" (vector y > 0) or
    "shearer" (no vector; the table itself is the witness).  A vector is
    any sequence, a tuple or a :class:`Uniform`.  epsilon is the
    multiplicative slack the instance is known to satisfy; zero means no
    slack is claimed.
    """

    kind: str
    x: Sequence[float] | None = None
    y: Sequence[float] | None = None
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("gll", "cll", "shearer"):
            raise ValueError(f"unknown criterion kind {self.kind!r}")
        if not 0 <= self.epsilon < math.inf:
            raise ValueError("slack must be nonnegative and finite")

    @cached_property
    def bound_sums(self) -> tuple[float, float]:
        """(log_sum, scale) of the gll and cll bounds, summed once per object.

        gll: sum_i ln 1/(1-x_i) and 4 * sum_i x_i/(1-x_i);
        cll: sum_i ln(1+y_i) and 4 * sum_i y_i, each added left to right.
        A :class:`Uniform` vector is summed in closed form
        (``streams.repeated_sum``), to the same bits.  Every solve that
        reuses the params reads the sums here instead of summing again.
        """
        if self.kind == "gll":
            if self.x is None:
                raise ValueError("gll bound requires the x vector")
            return (_sum_of(lambda xi: math.log(1 / (1 - xi)), self.x),
                    4 * _sum_of(lambda xi: xi / (1 - xi), self.x))
        if self.y is None:
            raise ValueError("cll bound requires the y vector")
        return _sum_of(math.log1p, self.y), 4 * _sum_of(lambda yi: yi, self.y)


class PolynomialTable:
    """Dense table of breve_q over all 2^n subsets; q read from it on demand.

    Built by :func:`build_table`.  breve is a numpy array indexed by
    subset bitmask (float64, or object holding Fractions when exact).
    q(I) = p^I * breve_q([n] minus Gamma^+(I)) is computed by
    :meth:`q_of` when asked for, one set at a time.  A set is a bitmask:
    bit i stands for event i.
    """

    def __init__(self, graph, p, breve, exact, gamma_plus):
        self.graph = graph
        self.p = p
        self.breve = breve
        self.exact = exact
        self._gamma_plus = gamma_plus

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def breve_q(self, mask: int):
        if not 0 <= mask <= self.full_mask:
            raise ValueError(f"mask {mask} is outside the table of {self.n} events")
        return self.breve[mask]

    def q_of(self, mask: int):
        """q(I) for independent I; a zero of the table's type for any other set.

        The p_i are multiplied in lowest bit first, as a scalar loop over
        I's bits does.  A Python float, or a Fraction when exact.
        """
        zero = Fraction(0) if self.exact else 0.0
        if mask & ~self.full_mask:
            return zero
        weight = zero + 1
        gp = 0
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            if gp >> i & 1:
                # a lower member of the set is adjacent to i
                return zero
            weight *= self.p[i]
            gp |= self._gamma_plus[i]
            m &= m - 1
        return weight * self.breve.item(self.full_mask & ~gp)

    @property
    def q0(self):
        """Probability that no event occurs: q(empty) = breve_q([n])."""
        return self.breve[self.full_mask]

    def gamma_plus_mask(self, i: int) -> int:
        return self._gamma_plus[i]


def build_table(graph: DependencyGraph, p: Sequence, exact: bool = False) -> PolynomialTable:
    """Compute breve_q for every subset.

    The recurrence eliminates the lowest set bit a of each subset S:

        breve_q(S) = breve_q(S - a) - p_a * breve_q(S minus Gamma^+(a))

    Viewed as a (2,)*n cube, where axis n-1-b is bit b, the subsets whose
    lowest bit is a are the block at index 1 on a's axis and 0 on every
    lower one, and S - a is the block at 0 on a's axis.  S minus
    Gamma^+(a) is the block at 0:1 on the axes of Gamma^+(a) above a,
    broadcast over them.  Both operands have no bit at or below a, so the
    classes are filled for a = n-1 down to 0, each by one multiply and one
    subtract written in place into its block.  Every entry gets the same
    two IEEE operations on the same operands as a scalar pass over
    ascending masks, so the table is identical to the bit.  breve is a
    float64 array, or an object array of Fraction when exact=True (p
    entries are converted exactly).  Graphs above ENUMERATION_CAP events,
    and exact tables above EXACT_CAP, are refused before allocating.
    """
    n = graph.n
    if n > ENUMERATION_CAP:
        raise ValueError(f"table refused for n={n} > ENUMERATION_CAP={ENUMERATION_CAP}")
    if exact and n > EXACT_CAP:
        raise ValueError(f"exact table refused for n={n} > EXACT_CAP={EXACT_CAP}")
    if len(p) != n:
        raise ValueError("probability vector length must match vertex count")
    if exact:
        pv = [q if isinstance(q, Fraction) else Fraction(q) for q in p]
        one = Fraction(1)
    else:
        pv = [float(q) for q in p]
        one = 1.0
    for value in pv:
        if not (0 <= value < 1):
            raise ValueError("event probabilities must lie in [0,1)")

    adj = graph.adjacency_masks()
    gamma_plus = [adj[i] | (1 << i) for i in range(n)]

    # Every mask but the empty one lies in exactly one class.
    breve = np.empty(1 << n, dtype=object if exact else np.float64)
    breve[0] = one
    cube = breve.reshape((2,) * n)
    full_axis = slice(None)
    for a in range(n - 1, -1, -1):
        # The trailing ... keeps every block a view, also at a single entry.
        above = (full_axis,) * (n - 1 - a)
        below_a = (0,) * a + (...,)
        op = tuple(slice(0, 1) if gamma_plus[a] >> b & 1 else full_axis
                   for b in range(n - 1, a, -1))
        cls = cube[(*above, 1, *below_a)]
        np.multiply(cube[(*op, 0, *below_a)], pv[a], out=cls)
        np.subtract(cube[(*above, 0, *below_a)], cls, out=cls)

    return PolynomialTable(graph, tuple(pv), breve, exact, gamma_plus)


def in_shearer_region(table: PolynomialTable) -> bool:
    """Strict positivity of breve_q on every subset."""
    return bool((table.breve > 0).all())


def shearer_report(table: PolynomialTable) -> dict:
    """Region membership plus a boundary diagnostic.

    A minimum within BOUNDARY_TOLERANCE of zero means the instance sits
    too close to the boundary for float signs to be conclusive.
    """
    lo = table.breve.min()
    return {
        "in_region": bool(lo > 0),
        "min_breve_q": float(lo),
        "boundary": bool(abs(lo) <= BOUNDARY_TOLERANCE),
    }


def check_gll(graph: DependencyGraph, p: Sequence[float], x: Sequence[float]) -> bool:
    """p_i <= x_i * prod over neighbors j of (1 - x_j), for every i.

    The inequality is non-strict, so tight instances pass.  Requires
    0 < x_i < 1.
    """
    if len(p) != graph.n or len(x) != graph.n:
        raise ValueError("vector lengths must match vertex count")
    if any(not (0 < xi < 1) for xi in x):
        raise ValueError("x entries must lie strictly between 0 and 1")
    for i in range(graph.n):
        bound = x[i]
        for j in graph.neighbors(i):
            bound *= 1 - x[j]
        if p[i] > bound:
            return False
    return True


def partition_function(graph, y: Sequence[float], mask: int) -> float:
    """Y_S = sum of y^I over independent subsets I of S, the set of the
    bits of mask."""
    return _partition_sum(graph.adjacency_masks(), y, mask)


def _partition_sum(adj: list[int], y: Sequence[float], mask: int) -> float:
    """partition_function over the neighbor bitmasks adj, for a subset mask."""
    size = bin(mask).count("1")
    if size > ENUMERATION_CAP:
        raise ValueError(f"partition function refused for a subset of {size} > "
                         f"ENUMERATION_CAP={ENUMERATION_CAP} events")
    total = 0.0
    for sub in independent_subset_masks(adj, mask):
        term = 1.0
        m = sub
        while m:
            i = (m & -m).bit_length() - 1
            term *= y[i]
            m &= m - 1
        total += term
    return total


def check_cll(graph: DependencyGraph, p: Sequence[float], y: Sequence[float]) -> bool:
    """p_i * Y_{Gamma^+(i)} <= y_i for every i, with Y exact by enumeration.

    Refuses events whose closed neighborhood exceeds ENUMERATION_CAP;
    application-scale instances should use their structural clique
    bound instead.
    """
    if len(p) != graph.n or len(y) != graph.n:
        raise ValueError("vector lengths must match vertex count")
    if any(yi <= 0 for yi in y):
        raise ValueError("y entries must be positive")
    adj = graph.adjacency_masks()
    for i in range(graph.n):
        if p[i] * _partition_sum(adj, y, adj[i] | (1 << i)) > y[i]:
            return False
    return True


def shearer_slack(table: PolynomialTable) -> float:
    """Largest epsilon certified by the singleton bound.

    epsilon = q0 / (2 * sum_i q({i})) guarantees that scaling p by
    (1 + epsilon) keeps the instance in the region with
    q0((1+eps)p) >= q0(p) / 2.
    """
    if not in_shearer_region(table):
        raise ValueError("slack is undefined outside the region")
    singletons = seqsum(table.q_of(1 << i) for i in range(table.n))
    if singletons == 0:
        return math.inf
    return float(table.q0 / (2 * singletons))


def singleton_ratio(table: PolynomialTable, i: int) -> float:
    """q({i}) / q(empty): the expected number of times event i is resampled."""
    return float(table.q_of(1 << i) / table.q0)


#: The tail points every report carries: (label, t) with Pr[more] <= e^-t.
TAIL_POINTS = (("t=1", 1.0), ("t=ln(1e4)", math.log(1e4)))


def predicted_bound(params: CriterionParams, t: float,
                    table: PolynomialTable | None = None) -> float:
    """Resample count s such that Pr[more than s resamples] <= e^-t.

    Dispatch on (kind, slack):

    - gll, eps > 0:   (1/eps) * (t + sum_i ln 1/(1-x_i))
    - gll, no slack:  4 * sum_i x_i/(1-x_i) * (sum_j ln 1/(1-x_j) + 1 + t)
    - cll, eps > 0:   (2/eps) * (sum_j ln(1+y_j) + t)
    - cll, no slack:  4 * sum_i y_i * (sum_j ln(1+y_j) + 1 + t)
    - shearer, eps > 0:  (2/eps) * (ln 1/q0' + t) with q0' at (1+eps)p
    - shearer, no slack: 4 * sum_i r_i * (sum_j ln(1+r_j) + 1 + t),
      r_i = q({i})/q(empty)

    The shearer forms need the table; a kind/vector mismatch raises.
    """
    return predicted_bounds(params, (t,), table)[0]


def predicted_bounds(params: CriterionParams, ts: Sequence[float],
                     table: PolynomialTable | None = None) -> list[float]:
    """predicted_bound at each t in ts, one pass over the vectors.

    The sums that do not depend on t are taken once per params object
    (``CriterionParams.bound_sums``), in the same order as a single call
    takes them, so every value equals predicted_bound's bit for bit.
    ValueError, naming epsilon, when a bound is not finite (a tiny
    epsilon overflows the division), since no report can carry it.
    """
    eps = params.epsilon
    if params.kind in ("gll", "cll"):
        log_sum, scale = params.bound_sums
        if eps > 0 and params.kind == "gll":
            bounds = [(t + log_sum) / eps for t in ts]
        elif eps > 0:
            bounds = [2 * (log_sum + t) / eps for t in ts]
        else:
            bounds = [scale * (log_sum + 1 + t) for t in ts]
    elif table is None:
        raise ValueError("shearer bound requires the polynomial table")
    elif eps > 0:
        scaled_p = [float(pi) * (1 + eps) for pi in table.p]
        if not all(pi < 1 for pi in scaled_p):
            raise ValueError("claimed slack pushes an event probability to 1 or above")
        scaled = build_table(table.graph, scaled_p)
        if not in_shearer_region(scaled):
            raise ValueError("claimed slack leaves the region")
        log_q0 = math.log(1 / float(scaled.q0))
        bounds = [2 * (log_q0 + t) / eps for t in ts]
    else:
        ratios = [singleton_ratio(table, i) for i in range(table.n)]
        scale = 4 * seqsum(ratios)
        log_sum = seqsum(math.log1p(r) for r in ratios)
        bounds = [scale * (log_sum + 1 + t) for t in ts]
    if not all(map(math.isfinite, bounds)):
        raise ValueError(f"epsilon = {eps!r} gives a tail bound that is not finite")
    return bounds


def tail_bounds(params: CriterionParams,
                table: PolynomialTable | None = None) -> dict[str, float]:
    """predicted_bounds at TAIL_POINTS, keyed by label."""
    values = predicted_bounds(params, [t for _, t in TAIL_POINTS], table)
    return {label: value for (label, _), value in zip(TAIL_POINTS, values)}


def sequence_mass(graph: DependencyGraph, p: Sequence[float], start: Iterable[int],
                  budget: int) -> float:
    """Total p-mass of proper stable set sequences starting at a given set.

    Sums p^{I_1} * ... * p^{I_t} over all proper sequences with
    I_1 = start and total size at most budget.  Monotone in budget and
    bounded by q(start)/q(empty) inside the region; the empty start
    contributes exactly its own empty sequence, mass 1.
    """
    n = graph.n
    adj = graph.adjacency_masks()
    gamma_plus = [adj[i] | (1 << i) for i in range(n)]
    start_mask = 0
    for i in start:
        start_mask |= 1 << i
    if not graph.is_independent([i for i in range(n) if start_mask >> i & 1]):
        raise ValueError("starting set must be independent")
    if start_mask == 0:
        return 1.0
    if bin(start_mask).count("1") > budget:
        return 0.0

    subset_cache: dict[int, list[int]] = {}

    def successors(gmask: int) -> list[int]:
        cached = subset_cache.get(gmask)
        if cached is None:
            cached = [m for m in independent_subset_masks(adj, gmask) if m]
            subset_cache[gmask] = cached
        return cached

    memo: dict[tuple[int, int], float] = {}

    def mass(mask: int, budget_left: int) -> float:
        key = (mask, budget_left)
        hit = memo.get(key)
        if hit is not None:
            return hit
        weight = 1.0
        gp = 0
        size = 0
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            weight *= p[i]
            gp |= gamma_plus[i]
            size += 1
            m &= m - 1
        remaining = budget_left - size
        total = 1.0
        if remaining >= 1:
            for nxt in successors(gp):
                if bin(nxt).count("1") <= remaining:
                    total += mass(nxt, remaining)
        result = weight * total
        memo[key] = result
        return result

    return mass(start_mask, budget)
