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
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .graphs import DependencyGraph, ENUMERATION_CAP, independent_set_masks

#: Magnitudes below this are reported as boundary diagnostics rather than
#: trusted sign information.
BOUNDARY_TOLERANCE = 1e-12


@dataclass(frozen=True)
class CriterionParams:
    """Witness vectors for a convergence criterion.

    kind is "gll" (vector x in (0,1)), "cll" (vector y > 0) or
    "shearer" (no vector; the table itself is the witness).  epsilon is
    the multiplicative slack the instance is known to satisfy; zero
    means no slack is claimed.
    """

    kind: str
    x: tuple[float, ...] | None = None
    y: tuple[float, ...] | None = None
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("gll", "cll", "shearer"):
            raise ValueError(f"unknown criterion kind {self.kind!r}")
        if self.epsilon < 0:
            raise ValueError("slack must be nonnegative")


class PolynomialTable:
    """Dense table of breve_q over all 2^n subsets plus q over independent sets.

    Built by :func:`build_table`.  Subsets are addressed by bitmask; the
    helpers accept either a bitmask or an iterable of indices.
    """

    __slots__ = ("graph", "p", "breve", "ind_masks", "q", "exact", "_gamma_plus")

    def __init__(self, graph, p, breve, ind_masks, q, exact, gamma_plus):
        self.graph = graph
        self.p = p
        self.breve = breve
        self.ind_masks = ind_masks
        self.q = q
        self.exact = exact
        self._gamma_plus = gamma_plus

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def _as_mask(self, subset) -> int:
        if isinstance(subset, int):
            return subset
        mask = 0
        for i in subset:
            mask |= 1 << i
        return mask

    def breve_q(self, subset):
        return self.breve[self._as_mask(subset)]

    def q_of(self, subset):
        """q(I) for independent I; zero for sets that are not independent."""
        return self.q.get(self._as_mask(subset), Fraction(0) if self.exact else 0.0)

    @property
    def q0(self):
        """Probability that no event occurs: q(empty) = breve_q([n])."""
        return self.breve[self.full_mask]

    def gamma_plus_mask(self, i: int) -> int:
        return self._gamma_plus[i]


def build_table(graph: DependencyGraph, p: Sequence, exact: bool = False,
                cap: int = ENUMERATION_CAP) -> PolynomialTable:
    """Compute breve_q for every subset and q for every independent set.

    The recurrence eliminates the lowest set bit a of each subset S:

        breve_q(S) = breve_q(S - a) - p_a * breve_q(S minus Gamma^+(a))

    evaluated over ascending masks so both operands are already known.
    With exact=True all arithmetic is in Fraction (p entries are
    converted exactly).
    """
    n = graph.n
    if n > cap:
        raise ValueError(f"table construction refused for n={n} > cap={cap}")
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

    breve = [one] * (1 << n)
    for mask in range(1, 1 << n):
        a = (mask & -mask).bit_length() - 1
        breve[mask] = breve[mask ^ (1 << a)] - pv[a] * breve[mask & ~gamma_plus[a]]

    ind_masks = independent_set_masks(graph, cap)
    full = (1 << n) - 1
    q: dict[int, object] = {}
    for mask in ind_masks:
        weight = one
        gp = 0
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            weight *= pv[i]
            gp |= gamma_plus[i]
            m &= m - 1
        q[mask] = weight * breve[full & ~gp]

    return PolynomialTable(graph, tuple(pv), breve, ind_masks, q, exact, gamma_plus)


def in_shearer_region(table: PolynomialTable) -> bool:
    """Strict positivity of breve_q on every subset."""
    return all(v > 0 for v in table.breve)


def shearer_report(table: PolynomialTable) -> dict:
    """Region membership plus a boundary diagnostic.

    A minimum within BOUNDARY_TOLERANCE of zero means the instance sits
    too close to the boundary for float signs to be conclusive.
    """
    lo = min(table.breve)
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


def independent_subset_masks_of(adj_masks: list[int], mask: int) -> list[int]:
    """Independent subsets (as masks) of the vertex set given by mask."""
    members = []
    m = mask
    while m:
        members.append((m & -m).bit_length() - 1)
        m &= m - 1
    out: list[int] = []

    def extend(cur: int, start: int) -> None:
        out.append(cur)
        for pos in range(start, len(members)):
            v = members[pos]
            if not (adj_masks[v] & cur):
                extend(cur | (1 << v), pos + 1)

    extend(0, 0)
    return out


def partition_function(graph, y: Sequence[float], subset: Iterable[int] | int,
                       cap: int = ENUMERATION_CAP) -> float:
    """Y_S = sum of y^I over independent subsets I of S."""
    adj = graph.adjacency_masks()
    mask = subset if isinstance(subset, int) else sum(1 << i for i in subset)
    if bin(mask).count("1") > cap:
        raise ValueError("partition function refused: subset too large to enumerate")
    total = 0.0
    for sub in independent_subset_masks_of(adj, mask):
        term = 1.0
        m = sub
        while m:
            i = (m & -m).bit_length() - 1
            term *= y[i]
            m &= m - 1
        total += term
    return total


def check_cll(graph: DependencyGraph, p: Sequence[float], y: Sequence[float],
              neighborhood_cap: int = ENUMERATION_CAP) -> bool:
    """p_i * Y_{Gamma^+(i)} <= y_i for every i, with Y exact by enumeration.

    Refuses events whose closed neighborhood exceeds neighborhood_cap;
    application-scale instances should use their structural clique
    bound instead.
    """
    if len(p) != graph.n or len(y) != graph.n:
        raise ValueError("vector lengths must match vertex count")
    if any(yi <= 0 for yi in y):
        raise ValueError("y entries must be positive")
    adj = graph.adjacency_masks()
    for i in range(graph.n):
        gp = adj[i] | (1 << i)
        if bin(gp).count("1") > neighborhood_cap:
            raise ValueError(
                f"closed neighborhood of event {i} too large to enumerate; "
                "use the structural clique bound for large instances"
            )
        if p[i] * partition_function(graph, y, gp) > y[i]:
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
    singletons = sum(table.q[1 << i] for i in range(table.n))
    if singletons == 0:
        return math.inf
    return float(table.q0 / (2 * singletons))


def singleton_ratio(table: PolynomialTable, i: int) -> float:
    """q({i}) / q(empty): the expected number of times event i is resampled."""
    return float(table.q[1 << i] / table.q0)


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

    The sums that do not depend on t are taken once, in the same order
    as a single call takes them, so every value equals predicted_bound's
    bit for bit.
    """
    eps = params.epsilon
    if params.kind == "gll":
        if params.x is None:
            raise ValueError("gll bound requires the x vector")
        log_sum = sum(math.log(1 / (1 - xi)) for xi in params.x)
        if eps > 0:
            return [(t + log_sum) / eps for t in ts]
        scale = 4 * sum(xi / (1 - xi) for xi in params.x)
        return [scale * (log_sum + 1 + t) for t in ts]
    if params.kind == "cll":
        if params.y is None:
            raise ValueError("cll bound requires the y vector")
        log_sum = sum(math.log1p(yi) for yi in params.y)
        if eps > 0:
            return [2 * (log_sum + t) / eps for t in ts]
        scale = 4 * sum(params.y)
        return [scale * (log_sum + 1 + t) for t in ts]
    # shearer
    if table is None:
        raise ValueError("shearer bound requires the polynomial table")
    if eps > 0:
        scaled = build_table(table.graph, [float(pi) * (1 + eps) for pi in table.p])
        if not in_shearer_region(scaled):
            raise ValueError("claimed slack leaves the region")
        log_q0 = math.log(1 / float(scaled.q0))
        return [2 * (log_q0 + t) / eps for t in ts]
    ratios = [singleton_ratio(table, i) for i in range(table.n)]
    scale = 4 * sum(ratios)
    log_sum = sum(math.log1p(r) for r in ratios)
    return [scale * (log_sum + 1 + t) for t in ts]


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
            cached = [m for m in independent_subset_masks_of(adj, gmask) if m]
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
