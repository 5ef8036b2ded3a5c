"""Oracle synthesis on explicitly enumerated probability spaces.

A finite space lists every state with its exact probability, the states
belonging to each event, and a dependency graph over the events.  For
an event i, a resampling oracle is a stochastic kernel from states
satisfying E_i (weighted by the conditioned measure) back to the whole
space that (a) reproduces the unconditioned measure exactly and
(b) never moves from a state where a non-neighbor event fails to one
where it holds.

Such a kernel exists exactly when a transportation problem is feasible:
ship the conditioned mass of each source state u to target states w
whose satisfied non-neighbor events are a subset of u's.  Feasibility
is decided by an exact max-flow over the rational masses scaled to
integers; infeasibility yields a Hall-type certificate, a set of source
states whose conditioned mass exceeds the total mass of every target
they may reach.

The max-flow is Edmonds-Karp specialised to that transport network: its
searches go by levels of sources and targets with set operations, yet
take the paths of the edge-by-edge search, so the kernels and
certificates are those of plain Edmonds-Karp.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from typing import Iterable, Sequence

from .graphs import DependencyGraph, non_neighbors, read_int
from .oracles import OracleEventError

#: Refuse transportation instances beyond this many states.
SYNTH_STATE_CAP = 4096

#: Most non-neighbours of an event whose subsets check_lopsidependency
#: enumerates (2^20 subsets, each a pass over the states).
LOPSIDEPENDENCY_CAP = 20


def parse_probability(value) -> Fraction:
    """A probability read from a JSON value: a number stands for its
    decimal text, not its binary float, and a string is a decimal or a
    rational "a/b".  Any other type, a boolean included, is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise TypeError(f"expected a number or a string, got {type(value).__name__}")
    return Fraction(repr(value) if isinstance(value, float) else value)


@dataclass(frozen=True)
class ExplicitSpace:
    """Finite probability space with events given by state lists."""

    probs: tuple[Fraction, ...]
    events: tuple[frozenset[int], ...]
    graph: DependencyGraph

    def __post_init__(self) -> None:
        probs = tuple(Fraction(p) for p in self.probs)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "events", tuple(frozenset(e) for e in self.events))
        if any(p < 0 for p in probs):
            raise ValueError("state probabilities must be nonnegative")
        total = sum(probs)
        if total != 1:
            raise ValueError(f"state probabilities sum to {total}, not 1")
        if len(self.events) != self.graph.n:
            raise ValueError("event count must match the dependency graph")
        k = len(probs)
        for ev in self.events:
            if any(not (0 <= s < k) for s in ev):
                raise ValueError("event references an unknown state")

    @property
    def n_states(self) -> int:
        return len(self.probs)

    @property
    def n_events(self) -> int:
        return len(self.events)

    def event_prob(self, i: int) -> Fraction:
        return sum((self.probs[s] for s in self.events[i]), Fraction(0))

    def holds(self, i: int, state: int) -> bool:
        return state in self.events[i]

    def to_json(self) -> dict:
        return {
            "states": self.n_states,
            "prob": [str(p) for p in self.probs],
            "events": [sorted(e) for e in self.events],
            "graph": self.graph.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ExplicitSpace":
        probs = tuple(map(parse_probability, obj["prob"]))
        if len(probs) != read_int(obj["states"]):
            raise ValueError("state count does not match probability list")
        events = tuple(frozenset(map(read_int, ev)) for ev in obj["events"])
        # checked before the graph's vertex sets are built
        if read_int(obj["graph"]["n"]) != len(events):
            raise ValueError("event count must match the dependency graph")
        return cls(probs, events, DependencyGraph.from_json(obj["graph"]))


@dataclass(frozen=True)
class SynthesizedOracle:
    """Exact resampling kernel for one event of an explicit space.

    rows maps each positive-probability state of the event to its
    outgoing distribution, a tuple of (target state, Fraction mass)
    with masses summing to one.
    """

    event: int
    rows: dict[int, tuple[tuple[int, Fraction], ...]]

    def to_json(self) -> dict:
        return {
            "event": self.event,
            "rows": {
                str(u): [[w, str(f)] for w, f in row] for u, row in self.rows.items()
            },
        }


@dataclass(frozen=True)
class HallCertificate:
    """Witness of infeasibility: conditioned mass exceeds reachable mass."""

    event: int
    states: tuple[int, ...]
    source_mass: Fraction
    reachable_mass: Fraction


def _signature(space: ExplicitSpace, free: Sequence[int], state: int) -> frozenset[int]:
    return frozenset(j for j in free if state in space.events[j])


def _transport(supply: list[int], demand: list[int], allowed: list[list[int]]):
    """Edmonds-Karp max flow on the network s -> sources -> targets -> t.

    Source a holds supply[a], target b takes demand[b], and a ships any
    amount to the ascending targets allowed[a] (``synthesize`` gives those
    edges capacity 2*D, above any flow).  A forward edge never closes and
    the residuals of s->a and b->t only fall, so the breadth-first search
    needs no edge-by-edge scan: a row's first target with demand left is a
    pointer that only moves forward, the first source with supply and such
    a target ends a search at once, and otherwise the search goes by
    levels, the unseen targets of a level's rows, then the unseen sources
    with flow into them, each in (discoverer, index) order.  Returns
    (flow, seen): flow[a] maps target to positive flow; seen is None when
    every supply ships, else the sorted sources the last search reached.
    """
    supply, demand = list(supply), list(demand)
    flow: list[dict[int, int]] = [{} for _ in supply]
    into: list[set[int]] = [set() for _ in demand]
    # per row, not per source: the sources of one row reach the same target
    sets = {key: frozenset(row) for key, row in {id(row): row for row in allowed}.items()}
    ptr = dict.fromkeys(sets, 0)

    def reach(a: int) -> int:
        row = allowed[a]
        k = ptr[id(row)]
        while k < len(row) and not demand[row[k]]:
            k += 1
        ptr[id(row)] = k
        return row[k] if k < len(row) else -1

    first = 0  # sources before it have no supply or no target to reach
    while True:
        while first < len(supply) and not (supply[first] and reach(first) >= 0):
            first += 1
        by_target: dict[int, int] = {}  # the source that found each target
        by_source: dict[int, int] = {}  # the target that found each source
        if first < len(supply):
            end = first, reach(first)
        else:
            level = [a for a, x in enumerate(supply) if x]
            if not level:
                return flow, None
            seen, unseen = set(level), set(range(len(demand)))
            rows = dict(sets)  # the rows no source of this search has scanned
            end = None
            while level and end is None:
                targets = []
                for a in level:
                    new = unseen.intersection(rows.pop(id(allowed[a]), ()))
                    if new:
                        unseen -= new
                        targets += sorted(new)
                        by_target.update(dict.fromkeys(new, a))
                # each new source is found by the first target it feeds
                rank = dict(zip(targets, range(len(targets))))
                fed = set().union(*map(into.__getitem__, targets)) - seen
                seen |= fed
                found = sorted((min(map(rank.get, flow[a], repeat(len(rank)))), a) for a in fed)
                by_source.update((a, targets[k]) for k, a in found)
                level = [a for _, a in found]
                for a in level:
                    if reach(a) >= 0:
                        end = a, reach(a)
                        break
            if end is None:
                return flow, sorted(seen)
        a, b = end
        ahead, back = [end], []
        bottleneck = demand[b]
        while a in by_source:
            b = by_source[a]
            back.append((a, b))
            bottleneck = min(bottleneck, flow[a][b])
            a = by_target[b]
            ahead.append((a, b))
        bottleneck = min(bottleneck, supply[a])
        supply[a] -= bottleneck
        demand[end[1]] -= bottleneck
        for a, b in ahead:
            flow[a][b] = flow[a].get(b, 0) + bottleneck
            into[b].add(a)
        for a, b in back:
            flow[a][b] -= bottleneck
            if not flow[a][b]:
                del flow[a][b]
                into[b].discard(a)


def synthesize(space: ExplicitSpace, i: int):
    """Build an exact resampling oracle for event i, or a Hall certificate.

    Source u (a positive-probability state of E_i, mass mu(u)/Pr[E_i])
    may ship to target w (any positive-probability state, mass mu(w))
    when u satisfies every non-neighbor event that w satisfies.  The
    kernel exists iff the max flow saturates, and then row u is the
    flow out of u normalized by its source mass.

    The flow runs on integers: every mass is scaled by D, the lcm of the
    masses' denominators, and the inner edges get capacity 2*D.  A
    positive scale changes no test ``cap > 0`` and no bottleneck choice,
    so the augmenting paths, and hence the rows Fraction(flow, D) / mass,
    are those of the same flow over Fractions.
    """
    if space.n_states > SYNTH_STATE_CAP:
        raise ValueError(f"synthesis refused beyond {SYNTH_STATE_CAP} states")
    if not (0 <= i < space.n_events):
        raise ValueError(f"no event {i}")
    pe = space.event_prob(i)
    if pe == 0:
        raise ValueError(f"event {i} has probability zero")
    free = non_neighbors(space.graph, i)
    sources = [u for u in sorted(space.events[i]) if space.probs[u] > 0]
    targets = [w for w in range(space.n_states) if space.probs[w] > 0]
    if not free:
        # every transportation edge is allowed, so ship from each source
        # proportionally: the kernel just draws a fresh state
        fresh = tuple((w, space.probs[w]) for w in targets)
        return SynthesizedOracle(event=i, rows={u: fresh for u in sources})
    # targets grouped by signature; the sources of a signature share a row
    groups: dict[frozenset[int], list[int]] = {}
    for b, w in enumerate(targets):
        groups.setdefault(_signature(space, free, w), []).append(b)
    sig_u = [_signature(space, free, u) for u in sources]
    rows_of = {sig: sorted(b for g, bs in groups.items() if g <= sig for b in bs)
               for sig in set(sig_u)}
    allowed = [rows_of[sig] for sig in sig_u]

    source_mass = [space.probs[u] / pe for u in sources]
    target_mass = [space.probs[w] for w in targets]
    scale = math.lcm(*(m.denominator for m in source_mass),
                     *(m.denominator for m in target_mass))
    flow, seen = _transport([m.numerator * (scale // m.denominator) for m in source_mass],
                            [m.numerator * (scale // m.denominator) for m in target_mass],
                            allowed)
    if seen is not None:
        blocked = tuple(sources[a] for a in seen)
        reach = {targets[b] for a in seen for b in allowed[a]}
        return HallCertificate(
            event=i,
            states=blocked,
            source_mass=sum((space.probs[u] for u in blocked), Fraction(0)) / pe,
            reachable_mass=sum((space.probs[w] for w in reach), Fraction(0)),
        )
    # Fraction(f, scale) / mass, normalized by one gcd
    rows = {u: tuple((targets[b], Fraction(f * m.denominator, scale * m.numerator))
                     for b, f in sorted(flow[a].items()))
            for (a, u), m in zip(enumerate(sources), source_mass)}
    return SynthesizedOracle(event=i, rows=rows)


def check_lopsidependency(space: ExplicitSpace, i: int) -> bool:
    """Negative-association inequality for every non-neighbor subset.

    For each J disjoint from the closed neighborhood of i with
    Pr[no event of J] > 0, checks
    Pr[E_i and no event of J] <= Pr[E_i] * Pr[no event of J], exactly.
    """
    free = non_neighbors(space.graph, i)
    if len(free) > LOPSIDEPENDENCY_CAP:
        raise ValueError(f"{len(free)} non-neighbor events exceed "
                         f"LOPSIDEPENDENCY_CAP={LOPSIDEPENDENCY_CAP}")
    pe = space.event_prob(i)
    for mask in range(1 << len(free)):
        chosen = [free[k] for k in range(len(free)) if mask >> k & 1]
        none_mass = Fraction(0)
        joint_mass = Fraction(0)
        for s in range(space.n_states):
            if space.probs[s] == 0:
                continue
            if any(s in space.events[j] for j in chosen):
                continue
            none_mass += space.probs[s]
            if s in space.events[i]:
                joint_mass += space.probs[s]
        if none_mass > 0 and joint_mass > pe * none_mass:
            return False
    return True


class ExplicitBundle:
    """Engine-ready bundle over an explicit space with synthesized oracles.

    States are plain integers.  Construction synthesizes the kernel of
    each event of ``events`` (every event by default) up front and raises
    with the certificate when one does not exist.  ``kernels`` maps each such
    event to its kernel; only those events resample, but every event is scanned.
    """

    kind = "explicit-space"
    # the space's own event test, kept on the class so a subclass can replace it
    holds = property(lambda self: self.space.holds)

    def __init__(self, space: ExplicitSpace, events: Iterable[int] | None = None) -> None:
        self.space = space
        self.graph = space.graph
        self.kernels: dict[int, SynthesizedOracle] = {}
        for i in range(space.n_events) if events is None else events:
            result = synthesize(space, i)
            if isinstance(result, HallCertificate):
                raise ValueError(
                    f"event {i} admits no resampling oracle: states {result.states} "
                    f"carry mass {result.source_mass} but reach only {result.reachable_mass}"
                )
            self.kernels[i] = result
        # cut after the last state of positive probability, so a draw
        # past a float total below 1 clamps to a state of the law
        last = max(s for s, p in enumerate(space.probs) if p > 0)
        self._cum = list(accumulate(map(float, space.probs[:last + 1])))
        self._row_cum: dict[tuple[int, int], tuple[list[float], list[int]]] = {
            (kernel.event, u): (list(accumulate(float(f) for _, f in row)),
                                [w for w, _ in row])
            for kernel in self.kernels.values()
            for u, row in kernel.rows.items()
        }

    @property
    def n(self) -> int:
        return self.space.n_events

    def sample(self, rng) -> int:
        return min(bisect_right(self._cum, rng.random()), len(self._cum) - 1)

    def occurring(self, state: int) -> list[int]:
        return [i for i in range(self.space.n_events) if self.holds(i, state)]

    def resample(self, i: int, state: int, rng) -> int:
        row = self._row_cum.get((i, state))
        if row is None:
            if i not in self.kernels:
                raise ValueError(f"no kernel was synthesized for event {i}")
            raise OracleEventError(f"event {i} does not hold in state {state}")
        cum, states = row
        return states[min(bisect_right(cum, rng.random()), len(cum) - 1)]

    def validate_solution(self, state: int) -> bool:
        """Does no event hold in state?  Reads the event sets of the space,
        never ``holds`` or the kernels."""
        return not any(state in event for event in self.space.events)

    def solution_json(self, state: int) -> dict:
        return {"state": state}

    def exact_distribution(self) -> dict[int, float]:
        return {s: float(p) for s, p in enumerate(self.space.probs) if p > 0}
