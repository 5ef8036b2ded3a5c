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
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Sequence

from .graphs import DependencyGraph, non_neighbors
from .oracles import OracleEventError

#: Refuse transportation instances beyond this many states.
SYNTH_STATE_CAP = 4096

#: Most non-neighbours of an event whose subsets check_lopsidependency
#: enumerates (2^20 subsets, each a pass over the states).
LOPSIDEPENDENCY_CAP = 20


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
        if abs(total - 1) > Fraction(1, 10**12):
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
        probs = tuple(Fraction(p) for p in obj["prob"])
        if len(probs) != int(obj["states"]):
            raise ValueError("state count does not match probability list")
        events = tuple(frozenset(int(s) for s in ev) for ev in obj["events"])
        # checked before the graph's vertex sets are built
        if int(obj["graph"]["n"]) != len(events):
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

    def support(self, u: int) -> list[int]:
        return [w for w, _ in self.rows[u]]

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


class _FlowNetwork:
    """Edmonds-Karp max flow over integer capacities."""

    def __init__(self, n: int) -> None:
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add(self, u: int, v: int, cap: int) -> None:
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def max_flow(self, s: int, t: int) -> int:
        adj, to, cap = self.adj, self.to, self.cap
        # the edge from each node into t (one at most in the transport
        # network).  The search dequeues nodes in the order it finds
        # them, so the first node found with residual capacity into t
        # is the one whose scan would reach t: the search stops there,
        # on the path a full breadth-first search would take.
        into_t = {to[eid]: eid ^ 1 for eid in adj[t]}
        total = 0
        while True:
            prev_edge = [-1] * len(adj)
            prev_edge[s] = -2
            last = s if s in into_t and cap[into_t[s]] > 0 else -1
            queue = deque([s])
            while queue and last == -1:
                u = queue.popleft()
                for eid in adj[u]:
                    v = to[eid]
                    if prev_edge[v] == -1 and cap[eid] > 0:
                        prev_edge[v] = eid
                        if v in into_t and cap[into_t[v]] > 0:
                            last = v
                            break
                        queue.append(v)
            if last == -1:
                return total
            path = [into_t[last]]
            v = last
            while v != s:
                eid = prev_edge[v]
                path.append(eid)
                v = to[eid ^ 1]
            bottleneck = min(cap[eid] for eid in path)
            for eid in path:
                cap[eid] -= bottleneck
                cap[eid ^ 1] += bottleneck
            total += bottleneck

    def reachable(self, s: int) -> set[int]:
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for eid in self.adj[u]:
                v = self.to[eid]
                if v not in seen and self.cap[eid] > 0:
                    seen.add(v)
                    queue.append(v)
        return seen


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
    sig_u = {u: _signature(space, free, u) for u in sources}
    sig_w = {w: _signature(space, free, w) for w in targets}

    source_mass = {u: space.probs[u] / pe for u in sources}
    scale = math.lcm(*(source_mass[u].denominator for u in sources),
                     *(space.probs[w].denominator for w in targets))
    source_id = {u: 2 + k for k, u in enumerate(sources)}
    target_id = {w: 2 + len(sources) + k for k, w in enumerate(targets)}
    net = _FlowNetwork(2 + len(sources) + len(targets))
    for u in sources:
        net.add(0, source_id[u], int(source_mass[u] * scale))
    for w in targets:
        net.add(target_id[w], 1, int(space.probs[w] * scale))
    allowed: dict[int, list[int]] = {}
    for u in sources:
        row = [w for w in targets if sig_w[w] <= sig_u[u]]
        allowed[u] = row
        for w in row:
            net.add(source_id[u], target_id[w], 2 * scale)

    value = net.max_flow(0, 1)
    if value != scale:
        cut = net.reachable(0)
        blocked = tuple(u for u in sources if source_id[u] in cut)
        reach = {w for u in blocked for w in allowed[u]}
        return HallCertificate(
            event=i,
            states=blocked,
            source_mass=sum((space.probs[u] for u in blocked), Fraction(0)) / pe,
            reachable_mass=sum((space.probs[w] for w in reach), Fraction(0)),
        )

    rows: dict[int, tuple[tuple[int, Fraction], ...]] = {}
    for u in sources:
        mass = source_mass[u]
        row = []
        for eid in net.adj[source_id[u]]:
            v = net.to[eid]
            # flow on a forward edge equals the residual on its twin
            if v != 0 and eid % 2 == 0 and net.cap[eid ^ 1] > 0:
                w = targets[v - 2 - len(sources)]
                row.append((w, Fraction(net.cap[eid ^ 1], scale) / mass))
        row.sort()
        rows[u] = tuple(row)
    return SynthesizedOracle(event=i, rows=rows)


def check_lopsided_association(space: ExplicitSpace, i: int) -> bool:
    """Does an exact resampling oracle for event i exist?"""
    return isinstance(synthesize(space, i), SynthesizedOracle)


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

    States are plain integers.  Construction synthesizes every event's
    kernel up front and raises with the certificate when one does not
    exist.
    """

    kind = "explicit-space"

    def __init__(self, space: ExplicitSpace) -> None:
        self.space = space
        self.graph = space.graph
        self.kernels: list[SynthesizedOracle] = []
        for i in range(space.n_events):
            result = synthesize(space, i)
            if isinstance(result, HallCertificate):
                raise ValueError(
                    f"event {i} admits no resampling oracle: states {result.states} "
                    f"carry mass {result.source_mass} but reach only {result.reachable_mass}"
                )
            self.kernels.append(result)
        self._cum = list(accumulate(map(float, space.probs)))
        self._row_cum: dict[tuple[int, int], tuple[list[float], list[int]]] = {
            (i, u): (list(accumulate(float(f) for _, f in row)), [w for w, _ in row])
            for i, kernel in enumerate(self.kernels)
            for u, row in kernel.rows.items()
        }

    @property
    def n(self) -> int:
        return self.space.n_events

    def sample(self, rng) -> int:
        return min(bisect_right(self._cum, rng.random()), len(self._cum) - 1)

    def holds(self, i: int, state: int) -> bool:
        return state in self.space.events[i]

    def resample(self, i: int, state: int, rng) -> int:
        row = self._row_cum.get((i, state))
        if row is None:
            raise OracleEventError(f"event {i} does not hold in state {state}")
        cum, states = row
        return states[min(bisect_right(cum, rng.random()), len(cum) - 1)]

    def state_key(self, state: int) -> int:
        return state

    def validate_solution(self, state: int) -> bool:
        """Does no event hold in state?  Reads the event sets of the space,
        never ``holds`` or the kernels."""
        return not any(state in event for event in self.space.events)

    def solution_json(self, state: int) -> dict:
        return {"state": state}

    def exact_distribution(self) -> dict[int, float]:
        return {s: float(p) for s, p in enumerate(self.space.probs) if p > 0}
