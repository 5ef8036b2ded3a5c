"""Resampling oracles for the built-in probability spaces.

Each oracle family fixes a product-like measure, a class of events, and
a resampling procedure with two contract properties: resampling event i
from the conditioned measure restores the unconditioned measure, and
resampling event i never causes a non-neighbor event that was not
occurring to occur.  States use plain structures:

    variable assignment   VariableState (values plus per-variable laws)
    permutation of [n]    tuple pi, pi[x] is the image of x
    perfect matching      tuple partner, partner[v] is v's partner
    spanning tree of K_n  frozenset of (u, v) pairs with u < v

The streak bundle of the verify layer (AppendixABundle) keeps its fair
bits as bytes, one byte per bit.

Oracles raise OracleEventError when asked to resample an event that
does not hold; the engine never does this.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .graphs import DependencyGraph, KeyGraph
from .streams import below, seqsum, shuffle


class OracleEventError(ValueError):
    """Raised when a resampling oracle is applied to a non-occurring event."""


# ---------------------------------------------------------------------------
# variable spaces


@dataclass(frozen=True)
class VariableState:
    """Assignment to finitely many independent variables.

    dists holds one (values, weights) pair per variable; weights None
    means uniform.  The laws ride along with the state so resampling is
    self-contained.
    """

    values: tuple
    dists: tuple

    def key(self) -> tuple:
        return self.values


def _draw(dist, rng):
    values, weights = dist
    if weights is None:
        return values[below(len(values), rng)]
    total = seqsum(weights)
    r = rng.random() * total
    acc = 0.0
    for value, w in zip(values, weights):
        acc += w
        if r < acc:
            return value
    return values[-1]


def sample_variable_state(dists, rng) -> VariableState:
    return VariableState(tuple(_draw(d, rng) for d in dists), tuple(dists))


def variable_resample(state: VariableState, variables: Iterable[int], rng) -> VariableState:
    """Redraw the given variables from their own laws; others untouched."""
    values = list(state.values)
    for v in sorted(set(variables)):
        values[v] = _draw(state.dists[v], rng)
    return VariableState(tuple(values), state.dists)


@dataclass(frozen=True)
class VariableEvent:
    """Event depending on a fixed variable subset through a predicate."""

    variables: tuple[int, ...]
    predicate: Callable = field(compare=False)

    def holds(self, state: VariableState) -> bool:
        return bool(self.predicate(*(state.values[v] for v in self.variables)))


# ---------------------------------------------------------------------------
# permutations


@dataclass(frozen=True)
class PatternEvent:
    """Partial permutation pattern: pi(x) = y for each (x, y) pair."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        pairs = tuple(sorted((int(x), int(y)) for x, y in self.pairs))
        object.__setattr__(self, "pairs", pairs)
        xs = [x for x, _ in pairs]
        ys = [y for _, y in pairs]
        if len(set(xs)) != len(xs) or len(set(ys)) != len(ys):
            raise ValueError("pattern pairs must have distinct domains and ranges")

    @property
    def domain(self) -> frozenset[int]:
        return frozenset(x for x, _ in self.pairs)

    @property
    def range(self) -> frozenset[int]:
        return frozenset(y for _, y in self.pairs)

    def holds(self, pi: Sequence[int]) -> bool:
        return all(pi[x] == y for x, y in self.pairs)


def permutation_resample(pi: Sequence[int], event: PatternEvent, rng) -> tuple[int, ...]:
    """Resample a permutation conditioned on containing the pattern.

    Walks the pattern's domain positions x_1 < ... < x_t from last to
    first, swapping pi(x_i) with pi(z) for z uniform over all positions
    except x_1..x_{i-1}.  With the full domain as pattern this is
    exactly the textbook shuffle.
    """
    if not event.holds(pi):
        raise OracleEventError(f"pattern {event.pairs} does not hold")
    n = len(pi)
    xs = [x for x, _ in event.pairs]
    in_pattern = set(xs)
    rest = [v for v in range(n) if v not in in_pattern]
    out = list(pi)
    for idx in range(len(xs) - 1, -1, -1):
        pool = xs[idx:] + rest
        z = pool[below(len(pool), rng)]
        x = xs[idx]
        out[x], out[z] = out[z], out[x]
    return tuple(out)


# ---------------------------------------------------------------------------
# perfect matchings


def normalize_edge(e) -> tuple[int, int]:
    u, v = e
    if u == v:
        raise ValueError(f"degenerate edge ({u},{v})")
    return (u, v) if u < v else (v, u)


def matching_pairs(partner: Sequence[int]) -> list[tuple[int, int]]:
    """The edges of a partner array, normalized and sorted."""
    return sorted((v, partner[v]) for v in range(len(partner)) if v < partner[v])


def is_perfect_matching(partner: Sequence[int]) -> bool:
    n = len(partner)
    return n % 2 == 0 and all(
        0 <= partner[v] < n and partner[v] != v and partner[partner[v]] == v
        for v in range(n)
    )


def sample_perfect_matching(n: int, rng) -> tuple[int, ...]:
    """Uniform perfect matching of the complete graph on [n], n even."""
    if n % 2:
        raise ValueError("perfect matchings need an even vertex count")
    verts = list(range(n))
    shuffle(verts, rng)
    partner = [0] * n
    for k in range(0, n, 2):
        u, v = verts[k], verts[k + 1]
        partner[u] = v
        partner[v] = u
    return tuple(partner)


def matching_resample(partner: Sequence[int], event_edges: Iterable, rng) -> tuple[int, ...]:
    """Resample a perfect matching conditioned on containing given edges.

    Processes the event edges in lexicographic order.  For each edge
    (u, v), a uniformly random edge of the current matching outside the
    unprocessed event edges is picked and randomly oriented as (x, y);
    with probability 1 - 1/(2m+1), where m counts those outside edges,
    the two edges rewire to (u, y) and (v, x).  When no outside edge
    exists the edge is kept and no randomness is consumed.
    """
    edges = sorted({normalize_edge(e) for e in event_edges})
    for u, v in edges:
        if partner[u] != v:
            raise OracleEventError(f"edge ({u},{v}) not in the matching")
    par = list(partner)
    pending = set(edges)
    free = [e for e in matching_pairs(partner) if e not in pending]
    pos = {e: k for k, e in enumerate(free)}

    def free_add(e: tuple[int, int]) -> None:
        pos[e] = len(free)
        free.append(e)

    def free_remove(e: tuple[int, int]) -> None:
        k = pos.pop(e)
        last = free.pop()
        if k < len(free):
            free[k] = last
            pos[last] = k

    for u, v in edges:
        pending.discard((u, v))
        m = len(free)
        if m == 0:
            free_add((u, v))
            continue
        x, y = free[below(m, rng)]
        if rng.getrandbits(1):
            x, y = y, x
        if rng.random() < 1 - 1 / (2 * m + 1):
            free_remove(normalize_edge((x, y)))
            par[u], par[y] = y, u
            par[v], par[x] = x, v
            free_add(normalize_edge((u, y)))
            free_add(normalize_edge((v, x)))
        else:
            free_add((u, v))
    return tuple(par)


def enumerate_perfect_matchings(n: int) -> list[tuple[int, ...]]:
    """All perfect matchings of K_n as partner tuples (small n only)."""
    if n % 2:
        return []
    if n > 12:
        raise ValueError("matching enumeration refused beyond n=12")
    out: list[tuple[int, ...]] = []

    def build(unmatched: list[int], partner: list[int]) -> None:
        if not unmatched:
            out.append(tuple(partner))
            return
        u = unmatched[0]
        for k in range(1, len(unmatched)):
            v = unmatched[k]
            partner[u], partner[v] = v, u
            build(unmatched[1:k] + unmatched[k + 1:], partner)
        partner[u] = -1

    build(list(range(n)), [-1] * n)
    return out


# ---------------------------------------------------------------------------
# spanning trees of the complete graph


def is_spanning_tree(n: int, edges: Iterable[tuple[int, int]]) -> bool:
    es = list(edges)
    if len(es) != n - 1:
        return False
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in es:
        if not (0 <= u < n and 0 <= v < n):
            return False
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def _wilson(nw: int, sizes: Sequence[int], rng) -> list[int]:
    """Successor array of Wilson's loop-erased walks (STOC 1996) on K_nw
    plus one node nw + j per size s_j, joined to each of the nodes 0..nw-1
    by s_j parallel edges.  Rooted at node 0 and started from nodes 1, 2,
    ... in turn, it takes per step the one random() of a weighted walk
    over bisected cumulative weights, in closed form (README, "Random
    streams")."""
    random = rng.random
    top = nw - 1
    cum = list(itertools.accumulate(sizes, initial=top))
    total = cum[-1]
    n_nodes = nw + len(sizes)
    succ = [-1] * n_nodes
    in_tree = [False] * n_nodes
    in_tree[0] = True
    for start in range(1, n_nodes):
        u = start
        while not in_tree[u]:
            if u < nw:
                r = random() * total
                if r < top:
                    k = int(r)
                    v = k + (k >= u)
                else:
                    v = nw + bisect_right(cum, r, 1) - 1
            else:
                # int(r / s) is floor(r / s): below 2^53 the quotient of
                # a float r < j*s never rounds up to j.
                s = sizes[u - nw]
                v = int(random() * (nw * s) / s)
            succ[u] = v
            u = v
        u = start
        while not in_tree[u]:
            in_tree[u] = True
            u = succ[u]
    return succ


def sample_spanning_tree(n: int, rng) -> frozenset[tuple[int, int]]:
    """Uniform spanning tree of the complete graph on [n], by Wilson's
    algorithm on K_n (see ``_wilson``): one float per walk step."""
    if n < 1:
        raise ValueError("spanning trees need at least one vertex")
    succ = _wilson(n, (), rng)
    return frozenset((u, v) if u < v else (v, u) for u, v in enumerate(succ) if u)


def tree_resample(tree: frozenset, event_edges: Iterable, rng) -> frozenset:
    """Resample a uniform spanning tree of K_n conditioned on given edges.

    Freezes the part of the tree untouched by the event's vertex set W,
    contracts it, and redraws the rest:  the contracted graph has one
    node per W-vertex and one per frozen-forest component, with W-W
    edges simple and W-component edges carrying the component size as
    multiplicity (every other edge of K_n either was frozen or is
    banned from the redraw).  A uniform spanning tree of that multigraph
    (``_wilson``), with each component edge then landed on a uniform
    member vertex (``below``, in node order), extends the frozen forest
    back to a uniform conditioned tree.
    """
    n = len(tree) + 1
    edges = sorted({normalize_edge(e) for e in event_edges})
    for e in edges:
        if e not in tree:
            raise OracleEventError(f"edge {e} not in the tree")
    if not edges:
        return tree
    w_verts = sorted({v for e in edges for v in e})
    in_w = [False] * n
    for v in w_verts:
        in_w[v] = True
    forest = [(u, v) for u, v in tree if not (in_w[u] or in_w[v])]
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    for u, v in forest:
        parent[find(u)] = find(v)
    # Dicts keep insertion order, so components come by smallest member.
    groups: dict[int, list[int]] = {}
    for v in range(n):
        if not in_w[v]:
            groups.setdefault(find(v), []).append(v)
    components = list(groups.values())

    nw = len(w_verts)
    succ = _wilson(nw, [len(comp) for comp in components], rng)
    for v in range(1, len(succ)):
        a, b = (v, succ[v]) if v < succ[v] else (succ[v], v)
        if b < nw:
            forest.append((w_verts[a], w_verts[b]))
        else:
            comp = components[b - nw]
            forest.append(normalize_edge((w_verts[a], comp[below(len(comp), rng)])))
    return frozenset(forest)


def enumerate_spanning_trees(n: int) -> list[frozenset[tuple[int, int]]]:
    """All spanning trees of K_n (small n only)."""
    if n > 7:
        raise ValueError("tree enumeration refused beyond n=7")
    if n == 1:
        return [frozenset()]
    all_edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return [
        frozenset(combo)
        for combo in itertools.combinations(all_edges, n - 1)
        if is_spanning_tree(n, combo)
    ]


# ---------------------------------------------------------------------------
# single-space bundles


def _product_law(factors: Iterable[Iterable[tuple]]) -> dict:
    """Law of independent factors, each given as (value, probability) pairs:
    each tuple of values maps to 1.0 times its probabilities, left to right."""
    law: dict[tuple, float] = {}
    for combo in itertools.product(*factors):
        prob = 1.0
        for _, pr in combo:
            prob *= pr
        law[tuple(v for v, _ in combo)] = prob
    return law


class VariableBundle:
    """Independent variables with events on variable subsets.

    Two events are dependent exactly when their variable sets meet.
    """

    def __init__(self, dists: Sequence, events: Sequence[VariableEvent]) -> None:
        self.dists = tuple(
            (tuple(values), None if weights is None else tuple(weights))
            for values, weights in dists
        )
        self.events = list(events)
        self.graph = KeyGraph(len(self.events), [ev.variables for ev in self.events].__getitem__)

    @property
    def n(self) -> int:
        return len(self.events)

    def sample(self, rng) -> VariableState:
        return sample_variable_state(self.dists, rng)

    def holds(self, i: int, state: VariableState) -> bool:
        return self.events[i].holds(state)

    def resample(self, i: int, state: VariableState, rng) -> VariableState:
        if not self.events[i].holds(state):
            raise OracleEventError(f"event {i} does not hold")
        return variable_resample(state, self.events[i].variables, rng)

    def state_key(self, state: VariableState):
        return state.values

    def exact_distribution(self) -> dict:
        supports = []
        for values, weights in self.dists:
            if weights is None:
                supports.append([(v, 1 / len(values)) for v in values])
            else:
                total = seqsum(weights)
                supports.append([(v, w / total) for v, w in zip(values, weights)])
        return _product_law(supports)


class PermutationBundle:
    """Uniform permutation of [n] with pattern events.

    Events interfere when their patterns share a domain or a range
    value.
    """

    def __init__(self, n: int, events: Sequence[PatternEvent]) -> None:
        self.size = n
        self.events = list(events)
        for ev in self.events:
            if any(not (0 <= x < n and 0 <= y < n) for x, y in ev.pairs):
                raise ValueError(f"pattern {ev.pairs} does not fit a permutation of [{n}]")
        keys = [tuple(k for x, y in ev.pairs for k in (("x", x), ("y", y)))
                for ev in self.events]
        self.graph = KeyGraph(len(self.events), keys.__getitem__)

    @property
    def n(self) -> int:
        return len(self.events)

    def sample(self, rng) -> tuple[int, ...]:
        pi = list(range(self.size))
        shuffle(pi, rng)
        return tuple(pi)

    def holds(self, i: int, state) -> bool:
        return self.events[i].holds(state)

    def resample(self, i: int, state, rng):
        return permutation_resample(state, self.events[i], rng)

    def state_key(self, state):
        return state

    def exact_distribution(self) -> dict:
        if self.size > 8:
            raise ValueError("permutation enumeration refused beyond n=8")
        perms = list(itertools.permutations(range(self.size)))
        pr = 1 / len(perms)
        return {p: pr for p in perms}


def _edge_events(n: int, events: Sequence[Iterable]) -> list[tuple[tuple[int, int], ...]]:
    """Normalized edge-set events; ValueError when an edge leaves K_n."""
    out = [tuple(sorted({normalize_edge(e) for e in ev})) for ev in events]
    for ev in out:
        for u, v in ev:
            if u < 0 or v >= n:
                raise ValueError(f"event edge ({u},{v}) is not an edge of K_{n}")
    return out


class MatchingBundle:
    """Uniform perfect matching of K_n (n even) with edge-set events.

    Events A and B interfere unless the union of their edge sets is
    itself a matching.
    """

    def __init__(self, n: int, events: Sequence[Iterable]) -> None:
        if n % 2:
            raise ValueError("perfect matchings need an even vertex count")
        self.size = n
        self.events = _edge_events(n, events)
        # Events sharing an edge need not interfere, which meeting keys
        # cannot say, so the exact relation is stored.  The union of two
        # matchings fails to be one exactly when some vertex carries a
        # different edge in each, so only events sharing a vertex are
        # compared; an event that is no matching itself meets every other.
        g = DependencyGraph(len(self.events))
        at_vertex: dict[int, list[tuple[tuple[int, int], int]]] = {}
        for i, ev in enumerate(self.events):
            if len({v for e in ev for v in e}) < 2 * len(ev):
                for j in range(len(self.events)):
                    if j != i:
                        g.add_edge(i, j)
                continue
            for e in ev:
                for v in e:
                    at_vertex.setdefault(v, []).append((e, i))
        for bucket in at_vertex.values():
            for a, (e, i) in enumerate(bucket):
                for f, j in bucket[a + 1:]:
                    if e != f:
                        g.add_edge(i, j)
        self.graph = g

    @property
    def n(self) -> int:
        return len(self.events)

    def sample(self, rng) -> tuple[int, ...]:
        return sample_perfect_matching(self.size, rng)

    def holds(self, i: int, state) -> bool:
        return all(state[u] == v for u, v in self.events[i])

    def resample(self, i: int, state, rng):
        return matching_resample(state, self.events[i], rng)

    def valid_state(self, state) -> bool:
        return len(state) == self.size and is_perfect_matching(state)

    def state_key(self, state):
        return state

    def exact_distribution(self) -> dict:
        matchings = enumerate_perfect_matchings(self.size)
        pr = 1 / len(matchings)
        return {m: pr for m in matchings}


class TreeBundle:
    """Uniform spanning tree of K_n with edge-set events.

    Events interfere unless their edge sets are vertex-disjoint.
    """

    def __init__(self, n: int, events: Sequence[Iterable]) -> None:
        self.size = n
        self.events = _edge_events(n, events)
        verts = [tuple({v for e in ev for v in e}) for ev in self.events]
        self.graph = KeyGraph(len(self.events), verts.__getitem__)

    @property
    def n(self) -> int:
        return len(self.events)

    def sample(self, rng) -> frozenset:
        return sample_spanning_tree(self.size, rng)

    def holds(self, i: int, state) -> bool:
        return all(e in state for e in self.events[i])

    def resample(self, i: int, state, rng):
        return tree_resample(state, self.events[i], rng)

    def valid_state(self, state) -> bool:
        return is_spanning_tree(self.size, state)

    def state_key(self, state):
        return tuple(sorted(state))

    def exact_distribution(self) -> dict:
        trees = enumerate_spanning_trees(self.size)
        pr = 1 / len(trees)
        return {tuple(sorted(t)): pr for t in trees}


# ---------------------------------------------------------------------------
# product composition


class ProductBundle:
    """Independent product of bundles with joint events.

    A joint event is a set of (space, event) pairs, at most one per
    space; it occurs when every constituent occurs, and is resampled by
    applying each constituent oracle in space order.  Two joint events
    interfere when some space carries interfering constituents.
    """

    def __init__(self, spaces: Sequence, joint_events: Sequence[Iterable]) -> None:
        self.spaces = list(spaces)
        normalized = []
        for ev in joint_events:
            parts = tuple(sorted((int(s), int(e)) for s, e in ev))
            if len({s for s, _ in parts}) != len(parts):
                raise ValueError("joint event uses a space more than once")
            if not parts:
                raise ValueError("joint event must involve at least one space")
            normalized.append(parts)
        self.events = normalized
        # Sharing an identical constituent is not interference: a
        # constituent of the other event that currently fails cannot be
        # flipped on by resampling a non-neighbor on its space.  Keys
        # cannot say that, so the relation is stored, once, pair by pair.
        parts = [dict(ev) for ev in normalized]
        self.graph = DependencyGraph(len(normalized), [
            (i, j) for i in range(len(parts)) for j in range(i + 1, len(parts))
            if any(s in parts[j] and self.spaces[s].graph.adjacent(e, parts[j][s])
                   for s, e in parts[i].items())
        ])

    @property
    def n(self) -> int:
        return len(self.events)

    def sample(self, rng) -> tuple:
        return tuple(space.sample(rng) for space in self.spaces)

    def holds(self, i: int, state) -> bool:
        return all(self.spaces[s].holds(e, state[s]) for s, e in self.events[i])

    def resample(self, i: int, state, rng) -> tuple:
        if not self.holds(i, state):
            raise OracleEventError(f"joint event {i} does not hold")
        parts = list(state)
        for s, e in self.events[i]:
            parts[s] = self.spaces[s].resample(e, parts[s], rng)
        return tuple(parts)

    def state_key(self, state) -> tuple:
        return tuple(
            space.state_key(part) if hasattr(space, "state_key") else part
            for space, part in zip(self.spaces, state)
        )

    def exact_distribution(self) -> dict:
        dists = [space.exact_distribution() for space in self.spaces]
        total = 1
        for d in dists:
            total *= len(d)
        if total > 2_000_000:
            raise ValueError("product support too large to enumerate")
        return _product_law(d.items() for d in dists)
