"""Resampling oracles for the built-in probability spaces.

Each oracle family fixes a product-like measure, a class of events, and
a resampling procedure with two contract properties: resampling event i
from the conditioned measure restores the unconditioned measure, and
resampling event i never causes a non-neighbor event that was not
occurring to occur.  States are plain hashable structures, each itself
a key of its bundle's exact_distribution():

    variable assignment   tuple values, values[v] is variable v's value
    permutation of [n]    tuple pi, pi[x] is the image of x
    perfect matching      tuple partner, partner[v] is v's partner
    spanning tree of K_n  TreeState, as sampled or redrawn: a frozenset of
                          (u, v) pairs with u < v, equal to the plain
                          frozenset that keys the exact law

The streak bundle of the verify layer (AppendixABundle) keeps its fair
bits as bytes, one byte per bit.

The last three are the structure families Permutations(n),
PerfectMatchings(n) and SpanningTrees(n) (see ``_Family``), through which
the single-space bundles here and the application bundles of ``apps``
draw, test and redraw their structures.

Oracles raise OracleEventError when asked to resample an event that
does not hold; the engine never does this.
"""

from __future__ import annotations

import itertools
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Collection, Iterable, Sequence

import numpy as np

from .graphs import DependencyGraph, KeyGraph
from .streams import below, seqsum, shuffle


class OracleEventError(ValueError):
    """Raised when a resampling oracle is applied to a non-occurring event."""


# ---------------------------------------------------------------------------
# variable spaces


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


@dataclass(frozen=True)
class VariableEvent:
    """Event depending on a fixed variable subset through a predicate."""

    variables: tuple[int, ...]
    predicate: Callable = field(compare=False)

    def holds(self, values: Sequence) -> bool:
        return bool(self.predicate(*[values[v] for v in self.variables]))


# ---------------------------------------------------------------------------
# structure families


def _pairs_hold(structure: Sequence[int], pairs: Iterable[tuple[int, int]]) -> bool:
    """structure[u] == v for every (u, v), a permutation's cell or a matching's edge."""
    for u, v in pairs:
        if structure[u] != v:
            return False
    return True


def _uniform(states: Iterable) -> dict:
    """Each of the states with probability 1 / their number."""
    states = list(states)
    pr = 1 / len(states)
    return {s: pr for s in states}


class _Family:
    """A structure family: ``sample(rng)`` draws a structure s, ``holds(s,
    items)`` tests that s contains every item (a cell or an edge of K_n) and
    ``redraw(s, items, rng)`` resamples s conditioned on that.  The
    ``n_items`` items rank in sorted order: ``rank(item)``, ``item(rank)``
    and ``ranks(s)`` of those in s.  ``vertices(item)`` are what an item
    touches; ``vertex_arrays()`` lists them by rank."""

    #: Two items on a shared vertex never sit in one structure together.
    exclusive = True
    holds = staticmethod(_pairs_hold)


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


def permutation_resample(pi: Sequence[int], pairs: Sequence[tuple[int, int]],
                         rng) -> tuple[int, ...]:
    """Resample a permutation conditioned on containing the pattern.

    pairs are a pattern's (x, y) pairs as ``PatternEvent`` keeps them:
    sorted, with distinct domains and ranges.  Walks the pattern's domain
    positions x_1 < ... < x_t from last to first, swapping pi(x_i) with
    pi(z) for z uniform over all positions except x_1..x_{i-1}.  With the
    full domain as pattern this is exactly the textbook shuffle.  z is
    drawn as an index into the pool x_i..x_t followed by the positions
    outside the pattern in ascending order, and a pool index past x_t is
    mapped to its position by stepping over the pattern positions below
    it.
    """
    if not _pairs_hold(pi, pairs):
        raise OracleEventError(f"pattern {pairs} does not hold")
    out = list(pi)
    n = len(out)
    xs = [x for x, _ in pairs]
    t = len(xs)
    for idx in range(t - 1, -1, -1):
        k = idx + below(n - idx, rng)
        if k < t:
            z = xs[k]
        else:
            z = k - t  # rank among the positions outside the pattern
            for x in xs:
                if x > z:
                    break
                z += 1
        x = xs[idx]
        out[x], out[z] = out[z], out[x]
    return tuple(out)


class Permutations(_Family):
    """Uniform permutations of [n].  The item (x, y) is the cell pi[x] == y
    of rank x*n + y; it touches row x and column n + y."""

    redraw = staticmethod(permutation_resample)

    def __init__(self, n: int) -> None:
        self.n = n
        self.n_items = n * n

    def sample(self, rng) -> tuple[int, ...]:
        pi = list(range(self.n))
        shuffle(pi, rng)
        return tuple(pi)

    def vertices(self, cell) -> tuple[int, int]:
        return cell[0], self.n + cell[1]

    def vertex_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.vertices(divmod(np.arange(self.n_items), self.n))

    def rank(self, cell) -> int:
        return cell[0] * self.n + cell[1]

    def item(self, rank: int) -> tuple[int, int]:
        return divmod(rank, self.n)

    def ranks(self, pi) -> np.ndarray:
        return np.arange(0, self.n_items, self.n) + pi

    def valid(self, pi) -> bool:
        return len(pi) == self.n and sorted(pi) == list(range(self.n))

    def exact_distribution(self) -> dict:
        if self.n > 8:
            raise ValueError("permutation enumeration refused beyond n=8")
        return _uniform(itertools.permutations(range(self.n)))


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
    if n % 2:
        return False
    for v, w in enumerate(partner):
        if not (0 <= w < n and w != v and partner[w] == v):
            return False
    return True


def matching_resample(partner: Sequence[int], event_edges: Iterable, rng) -> tuple[int, ...]:
    """Resample a perfect matching conditioned on containing given edges.

    Processes the event edges in lexicographic order.  For each edge
    (u, v), a uniformly random edge of the current matching outside the
    unprocessed event edges is picked and randomly oriented as (x, y);
    with probability 1 - 1/(2m+1), where m counts those outside edges,
    the two edges rewire to (u, y) and (v, x).  When no outside edge
    exists the edge is kept and no randomness is consumed.

    The outside edges are a list, at first in ascending order; a rewired
    edge leaves its slot to the list's last edge, and every edge joins
    at the end.
    """
    edges = sorted({normalize_edge(e) for e in event_edges})
    for u, v in edges:
        if partner[u] != v:
            raise OracleEventError(f"edge ({u},{v}) not in the matching")
    # each vertex is on one matching edge, so the event edges are the
    # matching edges whose lower end is the lower end of an event edge
    lows = {u for u, _ in edges}
    free = [(u, v) for u, v in enumerate(partner) if u < v and u not in lows]
    par = list(partner)
    getrandbits, random = rng.getrandbits, rng.random
    for u, v in edges:
        m = len(free)
        if m == 0:
            free.append((u, v))
            continue
        k = below(m, rng)
        x, y = free[k]
        if getrandbits(1):
            x, y = y, x
        if random() < 1 - 1 / (2 * m + 1):
            last = free.pop()
            if k < m - 1:
                free[k] = last
            par[u], par[y] = y, u
            par[v], par[x] = x, v
            free.append((u, y) if u < y else (y, u))
            free.append((v, x) if v < x else (x, v))
        else:
            free.append((u, v))
    return tuple(par)


def _int32_array(values: np.ndarray) -> array:
    """values as an array('i'), whose elements read back as Python ints,
    filled in place, so no second copy is made."""
    out = array("i", [0]) * len(values)
    np.frombuffer(out, dtype=np.int32)[:] = values
    return out


class _EdgeItems(_Family):
    """Items that are the edges (u, v), u < v, of K_n, ranked in sorted
    order; an edge touches its two ends."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.n_items = n * (n - 1) // 2
        # rank(u, v) = _offset[u] + v, for ``ranks``
        self._offset = [self.rank((u, 0)) for u in range(n)]

    @cached_property
    def _ends(self) -> tuple[array, array]:
        """The two ends of every edge, by rank, made on first use and kept."""
        return tuple(_int32_array(side) for side in np.triu_indices(self.n, 1))

    def vertices(self, edge) -> tuple[int, int]:
        return edge

    def vertex_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only int32 views of the ends that ``item`` reads."""
        views = tuple(np.frombuffer(side, dtype=np.int32) for side in self._ends)
        for view in views:
            view.flags.writeable = False
        return views

    def rank(self, edge):
        """The rank of (u, v); also elementwise, for arrays u and v."""
        u, v = edge
        return u * (2 * self.n - u - 1) // 2 + v - u - 1

    def item(self, rank: int) -> tuple[int, int]:
        low, high = self._ends
        return low[rank], high[rank]


class PerfectMatchings(_EdgeItems):
    """Uniform perfect matchings of K_n, n even, as partner tuples; the
    edge (u, v) is in the matching when partner[u] == v."""

    redraw = staticmethod(matching_resample)

    def __init__(self, n: int) -> None:
        if n % 2:
            raise ValueError("perfect matchings need an even vertex count")
        super().__init__(n)
        self._vertex_order = Permutations(n)

    def sample(self, rng) -> tuple[int, ...]:
        """Matches the entries 2k and 2k + 1 of a uniform vertex order."""
        partner = [0] * self.n
        pairs = iter(self._vertex_order.sample(rng))
        for u, v in zip(pairs, pairs):
            partner[u] = v
            partner[v] = u
        return tuple(partner)

    def ranks(self, partner) -> list[int]:
        offset = self._offset
        return [offset[u] + v for u, v in enumerate(partner) if u < v]

    def valid(self, partner) -> bool:
        return len(partner) == self.n and is_perfect_matching(partner)

    def exact_distribution(self) -> dict:
        if self.n > 12:
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

        build(list(range(self.n)), [-1] * self.n)
        return _uniform(out)


# ---------------------------------------------------------------------------
# spanning trees of the complete graph


def is_spanning_tree(n: int, edges: Collection[tuple[int, int]]) -> bool:
    """Do the edges (u, v), each with 0 <= u < v < n, span a tree of K_n?"""
    if len(edges) != n - 1:
        return False
    # union-find with path halving: an edge within one component closes a cycle
    parent = list(range(n))
    for u, v in edges:
        if not 0 <= u < v < n:
            return False
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u == v:
            return False
        parent[u] = v
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
                    v = int(r)
                    if v >= u:
                        v += 1
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


class TreeState(frozenset):
    """A spanning tree of K_n: the frozenset of its edges (u, v), u < v,
    which is all that ``holds``, ``ranks``, ``valid`` and the solution
    checks read, plus what a redraw reads around its event.  ``parent[v]``
    is v's neighbour toward vertex 0 (``parent[0]`` is 0) and ``adj[v]``
    lists v's neighbours: None in a sampled tree, whose first redraw makes
    it from the parent array.  Trees of one chain of redraws share these
    lists, so none is changed in place: a redraw copies both and replaces
    only the entries it touches."""

    __slots__ = ("parent", "adj")


def _kept(tree: TreeState) -> tuple[list[int], list[list[int]], bool]:
    """(parent, adjacency, shared) of a tree that ``SpanningTrees.sample``
    or a redraw made, its adjacency made from the parent array when it has
    none yet; TypeError for any other value.  shared says whether the
    adjacency is kept by the tree: a new one is the caller's to change."""
    if type(tree) is not TreeState:
        raise TypeError(f"a tree to redraw is a TreeState, not {type(tree).__name__}")
    parent, adj = tree.parent, tree.adj
    if adj is not None:
        return parent, adj, True
    adj = [[p] for p in parent]
    adj[0] = []
    for v in range(1, len(parent)):
        adj[parent[v]].append(v)
    return parent, adj, False


def tree_resample(tree: TreeState, event_edges: Iterable, rng) -> TreeState:
    """Resample a uniform spanning tree of K_n conditioned on given edges.

    Freezes the part of the tree untouched by the event's vertex set W,
    contracts it, and redraws the rest:  the contracted graph has one
    node per W-vertex and one per frozen-forest component, with W-W
    edges simple and W-component edges carrying the component size as
    multiplicity (every other edge of K_n either was frozen or is
    banned from the redraw).  A uniform spanning tree of that multigraph
    (``_wilson``), with each component edge then landed on a uniform
    member vertex (``below``, in node order), extends the frozen forest
    back to a uniform conditioned tree.  Components are nodes in the
    order of their smallest members, and a landing is the member of
    that rank in sorted order.

    The Python work stays close to W (``TreeState``).  Rooted at vertex 0,
    every component but the one holding vertex 0 hangs below W and is
    found by a search down from its top, a child of a W-vertex.  Vertex
    0's component, when 0 is not in W, is all the other vertices: its
    size comes by subtraction and its k-th member is the k-th vertex
    outside the rest.  The new parent array points the contracted tree
    at vertex 0 and re-roots each hanging component at the landing of
    its edge toward it; the new adjacency and edge set change only at W
    and at the vertices joined to W before or after.
    """
    edges = set()
    in_w = set()
    for u, v in event_edges:
        edges.add((u, v) if u < v else (v, u))
        in_w.add(u)
        in_w.add(v)
    # a degenerate edge is in no tree, so it is missing too
    if not edges <= tree:
        raise OracleEventError(f"edge {min(edges.difference(tree))} not in the tree")
    if not edges:
        return tree
    parent, adj, shared = _kept(tree)
    w_verts = sorted(in_w)
    # One pass over the edges at W: they leave the edge set, the rows of
    # their other ends lose W, and each child of W outside W tops a
    # hanging component.  A shared row is copied before its first change.
    kept = set(tree)
    new_adj = adj.copy() if shared else adj
    components = []
    for w in w_verts:
        for x in adj[w]:
            if x in in_w:
                if w < x:
                    kept.discard((w, x))
                continue
            kept.discard((w, x) if w < x else (x, w))
            row = new_adj[x]
            if shared and row is adj[x]:
                new_adj[x] = row = row.copy()
            row.remove(w)
            if parent[x] == w:
                comp = [x]
                for y in comp:
                    up = parent[y]
                    for z in adj[y]:
                        if z != up and z not in in_w:
                            comp.append(z)
                comp.sort()
                components.append(comp)
        # W rows are read only in this pass, each in its own turn
        new_adj[w] = []
    components.sort()
    sizes = list(map(len, components))
    nw = len(w_verts)
    root = 0  # vertex 0's node, which the new parent array points at
    if w_verts[0]:
        others = sorted(itertools.chain(w_verts, *components))
        sizes.insert(0, len(parent) - len(others))
        components.insert(0, None)
        root = nw
    succ = _wilson(nw, sizes, rng)
    # the contracted tree pointed at root: Wilson's, rooted at node 0,
    # with the path from root to node 0 reversed
    up = succ
    if root:
        up = succ.copy()
        prev, v = -1, root
        while v >= 0:
            up[v], prev, v = prev, v, succ[v]
    new_parent = parent.copy()
    for v in range(1, len(succ)):
        b = succ[v]
        if v < b:
            a = v
        else:
            a, b = b, v
        w = w_verts[a]
        if b < nw:
            x = w_verts[b]
        else:
            j = b - nw
            k = below(sizes[j], rng)
            comp = components[j]
            if comp is None:
                x = k
                for y in others:
                    if y > x:
                        break
                    x += 1
            else:
                x = comp[k]
        kept.add((w, x) if w < x else (x, w))
        new_adj[w].append(x)
        row = new_adj[x]
        if shared and row is adj[x]:
            new_adj[x] = row = row.copy()
        row.append(w)
        if up[a] == b:
            new_parent[w] = x
        elif b < nw:
            new_parent[x] = w
        else:
            # the component hangs from w at x: reverse the path from x up
            # to its top, the member whose parent was in W
            p = w
            while True:
                y = parent[x]
                new_parent[x] = p
                if y in in_w:
                    break
                p, x = x, y
    out = TreeState(kept)
    out.parent, out.adj = new_parent, new_adj
    return out


class SpanningTrees(_EdgeItems):
    """Uniform spanning trees of K_n as ``TreeState`` edge sets; edges on a
    shared vertex may sit in one tree together.  A state is a tree that
    ``sample`` or a redraw made: a redraw reads its parent array and
    adjacency, and refuses a plain frozenset of edges with TypeError.
    The exact law is keyed by plain frozensets, which a TreeState equals
    and hashes as."""

    exclusive = False
    redraw = staticmethod(tree_resample)

    def sample(self, rng) -> TreeState:
        """Wilson's algorithm on K_n: ``_wilson`` without component nodes,
        one float per walk step.  A step from u takes k = int(random() *
        (n - 1)) and goes to k + (k >= u); each loop-erased path adds its
        edges as it joins the tree, and the successors rooted at vertex 0
        are the tree's parent array."""
        n = self.n
        if n < 1:
            raise ValueError("spanning trees need at least one vertex")
        random = rng.random
        top = n - 1
        succ = [0] * n
        in_tree = [False] * n
        in_tree[0] = True
        edges = []
        for start in range(1, n):
            u = start
            while not in_tree[u]:
                v = int(random() * top)
                if v >= u:
                    v += 1
                succ[u] = v
                u = v
            u = start
            while not in_tree[u]:
                in_tree[u] = True
                v = succ[u]
                edges.append((u, v) if u < v else (v, u))
                u = v
        tree = TreeState(edges)
        tree.parent, tree.adj = succ, None
        return tree

    @staticmethod
    def holds(tree, edges) -> bool:
        for e in edges:
            if e not in tree:
                return False
        return True

    def ranks(self, tree) -> list[int]:
        offset = self._offset
        return [offset[u] + v for u, v in tree]

    def valid(self, tree) -> bool:
        """A spanning tree of edges (u, v) with u < v, which ``ranks`` reads."""
        return is_spanning_tree(self.n, tree)

    def exact_distribution(self) -> dict:
        """Keyed by edge frozensets, which a TreeState equals and hashes as."""
        if self.n > 7:
            raise ValueError("tree enumeration refused beyond n=7")
        edges = list(itertools.combinations(range(self.n), 2))
        return _uniform(frozenset(combo) for combo in itertools.combinations(edges, self.n - 1)
                        if is_spanning_tree(self.n, combo))


# ---------------------------------------------------------------------------
# single-space bundles


#: Most joint values VariableBundle.exact_distribution enumerates (the
#: product of the variables' support sizes).
PRODUCT_LAW_CAP = 2_000_000


class VariableBundle:
    """Independent variables with events on variable subsets.

    A state is the tuple of the variables' values; dists holds one
    (values, weights) pair per variable, weights None meaning uniform.
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

    def sample(self, rng) -> tuple:
        return tuple([_draw(d, rng) for d in self.dists])

    def holds(self, i: int, state) -> bool:
        return self.events[i].holds(state)

    def resample(self, i: int, state, rng) -> tuple:
        """Redraw the event's variables from their own laws in increasing
        order; the others are untouched."""
        event = self.events[i]
        if not event.holds(state):
            raise OracleEventError(f"event {i} does not hold")
        values = list(state)
        for v in sorted(set(event.variables)):
            values[v] = _draw(self.dists[v], rng)
        return tuple(values)

    def exact_distribution(self) -> dict:
        """Each tuple of values maps to 1.0 times its probabilities, left to
        right.  Refused before enumerating beyond PRODUCT_LAW_CAP joint values."""
        if math.prod(len(values) for values, _ in self.dists) > PRODUCT_LAW_CAP:
            raise ValueError("product support too large to enumerate "
                             f"(PRODUCT_LAW_CAP={PRODUCT_LAW_CAP})")
        supports = []
        for values, weights in self.dists:
            if weights is None:
                supports.append([(v, 1 / len(values)) for v in values])
            else:
                total = seqsum(weights)
                supports.append([(v, w / total) for v, w in zip(values, weights)])
        law: dict[tuple, float] = {}
        for combo in itertools.product(*supports):
            prob = 1.0
            for _, pr in combo:
                prob *= pr
            law[tuple(v for v, _ in combo)] = prob
        return law


class _StructureBundle:
    """Events on a structure family: event i holds when the structure has
    every item of ``_items[i]``.  A subclass keeps its event format and graph."""

    def __init__(self, family, events: list, items: list) -> None:
        self.family = family
        self.events = events
        self._items = items
        self._holds, self._redraw = family.holds, family.redraw
        self.sample, self.valid_state = family.sample, family.valid
        self.exact_distribution = family.exact_distribution

    @property
    def n(self) -> int:
        return len(self.events)

    def holds(self, i: int, state) -> bool:
        return self._holds(state, self._items[i])

    def resample(self, i: int, state, rng):
        return self._redraw(state, self._items[i], rng)

    def _vertex_keys(self) -> KeyGraph:
        """Events interfere when the vertices of their items meet."""
        vertices = self.family.vertices
        keys = [tuple({v for item in items for v in vertices(item)}) for items in self._items]
        return KeyGraph(len(keys), keys.__getitem__)


class PermutationBundle(_StructureBundle):
    """Uniform permutation of [n] with pattern events.

    Events interfere when their patterns share a domain or a range
    value.
    """

    def __init__(self, n: int, events: Sequence[PatternEvent]) -> None:
        events = list(events)
        for ev in events:
            if any(not (0 <= x < n and 0 <= y < n) for x, y in ev.pairs):
                raise ValueError(f"pattern {ev.pairs} does not fit a permutation of [{n}]")
        super().__init__(Permutations(n), events, [ev.pairs for ev in events])
        self.graph = self._vertex_keys()


def _edge_events(n: int, events: Sequence[Iterable]) -> list[tuple[tuple[int, int], ...]]:
    """Normalized edge-set events; ValueError when an edge leaves K_n."""
    out = [tuple(sorted({normalize_edge(e) for e in ev})) for ev in events]
    for ev in out:
        for u, v in ev:
            if u < 0 or v >= n:
                raise ValueError(f"event edge ({u},{v}) is not an edge of K_{n}")
    return out


class MatchingBundle(_StructureBundle):
    """Uniform perfect matching of K_n (n even) with edge-set events.

    Events A and B interfere unless the union of their edge sets is
    itself a matching.
    """

    def __init__(self, n: int, events: Sequence[Iterable]) -> None:
        family = PerfectMatchings(n)
        events = _edge_events(n, events)
        super().__init__(family, events, events)
        # Events sharing an edge need not interfere, which vertex keys
        # cannot say, so the exact relation is stored, with edge ids as
        # its keys.  The union of two matchings fails to be one exactly
        # when some vertex carries a different edge in each, so only
        # events sharing a vertex are compared; an event that is no
        # matching itself meets every other.
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


class TreeBundle(_StructureBundle):
    """Uniform spanning tree of K_n with edge-set events.

    Events interfere unless their edge sets are vertex-disjoint.
    """

    def __init__(self, n: int, events: Sequence[Iterable]) -> None:
        events = _edge_events(n, events)
        super().__init__(SpanningTrees(n), events, events)
        self.graph = self._vertex_keys()

