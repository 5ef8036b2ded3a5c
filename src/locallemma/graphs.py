"""Dependency graphs, independent sets, and stable set sequences.

Events are indexed 0..n-1.  A dependency graph gives each event a few
hashable conflict keys; two distinct events are adjacent exactly when
their keys meet.  The engine blocks on keys, and the independence test
and the stable-set-sequence check read them too, one pass per set.
``KeyGraph`` reads keys off a function and stores nothing per pair, for
application instances whose edge sets are far too large to materialize;
``DependencyGraph`` is a ``KeyGraph`` that stores edges, its keys being
the ids of an event's edges, and lists neighbors in O(degree).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable

#: Most events of any exhaustive enumeration over subsets: the 2^n-entry
#: polynomial table (256 MiB of float64 at 25 events), the list of all
#: independent sets, and the independent subsets of a partition function.
ENUMERATION_CAP = 25


class KeyGraph:
    """Dependency graph read off per-event conflict keys.

    keys(i) returns a small collection of hashable keys; two distinct
    events are adjacent exactly when their keys meet.  Nothing is stored
    per pair, and the engine blocks on keys without asking adjacent.
    """

    __slots__ = ("n", "keys")

    def __init__(self, n: int, keys: Callable[[int], Iterable[Hashable]]) -> None:
        self.n = n
        self.keys = keys

    def adjacent(self, i: int, j: int) -> bool:
        return i != j and not set(self.keys(i)).isdisjoint(self.keys(j))

    def neighbors(self, i: int) -> frozenset[int]:
        # Linear scan; acceptable only at verification scale.
        return frozenset(j for j in range(self.n) if self.adjacent(i, j))

    def closed_neighborhood(self, subset: Iterable[int]) -> frozenset[int]:
        """Gamma^+ of a set: the set itself plus every neighbor."""
        out: set[int] = set()
        for i in subset:
            out.add(i)
            out.update(self.neighbors(i))
        return frozenset(out)

    def _key_union(self, subset: Iterable[int]) -> set | None:
        """The keys of a set's members together, or None when two members
        are equal or adjacent: one pass, and no pair is tested."""
        seen, taken = set(), set()
        for i in subset:
            keys = self.keys(i)
            if i in seen or not taken.isdisjoint(keys):
                return None
            seen.add(i)
            taken.update(keys)
        return taken

    def is_independent(self, subset: Iterable[int]) -> bool:
        return self._key_union(subset) is not None

    def adjacency_masks(self) -> list[int]:
        """Per-vertex neighbor bitmasks (vertex itself excluded)."""
        return [sum(1 << j for j in self.neighbors(i)) for i in range(self.n)]


class DependencyGraph(KeyGraph):
    """Undirected simple graph on event indices 0..n-1, stored as keys.

    keys(i) is the stored set of ids (min, max) of the edges at i, so two
    distinct events are adjacent exactly when an edge joins them.
    """

    __slots__ = ()

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        super().__init__(n, [set() for _ in range(n)].__getitem__)
        for u, v in edges:
            self.add_edge(u, v)

    def add_edge(self, u: int, v: int) -> None:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
        if u == v:
            raise ValueError(f"self-loop at {u} not allowed")
        key = (u, v) if u < v else (v, u)
        self.keys(u).add(key)
        self.keys(v).add(key)

    def neighbors(self, i: int) -> frozenset[int]:
        # the other end of edge (u, v) at i is u + v - i
        return frozenset(u + v - i for u, v in self.keys(i))

    def edges(self) -> list[tuple[int, int]]:
        return sorted({key for u in range(self.n) for key in self.keys(u)})

    def to_json(self) -> dict:
        return {"n": self.n, "edges": [[u, v] for u, v in self.edges()]}

    @classmethod
    def from_json(cls, obj: dict) -> "DependencyGraph":
        return cls(int(obj["n"]), [(int(u), int(v)) for u, v in obj.get("edges", [])])

    def __repr__(self) -> str:
        return f"DependencyGraph(n={self.n}, edges={self.edges()!r})"


def non_neighbors(graph: KeyGraph, i: int) -> list[int]:
    """The events other than i that are not adjacent to it, ascending."""
    mine, keys = set(graph.keys(i)), graph.keys
    return [j for j in range(graph.n) if j != i and mine.isdisjoint(keys(j))]


def independent_subset_masks(adj_masks: list[int], mask: int) -> list[int]:
    """Independent subsets (as masks) of the vertex set given by mask, with
    adj_masks the neighbor bitmasks, depth first: each set, then its
    extensions by one higher member, in increasing order."""
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


def independent_set_masks(graph: DependencyGraph) -> list[int]:
    """All independent sets as bitmasks, ascending by mask value.

    Refuses graphs with more than ENUMERATION_CAP vertices; the output is
    exponential in n.
    """
    n = graph.n
    if n > ENUMERATION_CAP:
        raise ValueError(f"independent-set enumeration refused for n={n} > "
                         f"ENUMERATION_CAP={ENUMERATION_CAP}")
    return sorted(independent_subset_masks(graph.adjacency_masks(), (1 << n) - 1))


def enumerate_independent_sets(graph: DependencyGraph) -> list[frozenset[int]]:
    """All independent sets (including the empty set) in deterministic order.

    Order is ascending bitmask value, i.e. sets containing only low
    indices come first.
    """
    return [
        frozenset(i for i in range(graph.n) if mask >> i & 1)
        for mask in independent_set_masks(graph)
    ]


@dataclass(frozen=True)
class StableSetSequence:
    """A sequence of independent sets (I_1, ..., I_t).

    The sequence is *valid* for a graph when every set is independent,
    every set after the first is contained in the closed neighborhood of
    its predecessor, and no nonempty set follows an empty one.  It is
    *proper* when additionally every set is nonempty.
    """

    sets: tuple[frozenset[int], ...]

    @classmethod
    def of(cls, *sets: Iterable[int]) -> "StableSetSequence":
        return cls(tuple(frozenset(s) for s in sets))

    @property
    def total_size(self) -> int:
        return sum(len(s) for s in self.sets)

    @property
    def is_proper(self) -> bool:
        return all(self.sets)

    def __len__(self) -> int:
        return len(self.sets)


def validate_sequence(graph, sequence) -> bool:
    """Check the stable-set-sequence conditions; False on any violation.

    Accepts a StableSetSequence or any iterable of index collections.
    Out-of-range indices also yield False.
    """
    sets = sequence.sets if isinstance(sequence, StableSetSequence) else [
        frozenset(s) for s in sequence
    ]
    prev: frozenset[int] | None = None
    for current in sets:
        if any(not (0 <= i < graph.n) for i in current):
            return False
        keys = graph._key_union(current)
        if keys is None:
            return False
        # I_{t+1} within Gamma^+(I_t): each member is in I_t or meets the
        # keys of I_t, so no nonempty set follows an empty one
        if prev is not None and any(
                i not in prev and prev_keys.isdisjoint(graph.keys(i)) for i in current):
            return False
        prev, prev_keys = current, keys
    return True
