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

import operator
from typing import Callable, Collection, Hashable, Iterable

#: Most events of any exhaustive enumeration over subsets: the 2^n-entry
#: polynomial table (256 MiB of float64 at 25 events) and the independent
#: subsets that a partition function sums over.
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


def read_int(value) -> int:
    """An integer read from a file value.  A boolean is refused, and so is
    any value that is no integer (a float or a string); ``operator.index``
    lets an integer of any type, a NumPy one included, through."""
    if isinstance(value, bool):
        raise TypeError("expected an integer, got bool")
    return operator.index(value)


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
        return cls(read_int(obj["n"]),
                   [(read_int(u), read_int(v)) for u, v in obj.get("edges", [])])

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


def validate_sequence(graph: KeyGraph, sets: Iterable[Collection[int]]) -> bool:
    """Is sets (I_1, ..., I_t) a stable set sequence of graph?

    sets is any sequence of index collections, such as a run log's
    iterations, each read as a set.  It is one when every set is
    independent, every set after the first lies in the closed
    neighborhood of its predecessor, and no nonempty set follows an empty
    one.  False on any violation, out-of-range indices included.
    """
    prev: set[int] | None = None
    for members in sets:
        current = set(members)
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
