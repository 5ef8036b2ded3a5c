"""Instance builders and end-to-end solvers for three coloring problems.

Given an edge-colored complete graph or a colored square matrix, the
builders set up engine-ready bundles whose events are exactly the
violations of the target structure:

  rainbow spanning trees   t trees, no repeated color inside a tree,
                           no edge shared between trees
  rainbow perfect matching no two matching edges of equal color
  disjoint transversals    t permutations, each hitting n distinct
                           colors, no shared cell

Each builder also returns cluster-criterion parameters under which the
engine's resample count has explicit tail bounds whenever the color
multiplicity and the copy count stay below the stated fraction of n.
Every event gets the same y = beta * p from its family's data, so the
vector is a ``Uniform``: one value and the event count, whose bound
sums take closed form.  Event sets reach the hundreds of thousands at
contest sizes, so no per-event table is built.  A coloring is one array
of color ids in item-rank order, which the bundles take as is; one sorted
table of the same-colored item pairs, shared by all copies, decodes every
event by arithmetic (see ``_AppBundle``); the structures, their items and
the vertices those touch come from the structure families of ``oracles``.
``solve`` runs, validates and reports any bundle with ``kind``,
``validate_solution`` and ``solution_json``: these three and the
explicit spaces of ``synth``.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Sequence

import numpy as np

from .engine import DEFAULT_MAX_RESAMPLES, RunLog, maximal_set_resample
from .graphs import KeyGraph, read_int
from .oracles import (
    _EdgeItems,
    PerfectMatchings,
    Permutations,
    SpanningTrees,
    matching_pairs,
    normalize_edge,
)
from .polynomials import CriterionParams, Uniform, tail_bounds
# Not called here; kept importable because bench/workloads.py wraps it.
from .polynomials import predicted_bound  # noqa: F401

#: Cluster-parameter constants: y = BETA * p for trees and transversals,
#: valid while multiplicity and copy count stay below GAMMA * n.
BETA = (8 / 7) ** 8
GAMMA_TREE = (1 / 32) * (7 / 8) ** 7
GAMMA_LATIN = 7**7 / 8**8
MATCHING_BETA = (4 / 3) ** 4

#: Size caps, checked before any list over the items (matrix cells or
#: edges of K_n), the t(t-1)/2 copy pairs or the same-colored item pairs
#: is built.
MAX_ITEMS = 1 << 20
MAX_COPY_PAIRS = 1 << 16
MAX_PAIRS = 1 << 22


def _check_caps(n_items: int, t: int = 1) -> None:
    if n_items > MAX_ITEMS:
        raise ValueError(f"{n_items} items exceed the cap MAX_ITEMS = {MAX_ITEMS}")
    if t * (t - 1) // 2 > MAX_COPY_PAIRS:
        raise ValueError(f"{t} copies exceed the cap MAX_COPY_PAIRS = {MAX_COPY_PAIRS} pairs")


# ---------------------------------------------------------------------------
# colored inputs


class _Coloring:
    """Colors of the N items of a structure family in rank order: ``ids[r]``
    is the dense color id of the item of rank r, and ``labels[c]`` the
    caller's id of dense id c.  A generated coloring is labeled by a
    ``range``, any other by the sorted ids it was given, so that ids past
    int64 round-trip.  ``ids`` is read-only, as the bundles take it as is."""

    def _set(self, n: int, ids: np.ndarray, labels: Sequence[int]):
        self.n, self.ids, self.labels = n, ids, labels
        ids.flags.writeable = False
        return self

    def _set_values(self, n: int, ranks, values: list[int]) -> None:
        """Store the caller's color ids ``values`` of the items at ``ranks``."""
        labels = sorted(set(values))
        dense = {c: k for k, c in enumerate(labels)}
        ids = np.empty(len(values), dtype=np.int64)
        ids[ranks] = np.fromiter(map(dense.__getitem__, values), np.int64, len(values))
        self._set(n, ids, labels)

    @classmethod
    def _random(cls, n: int, n_items: int, multiplicity: int, rng):
        """The k-th item in the order of ``Permutations(N).sample`` gets
        color k // multiplicity."""
        if multiplicity < 1:
            raise ValueError("multiplicity must be at least 1")
        if n < 0:
            raise ValueError("size must be nonnegative")
        _check_caps(n_items)
        ids = np.empty(n_items, dtype=np.int64)
        ids[np.fromiter(Permutations(n_items).sample(rng), np.int64, n_items)] = (
            np.arange(n_items) // multiplicity)
        return cls.__new__(cls)._set(n, ids, range(-(-n_items // multiplicity)))

    @property
    def multiplicity(self) -> int:
        return int(np.bincount(self.ids).max(initial=0))


class _EdgeColors(Mapping):
    """``ColoredCompleteGraph.color``: each edge (u, v), u < v, to the
    caller's color id, in sorted edge order, read from ``ids`` per lookup."""

    def __init__(self, coloring: ColoredCompleteGraph) -> None:
        self._coloring = coloring

    def __getitem__(self, edge) -> int:
        g = self._coloring
        try:
            u, v = edge
            if 0 <= u < v < g.n:
                return g.labels[g.ids[g._edges.rank(edge)]]
        except (TypeError, ValueError, IndexError):
            pass
        raise KeyError(edge)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return zip(*(side.tolist() for side in np.triu_indices(self._coloring.n, 1)))

    def __len__(self) -> int:
        return len(self._coloring.ids)


class ColoredCompleteGraph(_Coloring):
    """Edge coloring of the complete graph on [n].  The edge (u, v), u < v,
    has its position among the sorted edges as rank, and ``color`` maps it
    to the caller's color id, the last given for an edge listed twice."""

    def __init__(self, n: int, color: dict) -> None:
        color = dict(zip(map(normalize_edge, color), color.values()))
        covered, expected = len(color), n * (n - 1) // 2
        if covered != expected:
            raise ValueError(f"coloring covers {covered} edges, K_{n} has {expected}")
        if color and (min(color)[0] < 0 or max(v for _, v in color) >= n):
            raise ValueError(f"coloring has an edge outside K_{n}")
        ranks = _EdgeItems(n).rank(np.array(list(color), dtype=np.int64).reshape(-1, 2).T)
        self._set_values(n, ranks, list(map(read_int, color.values())))

    @cached_property
    def _edges(self) -> _EdgeItems:
        return _EdgeItems(self.n)

    @property
    def color(self) -> Mapping[tuple[int, int], int]:
        return _EdgeColors(self)

    def to_json(self) -> dict:
        labels, ids = self.labels, self.ids.tolist()
        return {"n": self.n, "colors": [[u, v, labels[c]] for (u, v), c in zip(self.color, ids)]}

    @classmethod
    def from_json(cls, obj: dict) -> "ColoredCompleteGraph":
        return cls(read_int(obj["n"]),
                   {(read_int(u), read_int(v)): c for u, v, c in obj["colors"]})


class ColorMatrix(_Coloring):
    """Square matrix of color ids; the cell (u, v) has rank u*n + v."""

    def __init__(self, rows: Sequence[Sequence[int]]) -> None:
        rows = [list(map(read_int, row)) for row in rows]
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("color matrix must be square")
        self._set_values(n, slice(None), list(chain.from_iterable(rows)))

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        labels = self.labels
        return tuple(tuple(labels[c] for c in row)
                     for row in self.ids.reshape(self.n, self.n).tolist())

    def to_json(self) -> dict:
        return {"matrix": [list(row) for row in self.rows]}

    @classmethod
    def from_json(cls, obj: dict) -> "ColorMatrix":
        return cls(obj["matrix"])


# ---------------------------------------------------------------------------
# generators


def random_edge_coloring(n: int, multiplicity: int, rng) -> ColoredCompleteGraph:
    """Random coloring of K_n with every color on at most `multiplicity` edges:
    the k-th edge in the order of ``Permutations(N).sample`` gets color
    k // multiplicity, and so does the k-th cell of ``random_color_matrix``."""
    return ColoredCompleteGraph._random(n, n * (n - 1) // 2, multiplicity, rng)


def random_color_matrix(n: int, multiplicity: int, rng) -> ColorMatrix:
    """Random n x n matrix with every color in at most `multiplicity` cells."""
    return ColorMatrix._random(n, n * n, multiplicity, rng)


# ---------------------------------------------------------------------------
# application bundles


def _rank_rows(family, structures) -> np.ndarray:
    """The ranks of each structure's items, one row per structure (one
    empty row for no structure): the structures of a family that pass
    ``valid`` or that it draws all hold the same number of items."""
    return np.array([family.ranks(structure) for structure in structures],
                    dtype=np.int64, ndmin=2)


def _valid_solution(family, ids: np.ndarray, structures) -> bool:
    """Is every structure valid in ``family``, with no two of its items of
    one color (``ids`` gives each item's color id in rank order) and no
    item in two structures?"""
    if not all(map(family.valid, structures)):
        return False
    ranks = _rank_rows(family, structures)
    colors = np.sort(ids[ranks], axis=1)
    ranks = np.sort(ranks, axis=None)
    return not ((colors[:, 1:] == colors[:, :-1]).any() or (ranks[1:] == ranks[:-1]).any())


def _equal_runs(groups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions (a, b), a < b, of every two equal entries of ``groups``,
    sorted so that equal entries stand next to each other: a run of k
    gives its k(k-1)/2 pairs."""
    firsts, seconds = [], []
    d = 1
    while len(a := np.flatnonzero(groups[d:] == groups[:-d])):
        firsts.append(a)
        seconds.append(a + d)
        d += 1
    return (np.concatenate(firsts), np.concatenate(seconds)) if firsts else (a, a)


def _pair_keys(family, color: np.ndarray) -> array:
    """Sorted keys e*N + f of the same-colored rank pairs e < f that fit in
    one structure of ``family``, refused past MAX_PAIRS candidates."""
    sizes = np.bincount(color)
    candidates = int((sizes * (sizes - 1) // 2).sum())
    if candidates > MAX_PAIRS:
        raise ValueError(f"{candidates} same-colored pairs exceed the cap MAX_PAIRS = {MAX_PAIRS}")
    n_items = len(color)
    # In class order (items stably sorted by color) a class is a run of
    # increasing ranks, and the item at position j pairs with the rest of
    # its run: its m-th candidate overall sits at position m - shift[j].
    # Class order is the sorted keys color*N + rank, each taken mod N: the
    # keys are distinct and below 2^40 (ids and ranks are below MAX_ITEMS),
    # and an in-place sort of them is several times faster than a stable
    # argsort of the colors, which is a timsort over int64.
    order = np.multiply(color, n_items, dtype=np.int64)
    order += np.arange(n_items, dtype=np.int64)
    order.sort()
    order = np.remainder(order, n_items, out=order).astype(np.int32)
    later = np.repeat(np.cumsum(sizes), sizes) - np.arange(1, n_items + 1)
    shift = (np.cumsum(later) - later - np.arange(1, n_items + 1)).astype(np.int32)
    e = np.repeat(order, later)
    f = order[np.arange(candidates, dtype=np.int32) - np.repeat(shift, later)]
    if family.exclusive:
        x, y = (v.astype(np.int32, copy=False) for v in family.vertex_arrays())
        fits = np.ones(candidates, dtype=bool)
        for side in (x, y):
            fits &= side[e] != x[f]
            fits &= side[e] != y[f]
        e = e[fits]  # one at a time, to keep the build's transient memory small
        f = f[fits]
    # Filled and sorted in place, so no second copy of the keys is made.
    keys = array("q", [0]) * len(e)
    view = np.multiply(e, n_items, out=np.frombuffer(keys, dtype=np.int64), dtype=np.int64)
    view += f
    view.sort()
    return keys


class _AppBundle:
    """t copies of one structure family plus color- and copy-collision events.

    The state is a tuple of t structures (permutations, spanning trees
    or one perfect matching) of ``family``, an ``oracles`` structure
    family.  The family gives what a structure may contain, its items
    (matrix cells or edges of K_n), with each item's rank among the N
    items in sorted order and the vertices it touches, and it draws,
    tests and redraws the structures.  Each item has a color.  Events
    are numbered in closed form and decoded by arithmetic, never stored:

      type 1, index i*P + k           copy i contains both items of the
                                      k-th same-colored pair
      type 2, index n_type1 + c*N + r
                                      copy pair c, the c-th (i, j) with
                                      i < j in lexicographic order, both
                                      contain the item of rank r

    The P same-colored pairs of ranks (e, f), e < f, that fit in one
    structure are numbered in sorted order and shared by all copies.  A
    build stores the sorted pair keys e*N + f as int64, so pair k is
    divmod(key[k], N) and a pair's number is one bisection; the numbering
    is what run logs record.  Two events interfere when they involve a
    common copy and their vertex supports meet, that is when their (copy,
    vertex) conflict keys meet.

    A subclass passes its coloring, whose ``ids`` give each item's dense
    color id in rank order, and for the cluster criterion gives beta, its
    largest event probability p_num / p_den and clique_size_bounds().
    """

    beta = BETA
    p_num = 1

    def __init__(self, family, t: int, coloring: _Coloring) -> None:
        _check_caps(family.n_items, t)
        self.family, self.t, self.size = family, t, family.n
        self.coloring = coloring
        self._pairs = _pair_keys(family, coloring.ids)
        self.n_items = len(coloring.ids)
        self.n_pairs = len(self._pairs)
        self.copy_pairs = [(i, j) for i in range(t) for j in range(i + 1, t)]
        self.n_type1 = t * self.n_pairs
        self.n = self.n_type1 + len(self.copy_pairs) * self.n_items

    @property
    def graph(self) -> KeyGraph:
        # Made on each access: a stored graph whose keys are a bound method
        # would form a reference cycle and keep a dropped bundle alive
        # until the cyclic collector runs.
        return KeyGraph(self.n, self._keys)

    def _pair(self, k: int) -> tuple[int, int]:
        """Ranks (e, f) of same-colored pair k."""
        return divmod(self._pairs[k], self.n_items)

    def _pair_index(self, e: int, f: int) -> int:
        """Inverse of _pair; KeyError when ranks (e, f) form no pair."""
        key = e * self.n_items + f
        k = bisect_left(self._pairs, key)
        if 0 <= f < self.n_items and k < self.n_pairs and self._pairs[k] == key:
            return k
        raise KeyError((e, f))

    def _parts(self, idx: int) -> tuple[tuple, tuple]:
        """(copies, items) of an event: every copy holds every item."""
        item = self.family.item
        if idx < self.n_type1:
            i, k = divmod(idx, self.n_pairs)
            e, f = self._pair(k)
            return (i,), (item(e), item(f))
        c, r = divmod(idx - self.n_type1, self.n_items)
        return self.copy_pairs[c], (item(r),)

    def payload(self, idx: int) -> tuple:
        """(i, e, f) for a type-1 event, (i, j, item) for a type-2 event."""
        copies, items = self._parts(idx)
        return copies + items

    def _type2(self, i: int, j: int, r: int) -> int:
        """Index of the event that copies i < j both hold the item of rank r;
        also elementwise, for arrays i, j and r."""
        c = i * (2 * self.t - i - 1) // 2 + j - i - 1
        return self.n_type1 + c * self.n_items + r

    def index(self, payload: tuple) -> int:
        """Inverse of payload; KeyError when the payload names no event."""
        rank = self.family.rank
        if isinstance(payload[1], int):
            i, j, item = payload
            idx = self._type2(i, j, rank(item))
        else:
            i, e, f = payload
            idx = i * self.n_pairs + self._pair_index(rank(e), rank(f))
        if not 0 <= idx < self.n or _AppBundle.payload(self, idx) != payload:
            raise KeyError(payload)
        return idx

    def _keys(self, idx: int) -> list[tuple[int, int]]:
        """(copy, vertex) for every copy and vertex of the event."""
        copies, items = self._parts(idx)
        vertices = self.family.vertices
        return [(i, v) for item in items for v in vertices(item) for i in copies]

    def params(self) -> CriterionParams:
        """y = beta * p for every event."""
        return CriterionParams(kind="cll", y=Uniform(self.beta * self.p_num / self.p_den, self.n))

    def cluster_criterion_ok(self) -> bool:
        """p * prod (1 + c*y)**4 <= y over the clique sizes c, in their order."""
        y = self.params().y.value
        lhs = self.p_num / self.p_den
        for c in self.clique_size_bounds().values():
            lhs *= (1 + c * y) ** 4
        return lhs <= y

    def sample(self, rng):
        return tuple(self.family.sample(rng) for _ in range(self.t))

    def holds(self, idx: int, state) -> bool:
        copies, items = self._parts(idx)
        contains = self.family.holds
        return all(contains(state[i], items) for i in copies)

    def resample(self, idx: int, state, rng):
        copies, items = self._parts(idx)
        structures = list(state)
        for i in copies:
            structures[i] = self.family.redraw(structures[i], items, rng)
        return tuple(structures)

    def validate_solution(self, state) -> bool:
        """Is state a solution: every structure valid in ``family``, no two
        of its items of one color, and no item in two structures?  Reads
        only ``family``, ``coloring.ids`` and the structures, never the
        event model, so it checks the engine's output independently."""
        return _valid_solution(self.family, self.coloring.ids, state)

    def occurring(self, state) -> list[int]:
        """The occurring events.  The scan sorts the ranks of all copies
        twice.  Keyed by (copy, color, rank), the same-colored items of one
        copy stand next to each other, and each two of them are a type-1
        event, numbered by one bisection of the pair keys; keyed by (rank,
        copy), the copies that hold one item do, and each two of them are a
        type-2 event."""
        n_pairs, n_items, t = self.n_pairs, self.n_items, self.t
        ranks = _rank_rows(self.family, state)
        copy = np.arange(t, dtype=np.int64)[:, None]
        n_colors = len(self.coloring.labels)
        keys = (copy * n_colors + self.coloring.ids[ranks]) * n_items + ranks
        groups, items = np.divmod(np.sort(keys, axis=None), n_items)
        a, b = _equal_runs(groups)
        pairs = np.frombuffer(self._pairs, dtype=np.int64)
        type1 = groups[a] // n_colors * n_pairs + np.searchsorted(
            pairs, items[a] * n_items + items[b])
        items, copies = np.divmod(np.sort(ranks * t + copy, axis=None), t)
        a, b = _equal_runs(items)
        return np.concatenate((type1, self._type2(copies[a], copies[b], items[a]))).tolist()


class RainbowTreeBundle(_AppBundle):
    """t independent uniform spanning trees of K_n with collision events.

    Type-1 events: two same-colored edges inside one tree (edges may
    share a vertex).  Type-2 events: one edge held by two trees; an
    edge's position is its rank among the sorted edges of K_n.
    """

    kind = "rainbow-tree"
    p_num = 4

    def __init__(self, coloring: ColoredCompleteGraph, t: int) -> None:
        if t < 1:
            raise ValueError("need at least one tree")
        if coloring.n < 1:
            raise ValueError("spanning trees need at least one vertex")
        self.p_den = coloring.n**2
        super().__init__(SpanningTrees(coloring.n), t, coloring)

    def event_prob(self, idx: int) -> float:
        n = self.size
        if idx < self.n_type1:
            e, f = self._parts(idx)[1]
            return (3 if len(set(e) | set(f)) == 3 else 4) / n**2
        return 4 / n**2

    def clique_size_bounds(self) -> dict[str, int]:
        n, t, q = self.size, self.t, self.coloring.multiplicity
        return {"cross-space": (n - 1) * (t - 1), "same-space": (n - 1) * (q - 1)}

    def solution_json(self, state) -> dict:
        """Each tree's edges [u, v], u < v, in sorted order, which is rank order."""
        ranks = np.sort(_rank_rows(self.family, state), axis=1)
        low, high = self.family.vertex_arrays()
        return {"trees": np.stack((low[ranks], high[ranks]), axis=-1).tolist()}


class RainbowMatchingBundle(_AppBundle):
    """Uniform perfect matching of an edge-colored K_{2n}.

    The one-copy case: no type-2 events, and the state is a 1-tuple
    holding the partner tuple, unwrapped only for the solution.  One
    event per same-colored pair of vertex-disjoint edges, with payload
    (e, f); pairs sharing a vertex can never sit in a matching together
    and carry no event.  Events interfere whenever their vertex supports
    meet.
    """

    kind = "rainbow-matching"
    beta = MATCHING_BETA

    def __init__(self, coloring: ColoredCompleteGraph) -> None:
        family = PerfectMatchings(coloring.n)
        self.p_den = (coloring.n - 1) * (coloring.n - 3)
        super().__init__(family, 1, coloring)

    def payload(self, idx: int) -> tuple:
        return super().payload(idx)[1:]

    def index(self, payload: tuple) -> int:
        return super().index((0, *payload))

    def event_prob(self, idx: int) -> float:
        return self.p_num / self.p_den

    def clique_size_bounds(self) -> dict[str, int]:
        q = self.coloring.multiplicity
        return {"vertex": (q - 1) * (self.size - 1)}

    def solution_json(self, state) -> dict:
        return {"matching": [list(e) for e in matching_pairs(state[0])]}


class LatinBundle(_AppBundle):
    """t uniform permutations over a colored matrix, as transversals.

    Cells are edges of a complete bipartite graph: cell (u, v) touches
    row-node u and column-node n+v, and two cells intersect when they
    share a row or a column.  Type-1 events: one permutation picks two
    same-colored cells.  Type-2 events: two permutations pick the same
    cell, at position u*n + v.
    """

    kind = "latin"

    def __init__(self, matrix: ColorMatrix, t: int) -> None:
        if t < 1:
            raise ValueError("need at least one transversal")
        n = matrix.n
        if n < 2:
            raise ValueError("transversal events need a matrix of size at least 2")
        self.p_den = n * (n - 1)
        super().__init__(Permutations(n), t, matrix)

    def event_prob(self, idx: int):
        n = self.size
        if idx < self.n_type1:
            return 1 / (n * (n - 1))
        return 1 / n**2

    def clique_size_bounds(self) -> dict[str, int]:
        n, t, q = self.size, self.t, self.coloring.multiplicity
        return {"cross-space": n * (t - 1), "same-space": n * (q - 1)}

    def solution_json(self, state) -> dict:
        return {"transversals": [list(pi) for pi in state]}


# ---------------------------------------------------------------------------
# builders


def build_rainbow_tree_instance(coloring: ColoredCompleteGraph, t: int):
    """Bundle plus cluster parameters for t edge-disjoint rainbow trees."""
    bundle = RainbowTreeBundle(coloring, t)
    return bundle, bundle.params()


def build_rainbow_matching_instance(coloring: ColoredCompleteGraph):
    """Bundle plus cluster parameters for one rainbow perfect matching."""
    bundle = RainbowMatchingBundle(coloring)
    return bundle, bundle.params()


def build_latin_instance(matrix: ColorMatrix, t: int):
    """Bundle plus cluster parameters for t pairwise disjoint transversals."""
    bundle = LatinBundle(matrix, t)
    return bundle, bundle.params()


# ---------------------------------------------------------------------------
# solver


@dataclass
class SolutionReport:
    """Engine outcome with validation verdict and bound comparison."""

    kind: str
    seed: int
    budget: int
    terminated: bool
    validated: bool
    total_resamples: int
    predicted_bounds: dict[str, float] | None
    solution: dict
    log: RunLog

    def to_json(self) -> dict:
        out = {**vars(self), "log": self.log.to_json()}
        if self.predicted_bounds is None:
            del out["predicted_bounds"]
        return out


def solve(bundle, params: CriterionParams | None, seed: int = 0,
          budget: int = DEFAULT_MAX_RESAMPLES) -> SolutionReport:
    """Run the engine on a built instance and validate its output.

    Serves any bundle with ``kind``, ``validate_solution`` and
    ``solution_json``: the app bundles, whose check reads the structures,
    their family and the coloring, and ``ExplicitBundle``, whose check
    reads the event sets; neither goes through the event model.
    The report carries tail bounds at t = 1 and t = ln 10^4 next to the
    observed resample count, or none when params is None; the observed
    count is the ground truth, the bounds are the theory's prediction.
    """
    # bounds first: params whose bounds no report can carry refuse the run
    bounds = None if params is None else tail_bounds(params)
    state, log = maximal_set_resample(bundle, seed, budget)
    validated = bool(log.terminated and bundle.validate_solution(state))
    return SolutionReport(
        kind=bundle.kind,
        seed=seed,
        budget=budget,
        terminated=log.terminated,
        validated=validated,
        total_resamples=log.total_resamples,
        predicted_bounds=bounds,
        solution=bundle.solution_json(state),
        log=log,
    )
