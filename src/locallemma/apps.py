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
sums take closed form.  Event sets
reach the hundreds of thousands at contest sizes, so no per-event table
is built: an event index decodes in closed form (see ``_AppBundle``)
into its copies and items, dependency is read off (copy, vertex)
conflict keys (shared copy and overlapping vertex support), and
occurrence scans exploit the structures directly.  A build costs a few
int64 arrays over the N items (their colors, their order by color and
one prefix count of same-colored partners), computed with numpy, not
one entry per event or per same-colored pair.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Sequence

import numpy as np

from .engine import RunLog, maximal_set_resample
from .graphs import KeyGraph
from .oracles import (
    PatternEvent,
    is_perfect_matching,
    is_spanning_tree,
    matching_pairs,
    matching_resample,
    normalize_edge,
    permutation_resample,
    sample_perfect_matching,
    sample_spanning_tree,
    tree_resample,
)
from .polynomials import CriterionParams, Uniform, tail_bounds
from .streams import shuffle
# Not called here; kept importable because bench/workloads.py wraps it.
from .polynomials import predicted_bound  # noqa: F401

#: Cluster-parameter constants: y = BETA * p for trees and transversals,
#: valid while multiplicity and copy count stay below GAMMA * n.
BETA = (8 / 7) ** 8
GAMMA_TREE = (1 / 32) * (7 / 8) ** 7
GAMMA_LATIN = 7**7 / 8**8
MATCHING_BETA = (4 / 3) ** 4


# ---------------------------------------------------------------------------
# colored inputs


class ColoredCompleteGraph:
    """Edge coloring of the complete graph on [n]."""

    def __init__(self, n: int, color: dict) -> None:
        self.n = n
        # Edges given as (u, v) with u < v, as the generators make them,
        # keep the caller's key object; the rest go through normalize_edge.
        self.color = {e if u < v else normalize_edge(e): int(c)
                      for e, c in color.items() for u, v in (e,)}
        expected = n * (n - 1) // 2
        if len(self.color) != expected:
            raise ValueError(
                f"coloring covers {len(self.color)} edges, K_{n} has {expected}"
            )
        if self.color and (min(self.color)[0] < 0 or max(v for _, v in self.color) >= n):
            raise ValueError(f"coloring has an edge outside K_{n}")

    @property
    def multiplicity(self) -> int:
        return max(Counter(self.color.values()).values(), default=0)

    def classes(self) -> dict[int, list[tuple[int, int]]]:
        out: dict[int, list[tuple[int, int]]] = {}
        for e in sorted(self.color):
            out.setdefault(self.color[e], []).append(e)
        return out

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "colors": [[u, v, self.color[(u, v)]] for u, v in sorted(self.color)],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ColoredCompleteGraph":
        return cls(int(obj["n"]), {(int(u), int(v)): c for u, v, c in obj["colors"]})


class ColorMatrix:
    """Square matrix of color ids."""

    def __init__(self, rows: Sequence[Sequence[int]]) -> None:
        self.rows = tuple(tuple(int(c) for c in row) for row in rows)
        n = len(self.rows)
        if any(len(row) != n for row in self.rows):
            raise ValueError("color matrix must be square")

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def multiplicity(self) -> int:
        return max(Counter(chain.from_iterable(self.rows)).values(), default=0)

    def to_json(self) -> dict:
        return {"matrix": [list(row) for row in self.rows]}

    @classmethod
    def from_json(cls, obj: dict) -> "ColorMatrix":
        return cls(obj["matrix"])


# ---------------------------------------------------------------------------
# generators


def _chunk_coloring(items: list, size: int) -> dict:
    return {item: k // size for k, item in enumerate(items)}


def random_edge_coloring(n: int, multiplicity: int, rng) -> ColoredCompleteGraph:
    """Random coloring of K_n with every color on at most `multiplicity` edges."""
    if multiplicity < 1:
        raise ValueError("multiplicity must be at least 1")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    shuffle(edges, rng)
    return ColoredCompleteGraph(n, _chunk_coloring(edges, multiplicity))


def rainbow_edge_coloring(n: int) -> ColoredCompleteGraph:
    """Every edge its own color."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return ColoredCompleteGraph(n, {e: k for k, e in enumerate(edges)})


def round_robin_coloring(n: int) -> ColoredCompleteGraph:
    """Proper coloring of K_n (n even): each color class a perfect matching.

    Classic circle construction: one vertex stays fixed while the others
    rotate, giving n-1 rounds that partition the edges.
    """
    if n % 2:
        raise ValueError("round-robin coloring needs even n")
    color: dict[tuple[int, int], int] = {}
    m = n - 1
    for r in range(m):
        color[normalize_edge((r, n - 1))] = r
        for k in range(1, n // 2):
            a = (r + k) % m
            b = (r - k) % m
            color[normalize_edge((a, b))] = r
    return ColoredCompleteGraph(n, color)


def random_color_matrix(n: int, multiplicity: int, rng) -> ColorMatrix:
    """Random n x n matrix with every color in at most `multiplicity` cells."""
    if multiplicity < 1:
        raise ValueError("multiplicity must be at least 1")
    cells = [(u, v) for u in range(n) for v in range(n)]
    shuffle(cells, rng)
    coloring = _chunk_coloring(cells, multiplicity)
    rows = [[0] * n for _ in range(n)]
    for (u, v), c in coloring.items():
        rows[u][v] = c
    return ColorMatrix(rows)


def distinct_color_matrix(n: int) -> ColorMatrix:
    return ColorMatrix([[u * n + v for v in range(n)] for u in range(n)])


# ---------------------------------------------------------------------------
# standalone validators (scan raw structures, not event predicates)


def validate_rainbow_matching(coloring: ColoredCompleteGraph, partner) -> bool:
    if len(partner) != coloring.n or not is_perfect_matching(partner):
        return False
    colors = [coloring.color[e] for e in matching_pairs(partner)]
    return len(colors) == len(set(colors))


def validate_rainbow_trees(coloring: ColoredCompleteGraph, trees: Sequence) -> bool:
    n = coloring.n
    seen: set[tuple[int, int]] = set()
    for tree in trees:
        edges = [normalize_edge(e) for e in tree]
        if not is_spanning_tree(n, edges):
            return False
        colors = [coloring.color[e] for e in edges]
        if len(colors) != len(set(colors)):
            return False
        for e in edges:
            if e in seen:
                return False
            seen.add(e)
    return True


def validate_disjoint_transversals(matrix: ColorMatrix, perms: Sequence) -> bool:
    n = matrix.n
    seen_cells: set[tuple[int, int]] = set()
    for pi in perms:
        if len(pi) != n or sorted(pi) != list(range(n)):
            return False
        colors = [matrix.rows[u][pi[u]] for u in range(n)]
        if len(set(colors)) != n:
            return False
        for u in range(n):
            cell = (u, pi[u])
            if cell in seen_cells:
                return False
            seen_cells.add(cell)
    return True


# ---------------------------------------------------------------------------
# application bundles


def _dense_ids(colors: Iterable[int]) -> np.ndarray:
    """Color ids relabeled 0, 1, ... in order of first appearance.

    Ids are arbitrary ints (a JSON file may hold ones past int64); ranks
    only need equal ids to stay equal and distinct ones distinct.
    """
    ids: dict[int, int] = {}
    return np.array([ids.setdefault(c, len(ids)) for c in colors], dtype=np.int64)


def _int64(values) -> array:
    """Compact int64 copy whose elements read back as Python ints."""
    return array("q", np.asarray(values, dtype=np.int64).tobytes())


class _AppBundle:
    """t copies of one oracle family plus color- and copy-collision events.

    The state is a tuple of t structures (permutations, spanning trees
    or one perfect matching).  An item is what a structure may contain:
    a matrix cell or an edge of K_n.  Its rank is its position among the
    N items in sorted order, and each item has a color and two vertices.  Events
    are numbered in closed form and decoded by arithmetic, never stored:

      type 1, index i*P + k           copy i contains both items of the
                                      k-th same-colored pair
      type 2, index n_type1 + c*N + r
                                      copy pair c, the c-th (i, j) with
                                      i < j in lexicographic order, both
                                      contain the item of rank r

    The P same-colored pairs (e, f), e < f, that fit in one structure
    are numbered in sorted order and shared by all copies.  Call f a
    partner of e when (e, f) is such a pair, and let later[e] count
    them; pair k is then e's (k - start[e])-th partner, where
    start = [0] + cumsum(later) and e is the last rank with
    start[e] <= k.  Walking e's color class upward in rank order finds
    the partner, so a build stores only int64 arrays over ranks: the
    color, the two vertices, the class order (items stably sorted by
    color), its inverse and start.  The numbering is what run logs
    record.  Two events interfere when they involve a common copy and
    their vertex supports meet, that is when their (copy, vertex)
    conflict keys meet.

    A family supplies its draw and conditioned redraw, the ranks of the
    items in a structure, and an item's vertices, rank and item-of-rank
    in closed form; the defaults here are those of an edge (u, v),
    u < v, of K_n.  For the cluster criterion it gives beta, its largest
    event probability p_num / p_den and clique_size_bounds().
    """

    #: Two items on a common vertex never sit in one structure together,
    #: so such same-colored pairs carry no event.
    exclusive = True
    beta = BETA
    p_num = 1

    def __init__(self, t: int, color: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
        """color (dense ids), x and y: each item's color and vertices, in rank order."""
        self.t = t
        order = np.argsort(color, kind="stable")
        later = np.zeros(len(color), dtype=np.int64)
        # Same-colored ranks are adjacent in class order, so the partners
        # of the item at class position j sit at positions j + d, d < q.
        for d in range(1, int(np.bincount(color).max(initial=0))):
            a, b = order[:-d], order[d:]
            fits = color[a] == color[b]
            if self.exclusive:
                xa, ya, xb, yb = x[a], y[a], x[b], y[b]
                fits &= (xa != xb) & (xa != yb) & (ya != xb) & (ya != yb)
            later[a] += fits
        where = np.empty_like(order)
        where[order] = np.arange(len(order))
        self._color, self._order, self._where = _int64(color), _int64(order), _int64(where)
        self._x, self._y = _int64(x), _int64(y)
        self._start = _int64(np.concatenate(([0], np.cumsum(later))))
        self.n_items = len(color)
        self.n_pairs = self._start[-1]
        self.copy_pairs = [(i, j) for i in range(t) for j in range(i + 1, t)]
        self.n_type1 = t * self.n_pairs
        self.n = self.n_type1 + len(self.copy_pairs) * self.n_items

    @property
    def graph(self) -> KeyGraph:
        # Made on each access: a stored graph whose keys are a bound method
        # would form a reference cycle and keep a dropped bundle alive
        # until the cyclic collector runs.
        return KeyGraph(self.n, self._keys)

    def _partners(self, e: int):
        """The partners of rank e in increasing rank: the rest of its class
        in class order, less the items on a vertex of e when exclusive."""
        color, order, x, y = self._color, self._order, self._x, self._y
        c, xe, ye = color[e], x[e], y[e]
        for j in range(self._where[e] + 1, self.n_items):
            f = order[j]
            if color[f] != c:
                return
            if not self.exclusive or (xe != x[f] and xe != y[f] and ye != x[f] and ye != y[f]):
                yield f

    def _pair(self, k: int) -> tuple[int, int]:
        """Ranks (e, f) of same-colored pair k."""
        e = bisect_right(self._start, k) - 1
        return e, next(islice(self._partners(e), k - self._start[e], None))

    def _pair_index(self, e: int, f: int) -> int:
        """Inverse of _pair; KeyError when ranks (e, f) form no pair."""
        if 0 <= e < self.n_items:
            for j, g in enumerate(self._partners(e)):
                if g == f:
                    return self._start[e] + j
        raise KeyError((e, f))

    def _parts(self, idx: int) -> tuple[tuple, tuple]:
        """(copies, items) of an event: every copy holds every item."""
        if idx < self.n_type1:
            i, k = divmod(idx, self.n_pairs)
            e, f = self._pair(k)
            return (i,), (self._item(e), self._item(f))
        c, r = divmod(idx - self.n_type1, self.n_items)
        return self.copy_pairs[c], (self._item(r),)

    def payload(self, idx: int) -> tuple:
        """(i, e, f) for a type-1 event, (i, j, item) for a type-2 event."""
        copies, items = self._parts(idx)
        return copies + items

    def index(self, payload: tuple) -> int:
        """Inverse of payload; KeyError when the payload names no event."""
        if isinstance(payload[1], int):
            i, j, item = payload
            c = i * (2 * self.t - i - 1) // 2 + j - i - 1
            idx = self.n_type1 + c * self.n_items + self._pos(item)
        else:
            i, e, f = payload
            idx = i * self.n_pairs + self._pair_index(self._pos(e), self._pos(f))
        if not 0 <= idx < self.n or _AppBundle.payload(self, idx) != payload:
            raise KeyError(payload)
        return idx

    def spaces(self, idx: int) -> frozenset[int]:
        return frozenset(self._parts(idx)[0])

    def support(self, idx: int) -> frozenset[int]:
        return frozenset(v for item in self._parts(idx)[1] for v in self._vertices(item))

    def _keys(self, idx: int) -> list[tuple[int, int]]:
        """(copy, vertex) for every copy and vertex of the event."""
        copies, items = self._parts(idx)
        return [(i, v) for item in items for v in self._vertices(item) for i in copies]

    def _vertices(self, item) -> tuple[int, int]:
        return item

    def _pos(self, edge) -> int:
        u, v = edge
        return u * (2 * self.size - u - 1) // 2 + v - u - 1

    def _item(self, rank: int) -> tuple[int, int]:
        return self._x[rank], self._y[rank]

    def _contains(self, structure, item) -> bool:
        return structure[item[0]] == item[1]

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
        return tuple(self._draw(rng) for _ in range(self.t))

    def holds(self, idx: int, state) -> bool:
        copies, items = self._parts(idx)
        contains = self._contains
        return all(contains(state[i], item) for i in copies for item in items)

    def resample(self, idx: int, state, rng):
        copies, items = self._parts(idx)
        structures = list(state)
        for i in copies:
            structures[i] = self._redraw(structures[i], items, rng)
        return tuple(structures)

    def occurring(self, state) -> list[int]:
        out: list[int] = []
        n_pairs, color = self.n_pairs, self._color
        present = [self._ranks(structure) for structure in state]
        for i, ranks in enumerate(present):
            by_color: dict[int, list[int]] = {}
            for r in ranks:
                by_color.setdefault(color[r], []).append(r)
            for group in by_color.values():
                if len(group) > 1:
                    group.sort()
                    for a, e in enumerate(group):
                        for f in group[a + 1:]:
                            out.append(i * n_pairs + self._pair_index(e, f))
        for c, (i, j) in enumerate(self.copy_pairs):
            base = self.n_type1 + c * self.n_items
            out.extend(base + r for r in set(present[i]).intersection(present[j]))
        return out


def _edge_ranks(coloring: ColoredCompleteGraph) -> tuple:
    """(dense color ids, u, v) of the edges of K_n in rank order, and the
    offset of each vertex u: the rank of edge (u, v) is offset[u] + v."""
    n, m = coloring.n, len(coloring.color)
    offset = [u * (2 * n - u - 1) // 2 - u - 1 for u in range(n)]
    u, v = np.fromiter(chain.from_iterable(coloring.color), np.int64, 2 * m).reshape(m, 2).T
    colors = np.empty(m, dtype=np.int64)
    colors[np.array(offset, dtype=np.int64)[u] + v] = _dense_ids(coloring.color.values())
    x, y = np.triu_indices(n, 1)
    return colors, x, y, offset


class RainbowTreeBundle(_AppBundle):
    """t independent uniform spanning trees of K_n with collision events.

    Type-1 events: two same-colored edges inside one tree (edges may
    share a vertex).  Type-2 events: one edge present in two trees; an
    edge's position is its rank among the sorted edges of K_n.
    """

    kind = "rainbow-tree"
    exclusive = False
    p_num = 4

    def __init__(self, coloring: ColoredCompleteGraph, t: int) -> None:
        if t < 1:
            raise ValueError("need at least one tree")
        if coloring.n < 1:
            raise ValueError("spanning trees need at least one vertex")
        self.coloring = coloring
        self.size = coloring.n
        self.p_den = coloring.n**2
        colors, x, y, self._offset = _edge_ranks(coloring)
        super().__init__(t, colors, x, y)

    def _ranks(self, tree) -> list[int]:
        offset = self._offset
        return [offset[u] + v for u, v in tree]

    def _contains(self, tree, edge) -> bool:
        return edge in tree

    def _draw(self, rng):
        return sample_spanning_tree(self.size, rng)

    def _redraw(self, tree, edges, rng):
        return tree_resample(tree, edges, rng)

    def event_prob(self, idx: int) -> float:
        n = self.size
        if idx < self.n_type1:
            e, f = self._parts(idx)[1]
            return (3 if len(set(e) | set(f)) == 3 else 4) / n**2
        return 4 / n**2

    def clique_size_bounds(self) -> dict[str, int]:
        n, t, q = self.size, self.t, self.coloring.multiplicity
        return {"cross-space": (n - 1) * (t - 1), "same-space": (n - 1) * (q - 1)}

    def validate_solution(self, state) -> bool:
        return validate_rainbow_trees(self.coloring, state)

    def solution_json(self, state) -> dict:
        return {"trees": [[list(e) for e in sorted(tree)] for tree in state]}


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
        if coloring.n % 2:
            raise ValueError("perfect matchings need an even vertex count")
        self.coloring = coloring
        self.size = m = coloring.n
        self.p_den = (m - 1) * (m - 3)
        colors, x, y, self._offset = _edge_ranks(coloring)
        super().__init__(1, colors, x, y)

    def payload(self, idx: int) -> tuple:
        return super().payload(idx)[1:]

    def index(self, payload: tuple) -> int:
        return super().index((0, *payload))

    def _ranks(self, partner) -> list[int]:
        offset = self._offset
        return [offset[u] + v for u, v in enumerate(partner) if u < v]

    def _draw(self, rng):
        return sample_perfect_matching(self.size, rng)

    def _redraw(self, partner, edges, rng):
        return matching_resample(partner, edges, rng)

    def event_prob(self, idx: int) -> float:
        return self.p_num / self.p_den

    def clique_size_bounds(self) -> dict[str, int]:
        q = self.coloring.multiplicity
        return {"vertex": (q - 1) * (self.size - 1)}

    def validate_solution(self, state) -> bool:
        return validate_rainbow_matching(self.coloring, state[0])

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
        self.matrix = matrix
        self.size = n
        self.p_den = n * (n - 1)
        ranks = np.arange(n * n)
        super().__init__(t, _dense_ids(chain.from_iterable(matrix.rows)),
                         ranks // n, n + ranks % n)

    def _vertices(self, cell) -> tuple[int, int]:
        return cell[0], self.size + cell[1]

    def _pos(self, cell) -> int:
        return cell[0] * self.size + cell[1]

    def _item(self, rank: int) -> tuple[int, int]:
        return divmod(rank, self.size)

    def _ranks(self, pi) -> list[int]:
        n = self.size
        return [u * n + v for u, v in enumerate(pi)]

    def _draw(self, rng):
        pi = list(range(self.size))
        shuffle(pi, rng)
        return tuple(pi)

    def _redraw(self, pi, cells, rng):
        return permutation_resample(pi, PatternEvent(cells), rng)

    def event_prob(self, idx: int):
        n = self.size
        if idx < self.n_type1:
            return 1 / (n * (n - 1))
        return 1 / n**2

    def clique_size_bounds(self) -> dict[str, int]:
        n, t, q = self.size, self.t, self.matrix.multiplicity
        return {"cross-space": n * (t - 1), "same-space": n * (q - 1)}

    def validate_solution(self, state) -> bool:
        return validate_disjoint_transversals(self.matrix, state)

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
    predicted_bounds: dict[str, float]
    solution: dict
    log: RunLog

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "budget": self.budget,
            "terminated": self.terminated,
            "validated": self.validated,
            "total_resamples": self.total_resamples,
            "predicted_bounds": self.predicted_bounds,
            "solution": self.solution,
            "log": self.log.to_json(),
        }


def solve(bundle, params: CriterionParams, seed: int = 0,
          budget: int = 1_000_000) -> SolutionReport:
    """Run the engine on a built instance and validate its output.

    Validation re-derives the target property from the raw structures
    (colors scanned directly), independent of the event predicates.
    The report carries tail bounds at t = 1 and t = ln 10^4 next to the
    observed resample count; the observed count is the ground truth,
    the bounds are the theory's prediction.
    """
    state, log = maximal_set_resample(bundle, seed, budget)
    validated = bool(log.terminated and bundle.validate_solution(state))
    return SolutionReport(
        kind=bundle.kind,
        seed=seed,
        budget=budget,
        terminated=log.terminated,
        validated=validated,
        total_resamples=log.total_resamples,
        predicted_bounds=tail_bounds(params),
        solution=bundle.solution_json(state),
        log=log,
    )
