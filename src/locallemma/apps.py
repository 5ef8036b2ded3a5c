"""Instance builders and end-to-end solvers for three coloring problems.

Given an edge-colored complete graph or a colored square matrix, the
builders set up engine-ready bundles whose events are exactly the
violations of the target structure:

  rainbow spanning trees   t trees, no repeated color inside a tree,
                           no edge shared between trees
  rainbow perfect matching no two matching edges of equal color
  disjoint transversals    t permutations, each hitting n distinct
                           colors, no shared cell

Each builder also returns cluster-criterion parameters (a uniform y
vector) under which the engine's resample count has explicit tail
bounds whenever the color multiplicity and the copy count stay below
the stated fraction of n.  Event sets reach the hundreds of thousands
at contest sizes, so no per-event table is built: an event index
decodes in closed form (see ``_AppBundle``) into its copies and items,
dependency is evaluated by rule (shared copy and overlapping vertex
support), and occurrence scans exploit the structures directly.  A
build costs one sorted list of same-colored pairs plus its position
dict, not one entry per event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .engine import RunLog, maximal_set_resample
from .graphs import RuleGraph
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
from .polynomials import CriterionParams, tail_bounds
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
        self.color = {normalize_edge(e): int(c) for e, c in color.items()}
        expected = n * (n - 1) // 2
        if len(self.color) != expected:
            raise ValueError(
                f"coloring covers {len(self.color)} edges, K_{n} has {expected}"
            )

    @property
    def multiplicity(self) -> int:
        counts: dict[int, int] = {}
        for c in self.color.values():
            counts[c] = counts.get(c, 0) + 1
        return max(counts.values(), default=0)

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
        counts: dict[int, int] = {}
        for row in self.rows:
            for c in row:
                counts[c] = counts.get(c, 0) + 1
        return max(counts.values(), default=0)

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
    rng.shuffle(edges)
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
    rng.shuffle(cells)
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


class _AppBundle:
    """t copies of one oracle family plus color- and copy-collision events.

    The state is a tuple of t structures (permutations or spanning
    trees).  An item is what a structure may contain: a matrix cell or
    an edge of K_n, and each item has a color.  Events are numbered in
    closed form and decoded by arithmetic, never stored:

      type 1, index i*P + k           copy i contains both items of pairs[k]
      type 2, index n_type1 + c*N + pos
                                      copy pair c, the c-th (i, j) with
                                      i < j in lexicographic order, both
                                      contain the item at position pos

    pairs holds the P same-colored item pairs that fit in one structure,
    sorted, and is shared by all copies; positions run over the N items
    in sorted order.  The numbering is what run logs record.  Two events
    interfere when they involve a common copy and their vertex supports
    meet.

    A family supplies its draw and conditioned redraw, the items of a
    structure, an item's vertices and its position in closed form.
    """

    #: Two items on a common vertex never sit in one structure together,
    #: so such same-colored pairs carry no event.
    exclusive = True

    def __init__(self, t: int, color_of: dict) -> None:
        self.t = t
        self.color_of = color_of
        self.items = sorted(color_of)
        classes: dict[int, list] = {}
        for item in self.items:
            classes.setdefault(color_of[item], []).append(item)
        self.pairs = []
        for group in classes.values():
            for a, e in enumerate(group):
                ve = set(self._vertices(e))
                self.pairs.extend((e, f) for f in group[a + 1:]
                                  if not self.exclusive or ve.isdisjoint(self._vertices(f)))
        self.pairs.sort()
        self.pair_pos = {pair: k for k, pair in enumerate(self.pairs)}
        self.copy_pairs = [(i, j) for i in range(t) for j in range(i + 1, t)]
        self.n_type1 = t * len(self.pairs)
        self.n = self.n_type1 + len(self.copy_pairs) * len(self.items)

    @property
    def graph(self) -> RuleGraph:
        # Made on each access: a stored graph whose rule is a bound method
        # would form a reference cycle and keep a dropped bundle alive
        # until the cyclic collector runs.
        return RuleGraph(self.n, self._interferes)

    def _parts(self, idx: int) -> tuple[tuple, tuple]:
        """(copies, items) of an event: every copy holds every item."""
        if idx < self.n_type1:
            i, k = divmod(idx, len(self.pairs))
            return (i,), self.pairs[k]
        c, pos = divmod(idx - self.n_type1, len(self.items))
        return self.copy_pairs[c], (self.items[pos],)

    def payload(self, idx: int) -> tuple:
        """(i, e, f) for a type-1 event, (i, j, item) for a type-2 event."""
        copies, items = self._parts(idx)
        return copies + items

    def index(self, payload: tuple) -> int:
        """Inverse of payload; KeyError when the payload names no event."""
        if isinstance(payload[1], int):
            i, j, item = payload
            c = i * (2 * self.t - i - 1) // 2 + j - i - 1
            idx = self.n_type1 + c * len(self.items) + self._pos(item)
        else:
            i, e, f = payload
            idx = i * len(self.pairs) + self.pair_pos[(e, f)]
        if not 0 <= idx < self.n or self.payload(idx) != payload:
            raise KeyError(payload)
        return idx

    def spaces(self, idx: int) -> frozenset[int]:
        return frozenset(self._parts(idx)[0])

    def support(self, idx: int) -> frozenset[int]:
        return frozenset(v for item in self._parts(idx)[1] for v in self._vertices(item))

    def _interferes(self, a: int, b: int) -> bool:
        return bool(self.spaces(a) & self.spaces(b)) and bool(self.support(a) & self.support(b))

    def _vertices(self, item) -> tuple[int, int]:
        return item

    def _contains(self, structure, item) -> bool:
        return structure[item[0]] == item[1]

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
        n_pairs, color_of, pair_pos = len(self.pairs), self.color_of, self.pair_pos
        present = [self._items(structure) for structure in state]
        for i, items in enumerate(present):
            by_color: dict[int, list] = {}
            for item in items:
                by_color.setdefault(color_of[item], []).append(item)
            for group in by_color.values():
                if len(group) > 1:
                    group.sort()
                    for a, e in enumerate(group):
                        for f in group[a + 1:]:
                            out.append(i * n_pairs + pair_pos[(e, f)])
        for c, (i, j) in enumerate(self.copy_pairs):
            base = self.n_type1 + c * len(self.items)
            for item in set(present[i]).intersection(present[j]):
                out.append(base + self._pos(item))
        return out


class RainbowTreeBundle(_AppBundle):
    """t independent uniform spanning trees of K_n with collision events.

    Type-1 events: two same-colored edges inside one tree (edges may
    share a vertex).  Type-2 events: one edge present in two trees; an
    edge's position is its rank among the sorted edges of K_n.
    """

    kind = "rainbow-tree"
    exclusive = False

    def __init__(self, coloring: ColoredCompleteGraph, t: int) -> None:
        if t < 1:
            raise ValueError("need at least one tree")
        self.coloring = coloring
        self.size = coloring.n
        super().__init__(t, coloring.color)

    def _pos(self, edge) -> int:
        u, v = edge
        return u * (2 * self.size - u - 1) // 2 + v - u - 1

    def _items(self, tree):
        return tree

    def _contains(self, tree, edge) -> bool:
        return edge in tree

    def _draw(self, rng):
        return sample_spanning_tree(self.size, rng)

    def _redraw(self, tree, edges, rng):
        return tree_resample(tree, edges, rng)

    def event_prob(self, idx: int) -> float:
        n = self.size
        if idx < self.n_type1:
            e, f = self.pairs[idx % len(self.pairs)]
            return (3 if len(set(e) | set(f)) == 3 else 4) / n**2
        return 4 / n**2

    def params(self) -> CriterionParams:
        y = BETA * 4 / self.size**2
        return CriterionParams(kind="cll", y=(y,) * self.n)

    def clique_size_bounds(self) -> dict[str, int]:
        n, t, q = self.size, self.t, self.coloring.multiplicity
        return {"same-space": (n - 1) * (q - 1), "cross-space": (n - 1) * (t - 1)}

    def cluster_criterion_ok(self) -> bool:
        n, t, q = self.size, self.t, self.coloring.multiplicity
        y = BETA * 4 / n**2
        p = 4 / n**2
        return p * (1 + (n - 1) * (t - 1) * y) ** 4 * (1 + (n - 1) * (q - 1) * y) ** 4 <= y

    def validate_solution(self, state) -> bool:
        return validate_rainbow_trees(self.coloring, state)

    def solution_json(self, state) -> dict:
        return {"trees": [[list(e) for e in sorted(tree)] for tree in state]}


class RainbowMatchingBundle(_AppBundle):
    """Uniform perfect matching of an edge-colored K_{2n}.

    The single-space case: one copy, no type-2 events, and the state is
    the partner tuple itself.  One event per same-colored pair of
    vertex-disjoint edges, with payload (e, f); pairs sharing a vertex
    can never sit in a matching together and carry no event.  Events
    interfere whenever their vertex supports meet.
    """

    kind = "rainbow-matching"

    def __init__(self, coloring: ColoredCompleteGraph) -> None:
        if coloring.n % 2:
            raise ValueError("perfect matchings need an even vertex count")
        self.coloring = coloring
        self.size = coloring.n
        super().__init__(1, coloring.color)

    def payload(self, idx: int) -> tuple:
        return self.pairs[idx]

    def index(self, payload: tuple) -> int:
        return self.pair_pos[payload]

    def _items(self, partner):
        return matching_pairs(partner)

    def _redraw(self, partner, edges, rng):
        return matching_resample(partner, edges, rng)

    def sample(self, rng):
        return sample_perfect_matching(self.size, rng)

    def holds(self, idx: int, state) -> bool:
        return super().holds(idx, (state,))

    def resample(self, idx: int, state, rng):
        return super().resample(idx, (state,), rng)[0]

    def occurring(self, state) -> list[int]:
        return super().occurring((state,))

    def event_prob(self, idx: int) -> float:
        m = self.size
        return 1 / ((m - 1) * (m - 3))

    def params(self) -> CriterionParams:
        y = MATCHING_BETA / ((self.size - 1) * (self.size - 3))
        return CriterionParams(kind="cll", y=(y,) * self.n)

    def clique_size_bounds(self) -> dict[str, int]:
        q = self.coloring.multiplicity
        return {"vertex": (q - 1) * (self.size - 1)}

    def cluster_criterion_ok(self) -> bool:
        m, q = self.size, self.coloring.multiplicity
        p = 1 / ((m - 1) * (m - 3))
        y = MATCHING_BETA * p
        return p * (1 + (q - 1) * (m - 1) * y) ** 4 <= y

    def validate_solution(self, state) -> bool:
        return validate_rainbow_matching(self.coloring, state)

    def solution_json(self, state) -> dict:
        return {"matching": [list(e) for e in matching_pairs(state)]}


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
        self.matrix = matrix
        self.size = matrix.n
        super().__init__(t, {(u, v): c for u, row in enumerate(matrix.rows)
                             for v, c in enumerate(row)})

    def _vertices(self, cell) -> tuple[int, int]:
        return cell[0], self.size + cell[1]

    def _pos(self, cell) -> int:
        return cell[0] * self.size + cell[1]

    def _items(self, pi):
        return list(enumerate(pi))

    def _draw(self, rng):
        pi = list(range(self.size))
        rng.shuffle(pi)
        return tuple(pi)

    def _redraw(self, pi, cells, rng):
        return permutation_resample(pi, PatternEvent(cells), rng)

    def event_prob(self, idx: int):
        n = self.size
        if idx < self.n_type1:
            return 1 / (n * (n - 1))
        return 1 / n**2

    def params(self) -> CriterionParams:
        y = BETA / (self.size * (self.size - 1))
        return CriterionParams(kind="cll", y=(y,) * self.n)

    def clique_size_bounds(self) -> dict[str, int]:
        n, t, q = self.size, self.t, self.matrix.multiplicity
        return {"same-space": n * (q - 1), "cross-space": n * (t - 1)}

    def cluster_criterion_ok(self) -> bool:
        n, t, q = self.size, self.t, self.matrix.multiplicity
        p = 1 / (n * (n - 1))
        y = BETA * p
        return p * (1 + n * (t - 1) * y) ** 4 * (1 + n * (q - 1) * y) ** 4 <= y

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
