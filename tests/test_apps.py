"""Application builders: inputs, events, dependency shape, solving."""

import ast
import itertools
import json
import random
from array import array
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from locallemma.apps import (
    BETA,
    GAMMA_LATIN,
    GAMMA_TREE,
    MATCHING_BETA,
    ColoredCompleteGraph,
    ColorMatrix,
    LatinBundle,
    RainbowMatchingBundle,
    RainbowTreeBundle,
    build_latin_instance,
    build_rainbow_matching_instance,
    build_rainbow_tree_instance,
    random_color_matrix,
    random_edge_coloring,
    solve,
)
from helpers import (
    app_event_parts,
    brute_disjoint_transversals,
    brute_rainbow_matching,
    brute_rainbow_trees,
    color_classes,
    distinct_color_matrix,
    rainbow_edge_coloring,
    round_robin_coloring,
)
from locallemma import apps, oracles
from locallemma.engine import maximal_set_resample
from locallemma.oracles import (
    PerfectMatchings,
    Permutations,
    SpanningTrees,
    TreeState,
    is_spanning_tree,
    matching_pairs,
    matching_resample,
    tree_resample,
)
from locallemma.polynomials import CriterionParams, Uniform, tail_bounds
from locallemma.verify import derive_seed, test_r2 as run_r2

K5_EDGES = [(u, v) for u in range(5) for v in range(u + 1, 5)]
K5_TREES = [
    frozenset(combo)
    for combo in itertools.combinations(K5_EDGES, 4)
    if is_spanning_tree(5, combo)
]


def k6_matchings():
    out = []
    for p in itertools.permutations(range(6)):
        if all(p[p[u]] == u and p[u] != u for u in range(6)):
            out.append(tuple(p))
    return out


def coloring_with_pair(n, e, f):
    """Rainbow coloring of K_n except edges e and f share one color."""
    g = rainbow_edge_coloring(n)
    color = dict(g.color)
    color[tuple(sorted(f))] = color[tuple(sorted(e))]
    return ColoredCompleteGraph(n, color)


# ---------------------------------------------------------------------------
# colored inputs and generators


def test_coloring_requires_every_edge():
    with pytest.raises(ValueError):
        ColoredCompleteGraph(4, {(0, 1): 0})


def test_coloring_normalizes_and_counts():
    g = ColoredCompleteGraph(3, {(1, 0): 5, (2, 0): 5, (1, 2): 7})
    assert g.color[(0, 1)] == 5
    assert g.multiplicity == 2
    assert color_classes(g)[5] == [(0, 1), (0, 2)]


def test_coloring_keeps_the_last_color_of_an_edge_given_twice():
    listed = [[0, 1, 5], [1, 0, 6], [0, 2, 7], [1, 2, 8]]
    for g in (ColoredCompleteGraph(3, {(0, 1): 5, (1, 0): 6, (0, 2): 7, (1, 2): 8}),
              ColoredCompleteGraph.from_json({"n": 3, "colors": listed})):
        assert len(g.ids) == 3 and list(g.labels) == [6, 7, 8]
        assert_same_coloring(g, ColoredCompleteGraph(3, {(0, 1): 6, (0, 2): 7, (1, 2): 8}))
    with pytest.raises(ValueError):
        ColoredCompleteGraph(3, {(0, 1): 5, (1, 0): 6, (0, 2): 7})


def test_coloring_rejects_degenerate_and_malformed_edges():
    with pytest.raises(ValueError):
        ColoredCompleteGraph(2, {(1, 1): 0})
    with pytest.raises(ValueError):
        ColoredCompleteGraph(2, {(0, 1, 2): 0})


def test_generators_draw_as_random_shuffle_does():
    for seed in range(10):
        edges = [(u, v) for u in range(20) for v in range(u + 1, 20)]
        random.Random(seed).shuffle(edges)
        coloring = random_edge_coloring(20, 3, random.Random(seed))
        assert coloring.color == {e: k // 3 for k, e in enumerate(edges)}
        assert list(coloring.color) == sorted(edges)
        cells = [(u, v) for u in range(9) for v in range(9)]
        random.Random(seed).shuffle(cells)
        rows = random_color_matrix(9, 2, random.Random(seed)).rows
        assert {cell: rows[cell[0]][cell[1]] for cell in cells} == {
            cell: k // 2 for k, cell in enumerate(cells)}


def test_coloring_json_round_trip():
    g = random_edge_coloring(7, 3, random.Random(2))
    again = ColoredCompleteGraph.from_json(g.to_json())
    assert again.n == g.n and again.color == g.color


def test_matrix_must_be_square():
    with pytest.raises(ValueError):
        ColorMatrix([[1, 2], [3]])


def test_matrix_json_round_trip():
    m = random_color_matrix(5, 2, random.Random(9))
    assert ColorMatrix.from_json(m.to_json()).rows == m.rows


def _partition(color) -> bytes:
    """Color ids relabeled 0, 1, ... in order of first appearance."""
    first: dict[int, int] = {}
    return array("q", [first.setdefault(c, len(first)) for c in color]).tobytes()


def _bundles(colors) -> list:
    """The app bundles a coloring or a color matrix admits."""
    if isinstance(colors, ColorMatrix):
        return [LatinBundle(colors, 2)] if colors.n >= 2 else []
    out = [RainbowTreeBundle(colors, 2)] if colors.n >= 1 else []
    return out + ([RainbowMatchingBundle(colors)] if colors.n % 2 == 0 else [])


def assert_same_coloring(a, b):
    assert (a.n, a.multiplicity, a.to_json()) == (b.n, b.multiplicity, b.to_json())
    if isinstance(a, ColorMatrix):
        assert a.rows == b.rows
    else:
        assert a.color == b.color and color_classes(a) == color_classes(b)
    assert _partition(a.ids) == _partition(b.ids)
    for x, y in zip(_bundles(a), _bundles(b), strict=True):
        assert x._pairs == y._pairs


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_colorings_agree_however_they_are_made(data):
    n = data.draw(st.integers(0, 12))
    seed = data.draw(st.integers(0, 2**32))
    g = random_edge_coloring(n, data.draw(st.integers(1, max(1, n * (n - 1) // 2))),
                             random.Random(seed))
    shuffled = list(g.color.items())
    random.Random(seed).shuffle(shuffled)
    for h in (ColoredCompleteGraph(n, dict(g.color)), ColoredCompleteGraph.from_json(g.to_json()),
              ColoredCompleteGraph(n, {(v, u): c for (u, v), c in shuffled}),
              ColoredCompleteGraph(n, {**{(v, u): -1 for u, v in g.color}, **dict(shuffled)})):
        assert_same_coloring(g, h)
    m = random_color_matrix(n, data.draw(st.integers(1, max(1, n * n))), random.Random(seed))
    for h in (ColorMatrix(m.rows), ColorMatrix.from_json(m.to_json())):
        assert_same_coloring(m, h)


#: Color ids as a JSON file may hold them: small, negative, past int64.
COLOR_IDS = st.one_of(st.integers(-3, 3), st.sampled_from([2**63, -(2**64), 2**70]))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(COLOR_IDS, min_size=n * n, max_size=n * n))))
def test_color_ids_past_int64_and_negative_round_trip(case):
    n, ids = case
    color = dict(zip([(u, v) for u in range(n) for v in range(u + 1, n)], ids))
    g = ColoredCompleteGraph.from_json(json.loads(json.dumps(
        ColoredCompleteGraph(n, color).to_json())))
    assert g.color == color
    rows = [ids[u * n:(u + 1) * n] for u in range(n)]
    m = ColorMatrix.from_json(json.loads(json.dumps(ColorMatrix(rows).to_json())))
    assert m.rows == tuple(map(tuple, rows))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, n - 2).flatmap(
        lambda u: st.tuples(st.just(u), st.integers(u + 1, n - 1))))))
def test_edge_colors_refuse_keys_that_are_no_edge(case):
    n, (u, v) = case
    g = random_edge_coloring(n, 2, random.Random(n))
    assert (u, v) in g.color
    for key in ((v, u), (u, u), (u, n), (-1, v), (u, v, 0)):
        assert key not in g.color
        with pytest.raises(KeyError):
            g.color[key]


def test_random_coloring_respects_multiplicity_cap():
    for cap in (1, 2, 4):
        g = random_edge_coloring(8, cap, random.Random(cap))
        assert len(g.color) == 28
        assert g.multiplicity <= cap


def test_random_coloring_rejects_bad_cap():
    with pytest.raises(ValueError):
        random_edge_coloring(6, 0, random.Random(0))


def test_rainbow_coloring_is_injective():
    g = rainbow_edge_coloring(6)
    assert g.multiplicity == 1
    assert len(set(g.color.values())) == 15


def test_round_robin_is_a_proper_one_factorization():
    n = 8
    g = round_robin_coloring(n)
    classes = color_classes(g)
    assert len(classes) == n - 1
    for edges in classes.values():
        touched = [v for e in edges for v in e]
        assert len(edges) == n // 2
        assert sorted(touched) == list(range(n))


def test_round_robin_needs_even_n():
    with pytest.raises(ValueError):
        round_robin_coloring(5)


def test_random_matrix_respects_multiplicity_cap():
    m = random_color_matrix(6, 3, random.Random(4))
    assert m.n == 6
    assert m.multiplicity <= 3


def test_distinct_matrix_has_no_repeats():
    m = distinct_color_matrix(4)
    assert m.multiplicity == 1


# ---------------------------------------------------------------------------
# event probabilities against exhaustive enumeration


def test_tree_pair_probability_shared_vertex():
    # same-colored edges meeting in a vertex: 3/n^2 of all spanning trees
    g = coloring_with_pair(5, (0, 1), (1, 2))
    bundle = RainbowTreeBundle(g, 1)
    assert bundle.n == 1
    hits = sum(1 for t in K5_TREES if bundle.holds(0, (t,)))
    assert Fraction(hits, len(K5_TREES)) == Fraction(3, 25)
    assert bundle.event_prob(0) == pytest.approx(3 / 25)


def test_tree_pair_probability_disjoint_edges():
    g = coloring_with_pair(5, (0, 1), (2, 3))
    bundle = RainbowTreeBundle(g, 1)
    hits = sum(1 for t in K5_TREES if bundle.holds(0, (t,)))
    assert Fraction(hits, len(K5_TREES)) == Fraction(4, 25)
    assert bundle.event_prob(0) == pytest.approx(4 / 25)


def test_tree_edge_collision_probability():
    # e lands in both independent trees with probability (2/n)^2
    g = rainbow_edge_coloring(5)
    bundle = RainbowTreeBundle(g, 2)
    idx = bundle.index((0, 1, (0, 1)))
    hits = sum(
        1
        for ta in K5_TREES
        for tb in K5_TREES
        if bundle.holds(idx, (ta, tb))
    )
    assert Fraction(hits, len(K5_TREES) ** 2) == Fraction(4, 25)
    assert bundle.event_prob(idx) == pytest.approx(4 / 25)


def test_matching_pair_probability():
    g = coloring_with_pair(6, (0, 1), (2, 3))
    bundle = RainbowMatchingBundle(g)
    assert bundle.n == 1
    matchings = k6_matchings()
    assert len(matchings) == 15
    hits = sum(1 for m in matchings if bundle.holds(0, (m,)))
    assert Fraction(hits, 15) == Fraction(1, 15)
    assert bundle.event_prob(0) == pytest.approx(1 / ((6 - 1) * (6 - 3)))


def test_matching_skips_vertex_sharing_pairs():
    # edges of one color meeting at a vertex can never co-occur
    g = coloring_with_pair(6, (0, 1), (0, 2))
    assert RainbowMatchingBundle(g).n == 0


def test_latin_cell_pair_probability():
    rows = [[0, 1, 2, 3], [4, 0, 5, 6], [7, 8, 9, 10], [11, 12, 13, 14]]
    bundle = LatinBundle(ColorMatrix(rows), 1)
    # the one repeated color sits at cells (0,0) and (1,1)
    assert bundle.n == 1
    assert bundle.payload(0) == (0, (0, 0), (1, 1))
    perms = list(itertools.permutations(range(4)))
    hits = sum(1 for p in perms if bundle.holds(0, (p,)))
    assert Fraction(hits, 24) == Fraction(1, 12)
    assert bundle.event_prob(0) == pytest.approx(1 / (4 * 3))


def test_latin_shared_cell_probability():
    bundle = LatinBundle(distinct_color_matrix(4), 2)
    idx = bundle.index((0, 1, (2, 3)))
    perms = list(itertools.permutations(range(4)))
    hits = sum(
        1 for pa in perms for pb in perms if bundle.holds(idx, (pa, pb))
    )
    assert Fraction(hits, 24 * 24) == Fraction(1, 16)
    assert bundle.event_prob(idx) == pytest.approx(1 / 16)


def test_latin_skips_aligned_cells():
    # same-colored cells in one row or column cannot both be picked
    rows = [[0, 0, 1], [2, 3, 4], [5, 6, 7]]
    assert LatinBundle(ColorMatrix(rows), 1).n == 0


# ---------------------------------------------------------------------------
# event order and dependency shape


def test_tree_event_order_type1_first_lexicographic():
    g = random_edge_coloring(6, 2, random.Random(0))
    bundle = RainbowTreeBundle(g, 2)
    pairs = sorted(
        (e, f)
        for edges in color_classes(g).values()
        for a, e in enumerate(edges)
        for f in edges[a + 1:]
    )
    expected = [(i, e, f) for i in range(2) for e, f in pairs]
    edges = sorted(g.color)
    expected += [(0, 1, e) for e in edges]
    assert [bundle.payload(i) for i in range(bundle.n)] == expected
    assert bundle.n_type1 == 2 * len(pairs)


def test_latin_event_order():
    bundle = LatinBundle(distinct_color_matrix(3), 3)
    assert bundle.n_type1 == 0
    expected = [
        (i, j, (u, v))
        for i in range(3)
        for j in range(i + 1, 3)
        for u in range(3)
        for v in range(3)
    ]
    assert [bundle.payload(i) for i in range(bundle.n)] == expected


def test_tree_dependency_rules():
    g = coloring_with_pair(6, (0, 1), (2, 3))
    bundle = RainbowTreeBundle(g, 3)
    a = bundle.index((0, (0, 1), (2, 3)))
    b = bundle.index((1, (0, 1), (2, 3)))
    t2_01 = bundle.index((0, 1, (0, 4)))
    t2_12 = bundle.index((1, 2, (3, 5)))
    g_ = bundle.graph
    assert not g_.adjacent(a, b)        # same pair, different trees
    assert g_.adjacent(a, t2_01)        # tree 0 shared, vertex 0 shared
    assert not g_.adjacent(a, t2_12)    # no shared tree
    assert not g_.adjacent(t2_01, t2_12)  # share tree 1, no shared vertex
    assert g_.adjacent(t2_01, bundle.index((1, 2, (0, 5))))


def test_matching_dependency_unless_four_disjoint_edges():
    color = dict(rainbow_edge_coloring(8).color)
    color[(2, 3)] = color[(0, 1)]
    color[(6, 7)] = color[(4, 5)]
    color[(0, 5)] = color[(1, 4)]
    g = ColoredCompleteGraph(8, color)
    bundle = RainbowMatchingBundle(g)
    a = bundle.index(((0, 1), (2, 3)))
    b = bundle.index(((4, 5), (6, 7)))
    c = bundle.index(((0, 5), (1, 4)))
    assert not bundle.graph.adjacent(a, b)  # four disjoint edges
    assert bundle.graph.adjacent(a, c)      # vertices 0 and 1 shared
    assert bundle.graph.adjacent(b, c)      # vertices 4 and 5 shared


def test_latin_dependency_by_row_and_column():
    bundle = LatinBundle(distinct_color_matrix(4), 2)
    same_row = (bundle.index((0, 1, (1, 0))), bundle.index((0, 1, (1, 3))))
    same_col = (bundle.index((0, 1, (0, 2))), bundle.index((0, 1, (3, 2))))
    apart = (bundle.index((0, 1, (0, 0))), bundle.index((0, 1, (1, 1))))
    assert bundle.graph.adjacent(*same_row)
    assert bundle.graph.adjacent(*same_col)
    assert not bundle.graph.adjacent(*apart)


def neighborhood_clique_cover(bundle, idx, same_bound, cross_bound):
    """Group the neighbors of a single-space event by shared vertex.

    Each (vertex, same/cross space) group must be a clique of the stated
    size, giving at most 4 + 4 cliques in total.
    """
    g = bundle.graph
    spaces, support = app_event_parts(bundle, idx)
    groups: dict[tuple, list[int]] = {}
    for j in range(bundle.n):
        if j == idx or not g.adjacent(idx, j):
            continue
        spaces_j, support_j = app_event_parts(bundle, j)
        shared = sorted(support_j & support)
        assert shared, "adjacency without a shared vertex"
        same = spaces_j <= spaces
        groups.setdefault((shared[0], same), []).append(j)
    assert sum(1 for _, same in groups if same) <= 4
    assert sum(1 for _, same in groups if not same) <= 4
    for (v, same), members in groups.items():
        assert len(members) <= (same_bound if same else cross_bound)
        for a, b in itertools.combinations(members, 2):
            assert g.adjacent(a, b)


def test_tree_neighborhoods_covered_by_bounded_cliques():
    g = random_edge_coloring(7, 2, random.Random(5))
    t, q = 2, g.multiplicity
    bundle = RainbowTreeBundle(g, t)
    bounds = bundle.clique_size_bounds()
    assert bounds == {"same-space": 6 * (q - 1), "cross-space": 6 * (t - 1)}
    for idx in range(min(bundle.n_type1, 6)):
        neighborhood_clique_cover(
            bundle, idx, bounds["same-space"], bounds["cross-space"]
        )


def test_latin_neighborhoods_covered_by_bounded_cliques():
    m = random_color_matrix(5, 2, random.Random(6))
    bundle = LatinBundle(m, 2)
    bounds = bundle.clique_size_bounds()
    assert bounds == {
        "same-space": 5 * (m.multiplicity - 1),
        "cross-space": 5 * (2 - 1),
    }
    for idx in range(min(bundle.n_type1, 6)):
        neighborhood_clique_cover(
            bundle, idx, bounds["same-space"], bounds["cross-space"]
        )


def test_matching_neighborhoods_covered_by_bounded_cliques():
    g = random_edge_coloring(8, 2, random.Random(7))
    bundle = RainbowMatchingBundle(g)
    bounds = bundle.clique_size_bounds()
    assert bounds == {"vertex": (g.multiplicity - 1) * 7}
    for idx in range(min(bundle.n, 6)):
        neighborhood_clique_cover(bundle, idx, bounds["vertex"], 0)


# ---------------------------------------------------------------------------
# cluster parameters


def test_constants_satisfy_the_tightness_identities():
    assert BETA / (1 + 4 * GAMMA_TREE * BETA) ** 8 == pytest.approx(1.0)
    assert BETA / (1 + GAMMA_LATIN * BETA) ** 8 == pytest.approx(1.0)
    assert MATCHING_BETA / (1 + MATCHING_BETA * 27 / 256) ** 4 == pytest.approx(1.0)


def test_builders_return_uniform_cll_params():
    g = random_edge_coloring(6, 2, random.Random(1))
    bundle, params = build_rainbow_tree_instance(g, 2)
    assert params.kind == "cll"
    assert len(params.y) == bundle.n
    assert params.y[0] == pytest.approx(BETA * 4 / 36)

    m = random_color_matrix(4, 2, random.Random(1))
    bundle, params = build_latin_instance(m, 2)
    assert len(params.y) == bundle.n
    assert params.y[0] == pytest.approx(BETA / 12)

    g2 = random_edge_coloring(6, 2, random.Random(2))
    bundle, params = build_rainbow_matching_instance(g2)
    assert len(params.y) == bundle.n
    if bundle.n:
        assert params.y[0] == pytest.approx(MATCHING_BETA / 15)


def test_uniform_params_sum_as_their_tuples_at_acceptance_sizes():
    instances = [
        build_latin_instance(random_color_matrix(128, 6, random.Random(derive_seed(99, 0))), 6),
        build_rainbow_tree_instance(
            random_edge_coloring(256, 3, random.Random(derive_seed(110, 0))), 3),
        build_rainbow_matching_instance(
            random_edge_coloring(128, 13, random.Random(derive_seed(88, 0)))),
    ]
    for bundle, params in instances:
        assert isinstance(params.y, Uniform) and len(params.y) == bundle.n
        as_tuple = CriterionParams(kind="cll", y=tuple(params.y))
        assert [s.hex() for s in params.bound_sums] == [s.hex() for s in as_tuple.bound_sums]
        assert tail_bounds(params) == tail_bounds(as_tuple)


def per_family_criterion(bundle):
    """(params y, criterion verdict) as each family wrote them out on its own,
    before the families shared one criterion over their data."""
    if isinstance(bundle, RainbowTreeBundle):
        n, t, q = bundle.size, bundle.t, bundle.coloring.multiplicity
        y = BETA * 4 / n**2
        p = 4 / n**2
        return y, p * (1 + (n - 1) * (t - 1) * y) ** 4 * (1 + (n - 1) * (q - 1) * y) ** 4 <= y
    if isinstance(bundle, LatinBundle):
        n, t, q = bundle.size, bundle.t, bundle.coloring.multiplicity
        p = 1 / (n * (n - 1))
        y = BETA * p
        return (BETA / (n * (n - 1)),
                p * (1 + n * (t - 1) * y) ** 4 * (1 + n * (q - 1) * y) ** 4 <= y)
    m, q = bundle.size, bundle.coloring.multiplicity
    p = 1 / ((m - 1) * (m - 3))
    y = MATCHING_BETA * p
    return MATCHING_BETA / ((m - 1) * (m - 3)), p * (1 + (q - 1) * (m - 1) * y) ** 4 <= y


def criterion_grid():
    rng = random.Random(4)
    for n in range(2, 41, 3):
        for q in range(1, 7):
            matrix, coloring = random_color_matrix(n, q, rng), random_edge_coloring(n, q, rng)
            for t in range(1, 5):
                yield LatinBundle(matrix, t)
                yield RainbowTreeBundle(coloring, t)
    for m in range(4, 61, 4):
        for q in range(1, 9):
            yield RainbowMatchingBundle(random_edge_coloring(m, q, rng))


def test_shared_criterion_matches_the_per_family_formulas():
    verdicts = set()
    for bundle in criterion_grid():
        y, ok = per_family_criterion(bundle)
        assert bundle.cluster_criterion_ok() == ok, (bundle.kind, bundle.size, bundle.t)
        if bundle.n:
            assert bundle.params().y[0].hex() == y.hex(), (bundle.kind, bundle.size)
        verdicts.add((bundle.kind, ok))
    assert len(verdicts) == 6  # each family both passes and fails somewhere


def test_families_give_data_not_criterion_code():
    families = apps._AppBundle.__subclasses__()
    assert {cls.kind for cls in families} == {"latin", "rainbow-tree", "rainbow-matching"}
    for cls in families:
        assert not {"params", "cluster_criterion_ok"} & set(vars(cls)), cls
    assert not {"sample", "holds", "resample", "occurring"} & set(vars(RainbowMatchingBundle))


def test_apps_draw_and_redraw_through_the_families_only():
    # the module boundary: apps reads each structure from its oracles
    # family object, and names none of the draws or redraws itself
    draws = {name for name in vars(oracles) if name in ("shuffle", "below")
             or name.startswith("sample_") or name.endswith("_resample")}
    source = Path(apps.__file__).read_text(encoding="utf-8")
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    assert names & draws == set()
    hooks = {"_draw", "_redraw", "_contains", "_ranks", "_vertices", "_pos", "_item",
             "exclusive"}
    for cls in (apps._AppBundle, *apps._AppBundle.__subclasses__()):
        assert not hooks & set(vars(cls)), cls


def test_cluster_criterion_holds_at_contest_scale():
    g = random_edge_coloring(64, 6, random.Random(3))
    assert RainbowMatchingBundle(g).cluster_criterion_ok()


def test_cluster_criterion_fails_when_colors_pile_up():
    assert not RainbowMatchingBundle(round_robin_coloring(8)).cluster_criterion_ok()


# ---------------------------------------------------------------------------
# occurrence scans and oracle containment


def scan_matches_holds(bundle, states):
    for state in states:
        assert sorted(bundle.occurring(state)) == [
            i for i in range(bundle.n) if bundle.holds(i, state)
        ]


def test_tree_occurrence_scan():
    g = random_edge_coloring(6, 2, random.Random(8))
    bundle = RainbowTreeBundle(g, 2)
    rng = random.Random(0)
    scan_matches_holds(bundle, [bundle.sample(rng) for _ in range(25)])


def test_matching_occurrence_scan():
    g = random_edge_coloring(8, 2, random.Random(8))
    bundle = RainbowMatchingBundle(g)
    rng = random.Random(0)
    scan_matches_holds(bundle, [bundle.sample(rng) for _ in range(25)])


def test_latin_occurrence_scan():
    bundle = LatinBundle(random_color_matrix(5, 2, random.Random(8)), 2)
    rng = random.Random(0)
    scan_matches_holds(bundle, [bundle.sample(rng) for _ in range(25)])


def test_app_oracles_respect_declared_dependencies():
    """No R2 violation against the built (conservative) graphs."""
    tree = RainbowTreeBundle(random_edge_coloring(6, 2, random.Random(12)), 2)
    matching = RainbowMatchingBundle(round_robin_coloring(6))
    latin = LatinBundle(random_color_matrix(5, 2, random.Random(12)), 2)
    checks = [(tree, 0), (tree, tree.n - 1), (matching, 0),
              (latin, 0), (latin, latin.n - 1)]
    for bundle, event in checks:
        assert run_r2(bundle, event, trials=400, seed=event) == 0


# ---------------------------------------------------------------------------
# solution checks: ``apps._valid_solution``, which ``validate_solution``
# runs on the bundle's family and coloring


def test_validate_rainbow_matching():
    g = round_robin_coloring(6)
    edges = color_classes(g)[0]
    partner = [0] * 6
    for u, v in edges:
        partner[u], partner[v] = v, u
    family = PerfectMatchings(6)
    # a whole color class is monochromatic, not rainbow
    assert not apps._valid_solution(family, g.ids, [partner])
    assert apps._valid_solution(family, rainbow_edge_coloring(6).ids, [partner])
    assert not apps._valid_solution(family, g.ids, [partner[:-1]])
    broken = list(partner)
    broken[0] = 0
    assert not apps._valid_solution(family, g.ids, [broken])


def test_validate_rainbow_trees():
    g = rainbow_edge_coloring(5)
    family = SpanningTrees(5)
    star = frozenset((0, v) for v in range(1, 5))
    path = frozenset([(1, 2), (2, 3), (3, 4), (1, 4)])
    assert apps._valid_solution(family, g.ids, [star])
    assert not apps._valid_solution(family, g.ids, [path])  # contains a cycle
    assert not apps._valid_solution(family, g.ids, [star, star])  # shared edges
    mono = coloring_with_pair(5, (0, 1), (0, 2))
    assert not apps._valid_solution(family, mono.ids, [star])  # repeated color


def test_tree_solutions_are_checked_on_their_edge_sets_alone():
    # the parent arrays and adjacency a tree keeps for its redraws are not
    # read: corrupting them leaves every verdict as it was
    coloring = random_edge_coloring(12, 2, random.Random(5))
    bundle = RainbowTreeBundle(coloring, 2)
    state, log = maximal_set_resample(bundle, 3)
    assert log.terminated
    first = state[0]
    for trees in (state, (first, first), (first, first - {min(first)})):
        verdict = bundle.validate_solution(trees)
        corrupted = []
        for tree in trees:
            bad = TreeState(tree)
            bad.parent, bad.adj = [0] * 12, [[]] * 12
            corrupted.append(bad)
        assert bundle.validate_solution(corrupted) == verdict
    assert bundle.validate_solution(state)


def test_validate_solution_flags_broken_oracle_output(monkeypatch):
    # a resample that breaks its structure is caught where solutions are
    # validated, not inside the oracle
    def drop_an_edge(tree, edges, rng):
        out = tree_resample(tree, edges, rng)
        return out - {max(out)}

    def self_match(partner, edges, rng):
        return (0, *matching_resample(partner, edges, rng)[1:])

    cases = [
        (RainbowTreeBundle(random_edge_coloring(6, 2, random.Random(3)), 2), drop_an_edge),
        (RainbowMatchingBundle(round_robin_coloring(8)), self_match),
    ]
    for bundle, broken in cases:
        rng = random.Random(1)
        state = bundle.sample(rng)
        while not bundle.occurring(state):
            state = bundle.sample(rng)
        event = bundle.occurring(state)[0]
        with monkeypatch.context() as patch:
            patch.setattr(bundle.family, "redraw", broken)
            assert not bundle.validate_solution(bundle.resample(event, state, rng))


def test_validate_disjoint_transversals():
    ids = distinct_color_matrix(4).ids
    family = Permutations(4)
    a = (0, 1, 2, 3)
    b = (1, 2, 3, 0)
    assert apps._valid_solution(family, ids, [a, b])
    assert apps._valid_solution(family, ids, [])  # no structure breaks no rule
    assert not apps._valid_solution(family, ids, [a, a])  # shared cells
    assert not apps._valid_solution(family, ids, [(0, 0, 2, 3)])
    constant = ColorMatrix([[0] * 4] * 4)
    assert not apps._valid_solution(family, constant.ids, [a])


@pytest.mark.parametrize("make, seed", [
    pytest.param(lambda: LatinBundle(random_color_matrix(5, 2, random.Random(1)), 2), 2,
                 id="latin"),
    pytest.param(lambda: RainbowTreeBundle(random_edge_coloring(6, 2, random.Random(3)), 2), 1,
                 id="rainbow-tree"),
    pytest.param(lambda: RainbowMatchingBundle(round_robin_coloring(8)), 5,
                 id="rainbow-matching"),
])
def test_validate_solution_reads_no_event_model(make, seed, monkeypatch):
    bundle = make()
    state, log = maximal_set_resample(bundle, seed, 100_000)
    assert log.terminated

    def refuse(*args):
        raise AssertionError("validation read the event model")

    for name in ("_parts", "_pair_index", "occurring"):
        monkeypatch.setattr(apps._AppBundle, name, refuse)
    assert bundle.validate_solution(state)
    # the first structure's items also in a second one, each structure
    # still a solution on its own
    shared = (*state, state[0])
    assert all(bundle.validate_solution((structure,)) for structure in shared)
    assert not bundle.validate_solution(shared)
    # two items of one structure given one color
    first, second = bundle.family.ranks(state[0])[:2]
    ids = bundle.coloring.ids.copy()
    ids[second] = ids[first]
    monkeypatch.setattr(bundle, "coloring", SimpleNamespace(ids=ids))
    assert not bundle.validate_solution(state)


def _shuffled(n, rng):
    order = list(range(n))
    rng.shuffle(order)
    return order


MUTATIONS = {
    "latin": ["none", "length", "repeat", "shared", "color"],
    "tree": ["none", "lists", "cycle", "shared", "color", "degenerate", "length"],
    "matching": ["none", "length", "self", "swap", "color"],
}


@st.composite
def validator_cases(draw):
    """(family, reference, coloring, structures, mutation): a small random
    coloring and random structures of one application, spoilt by one
    mutation or none."""
    kind = draw(st.sampled_from(sorted(MUTATIONS)))
    mutation = draw(st.sampled_from(MUTATIONS[kind]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "latin":
        n = rng.randint(1, 4)
        perms = [_shuffled(n, rng) for _ in range(rng.randint(1, 3))]
        colors = [[rng.randrange(rng.randint(1, n * n)) for _ in range(n)] for _ in range(n)]
        if mutation == "length":
            perms[0] = perms[0][:-1] if rng.random() < 0.5 else perms[0] + [0]
        elif mutation == "repeat" and n > 1:
            perms[0][0] = perms[0][1]
        elif mutation == "shared":
            perms.append(list(perms[-1]))
        elif mutation == "color" and n > 1:
            pi = perms[0]
            colors[1][pi[1]] = colors[0][pi[0]]
        return (Permutations(n), brute_disjoint_transversals,
                ColorMatrix(colors), [tuple(pi) for pi in perms], mutation)
    n = rng.randrange(0, 8, 2) if kind == "matching" else rng.randint(1, 6)
    if kind == "tree":
        structures = []
        for _ in range(rng.randint(1, 3)):
            order = _shuffled(n, rng)
            structures.append([tuple(sorted((order[k], order[rng.randrange(k)])))
                               for k in range(1, n)])
        edges = structures[0]
    else:
        order, partner = _shuffled(n, rng), list(range(n))
        for u, v in zip(order[::2], order[1::2]):
            partner[u], partner[v] = v, u
        structures = partner
        edges = matching_pairs(partner)
    k = rng.randint(1, max(n * (n - 1) // 2, 1))
    color = {(u, v): rng.randrange(k) for u in range(n) for v in range(u + 1, n)}
    if mutation == "color" and len(edges) > 1:
        color[edges[1]] = color[edges[0]]
    elif kind == "matching":
        if mutation == "length":
            structures = partner[:-1]
        elif mutation == "self" and n:
            partner[0] = 0
        elif mutation == "swap" and n > 3:
            partner[partner[0]] = partner[1]
    elif mutation == "lists":
        structures = [[list(e) for e in tree] for tree in structures]
    elif mutation == "cycle" and n > 2:
        structures[0][0] = tuple(sorted(rng.sample(range(n), 2)))
    elif mutation == "shared":
        structures.append(list(structures[0]))
    elif mutation == "degenerate":
        v = rng.randrange(n)
        structures[-1][:1] = [(v, v)]
    elif mutation == "length":
        structures[0] = structures[0][:-1] if structures[0] else [(0, 1)]
    if kind == "tree":
        return (SpanningTrees(n), brute_rainbow_trees, ColoredCompleteGraph(n, color),
                structures, mutation)
    return (PerfectMatchings(n), lambda coloring, s: brute_rainbow_matching(coloring, *s),
            ColoredCompleteGraph(n, color), [structures], mutation)


@settings(max_examples=300, deadline=None)
@given(validator_cases())
def test_validators_agree_with_brute_force(case):
    family, reference, coloring, structures, mutation = case
    expected = reference(coloring, structures)
    assert apps._valid_solution(family, coloring.ids, structures) == expected
    assert not (expected and mutation == "degenerate")


# ---------------------------------------------------------------------------
# end-to-end solving


def test_rainbow_coloring_single_tree_is_instant():
    bundle, params = build_rainbow_tree_instance(rainbow_edge_coloring(6), 1)
    assert bundle.n == 0
    report = solve(bundle, params, seed=3)
    assert report.terminated and report.validated
    assert report.total_resamples == 0
    assert report.log.iterations == [[]]
    assert len(report.solution["trees"]) == 1


def test_distinct_matrix_single_transversal_is_instant():
    bundle, params = build_latin_instance(distinct_color_matrix(5), 1)
    assert bundle.n == 0
    report = solve(bundle, params, seed=0)
    assert report.validated
    assert sorted(report.solution["transversals"][0]) == list(range(5))


def _partner_from_pairs(pairs, n):
    partner = [0] * n
    for u, v in pairs:
        partner[u], partner[v] = v, u
    return partner


def test_solve_rainbow_matching_small():
    bundle, params = build_rainbow_matching_instance(round_robin_coloring(8))
    report = solve(bundle, params, seed=5, budget=100_000)
    assert report.terminated
    assert report.validated
    partner = _partner_from_pairs(report.solution["matching"], 8)
    assert bundle.validate_solution([partner])


def test_solve_rainbow_trees_small():
    g = random_edge_coloring(6, 2, random.Random(3))
    bundle, params = build_rainbow_tree_instance(g, 2)
    report = solve(bundle, params, seed=1, budget=100_000)
    assert report.terminated and report.validated
    trees = [[tuple(e) for e in tree] for tree in report.solution["trees"]]
    assert bundle.validate_solution(trees)


def test_solve_latin_small():
    m = random_color_matrix(5, 2, random.Random(1))
    bundle, params = build_latin_instance(m, 2)
    report = solve(bundle, params, seed=2, budget=100_000)
    assert report.terminated and report.validated
    assert bundle.validate_solution([tuple(p) for p in report.solution["transversals"]])


def test_solve_reports_budget_exhaustion():
    # a constant matrix admits no transversal, so the run cannot finish
    bundle, params = build_latin_instance(ColorMatrix([[0] * 4] * 4), 1)
    report = solve(bundle, params, seed=0, budget=50)
    assert not report.terminated
    assert not report.validated
    assert report.total_resamples == 50


def test_solve_is_deterministic_per_seed():
    g = random_edge_coloring(6, 2, random.Random(3))
    bundle, params = build_rainbow_tree_instance(g, 2)
    first = solve(bundle, params, seed=9, budget=100_000)
    second = solve(bundle, params, seed=9, budget=100_000)
    assert first.to_json() == second.to_json()


def test_solution_report_shape():
    bundle, params = build_latin_instance(distinct_color_matrix(4), 2)
    report = solve(bundle, params, seed=4, budget=100_000)
    obj = report.to_json()
    assert set(obj) == {
        "kind", "seed", "budget", "terminated", "validated",
        "total_resamples", "predicted_bounds", "solution", "log",
    }
    assert obj["kind"] == "latin"
    assert set(obj["predicted_bounds"]) == {"t=1", "t=ln(1e4)"}
    assert obj["predicted_bounds"]["t=1"] > 0
