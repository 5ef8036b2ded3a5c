"""Concrete oracle correctness.

The permutation and matching resamplers consume boundedly many draws,
so their output laws are checked exactly by enumerating every RNG
branch.  The tree resampler involves random walks and is checked
statistically plus via exact spanning tree counts from a determinant.
"""

import itertools
import random
from fractions import Fraction

import pytest

from helpers import (
    Multigraph,
    complete_multigraph,
    exact_outcomes,
    kirchhoff_tree_count,
    uniform_spanning_tree,
)
from locallemma.oracles import (
    PRODUCT_LAW_CAP,
    MatchingBundle,
    OracleEventError,
    PatternEvent,
    PerfectMatchings,
    PermutationBundle,
    Permutations,
    SpanningTrees,
    TreeBundle,
    VariableBundle,
    VariableEvent,
    is_perfect_matching,
    is_spanning_tree,
    matching_pairs,
    matching_resample,
    permutation_resample,
    tree_resample,
)
from locallemma.verify import test_r1 as check_r1, test_r2 as check_r2


# ---------------------------------------------------------------------------
# permutations


def test_pattern_event_rejects_duplicates():
    with pytest.raises(ValueError):
        PatternEvent(((0, 0), (0, 1)))
    with pytest.raises(ValueError):
        PatternEvent(((0, 1), (2, 1)))


def test_permutation_resample_needs_occurring_event():
    with pytest.raises(OracleEventError):
        permutation_resample((1, 0, 2), PatternEvent(((0, 0),)).pairs, random.Random(0))


def test_permutation_resample_exactly_uniform_one_pair():
    event = PatternEvent(((0, 0),))
    n = 4
    conditioned = [p for p in itertools.permutations(range(n)) if p[0] == 0]
    mixture = {}
    weight = Fraction(1, len(conditioned))
    for pi in conditioned:
        for out, pr in exact_outcomes(
            lambda rng, pi=pi: permutation_resample(pi, event.pairs, rng)
        ).items():
            mixture[out] = mixture.get(out, Fraction(0)) + weight * pr
    assert len(mixture) == 24
    assert all(pr == Fraction(1, 24) for pr in mixture.values())


def test_permutation_resample_exactly_uniform_two_pairs():
    event = PatternEvent(((0, 1), (1, 0)))
    n = 4
    conditioned = [
        p for p in itertools.permutations(range(n)) if p[0] == 1 and p[1] == 0
    ]
    mixture = {}
    weight = Fraction(1, len(conditioned))
    for pi in conditioned:
        for out, pr in exact_outcomes(
            lambda rng, pi=pi: permutation_resample(pi, event.pairs, rng)
        ).items():
            mixture[out] = mixture.get(out, Fraction(0)) + weight * pr
    assert mixture == {
        p: Fraction(1, 24) for p in itertools.permutations(range(n))
    }


def test_permutation_resample_full_domain_is_shuffle():
    event = PatternEvent(((0, 0), (1, 1), (2, 2)))
    outcomes = exact_outcomes(
        lambda rng: permutation_resample((0, 1, 2), event.pairs, rng)
    )
    assert outcomes == {
        p: Fraction(1, 6) for p in itertools.permutations(range(3))
    }


# ---------------------------------------------------------------------------
# matchings


def test_matching_enumeration_counts():
    assert len(PerfectMatchings(4).exact_distribution()) == 3
    assert len(PerfectMatchings(6).exact_distribution()) == 15


def test_matching_resample_needs_occurring_event():
    partner = (1, 0, 3, 2)
    with pytest.raises(OracleEventError):
        matching_resample(partner, [(0, 2)], random.Random(0))


def test_matching_resample_no_draw_when_nothing_free():
    outcomes = exact_outcomes(lambda rng: matching_resample((1, 0), [(0, 1)], rng))
    assert outcomes == {(1, 0): Fraction(1)}


def test_matching_resample_exactly_uniform_one_edge():
    # the keep probability passes through a float, so probabilities are
    # exact only up to one ulp of 1/(2m+1)
    event = [(0, 1)]
    conditioned = [m for m in PerfectMatchings(6).exact_distribution() if m[0] == 1]
    assert len(conditioned) == 3
    mixture = {}
    weight = Fraction(1, 3)
    for m in conditioned:
        for out, pr in exact_outcomes(
            lambda rng, m=m: matching_resample(m, event, rng)
        ).items():
            mixture[out] = mixture.get(out, Fraction(0)) + weight * pr
    assert set(mixture) == set(PerfectMatchings(6).exact_distribution())
    for pr in mixture.values():
        assert abs(float(pr) - 1 / 15) < 1e-12


def test_matching_resample_exactly_uniform_two_edges():
    # both edges pinned leaves a single conditioned state
    event = [(0, 1), (2, 3)]
    start = (1, 0, 3, 2, 5, 4)
    outcomes = exact_outcomes(lambda rng: matching_resample(start, event, rng))
    assert set(outcomes) == set(PerfectMatchings(6).exact_distribution())
    for pr in outcomes.values():
        assert abs(float(pr) - 1 / 15) < 1e-12


def test_sample_perfect_matching_is_valid():
    rng = random.Random(3)
    for _ in range(50):
        assert is_perfect_matching(PerfectMatchings(8).sample(rng))


def test_matching_pairs_normalization():
    assert matching_pairs((1, 0, 3, 2)) == [(0, 1), (2, 3)]


# ---------------------------------------------------------------------------
# spanning trees


def test_tree_counts_match_determinant():
    k5 = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    assert len(SpanningTrees(5).exact_distribution()) == 125
    assert kirchhoff_tree_count(5, k5) == 125
    k6 = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    assert kirchhoff_tree_count(6, k6) == 1296
    assert len(SpanningTrees(6).exact_distribution()) == 1296


def test_wilson_uniform_on_cycle():
    g = Multigraph(4)
    for u, v in ((0, 1), (1, 2), (2, 3), (3, 0)):
        g.add_edge(u, v)
    rng = random.Random(99)
    counts = {}
    runs = 40_000
    for _ in range(runs):
        t = tuple(sorted(uniform_spanning_tree(g, rng)))
        counts[t] = counts.get(t, 0) + 1
    assert len(counts) == 4
    sigma = (0.25 * 0.75 / runs) ** 0.5
    for c in counts.values():
        assert abs(c / runs - 0.25) < 4 * sigma


def test_wilson_respects_multiplicities():
    # triangle with a doubled edge: 5 weighted trees over 3 edge sets
    assert kirchhoff_tree_count(3, [(0, 1), (0, 1), (1, 2), (0, 2)]) == 5
    g = Multigraph(3)
    g.add_edge(0, 1, mult=2)
    g.add_edge(1, 2)
    g.add_edge(0, 2)
    rng = random.Random(7)
    counts = {}
    runs = 50_000
    for _ in range(runs):
        t = tuple(sorted(tuple(sorted(e)) for e in uniform_spanning_tree(g, rng)))
        counts[t] = counts.get(t, 0) + 1
    expected = {
        ((0, 1), (1, 2)): Fraction(2, 5),
        ((0, 1), (0, 2)): Fraction(2, 5),
        ((0, 2), (1, 2)): Fraction(1, 5),
    }
    for t, target in expected.items():
        sigma = (float(target) * (1 - float(target)) / runs) ** 0.5
        assert abs(counts[t] / runs - float(target)) < 4 * sigma


def test_wilson_requires_connectivity():
    g = Multigraph(3)
    g.add_edge(0, 1)
    with pytest.raises(ValueError):
        uniform_spanning_tree(g, random.Random(0))


def test_tree_resample_needs_occurring_event():
    tree = frozenset({(0, 1), (1, 2), (2, 3)})
    with pytest.raises(OracleEventError):
        tree_resample(tree, [(0, 3)], random.Random(0))


def test_a_plain_edge_set_is_refused():
    # a tree to redraw is one that a sample or a redraw made
    tree = SpanningTrees(6).sample(random.Random(4))
    event = [min(tree)]
    with pytest.raises(TypeError):
        tree_resample(frozenset(tree), event, random.Random(0))
    with pytest.raises(TypeError):
        TreeBundle(6, [event]).resample(0, frozenset(tree), random.Random(0))
    # the TreeState itself still redraws
    assert is_spanning_tree(6, tree_resample(tree, event, random.Random(0)))


def test_tree_resample_outputs_spanning_trees():
    rng = random.Random(12)
    for _ in range(200):
        tree = SpanningTrees(7).sample(rng)
        edges = sorted(tree)
        k = rng.randrange(1, 4)
        event = rng.sample(edges, min(k, len(edges)))
        out = tree_resample(tree, event, rng)
        assert is_spanning_tree(7, out)


def test_tree_resample_conditional_uniformity():
    bundle = TreeBundle(4, [((0, 1),)])
    report = check_r1(bundle, 0, samples=60_000, seed=5)
    assert report.passed, report.to_json()


def test_sample_spanning_tree_matches_a_fresh_complete_graph_walk():
    # repeated calls reuse one K_n per n; the trees and the random stream
    # must be those of a walk on a freshly built K_n
    for n in (1, 2, 5, 9, 40):
        for seed in range(4):
            fast, fresh = random.Random(seed), random.Random(seed)
            for _ in range(3):
                expected = frozenset(
                    tuple(sorted(e))
                    for e in uniform_spanning_tree(complete_multigraph(n), fresh)
                )
                assert SpanningTrees(n).sample(fast) == expected
            assert fast.getstate() == fresh.getstate()


def test_tree_edge_marginal():
    # any fixed edge of K_n lies in 2/n of all spanning trees
    rng = random.Random(21)
    runs = 50_000
    hits = sum((0, 1) in SpanningTrees(5).sample(rng) for _ in range(runs))
    p = 2 / 5
    sigma = (p * (1 - p) / runs) ** 0.5
    assert abs(hits / runs - p) < 4 * sigma


# ---------------------------------------------------------------------------
# variables


def test_variable_weighted_draw_exact():
    dists = [((0, 1, 2), (0.5, 0.25, 0.25))]
    events = [VariableEvent(variables=(0,), predicate=lambda v: v == 0)]
    bundle = VariableBundle(dists, events)
    # resample from the conditioned state: value 0 occurs, redraw variable
    law = exact_outcomes(lambda rng: bundle.resample(0, (0,), rng))
    assert law == {
        (0,): Fraction(1, 2),
        (1,): Fraction(1, 4),
        (2,): Fraction(1, 4),
    }


def test_variable_bundle_adjacency_by_shared_variable():
    events = [
        VariableEvent(variables=(0,), predicate=lambda v: v == 1),
        VariableEvent(variables=(0, 1), predicate=lambda a, b: a == b),
        VariableEvent(variables=(2,), predicate=lambda v: v == 1),
    ]
    bundle = VariableBundle([((0, 1), None)] * 3, events)
    assert bundle.graph.adjacent(0, 1)
    assert not bundle.graph.adjacent(0, 2)
    assert not bundle.graph.adjacent(1, 2)


def test_variable_exact_distribution_sums_to_one():
    bundle = VariableBundle(
        [((0, 1), (0.25, 0.75)), ((0, 1), None)],
        [VariableEvent(variables=(0,), predicate=lambda v: v == 0)],
    )
    dist = bundle.exact_distribution()
    assert sum(dist.values()) == pytest.approx(1.0)
    assert len(dist) == 4


# ---------------------------------------------------------------------------
# bundle adjacency rules


def test_permutation_bundle_adjacency():
    events = [
        PatternEvent(((0, 0),)),
        PatternEvent(((1, 1),)),
        PatternEvent(((0, 2),)),
        PatternEvent(((3, 1),)),
    ]
    bundle = PermutationBundle(4, events)
    assert not bundle.graph.adjacent(0, 1)
    assert bundle.graph.adjacent(0, 2)  # shared domain position
    assert bundle.graph.adjacent(1, 3)  # shared range value
    assert not bundle.graph.adjacent(2, 3)


def test_matching_bundle_adjacency():
    bundle = MatchingBundle(8, [((0, 1),), ((2, 3),), ((1, 2),), ((0, 1), (2, 3)),
                                ((1, 4),)])
    assert not bundle.graph.adjacent(0, 1)
    assert bundle.graph.adjacent(0, 2)
    assert bundle.graph.adjacent(1, 2)
    # union {(0,1),(2,3)} is itself a matching: rewiring one event's edges
    # can only create edges at its own vertices, never the shared edge
    assert not bundle.graph.adjacent(0, 3)
    assert bundle.graph.adjacent(0, 4)


def test_tree_bundle_adjacency():
    bundle = TreeBundle(6, [((0, 1),), ((2, 3),), ((1, 2),)])
    assert not bundle.graph.adjacent(0, 1)
    assert bundle.graph.adjacent(0, 2)
    assert bundle.graph.adjacent(1, 2)


# ---------------------------------------------------------------------------
# holds against its definition on every state


def _is_zero(v):
    return v == 0


def _equal(a, b):
    return a == b


def _holds_cases():
    """(bundle, definition(event, state), the state forms to try)."""
    as_tuple, as_list, as_set = tuple, list, frozenset
    perm = PermutationBundle(4, [
        PatternEvent(((0, 0),)), PatternEvent(((1, 2), (3, 0))),
        PatternEvent(((0, 3), (1, 2), (2, 1))), PatternEvent(()),
    ])
    match = MatchingBundle(6, [((0, 1),), ((1, 0), (2, 3)), ((0, 1), (2, 3), (4, 5)),
                               ((5, 2),), ()])
    tree = TreeBundle(5, [((0, 1),), ((1, 2), (0, 1)), ((0, 1), (1, 2), (0, 2)),
                          ((4, 3), (0, 2)), ()])
    var = VariableBundle([((0, 1, 2), None), ((0, 1), (1, 3)), (("a", "b"), None)], [
        VariableEvent((0,), _is_zero), VariableEvent((0, 1), _equal),
        VariableEvent((2, 0), lambda c, a: c == "b" and a > 0), VariableEvent((), lambda: True),
    ])
    return [
        (perm, lambda ev, pi: all(pi[x] == y for x, y in ev.pairs), (as_tuple, as_list)),
        (match, lambda ev, m: all(m[u] == v for u, v in ev), (as_tuple, as_list)),
        (tree, lambda ev, t: all(e in t for e in ev), (as_tuple, as_list, as_set)),
        (var, lambda ev, values: bool(ev.predicate(*(values[v] for v in ev.variables))),
         (as_tuple, as_list)),
    ]


@pytest.mark.parametrize("case", range(4), ids=["permutation", "matching", "tree", "variable"])
def test_holds_equals_its_definition_on_every_state(case):
    bundle, definition, forms = _holds_cases()[case]
    seen = set()
    for state in bundle.exact_distribution():
        for i, ev in enumerate(bundle.events):
            want = definition(ev, state)
            seen.add(want)
            for form in forms:
                assert bundle.holds(i, form(state)) is want, (i, state, form)
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# structure families


#: (family, its item test written out, its items in sorted order)
FAMILIES = [
    pytest.param(Permutations(n), lambda pi, c: pi[c[0]] == c[1],
                 [(u, v) for u in range(n) for v in range(n)], id=f"permutations-{n}")
    for n in (1, 2, 3, 4)
] + [
    pytest.param(PerfectMatchings(n), lambda partner, e: partner[e[0]] == e[1],
                 [(u, v) for u in range(n) for v in range(u + 1, n)], id=f"matchings-{n}")
    for n in (2, 4, 6)
] + [
    pytest.param(SpanningTrees(n), lambda tree, e: e in tree,
                 [(u, v) for u in range(n) for v in range(u + 1, n)], id=f"trees-{n}")
    for n in (1, 2, 3, 4, 5)
]


@pytest.mark.parametrize("family, contains, items", FAMILIES)
def test_family_items_ranks_and_vertices(family, contains, items):
    n = family.n
    assert family.n_items == len(items)
    x, y = family.vertex_arrays()
    for r, item in enumerate(items):
        assert family.rank(item) == r and family.item(r) == item
        # the conflict geometry: cell (u, v) touches u and n + v, an edge its ends
        u, v = item
        want = (u, n + v) if isinstance(family, Permutations) else (u, v)
        assert family.vertices(item) == want == (x[r], y[r])


@pytest.mark.parametrize("family, contains, items", FAMILIES)
def test_family_states_list_exactly_their_items(family, contains, items):
    law = family.exact_distribution()
    assert sum(law.values()) == pytest.approx(1.0)
    shared_vertex = False
    for state in law:
        assert family.valid(state)
        present = [r for r, item in enumerate(items) if contains(state, item)]
        assert [r for r, item in enumerate(items) if family.holds(state, (item,))] == present
        assert sorted(family.ranks(state)) == present
        assert family.holds(state, [items[r] for r in present])
        touched = [v for r in present for v in family.vertices(items[r])]
        shared_vertex |= len(touched) != len(set(touched))
    # exclusive families never hold two items on a shared vertex; trees do
    assert shared_vertex == (not family.exclusive and family.n > 2)


@pytest.mark.parametrize("family, contains, items", FAMILIES)
def test_family_draws_and_redraws_valid_states(family, contains, items):
    rng = random.Random(7)
    law = family.exact_distribution()
    for _ in range(20):
        state = family.sample(rng)
        assert state in law
        present = sorted(family.ranks(state))
        if present:
            state = family.redraw(state, [items[present[-1]]], rng)
            assert family.valid(state) and state in law


def test_tree_with_an_edge_given_high_end_first_is_not_valid():
    # ranks() reads each edge (u, v) as u < v, so solution checks need it
    star = frozenset((0, v) for v in range(1, 5))
    assert SpanningTrees(5).valid(star)
    assert not SpanningTrees(5).valid(star - {(0, 4)} | {(4, 0)})


def test_edge_family_rank_inverts_at_scale():
    for n in (2, 3, 1024, 1449):
        family = SpanningTrees(n)
        last = family.n_items - 1
        for r in {0, last // 3, last // 2, max(last - 1, 0), last}:
            assert family.rank(family.item(r)) == r
        assert family.item(last) == (n - 2, n - 1)


def test_families_refuse_impossible_sizes():
    with pytest.raises(ValueError):
        PerfectMatchings(5)
    with pytest.raises(ValueError):
        Permutations(9).exact_distribution()


# ---------------------------------------------------------------------------
# product laws


def test_product_laws_past_the_cap_are_refused_before_enumerating():
    # 2^21 joint values
    bits = VariableBundle([((0, 1), None)] * 21, [VariableEvent((0,), bool)])
    with pytest.raises(ValueError, match="PRODUCT_LAW_CAP"):
        bits.exact_distribution()
    assert 2**20 <= PRODUCT_LAW_CAP < 2**21


# ---------------------------------------------------------------------------
# statistical R1/R2 spot checks (the acceptance suite runs the big ones)


def test_r1_small_permutation():
    bundle = PermutationBundle(4, [PatternEvent(((0, 0),))])
    report = check_r1(bundle, 0, samples=50_000, seed=1)
    assert report.passed, report.to_json()


def test_r1_small_matching():
    bundle = MatchingBundle(6, [((0, 1),)])
    report = check_r1(bundle, 0, samples=50_000, seed=2)
    assert report.passed, report.to_json()


def test_r2_disjoint_patterns():
    bundle = PermutationBundle(
        5, [PatternEvent(((0, 0),)), PatternEvent(((1, 1),))]
    )
    assert check_r2(bundle, 0, trials=20_000, seed=3) == 0


def test_r2_disjoint_matching_edges():
    bundle = MatchingBundle(6, [((0, 1),), ((2, 3),)])
    assert check_r2(bundle, 0, trials=20_000, seed=4) == 0


def test_r2_disjoint_tree_edges():
    bundle = TreeBundle(5, [((0, 1),), ((2, 3),)])
    assert check_r2(bundle, 0, trials=10_000, seed=5) == 0


@pytest.mark.parametrize("make, n, event", [
    (TreeBundle, 1, ((0, 1),)),
    (TreeBundle, 4, ((2, 3), (3, 4))),
    (TreeBundle, 4, ((-1, 2),)),
    (MatchingBundle, 4, ((0, 4),)),
])
def test_edge_bundles_reject_edges_outside_the_graph(make, n, event):
    with pytest.raises(ValueError, match="not an edge"):
        make(n, [event])
