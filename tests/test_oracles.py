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

from helpers import exact_outcomes, kirchhoff_tree_count
from locallemma.oracles import (
    MatchingBundle,
    Multigraph,
    OracleEventError,
    PatternEvent,
    PermutationBundle,
    ProductBundle,
    TreeBundle,
    VariableBundle,
    VariableEvent,
    complete_multigraph,
    enumerate_perfect_matchings,
    enumerate_spanning_trees,
    is_perfect_matching,
    is_spanning_tree,
    matching_pairs,
    matching_resample,
    permutation_resample,
    sample_perfect_matching,
    sample_spanning_tree,
    tree_resample,
    uniform_spanning_tree,
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
        permutation_resample((1, 0, 2), PatternEvent(((0, 0),)), random.Random(0))


def test_permutation_resample_exactly_uniform_one_pair():
    event = PatternEvent(((0, 0),))
    n = 4
    conditioned = [p for p in itertools.permutations(range(n)) if p[0] == 0]
    mixture = {}
    weight = Fraction(1, len(conditioned))
    for pi in conditioned:
        for out, pr in exact_outcomes(
            lambda rng, pi=pi: permutation_resample(pi, event, rng)
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
            lambda rng, pi=pi: permutation_resample(pi, event, rng)
        ).items():
            mixture[out] = mixture.get(out, Fraction(0)) + weight * pr
    assert mixture == {
        p: Fraction(1, 24) for p in itertools.permutations(range(n))
    }


def test_permutation_resample_full_domain_is_shuffle():
    event = PatternEvent(((0, 0), (1, 1), (2, 2)))
    outcomes = exact_outcomes(
        lambda rng: permutation_resample((0, 1, 2), event, rng)
    )
    assert outcomes == {
        p: Fraction(1, 6) for p in itertools.permutations(range(3))
    }


# ---------------------------------------------------------------------------
# matchings


def test_matching_enumeration_counts():
    assert len(enumerate_perfect_matchings(4)) == 3
    assert len(enumerate_perfect_matchings(6)) == 15


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
    conditioned = [m for m in enumerate_perfect_matchings(6) if m[0] == 1]
    assert len(conditioned) == 3
    mixture = {}
    weight = Fraction(1, 3)
    for m in conditioned:
        for out, pr in exact_outcomes(
            lambda rng, m=m: matching_resample(m, event, rng)
        ).items():
            mixture[out] = mixture.get(out, Fraction(0)) + weight * pr
    assert set(mixture) == set(enumerate_perfect_matchings(6))
    for pr in mixture.values():
        assert abs(float(pr) - 1 / 15) < 1e-12


def test_matching_resample_exactly_uniform_two_edges():
    # both edges pinned leaves a single conditioned state
    event = [(0, 1), (2, 3)]
    start = (1, 0, 3, 2, 5, 4)
    outcomes = exact_outcomes(lambda rng: matching_resample(start, event, rng))
    assert set(outcomes) == set(enumerate_perfect_matchings(6))
    for pr in outcomes.values():
        assert abs(float(pr) - 1 / 15) < 1e-12


def test_sample_perfect_matching_is_valid():
    rng = random.Random(3)
    for _ in range(50):
        assert is_perfect_matching(sample_perfect_matching(8, rng))


def test_matching_pairs_normalization():
    assert matching_pairs((1, 0, 3, 2)) == [(0, 1), (2, 3)]


# ---------------------------------------------------------------------------
# spanning trees


def test_tree_counts_match_determinant():
    k5 = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    assert len(enumerate_spanning_trees(5)) == 125
    assert kirchhoff_tree_count(5, k5) == 125
    k6 = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    assert kirchhoff_tree_count(6, k6) == 1296
    assert len(enumerate_spanning_trees(6)) == 1296


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


def test_tree_resample_outputs_spanning_trees():
    rng = random.Random(12)
    for _ in range(200):
        tree = sample_spanning_tree(7, rng)
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
                assert sample_spanning_tree(n, fast) == expected
            assert fast.getstate() == fresh.getstate()


def test_tree_edge_marginal():
    # any fixed edge of K_n lies in 2/n of all spanning trees
    rng = random.Random(21)
    runs = 50_000
    hits = sum((0, 1) in sample_spanning_tree(5, rng) for _ in range(runs))
    p = 2 / 5
    sigma = (p * (1 - p) / runs) ** 0.5
    assert abs(hits / runs - p) < 4 * sigma


# ---------------------------------------------------------------------------
# variables


def test_variable_weighted_draw_exact():
    dists = [((0, 1, 2), (0.5, 0.25, 0.25))]
    events = [VariableEvent(variables=(0,), predicate=lambda v: v == 0)]
    bundle = VariableBundle(dists, events)
    state0 = bundle.sample(random.Random(0))
    # resample from the conditioned state: value 0 occurs, redraw variable
    conditioned = type(state0)((0,), state0.dists)
    law = exact_outcomes(lambda rng: bundle.resample(0, conditioned, rng).values)
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
# products


def two_bit_space():
    events = [
        VariableEvent(variables=(0,), predicate=lambda v: v == 1),
        VariableEvent(variables=(1,), predicate=lambda v: v == 1),
    ]
    return VariableBundle([((0, 1), None)] * 2, events)


def test_product_rejects_repeated_space_use():
    space = two_bit_space()
    with pytest.raises(ValueError):
        ProductBundle([space, space], [((0, 0), (0, 1))])
    with pytest.raises(ValueError):
        ProductBundle([space], [()])


def test_product_adjacency_is_strict():
    space = two_bit_space()
    bundle = ProductBundle(
        [space, space],
        [((0, 0),), ((0, 0), (1, 0)), ((0, 1), (1, 1)), ((1, 0),)],
    )
    # identical constituent on space 0, nothing adjacent: not interfering
    assert not bundle.graph.adjacent(0, 1)
    assert not bundle.graph.adjacent(0, 2)
    assert not bundle.graph.adjacent(0, 3)
    assert not bundle.graph.adjacent(1, 2)
    assert not bundle.graph.adjacent(1, 3)  # same constituent on space 1
    assert not bundle.graph.adjacent(2, 3)


def test_product_adjacency_through_adjacent_constituents():
    events = [
        VariableEvent(variables=(0,), predicate=lambda v: v == 1),
        VariableEvent(variables=(0, 1), predicate=lambda a, b: a == b == 1),
    ]
    space = VariableBundle([((0, 1), None)] * 2, events)
    bundle = ProductBundle([space, space], [((0, 0),), ((0, 1),), ((1, 0),)])
    assert bundle.graph.adjacent(0, 1)
    assert not bundle.graph.adjacent(0, 2)


def test_product_resample_only_touches_named_spaces():
    space = two_bit_space()
    bundle = ProductBundle([space, space], [((0, 0),), ((1, 1),)])
    rng = random.Random(1)
    state = bundle.sample(rng)
    while not bundle.holds(0, state):
        state = bundle.sample(rng)
    new = bundle.resample(0, state, rng)
    assert new[1] == state[1]


def test_product_exact_distribution_is_product():
    space = two_bit_space()
    bundle = ProductBundle([space, space], [((0, 0),)])
    dist = bundle.exact_distribution()
    assert len(dist) == 16
    assert sum(dist.values()) == pytest.approx(1.0)
    for pr in dist.values():
        assert pr == pytest.approx(1 / 16)


def test_product_r1_r2_statistical():
    space = two_bit_space()
    bundle = ProductBundle(
        [space, space],
        [((0, 0), (1, 0)), ((0, 1),), ((1, 1),)],
    )
    report = check_r1(bundle, 0, samples=40_000, seed=9)
    assert report.passed, report.to_json()
    assert check_r2(bundle, 0, trials=20_000, seed=10) == 0


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
