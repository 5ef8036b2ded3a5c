"""Dependency graph structure and stable set sequence rules."""

import random

import pytest
from hypothesis import given, strategies as st

from locallemma.apps import build_latin_instance, random_color_matrix
from locallemma.engine import maximal_set_resample
from locallemma.graphs import (
    DependencyGraph,
    KeyGraph,
    independent_subset_masks,
    validate_sequence,
)
from locallemma.verify import derive_seed


def path(n):
    g = DependencyGraph(n)
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


def independent_masks(graph):
    """Every independent set of graph, as a mask."""
    return independent_subset_masks(graph.adjacency_masks(), (1 << graph.n) - 1)


def closed_neighborhood(graph, subset):
    """Gamma^+ of a set: the set itself plus every neighbor."""
    return set(subset).union(*map(graph.neighbors, subset))


def test_basic_adjacency():
    g = path(3)
    assert g.adjacent(0, 1) and g.adjacent(1, 2)
    assert not g.adjacent(0, 2)
    assert g.neighbors(1) == frozenset({0, 2})
    assert closed_neighborhood(g, [0]) == {0, 1}


def test_no_self_loops_and_range_checks():
    g = DependencyGraph(3)
    with pytest.raises(ValueError):
        g.add_edge(1, 1)
    with pytest.raises(ValueError):
        g.add_edge(0, 3)


def test_path3_independent_sets():
    # {} {0} {1} {2} {0,2}: five sets, by hand
    masks = independent_masks(path(3))
    assert len(masks) == 5
    assert 0b101 in masks
    assert 0b011 not in masks


def test_cycle5_independent_set_count():
    g = DependencyGraph(5)
    for i in range(5):
        g.add_edge(i, (i + 1) % 5)
    # empty set + 5 singletons + 5 non-adjacent pairs
    assert len(independent_masks(g)) == 11


def test_masks_come_depth_first():
    # each set, then its extensions by one higher member, in increasing order
    masks = independent_masks(path(4))
    assert masks == [0b0000, 0b0001, 0b0101, 0b1001, 0b0010, 0b1010, 0b0100, 0b1000]


def test_empty_graph_all_subsets_independent():
    g = DependencyGraph(3)
    assert sorted(independent_masks(g)) == list(range(8))


def test_key_graph_matches_explicit():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randrange(1, 8)
        g = DependencyGraph(n)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.4:
                    g.add_edge(u, v)
        kg = KeyGraph(n, g.keys)
        for u in range(n):
            assert kg.neighbors(u) == g.neighbors(u)
            for v in range(n):
                assert kg.adjacent(u, v) == g.adjacent(u, v)
        assert kg.adjacency_masks() == g.adjacency_masks()
        for _ in range(10):
            s = [v for v in range(n) if rng.random() < 0.5]
            assert kg.is_independent(s) == g.is_independent(s)
            assert closed_neighborhood(kg, s) == closed_neighborhood(g, s)


def test_key_graph_never_self_adjacent():
    kg = KeyGraph(4, lambda i: ("shared",))
    assert not kg.adjacent(2, 2)
    assert kg.adjacent(1, 2)


def test_json_round_trip():
    g = path(4)
    g2 = DependencyGraph.from_json(g.to_json())
    assert g2.n == 4
    assert all(g2.adjacent(u, v) == g.adjacent(u, v)
               for u in range(4) for v in range(4))


def test_sequence_validation():
    g = path(3)
    assert validate_sequence(g, [[0, 2], [1]])

    # second set must sit inside the closed neighborhood of the first
    assert not validate_sequence(g, [[0], [2]])

    # dependent sets are rejected
    assert not validate_sequence(g, [[0, 1]])

    # a nonempty set after an empty one is malformed
    assert not validate_sequence(g, [[0], [], [0]])
    assert validate_sequence(g, [[0], []])


def test_empty_sequence_is_valid():
    assert validate_sequence(path(2), [])


@given(st.integers(0, 6), st.integers(0, 2**15 - 1), st.integers(0, 10**6))
def test_independence_agrees_with_mask_list(n, edge_bits, subset_seed):
    g = DependencyGraph(n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for k, (u, v) in enumerate(pairs):
        if (edge_bits >> k) & 1:
            g.add_edge(u, v)
    masks = set(independent_masks(g))
    rng = random.Random(subset_seed)
    mask = rng.randrange(1 << n) if n else 0
    subset = [i for i in range(n) if (mask >> i) & 1]
    assert (mask in masks) == g.is_independent(subset)


# ---------------------------------------------------------------------------
# the independence test and the sequence check read keys


def pairwise_independent(graph, members):
    """Reference: no member repeated and no two members adjacent."""
    return all(a != b and not graph.adjacent(a, b)
               for pos, a in enumerate(members) for b in members[pos + 1:])


def pairwise_valid(graph, sequence):
    """Reference: the stable-set-sequence conditions, read pair by pair."""
    sets = [frozenset(s) for s in sequence]
    for t, current in enumerate(sets):
        if any(not 0 <= i < graph.n for i in current):
            return False
        if not pairwise_independent(graph, sorted(current)):
            return False
        if current and any(not s for s in sets[:t]):
            return False
        if t and not all(i in sets[t - 1] or any(graph.adjacent(i, j) for j in sets[t - 1])
                         for i in current):
            return False
    return True


def key_graphs():
    # a small key alphabet, with events of no key and repeated keys
    keys = st.lists(st.lists(st.integers(0, 3), max_size=3), max_size=7)
    return keys.map(lambda ks: KeyGraph(len(ks), ks.__getitem__))


def dependency_graphs():
    def build(n, edge_bits):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        return DependencyGraph(n, [e for k, e in enumerate(pairs) if edge_bits >> k & 1])
    return st.builds(build, st.integers(0, 7), st.integers(0, 2**21 - 1))


@given(st.one_of(key_graphs(), dependency_graphs()), st.data())
def test_key_checks_match_the_pairwise_reference(graph, data):
    subset = data.draw(st.lists(st.integers(0, graph.n - 1), max_size=4)) if graph.n else []
    assert graph.is_independent(subset) == pairwise_independent(graph, subset)
    # each set drawn mostly from Gamma^+ of the one before, so that many
    # sequences are valid; plus any index up to one past the end
    sequence = []
    near = list(range(graph.n))
    for _ in range(data.draw(st.integers(1, 4))):
        member = st.sampled_from(near) if near else st.integers(0, graph.n)
        current = data.draw(st.lists(member | st.integers(0, graph.n), min_size=1, max_size=2)
                            | st.just([]))
        sequence.append(current)
        near = [j for j in range(graph.n)
                if j in current or any(graph.adjacent(i, j) for i in current if i < graph.n)]
    assert validate_sequence(graph, sequence) == pairwise_valid(graph, sequence)


def test_an_event_without_keys_follows_itself_only():
    # Gamma^+({0}) is {0} when event 0 has no key at all
    g = KeyGraph(2, [(), ("a",)].__getitem__)
    assert validate_sequence(g, [{0}, {0}])
    assert not validate_sequence(g, [{0}, {1}])


def test_sequence_check_asks_no_neighbors(monkeypatch):
    # the seed-7 Latin acceptance run: 487,482 events, where one scan of
    # KeyGraph.neighbors reads the keys of every event
    matrix = random_color_matrix(128, 6, random.Random(derive_seed(99, 7)))
    bundle, _ = build_latin_instance(matrix, 6)
    _, log = maximal_set_resample(bundle, derive_seed(100, 7))
    assert log.terminated and len(log.iterations) > 2

    def refuse(self, i):
        raise AssertionError("the sequence check scanned the neighbors of an event")

    monkeypatch.setattr(KeyGraph, "neighbors", refuse)
    assert validate_sequence(bundle.graph, log.iterations)
