"""Closed-form event indexing of the app bundles against explicit enumeration.

The bundles decode an event index by arithmetic instead of storing one
table row per event.  The enumerations below build those rows the long
way, one loop per event family in index order, and every accessor and
occurrence scan must agree with them, on fixed instances and on random
small ones (color multiplicity 1 to 5, color ids negative or past
int64).  The pinned digests fix the full CLI output at one
acceptance-size seed per app, so a change to the numbering (which the
run logs record) cannot pass unnoticed.
"""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from locallemma.apps import (
    ColoredCompleteGraph,
    ColorMatrix,
    LatinBundle,
    RainbowMatchingBundle,
    RainbowTreeBundle,
    random_color_matrix,
    random_edge_coloring,
)
from locallemma.cli import main
from locallemma.verify import derive_seed


def _same_color_pairs(classes, apart):
    return sorted(
        (e, f)
        for items in classes.values()
        for a, e in enumerate(items)
        for f in items[a + 1:]
        if apart(e, f)
    )


def latin_events(matrix, t):
    """(payload, spaces, support, probability) per event, in index order."""
    n = matrix.n
    by_color = {}
    for u in range(n):
        for v in range(n):
            by_color.setdefault(matrix.rows[u][v], []).append((u, v))
    pairs = _same_color_pairs(by_color, lambda e, f: e[0] != f[0] and e[1] != f[1])
    events = []
    for i in range(t):
        for e, f in pairs:
            events.append(((i, e, f), frozenset((i,)),
                           frozenset((e[0], n + e[1], f[0], n + f[1])), 1 / (n * (n - 1))))
    for i in range(t):
        for j in range(i + 1, t):
            for u in range(n):
                for v in range(n):
                    events.append(((i, j, (u, v)), frozenset((i, j)),
                                   frozenset((u, n + v)), 1 / n**2))
    return events


def tree_events(coloring, t):
    n = coloring.n
    pairs = _same_color_pairs(coloring.classes(), lambda e, f: True)
    events = []
    for i in range(t):
        for e, f in pairs:
            prob = (3 if len(set(e) | set(f)) == 3 else 4) / n**2
            events.append(((i, e, f), frozenset((i,)), frozenset(e) | frozenset(f), prob))
    for i in range(t):
        for j in range(i + 1, t):
            for e in sorted(coloring.color):
                events.append(((i, j, e), frozenset((i, j)), frozenset(e), 4 / n**2))
    return events


def matching_events(coloring):
    m = coloring.n
    pairs = _same_color_pairs(coloring.classes(), lambda e, f: not (set(e) & set(f)))
    return [((e, f), frozenset((0,)), frozenset(e) | frozenset(f), 1 / ((m - 1) * (m - 3)))
            for e, f in pairs]


def cases():
    matrix = random_color_matrix(5, 3, random.Random(1))
    trees = random_edge_coloring(7, 3, random.Random(2))
    matching = random_edge_coloring(8, 3, random.Random(3))
    return [
        pytest.param(LatinBundle(matrix, 3), latin_events(matrix, 3), id="latin"),
        pytest.param(RainbowTreeBundle(trees, 3), tree_events(trees, 3), id="tree"),
        pytest.param(RainbowMatchingBundle(matching), matching_events(matching), id="matching"),
    ]


def assert_accessors_match(bundle, events):
    assert bundle.n == len(events)
    assert bundle.n_type1 == sum(1 for _, spaces, _, _ in events if len(spaces) == 1)
    for idx, (payload, spaces, support, prob) in enumerate(events):
        assert bundle.payload(idx) == payload, idx
        assert bundle.index(payload) == idx, payload
        assert bundle.spaces(idx) == spaces, idx
        assert bundle.support(idx) == support, idx
        assert bundle.event_prob(idx) == prob, idx
    assert len(bundle.params().y) == len(events)


def explicit_occurring(events, structures, contains):
    """Indices of the events whose copies all contain all their items."""
    return [
        idx for idx, (payload, spaces, _, _) in enumerate(events)
        if all(contains(structures[i], item)
               for i in spaces for item in payload if isinstance(item, tuple))
    ]


@pytest.mark.parametrize("bundle, events", cases())
def test_accessors_match_explicit_enumeration(bundle, events):
    assert len(events) > 0
    assert_accessors_match(bundle, events)


#: Color ids as a JSON file may hold them: small, negative, past int64.
COLOR_IDS = st.one_of(st.integers(-8, 8), st.integers(2**63 - 2, 2**64 + 2),
                      st.integers(-(2**70), -(2**63) - 1))


@st.composite
def app_instances(draw):
    """(bundle, events, contains) of a small app instance, colors capped at q."""
    kind = draw(st.sampled_from(["latin", "tree", "matching"]))
    q = draw(st.integers(1, 5))
    if kind == "latin":
        n = draw(st.integers(2, 5))
        items = [(u, v) for u in range(n) for v in range(n)]
    else:
        n = draw(st.sampled_from([2, 4, 6, 8]) if kind == "matching" else st.integers(2, 7))
        items = [(u, v) for u in range(n) for v in range(u + 1, n)]
    ids = draw(st.lists(COLOR_IDS, min_size=len(items), max_size=len(items), unique=True))
    random.Random(draw(st.integers(0, 2**32))).shuffle(items)
    color = {item: ids[k // q] for k, item in enumerate(items)}
    t = draw(st.integers(1, 3))
    if kind == "latin":
        matrix = ColorMatrix([[color[(u, v)] for v in range(n)] for u in range(n)])
        return LatinBundle(matrix, t), latin_events(matrix, t), lambda pi, c: pi[c[0]] == c[1]
    coloring = ColoredCompleteGraph(n, color)
    if kind == "tree":
        return RainbowTreeBundle(coloring, t), tree_events(coloring, t), frozenset.__contains__
    return (RainbowMatchingBundle(coloring), matching_events(coloring),
            lambda partner, e: partner[e[0]] == e[1])


@settings(max_examples=60, deadline=None)
@given(app_instances(), st.integers(0, 2**32))
def test_random_instances_match_explicit_enumeration(instance, seed):
    bundle, events, contains = instance
    assert_accessors_match(bundle, events)
    rng = random.Random(seed)
    for _ in range(3):
        state = bundle.sample(rng)
        expected = explicit_occurring(events, state, contains)
        assert sorted(bundle.occurring(state)) == expected
        assert [idx for idx in range(bundle.n) if bundle.holds(idx, state)] == expected


@pytest.mark.parametrize("bundle, events", cases())
def test_rule_graph_matches_explicit_rule(bundle, events):
    for a, b in itertools.permutations(range(len(events)), 2):
        _, spaces_a, support_a, _ = events[a]
        _, spaces_b, support_b, _ = events[b]
        expected = bool(spaces_a & spaces_b) and bool(support_a & support_b)
        assert bundle.graph.adjacent(a, b) == expected, (a, b)


@pytest.mark.parametrize("bundle, payload", [
    (LatinBundle(random_color_matrix(4, 2, random.Random(0)), 2), (0, 2, (0, 0))),
    (LatinBundle(random_color_matrix(4, 2, random.Random(0)), 2), (0, 1, (0, 4))),
    (RainbowTreeBundle(random_edge_coloring(5, 2, random.Random(0)), 2), (0, 1, (1, 0))),
    (RainbowTreeBundle(random_edge_coloring(5, 2, random.Random(0)), 2),
     (2, (0, 1), (0, 2))),
    (RainbowMatchingBundle(random_edge_coloring(6, 2, random.Random(0))),
     ((0, 1), (0, 2))),
])
def test_index_rejects_payloads_that_are_no_event(bundle, payload):
    with pytest.raises(KeyError):
        bundle.index(payload)


#: sha256 of the JSON ``locallemma.cli.main`` prints for the first acceptance
#: seed of each app (the seeds of tests/test_acceptance.py, run 0).
PINNED_RUNS = [
    pytest.param(
        ["latin", "--n", "128", "--multiplicity", "6", "--t", "6",
         "--instance-seed", str(derive_seed(99, 0)), "--seed", str(derive_seed(100, 0))],
        "0d936a28d3c30741209bceb144b3f6e13ae8b3269ee83455d57ec792a2e28180",
        id="latin"),
    pytest.param(
        ["rainbow-tree", "--n", "256", "--multiplicity", "3", "--t", "3",
         "--instance-seed", str(derive_seed(110, 0)), "--seed", str(derive_seed(111, 0))],
        "abef85462865a815f0d0bb086cd8372671b3e8ea1b31990d10a39270b181840c",
        id="tree"),
    pytest.param(
        ["rainbow-matching", "--n", "128", "--multiplicity", "13",
         "--instance-seed", str(derive_seed(88, 0)), "--seed", str(derive_seed(89, 0))],
        "6fac4445f3702e3bdf17ba5f2cbecefc193ef3b2dd65cc97c30be84d8d8a860d",
        id="matching"),
]


@pytest.mark.parametrize("argv, digest", PINNED_RUNS)
def test_acceptance_size_output_is_pinned(argv, digest, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
