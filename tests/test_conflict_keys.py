"""Conflict keys against the pairwise rules they replace, and log replay.

Every bundle's dependency relation used to be evaluated pair by pair;
the engine now blocks on conflict keys instead.  Both the keys and
``graph.adjacent`` must give exactly the old relation on every ordered
pair, and the engine must reproduce the run logs recorded before it
walked its candidates once per iteration.
"""

import hashlib
import itertools
import json
import random

import pytest

from helpers import (
    app_interferes,
    appendix_a_interferes,
    matching_interferes,
    permutation_interferes,
    reference_resample_run,
    tree_interferes,
    variable_interferes,
)
from locallemma import cli
from locallemma.apps import (
    LatinBundle,
    RainbowMatchingBundle,
    RainbowTreeBundle,
    random_color_matrix,
    random_edge_coloring,
)
from locallemma.engine import maximal_set_resample
from locallemma.graphs import KeyGraph
from locallemma.oracles import (
    MatchingBundle,
    PatternEvent,
    PermutationBundle,
    TreeBundle,
    VariableBundle,
    VariableEvent,
)
from locallemma.synth import ExplicitBundle
from locallemma.verify import appendix_a_bundle, derive_seed


def _all_zero(*bits):
    return all(b == 0 for b in bits)


def variable_bundle(rng):
    events = [VariableEvent(tuple(sorted(rng.sample(range(5), rng.randint(1, 2)))), _all_zero)
              for _ in range(8)]
    events.append(events[1])
    return VariableBundle([((0, 1), None)] * 5, events)


def permutation_bundle(rng):
    events = []
    for _ in range(8):
        k = rng.randint(1, 2)
        events.append(PatternEvent(tuple(zip(rng.sample(range(5), k), rng.sample(range(5), k)))))
    events.append(events[0])
    return PermutationBundle(5, events)


def matching_bundle(rng):
    events = []
    for _ in range(8):
        a, b, c, d = rng.sample(range(8), 4)
        events.append([(a, b)] if rng.random() < 0.5 else [(a, b), (c, d)])
    events.append(list(events[0]))         # an identical event
    events.append([events[0][0]])          # shares an edge with event 0
    events.append([(0, 1), (1, 2)])        # no matching itself
    return MatchingBundle(8, events)


def tree_bundle(rng):
    return TreeBundle(6, [[tuple(rng.sample(range(6), 2)) for _ in range(rng.randint(1, 2))]
                          for _ in range(9)])


FIXTURES = [
    pytest.param(variable_bundle, variable_interferes, id="variable"),
    pytest.param(permutation_bundle, permutation_interferes, id="permutation"),
    pytest.param(matching_bundle, matching_interferes, id="matching"),
    pytest.param(tree_bundle, tree_interferes, id="tree"),
    pytest.param(lambda rng: appendix_a_bundle(4, 3), appendix_a_interferes, id="appendix-a"),
    pytest.param(lambda rng: LatinBundle(random_color_matrix(5, 3, rng), 3),
                 app_interferes, id="latin"),
    pytest.param(lambda rng: RainbowTreeBundle(random_edge_coloring(7, 3, rng), 3),
                 app_interferes, id="rainbow-tree"),
    pytest.param(lambda rng: RainbowMatchingBundle(random_edge_coloring(8, 3, rng)),
                 app_interferes, id="rainbow-matching"),
]


# Events that hold always or never, and an event on no variable.
DEGENERATE = [
    pytest.param(lambda rng: MatchingBundle(6, [[], [(0, 1)], [(0, 1), (1, 2)], [(2, 3)], []]),
                 matching_interferes, id="matching-degenerate"),
    pytest.param(lambda rng: VariableBundle([((0, 1), None)] * 2, [
        VariableEvent((), _all_zero), VariableEvent((0,), _all_zero), VariableEvent((), _all_zero)]),
                 variable_interferes, id="variable-degenerate"),
]


@pytest.mark.parametrize("make, interferes", FIXTURES + DEGENERATE)
def test_keys_and_adjacency_match_the_pairwise_rule(make, interferes):
    for trial in range(5):
        bundle = make(random.Random(trial))
        graph = bundle.graph
        keys = [set(graph.keys(i)) for i in range(bundle.n)]
        for i, j in itertools.permutations(range(bundle.n), 2):
            expected = interferes(bundle, i, j)
            assert graph.adjacent(i, j) == expected, (trial, i, j)
            assert (not keys[i].isdisjoint(keys[j])) == expected, (trial, i, j)
        assert not any(graph.adjacent(i, i) for i in range(bundle.n))


@pytest.mark.parametrize("make", [
    *(pytest.param(lambda rng, f=family: cli._default_bundle(f, 0), id=f"cli-{family}")
      for family in ("variable", "permutation", "matching", "tree")),
    pytest.param(lambda rng: ExplicitBundle(cli._default_space()), id="cli-space"),
    *(pytest.param(p.values[0], id=p.id) for p in FIXTURES
      if p.id in ("appendix-a", "latin", "rainbow-tree", "rainbow-matching")),
])
def test_every_bundle_graph_is_a_key_graph(make):
    assert isinstance(make(random.Random(0)).graph, KeyGraph)


@pytest.mark.parametrize("make, interferes", FIXTURES)
def test_engine_matches_the_rescanning_loop(make, interferes):
    for trial in range(3):
        bundle = make(random.Random(trial))
        for seed in range(4):
            state, log = maximal_set_resample(bundle, seed, max_resamples=200)
            ref_state, iterations, total, terminated = reference_resample_run(
                bundle, seed, max_resamples=200)
            assert (log.iterations, log.total_resamples, log.terminated) == (
                iterations, total, terminated)
            assert state == ref_state


class FarCopyRedraw:
    """A Latin bundle whose first resample also redraws a copy that the
    event does not touch: an oracle that breaks property 2 once."""

    def __init__(self, bundle):
        self._bundle = bundle
        self._fired = False

    def __getattr__(self, name):
        return getattr(self._bundle, name)

    def resample(self, idx, state, rng):
        state = self._bundle.resample(idx, state, rng)
        if self._fired:
            return state
        self._fired = True
        far = min(set(range(self.t)) - set(self.payload(idx)[:2]))
        return state[:far] + (self.family.sample(rng),) + state[far + 1:]


def test_termination_certifies_that_no_event_occurs():
    # the scan of the last, empty iteration reads the whole state, so an
    # event that a far redraw made occur is found, however it came about
    finished = 0
    for seed in range(20):
        bundle = FarCopyRedraw(LatinBundle(random_color_matrix(16, 2, random.Random(seed)), 3))
        state, log = maximal_set_resample(bundle, seed, max_resamples=10_000)
        assert bundle._fired
        if log.terminated:
            assert bundle.occurring(state) == [], seed
            finished += 1
    assert finished > 10


def test_matching_bundle_at_three_thousand_events():
    rng = random.Random(7)
    events = []
    while len(events) < 3000:
        if events and rng.random() < 0.05:
            events.append(list(rng.choice(events)))
            continue
        a, b, c, d = rng.sample(range(128), 4)
        events.append([(a, b)] if rng.random() < 0.3 else [(a, b), (c, d)])
    bundle = MatchingBundle(128, events)
    graph = bundle.graph
    pairs = [(i, j) for i in range(200) for j in range(i + 1, 200)]
    pairs += [tuple(rng.sample(range(3000), 2)) for _ in range(20_000)]
    pairs += [(i, j) for i in rng.sample(range(3000), 50) for j in graph.neighbors(i)]
    adjacent = 0
    for i, j in pairs:
        expected = matching_interferes(bundle, i, j)
        assert graph.adjacent(i, j) == expected, (i, j)
        adjacent += expected
    assert adjacent > 1000


#: (total_resamples, iteration count, sha256 of the compact sorted-key JSON
#: of the log) of appendix_a_bundle(64, 6) at derive_seed(121, 21 * 10**6 + j),
#: recorded while the engine re-tested every remaining candidate after
#: every resample.
APPENDIX_A_LOGS = [
    (507, 18, "17e330ee903acf067b83a18fa9823f8261adb4e7e5f79c0867ac3d4c16ec5276"),
    (493, 20, "e5f6f2db570a198196f286b166bbe7933829e2df5538584f2dc8d592af80bc34"),
    (620, 73, "e6712468893060e5fbfdd0c4a725d27ae717ee193170dd671466261aeba487fc"),
    (584, 75, "ca55a6adcc8aece97356a90adc86d4fad800c2b0b1a563800d255522d90505e0"),
    (672, 72, "d616f64ee27c18af8443024cf862f5e6d87036819f4474d8157e7adcc831388a"),
    (623, 87, "20f9c9e40d2a5d63f627f1ed908a80472eeb22a350daeb2210072b063f9ae843"),
    (474, 17, "1f8a95729ec7c2d8805de4f48b91700cf93ff5ec43bdda0ee657ec6096ed82a6"),
    (459, 17, "e8e4e09cf45c551126af847b82e5b62ab987f00f1e870d38783c68375d6731a1"),
    (527, 26, "e4a8e6abf9c46e7d8cf3070c2be7d9e5c894db545c0aeeccae33c1d0f0a1041d"),
    (514, 22, "fc4cc9af0176275a90db7e432d5d57896041a9b7857e1ef669cc44f2752d3b0a"),
    (609, 79, "a2b87ab4ecd64f579d3601c77de6a881b6a4cc0cea4fe6b57d936941479463cc"),
    (570, 77, "0bb47fbcf0646ad4c3ec73d5fb3b27d981361d1ddeb96fab4aa36548d77509f2"),
    (623, 75, "c4a97192cbc681ba6b25d8ec1dd05d69e80f5b5544a8de008753bf8526a2d8ad"),
    (509, 17, "85be0e98bf12fe7e438573eb077b857d6972f71ac51a3b6ece57ab83bb9a180f"),
    (501, 21, "8d25e708ec507c2e87a24708f8e78b3ffa6b660ae27bd12ed442a301b8b58378"),
    (531, 19, "7796fac03250b3649dc8b03706a911a21b469ba1d0bdd9f5f9a19f3dd4c63d33"),
    (449, 17, "2d8c662f403da37350a83a4f0d0e7a02520c4ba40cb4bdcbe9c741956249d166"),
    (482, 20, "7b9e763e55129c044f4bacb1eb290464910e645dcd13b0271476fb3ecb036f82"),
    (442, 17, "1bf72a2196af45d8923e85beceec33eeddc7d9889aef380057fc238c0bde5d88"),
    (522, 20, "802f2a7340a65c9aa6af014917180a53bcb916eef8783813454c581f6a618684"),
]


def test_appendix_a_logs_replay():
    bundle = appendix_a_bundle(64, 6)
    for j, (total, iterations, digest) in enumerate(APPENDIX_A_LOGS):
        _, log = maximal_set_resample(bundle, derive_seed(121, 21 * 10**6 + j))
        text = json.dumps(log.to_json(), sort_keys=True, separators=(",", ":"))
        assert (log.total_resamples, len(log.iterations)) == (total, iterations), j
        assert hashlib.sha256(text.encode()).hexdigest() == digest, j
