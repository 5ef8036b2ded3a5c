"""Oracle synthesis on explicit finite spaces: feasibility, exactness, certificates."""

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import _FractionFlowNetwork, fraction_synthesize, linear_scan
from locallemma.cli import main
from locallemma.engine import maximal_set_resample
from locallemma.graphs import DependencyGraph
from locallemma.oracles import OracleEventError
from locallemma.synth import (
    SYNTH_STATE_CAP,
    ExplicitBundle,
    ExplicitSpace,
    HallCertificate,
    SynthesizedOracle,
    _transport,
    check_lopsidependency,
    synthesize,
)
from locallemma.verify import exhaustive_r2


def three_bit_space():
    """Eight fair-bit states, event i = {bit i is 0}, path graph 0-1-2."""
    probs = tuple(Fraction(1, 8) for _ in range(8))
    events = tuple(
        frozenset(s for s in range(8) if not s >> i & 1) for i in range(3)
    )
    return ExplicitSpace(probs, events, DependencyGraph(3, [(0, 1), (1, 2)]))


def two_bit_space():
    # four states, bit i of state s is (s >> i) & 1, both bits fair
    probs = tuple(Fraction(1, 4) for _ in range(4))
    events = (frozenset({0, 2}), frozenset({0, 1}))
    return ExplicitSpace(probs, events, DependencyGraph(2))


# ---------------------------------------------------------------------------
# space construction and validation


def test_space_rejects_negative_probability():
    with pytest.raises(ValueError):
        ExplicitSpace((Fraction(3, 2), Fraction(-1, 2)), (frozenset({0}),),
                      DependencyGraph(1))


def test_space_rejects_bad_total():
    with pytest.raises(ValueError):
        ExplicitSpace((Fraction(1, 2), Fraction(1, 4)), (frozenset({0}),),
                      DependencyGraph(1))


def test_space_rejects_event_graph_mismatch():
    with pytest.raises(ValueError):
        ExplicitSpace((Fraction(1),), (frozenset({0}), frozenset({0})),
                      DependencyGraph(1))


def test_space_rejects_unknown_state():
    with pytest.raises(ValueError):
        ExplicitSpace((Fraction(1, 2), Fraction(1, 2)), (frozenset({5}),),
                      DependencyGraph(1))


def test_space_json_round_trip():
    space = three_bit_space()
    again = ExplicitSpace.from_json(space.to_json())
    assert again.probs == space.probs
    assert again.events == space.events
    assert again.graph.n == space.graph.n
    assert again.graph.edges() == space.graph.edges()


def test_event_prob_sums_member_states():
    space = three_bit_space()
    assert space.event_prob(0) == Fraction(1, 2)
    assert space.holds(0, 0)
    assert not space.holds(0, 1)


# ---------------------------------------------------------------------------
# synthesize: errors and shapes


def test_synthesize_rejects_bad_index():
    with pytest.raises(ValueError):
        synthesize(three_bit_space(), 7)


def test_synthesize_rejects_zero_probability_event():
    space = ExplicitSpace((Fraction(1, 2), Fraction(1, 2), Fraction(0)),
                          (frozenset({2}),), DependencyGraph(1))
    with pytest.raises(ValueError):
        synthesize(space, 0)


def test_synthesize_refuses_oversized_space():
    k = SYNTH_STATE_CAP + 1
    probs = tuple(Fraction(1, k) for _ in range(k))
    space = ExplicitSpace(probs, (frozenset({0}),), DependencyGraph(1))
    with pytest.raises(ValueError):
        synthesize(space, 0)


def test_no_free_events_gives_fresh_sample_kernel():
    """A lone event has no non-neighbors, so the kernel ignores the source."""
    probs = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
    space = ExplicitSpace(probs, (frozenset({0, 1}),), DependencyGraph(1))
    kernel = synthesize(space, 0)
    assert isinstance(kernel, SynthesizedOracle)
    expected = ((0, Fraction(1, 2)), (1, Fraction(1, 3)), (2, Fraction(1, 6)))
    assert kernel.rows == {0: expected, 1: expected}


def test_fresh_sample_kernel_skips_null_states():
    probs = (Fraction(1, 2), Fraction(0), Fraction(1, 2))
    space = ExplicitSpace(probs, (frozenset({0, 1}),), DependencyGraph(1))
    kernel = synthesize(space, 0)
    # state 1 carries no mass: absent as a source and as a target
    assert set(kernel.rows) == {0}
    assert [w for w, _ in kernel.rows[0]] == [0, 2]


def test_two_bit_kernel_redraws_only_the_event_bit():
    """With a second event pinning bit 1, the flow is forced to the
    resample-one-variable kernel: bit 0 is redrawn, bit 1 kept."""
    kernel = synthesize(two_bit_space(), 0)
    assert isinstance(kernel, SynthesizedOracle)
    half = Fraction(1, 2)
    assert kernel.rows == {
        0: ((0, half), (1, half)),
        2: ((2, half), (3, half)),
    }


def test_rows_are_distributions():
    space = three_bit_space()
    for i in range(space.n_events):
        kernel = synthesize(space, i)
        for u, row in kernel.rows.items():
            assert space.holds(i, u)
            assert sum(f for _, f in row) == 1
            assert all(f > 0 for _, f in row)


def test_kernel_json_uses_exact_strings():
    kernel = synthesize(two_bit_space(), 0)
    obj = kernel.to_json()
    assert obj["event"] == 0
    assert obj["rows"]["0"] == [[0, "1/2"], [1, "1/2"]]


# ---------------------------------------------------------------------------
# association and lopsidependency checks


def test_positively_correlated_pair_is_feasible():
    # both events are the same single state, so conditioning on one
    # only helps the other
    space = ExplicitSpace((Fraction(1, 2), Fraction(1, 2)),
                          (frozenset({0}), frozenset({0})), DependencyGraph(2))
    assert isinstance(synthesize(space, 0), SynthesizedOracle)
    assert isinstance(synthesize(space, 1), SynthesizedOracle)
    kernel = synthesize(space, 0)
    assert isinstance(kernel, SynthesizedOracle)


def test_anti_correlated_pair_is_infeasible():
    space = ExplicitSpace((Fraction(1, 2), Fraction(1, 2)),
                          (frozenset({0}), frozenset({1})), DependencyGraph(2))
    cert = synthesize(space, 0)
    assert isinstance(cert, HallCertificate)
    assert cert.event == 0
    assert cert.states == (0,)
    assert cert.source_mass == 1
    assert cert.reachable_mass == Fraction(1, 2)
    assert cert.source_mass > cert.reachable_mass
    assert not isinstance(synthesize(space, 0), SynthesizedOracle)
    # disjoint events also fail the plain conditional inequality
    assert not check_lopsidependency(space, 0)


def test_independent_events_are_feasible_and_lopsidependent():
    space = two_bit_space()
    for i in range(2):
        assert isinstance(synthesize(space, i), SynthesizedOracle)
        assert check_lopsidependency(space, i)


def test_single_event_lopsidependency_is_vacuous():
    space = ExplicitSpace((Fraction(1, 2), Fraction(1, 2)),
                          (frozenset({0}),), DependencyGraph(1))
    assert check_lopsidependency(space, 0)


def test_lopsidependency_cap():
    n = 22
    events = tuple(frozenset({0}) for _ in range(n))
    space = ExplicitSpace((Fraction(1, 2), Fraction(1, 2)), events,
                          DependencyGraph(n))
    with pytest.raises(ValueError):
        check_lopsidependency(space, 0)


def lopsided_but_not_associated_space():
    """Five states, three pairwise non-adjacent events.

    Event 2 passes every conditional inequality, yet the transportation
    problem for it is infeasible.  Found by seeded random search over
    3-event spaces on at most 6 states and frozen here.
    """
    probs = (Fraction(3, 16), Fraction(1, 8), Fraction(1, 8),
             Fraction(1, 4), Fraction(5, 16))
    events = (frozenset({1, 2}), frozenset({0, 1, 3}), frozenset({2, 3}))
    return ExplicitSpace(probs, events, DependencyGraph(3))


def test_lopsidependency_does_not_imply_association():
    space = lopsided_but_not_associated_space()
    assert check_lopsidependency(space, 2)
    assert not isinstance(synthesize(space, 2), SynthesizedOracle)
    cert = synthesize(space, 2)
    assert isinstance(cert, HallCertificate)
    assert cert.states == (2, 3)
    assert cert.source_mass == 1
    assert cert.reachable_mass == Fraction(7, 8)


def random_space(seed):
    """Small random space on an empty 3-event graph, exact weights."""
    rng = random.Random(seed)
    m = rng.randrange(4, 7)
    weights = [rng.randrange(1, 6) for _ in range(m)]
    total = sum(weights)
    probs = tuple(Fraction(w, total) for w in weights)
    events = []
    while len(events) < 3:
        ev = frozenset(s for s in range(m) if rng.random() < 0.5)
        if ev:
            events.append(ev)
    return ExplicitSpace(probs, tuple(events), DependencyGraph(3))


def test_association_implies_lopsidependency_on_random_spaces():
    feasible = 0
    infeasible = 0
    for seed in range(300):
        space = random_space(seed)
        for i in range(space.n_events):
            if isinstance(synthesize(space, i), SynthesizedOracle):
                feasible += 1
                assert check_lopsidependency(space, i)
            else:
                infeasible += 1
    # the search space genuinely exercises both outcomes
    assert feasible > 50
    assert infeasible > 50


def test_product_spaces_are_always_feasible():
    """Mutually independent events synthesize for every event."""
    for seed in range(40):
        rng = random.Random(seed)
        # three independent biased bits, one event per bit
        nums = [rng.randrange(1, 8) for _ in range(3)]
        probs = []
        for s in range(8):
            f = Fraction(1)
            for i in range(3):
                p = Fraction(nums[i], 8)
                f *= p if s >> i & 1 == 0 else 1 - p
            probs.append(f)
        events = tuple(
            frozenset(s for s in range(8) if not s >> i & 1) for i in range(3)
        )
        space = ExplicitSpace(tuple(probs), events, DependencyGraph(3))
        for i in range(3):
            if space.event_prob(i) == 0:
                continue
            assert isinstance(synthesize(space, i), SynthesizedOracle)


def random_graph_space(seed):
    """Random weights (some zero) on 6-12 states, 4 events, a random graph."""
    rng = random.Random(seed)
    m = rng.randrange(6, 13)
    weights = [rng.choice([0, 1, 2, 3, 5, 7]) for _ in range(m)]
    weights[0] += 1
    total = sum(weights)
    probs = tuple(Fraction(w, total) for w in weights)
    events = tuple(frozenset(s for s in range(m) if rng.random() < 0.4) | {rng.randrange(m)}
                   for _ in range(4))
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4) if rng.random() < 0.3]
    return ExplicitSpace(probs, events, DependencyGraph(4, edges))


def ring_space(seed, n_events=4):
    """4^n_events states: 2*n_events independent bits with P(bit=0) drawn
    from {4/16..12/16}; 256 states for the default 4 events.

    Event i is "bits 2i, 2i+1, 2i+2 (mod 2*n_events) are all 0", so the
    events sharing a bit form a cycle.
    """
    rng = random.Random(seed)
    n_bits = 2 * n_events
    zero = [Fraction(rng.randint(4, 12), 16) for _ in range(n_bits)]
    probs = []
    for s in range(1 << n_bits):
        p = Fraction(1)
        for b in range(n_bits):
            p *= zero[b] if not s >> b & 1 else 1 - zero[b]
        probs.append(p)
    bits = [{(2 * i + d) % n_bits for d in range(3)} for i in range(n_events)]
    events = tuple(frozenset(s for s in range(1 << n_bits) if all(not s >> b & 1 for b in bs))
                   for bs in bits)
    edges = [(i, j) for i in range(n_events) for j in range(i + 1, n_events)
             if bits[i] & bits[j]]
    return ExplicitSpace(tuple(probs), events, DependencyGraph(n_events, edges))


def test_kernels_and_certificates_equal_the_fraction_flow():
    spaces = [random_space(seed) for seed in range(300)]
    spaces += [random_graph_space(seed) for seed in range(60)]
    spaces += [lopsided_but_not_associated_space(), ring_space(0), ring_space(1)]
    seen = {SynthesizedOracle: 0, HallCertificate: 0}
    for space in spaces:
        for i in range(space.n_events):
            if space.event_prob(i) == 0:
                continue
            got, want = synthesize(space, i), fraction_synthesize(space, i)
            assert type(got) is type(want)
            if isinstance(want, HallCertificate):
                assert got.event == want.event
                assert got.states == want.states
                assert got.source_mass == want.source_mass
                assert got.reachable_mass == want.reachable_mass
            else:
                assert got.rows == want.rows
            seen[type(want)] += 1
    assert seen[SynthesizedOracle] > 100 and seen[HallCertificate] > 100


#: sha256 of the sorted-key JSON list of every event's ``to_json()``,
#: captured from the general Edmonds-Karp solver the level search replaced.
PINNED_KERNELS = [
    pytest.param((0,), "a0437628adf2f441b579d5120e8a0d77394fa5e3ec9e04e4c099005bd3da008b",
                 id="ring-256-seed0"),
    pytest.param((1,), "b47248067d9bff6975f4d36e314d9da7100a3e446253f2303779f6b0bcde7250",
                 id="ring-256-seed1"),
    pytest.param((0, 5), "521f0216103bfcafafcd931d1aeff25fdf11aefcccd81300a94c98f6363b405e",
                 id="ring-1024-seed0"),
]


@pytest.mark.parametrize("args, digest", PINNED_KERNELS)
def test_kernels_are_pinned(args, digest):
    space = ring_space(*args)
    kernels = [synthesize(space, i) for i in range(space.n_events)]
    text = json.dumps([kernel.to_json() for kernel in kernels], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_verify_oracle_on_a_1024_state_space_is_pinned(tmp_path, capsys):
    # the kernels of ExplicitBundle, end to end: sha256 of stdout, captured
    # from the general Edmonds-Karp solver the level search replaced
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({"kind": "explicit-space", "space": ring_space(0, 5).to_json()}))
    code = main(["verify-oracle", "synthesized", "--instance", str(path), "--event", "1",
                 "--samples", "2000", "--trials", "200", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b5cde6b8329bcc081d43515b5cb4466f875acbec33cbb9a22f8e60ff9afcead5")


@st.composite
def transport_instances(draw):
    """Supplies, demands and sparse allowed rows, some rows shared as
    ``synthesize`` shares them.  The masses are the margins of a random
    flow on the allowed edges, so the supply ships, unless the demands
    are then permuted, which often strands some; one instance in three is
    scaled past 2^63."""
    n_sources, n_targets = draw(st.integers(1, 12)), draw(st.integers(2, 12))
    pool = [sorted(draw(st.sets(st.integers(0, n_targets - 1), min_size=1, max_size=4)))
            for _ in range(draw(st.integers(1, n_sources)))]
    allowed = [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(n_sources)]
    supply, demand = [0] * n_sources, [0] * n_targets
    for a, row in enumerate(allowed):
        for b in row:
            x = draw(st.integers(0, 4)) + (b == row[0])
            supply[a] += x
            demand[b] += x
    demand = [x or 1 for x in demand]
    if draw(st.booleans()):
        demand = draw(st.permutations(demand))
    scale = draw(st.sampled_from([1, 1, 3**41]))
    return [scale * x for x in supply], [scale * x for x in demand], allowed


def test_transport_takes_the_paths_of_the_fraction_flow():
    """Same flow on every edge and the same cut as a full breadth-first
    Edmonds-Karp over Fractions, on feasible and infeasible instances."""
    longest, short = [], []

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(transport_instances())
    def check(instance):
        supply, demand, allowed = instance
        n = len(supply)
        net = _FractionFlowNetwork(2 + n + len(demand))
        for a, x in enumerate(supply):
            net.add(0, 2 + a, x)
        for b, x in enumerate(demand):
            net.add(2 + n + b, 1, x)
        edge = {}
        for a, row in enumerate(allowed):
            for b in row:
                edge[a, b] = len(net.to)
                net.add(2 + a, 2 + n + b, 2 * sum(supply))
        value = net.max_flow(0, 1)
        flow, seen = _transport(supply, demand, allowed)
        assert {(a, b): f for a, out in enumerate(flow) for b, f in out.items()} == {
            key: net.cap[eid ^ 1] for key, eid in edge.items() if net.cap[eid ^ 1] > 0}
        cut = net.reachable(0)
        assert (seen is None) == (value == sum(supply))
        assert (seen or []) == [a for a in range(n) if 2 + a in cut]
        assert {b for a in seen or [] for b in allowed[a]} == {
            b for b in range(len(demand)) if 2 + n + b in cut}
        longest.append(max(net.path_edges, default=0))
        short.append(seen is not None)

    check()
    # s, then a source and a target per step, then t: 7 edges pass 3 sources
    assert sum(edges >= 7 for edges in longest) >= 10
    assert 40 <= sum(short) <= 360


# ---------------------------------------------------------------------------
# exact oracle properties of synthesized kernels


def push_through(space, i, kernel):
    """Distribution of r_i(omega) for omega drawn from mu conditioned on E_i."""
    pe = space.event_prob(i)
    out = {w: Fraction(0) for w in range(space.n_states)}
    for u, row in kernel.rows.items():
        mass = space.probs[u] / pe
        for w, f in row:
            out[w] += mass * f
    return out


def feasible_test_spaces():
    yield three_bit_space()
    yield two_bit_space()
    space = ExplicitSpace((Fraction(1, 2), Fraction(1, 2)),
                          (frozenset({0}), frozenset({0})), DependencyGraph(2))
    yield space
    for seed in range(60):
        yield random_space(seed)


def test_kernels_restore_the_measure_exactly():
    checked = 0
    for space in feasible_test_spaces():
        for i in range(space.n_events):
            if space.event_prob(i) == 0:
                continue
            kernel = synthesize(space, i)
            if not isinstance(kernel, SynthesizedOracle):
                continue
            out = push_through(space, i, kernel)
            for w in range(space.n_states):
                assert out[w] == space.probs[w]
            checked += 1
    assert checked > 30


def test_kernel_support_never_switches_on_a_free_event():
    for space in feasible_test_spaces():
        try:
            bundle = ExplicitBundle(space)
        except ValueError:
            continue
        for i in range(space.n_events):
            assert exhaustive_r2(bundle, i) == 0


# ---------------------------------------------------------------------------
# the engine-ready bundle


def test_bundle_rejects_infeasible_space():
    space = ExplicitSpace((Fraction(1, 2), Fraction(1, 2)),
                          (frozenset({0}), frozenset({1})), DependencyGraph(2))
    with pytest.raises(ValueError, match="no resampling oracle"):
        ExplicitBundle(space)


def test_bundle_resample_requires_occurring_event():
    bundle = ExplicitBundle(three_bit_space())
    rng = random.Random(0)
    with pytest.raises(OracleEventError):
        bundle.resample(0, 1, rng)  # state 1 has bit 0 set


def test_bundle_exact_distribution_and_keys():
    bundle = ExplicitBundle(three_bit_space())
    dist = bundle.exact_distribution()
    assert set(dist) == set(range(8))
    assert all(abs(p - 0.125) < 1e-12 for p in dist.values())


class _TopDraw:
    """A stream whose random() is the largest float below 1."""

    def random(self):
        return 1 - 2**-53


def test_bundle_sample_never_draws_a_state_of_probability_zero():
    # ten floats of 1/10 sum to 1 - 2**-53, so a draw at the top of [0, 1)
    # passes every cumulative sum and clamps to the last state
    space = ExplicitSpace((Fraction(1, 10),) * 10 + (Fraction(0),), (), DependencyGraph(0))
    bundle = ExplicitBundle(space)
    assert bundle.sample(_TopDraw()) == 9
    assert 9 in bundle.exact_distribution()


def test_engine_clears_all_bits():
    bundle = ExplicitBundle(three_bit_space())
    for seed in range(10):
        state, log = maximal_set_resample(bundle, seed, max_resamples=10_000)
        assert log.terminated
        assert state == 7  # every bit set, no event holds
        assert log.iterations[-1] == []


def test_bundle_sampler_matches_measure():
    probs = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
    space = ExplicitSpace(probs, (frozenset({0, 1}),), DependencyGraph(1))
    bundle = ExplicitBundle(space)
    rng = random.Random(7)
    counts = [0, 0, 0]
    n = 30_000
    for _ in range(n):
        counts[bundle.sample(rng)] += 1
    for s, p in enumerate(probs):
        se = (float(p) * (1 - float(p)) / n) ** 0.5
        assert abs(counts[s] / n - float(p)) < 5 * se


class FixedDraw:
    """rng stand-in whose every random() returns r."""

    def __init__(self, r):
        self.r = r

    def random(self):
        return self.r


def draws_around(cum):
    """Each cumulative value, its float neighbours, the ends of [0, 1)."""
    out = [0.0, 1.0 - 2.0**-53, 0.5]
    for acc in cum:
        out += [acc, math.nextafter(acc, 0.0), math.nextafter(acc, 1.0)]
    return out


def test_bundle_draws_match_a_linear_scan():
    # thirds do not sum to one in floats, and zero-mass states repeat a
    # cumulative value, so both the clamp and ties are exercised
    space = ExplicitSpace((Fraction(1, 3), Fraction(0), Fraction(1, 3), Fraction(1, 6),
                           Fraction(0), Fraction(1, 6)),
                          (frozenset({0, 1, 3}), frozenset({2, 3})),
                          DependencyGraph(2, [(0, 1)]))
    bundles = [ExplicitBundle(space), ExplicitBundle(ring_space(3))]
    rng = random.Random(11)
    for bundle in bundles:
        cum = list(itertools.accumulate(float(p) for p in bundle.space.probs))
        for r in draws_around(cum) + [rng.random() for _ in range(2000)]:
            assert bundle.sample(FixedDraw(r)) == linear_scan(cum, r)
        for kernel in bundle.kernels:
            for u, row in kernel.rows.items():
                cum = list(itertools.accumulate(float(f) for _, f in row))
                for r in draws_around(cum) + [rng.random() for _ in range(50)]:
                    got = bundle.resample(kernel.event, u, FixedDraw(r))
                    assert got == row[linear_scan(cum, r)][0]
