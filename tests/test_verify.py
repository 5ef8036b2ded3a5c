"""Checks for the verification helpers and the adversarial streak bundle."""

import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from locallemma.engine import maximal_set_resample
from locallemma.graphs import DependencyGraph
from locallemma.oracles import (
    MatchingBundle,
    OracleEventError,
    TreeBundle,
    VariableBundle,
    VariableEvent,
)
from locallemma.verify import (
    AppendixABundle,
    StreakReport,
    appendix_a_bundle,
    derive_seed,
    exhaustive_r2,
    longest_streak,
    measure_consecutive_runs,
    test_r1 as run_r1,
    test_r2 as run_r2,
)

from helpers import TupleAppendixABundle, acceptance_fixtures, exact_outcomes


def coin_pair_bundle():
    events = [
        VariableEvent(variables=(0,), predicate=lambda v: v == 0),
        VariableEvent(variables=(1,), predicate=lambda v: v == 0),
    ]
    return VariableBundle([((0, 1), None)] * 2, events)


# ---------------------------------------------------------------------------
# seed derivation


def test_derive_seed_is_deterministic():
    assert derive_seed(12, 3) == derive_seed(12, 3)


def test_derive_seed_spreads():
    seeds = {derive_seed(0, i) for i in range(200)}
    seeds |= {derive_seed(1, i) for i in range(200)}
    assert len(seeds) == 400
    assert all(0 <= s < 1 << 64 for s in seeds)


# ---------------------------------------------------------------------------
# distribution (R1) and containment (R2) testers


def test_r1_report_on_sound_oracle():
    report = run_r1(coin_pair_bundle(), 0, samples=20_000, seed=5)
    assert report.passed
    assert report.event == 0
    assert report.samples == 20_000
    assert report.support_size == 4
    assert report.unexpected_states == 0
    assert report.chi_square < report.threshold
    assert report.max_abs_deviation < 0.02
    obj = report.to_json()
    assert obj["passed"] is True
    assert obj["support_size"] == 4


@pytest.mark.parametrize("family", ["variable", "permutation", "matching", "tree"])
def test_r1_report_json_lists_every_field_in_order(family):
    from locallemma.cli import _default_bundle

    report = run_r1(_default_bundle(family, 0), 0, samples=500, seed=3)
    assert list(report.to_json().items()) == [
        ("event", report.event),
        ("samples", report.samples),
        ("support_size", report.support_size),
        ("chi_square", report.chi_square),
        ("threshold", report.threshold),
        ("significance", report.significance),
        ("max_abs_deviation", report.max_abs_deviation),
        ("unexpected_states", report.unexpected_states),
        ("passed", report.passed),
    ]


# sha256 over [R1 report JSON, R2 count] for every event of each
# acceptance fixture, captured before the R1/R2 loops and the oracle hot
# paths were rewritten: the checks must take the same draws and give the
# same bits.
R1_R2_DIGESTS = [
    "9b895a6d8ac5e1a4c0771e1799961ef5110d3bd5cc3ba112280fc34d377ac4b9",  # permutation
    "9d7fa5b893c148d272851f5d1389064afc8889caf1a4cb4458471400ffb5d67d",  # matching
    "5a949a4bd355b3b279a1cf7e20756d5944ebaea6ba8bca35bf848a6ead0e1a7e",  # tree
    "648cec786bc49957b68d608a14bccb15ba08933caab01d505d21b460c86e30d1",  # variable
    "dcc79d96534319bac795aa94bdfbf347f627cd2604ac141495930e734e3c1e3d",  # explicit
]


@pytest.mark.parametrize("f", range(5), ids=["permutation", "matching", "tree",
                                             "variable", "explicit"])
def test_r1_and_r2_are_pinned_on_every_fixture_event(f):
    bundle = acceptance_fixtures()[f]
    rows = [
        [run_r1(bundle, e, 4000, derive_seed(44, f)).to_json(),
         run_r2(bundle, e, 4000, derive_seed(55, f))]
        for e in range(bundle.n)
    ]
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == R1_R2_DIGESTS[f]


def _r1_bundle(name):
    """A bundle that R1 runs on: the CLI's defaults, the streak bundle and
    the fixtures of this file."""
    from locallemma.cli import _default_bundle, _default_space
    from locallemma.synth import ExplicitBundle

    if name == "explicit":
        return ExplicitBundle(_default_space())
    if name == "appendix-a":
        return appendix_a_bundle(2, 1)
    if name == "coin-pair":
        return coin_pair_bundle()
    if name.startswith("fixture-"):
        return acceptance_fixtures()[int(name[-1])]
    return _default_bundle(name, 0)


@pytest.mark.parametrize("name", ["variable", "permutation", "matching", "tree", "explicit",
                                  "appendix-a", "coin-pair",
                                  *(f"fixture-{f}" for f in range(5))])
def test_states_are_keys_of_their_own_law(name):
    # R1 counts the resampled states themselves against the exact law
    bundle = _r1_bundle(name)
    exact = bundle.exact_distribution()
    rng = random.Random(8)
    for event in range(bundle.n):
        state = bundle.sample(rng)
        assert state in exact
        while not bundle.holds(event, state):
            state = bundle.sample(rng)
        assert bundle.resample(event, state, rng) in exact


class _StuckOracle:
    """Two fair bits, one event on bit 0, resample that returns its input.

    Violates measure restoration: outputs stay conditioned on the event.
    """

    def __init__(self):
        self.graph = DependencyGraph(1)
        self.n = 1

    def sample(self, rng):
        return (rng.getrandbits(1), rng.getrandbits(1))

    def holds(self, i, state):
        return state[0] == 0

    def resample(self, i, state, rng):
        return state

    def exact_distribution(self):
        return {(a, b): 0.25 for a in (0, 1) for b in (0, 1)}


@pytest.mark.parametrize("significance", [1e-6, 1e-3, 0.01, 0.05])
def test_r1_threshold_equals_the_chi_square_quantile(significance):
    from scipy.stats import chi2
    from scipy.special import chdtri

    for df in range(1, 300):
        expected = float(chi2.ppf(1 - significance, df))
        assert float(chdtri(df, 1 - (1 - significance))) == expected, df
    report = run_r1(coin_pair_bundle(), 0, samples=10, significance=significance)
    assert report.threshold == float(chi2.ppf(1 - significance, report.support_size - 1))


def test_r1_flags_distribution_drift():
    report = run_r1(_StuckOracle(), 0, samples=4_000, seed=1)
    assert not report.passed
    assert report.chi_square > report.threshold
    # mass that belongs on bit0=1 states never shows up
    assert report.max_abs_deviation > 0.2


class _EscapingOracle(_StuckOracle):
    def resample(self, i, state, rng):
        return (2, 2)  # not a state of the declared support


def test_r1_flags_unexpected_states():
    report = run_r1(_EscapingOracle(), 0, samples=500, seed=1)
    assert not report.passed
    assert report.unexpected_states == 500


def test_r2_zero_for_sound_oracle():
    assert run_r2(coin_pair_bundle(), 0, trials=2_000, seed=3) == 0


class _LeakyOracle:
    """Two single-bit events; resampling event 0 also clears bit 1."""

    def __init__(self):
        self.graph = DependencyGraph(2)
        self.n = 2

    def sample(self, rng):
        return (rng.getrandbits(1), rng.getrandbits(1))

    def holds(self, i, state):
        return state[i] == 0

    def resample(self, i, state, rng):
        return (rng.getrandbits(1), 0)


def test_r2_counts_switch_on_violations():
    # every trial starting at (0, 1) turns event 1 on
    assert run_r2(_LeakyOracle(), 0, trials=400, seed=9) > 50


class _CountingBundle:
    """A bundle whose unconditioned draws are counted."""

    def __init__(self, inner):
        self.inner = inner
        self.draws = 0

    def sample(self, rng):
        self.draws += 1
        return self.inner.sample(rng)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def test_rejection_budget_is_one_budget_per_test():
    # no single conditioned draw needs more than a few samples, so only a
    # budget shared by the whole test runs out
    counting = _CountingBundle(coin_pair_bundle())
    report = run_r1(counting, 0, samples=300, seed=1)
    needed = counting.draws
    assert needed > 300
    assert run_r1(coin_pair_bundle(), 0, samples=300, seed=1,
                  rejection_budget=needed) == report
    with pytest.raises(RuntimeError):
        run_r1(coin_pair_bundle(), 0, samples=300, seed=1, rejection_budget=needed - 1)

    counting = _CountingBundle(coin_pair_bundle())
    assert run_r2(counting, 0, trials=300, seed=2) == 0
    needed = counting.draws
    assert run_r2(coin_pair_bundle(), 0, trials=300, seed=2, rejection_budget=needed) == 0
    with pytest.raises(RuntimeError):
        run_r2(coin_pair_bundle(), 0, trials=300, seed=2, rejection_budget=needed - 1)


def test_r1_refuses_an_event_of_probability_zero():
    # "the bit is 1" under a bit that is always 0: rejection would spend
    # its whole budget, about 150 s at the default, and then fail
    bundle = VariableBundle([((0, 1), (1.0, 0.0))], [VariableEvent((0,), lambda v: v == 1)])
    with pytest.raises(ValueError, match="event 0"):
        run_r1(bundle, 0, samples=10, rejection_budget=10**6)


def test_an_event_too_rare_for_the_budget_is_refused_before_any_draw():
    # P(event) = 1/1000 and 10 states: about 10^4 draws, past a budget of
    # 100 by far more than REJECTION_MARGIN times
    bundle = VariableBundle([((0, 1), (999, 1))], [VariableEvent((0,), lambda v: v == 1)])
    for test in (run_r1, run_r2):
        counting = _CountingBundle(bundle)
        with pytest.raises(ValueError, match="rejection draws"):
            test(counting, 0, 10, 1, rejection_budget=100)
        assert counting.draws == 0
    # near the budget the test draws, and the budget decides
    counting = _CountingBundle(bundle)
    with pytest.raises(RuntimeError):
        run_r2(counting, 0, 10, 1, rejection_budget=2000)
    assert counting.draws == 2000


def test_r2_without_trials_takes_no_draws():
    counting = _CountingBundle(coin_pair_bundle())
    for trials in (0, -3):
        with pytest.raises(ValueError, match="at least one trial"):
            run_r2(counting, 0, trials=trials, seed=1)
    assert counting.draws == 0


class _EdgeDroppingTrees(TreeBundle):
    """Tree oracle that loses an edge: its outputs are no spanning trees."""

    def resample(self, i, state, rng):
        out = super().resample(i, state, rng)
        return out - {max(out)}


class _SelfMatchingMatchings(MatchingBundle):
    """Matching oracle that matches vertex 0 to itself."""

    def resample(self, i, state, rng):
        return (0, *super().resample(i, state, rng)[1:])


@pytest.mark.parametrize("bundle", [
    _EdgeDroppingTrees(5, [((0, 1),), ((2, 3),)]),
    _SelfMatchingMatchings(6, [((0, 1),), ((2, 3),), ((4, 5),)]),
], ids=["tree", "matching"])
def test_r1_and_r2_flag_outputs_that_are_no_structure(bundle):
    report = run_r1(bundle, 0, samples=200, seed=4)
    assert not report.passed
    assert report.unexpected_states == 200
    assert run_r2(bundle, 0, trials=200, seed=5) == 200


def test_exhaustive_r2_needs_kernels():
    with pytest.raises(ValueError):
        exhaustive_r2(coin_pair_bundle(), 0)


# ---------------------------------------------------------------------------
# streak bundle: layout, graph, oracle semantics


def test_streak_bundle_layout():
    b = appendix_a_bundle(3, 2)
    assert isinstance(b, AppendixABundle)
    assert b.n == 3 + 3 * 2 + 1
    assert b.n_vars == 3 + 6 + 3 + 1
    assert b.eprime == 9


def test_streak_bundle_rejects_degenerate_sizes():
    with pytest.raises(ValueError):
        AppendixABundle(0, 1)
    with pytest.raises(ValueError):
        AppendixABundle(1, 0)


def test_streak_bundle_graph_shape():
    b = AppendixABundle(3, 2)
    g = b.graph
    for i in range(3):
        for j in range(2):
            assert g.adjacent(i, 3 + i * 2 + j)
    assert not g.adjacent(0, 1)           # X events mutually isolated
    assert not g.adjacent(0, 3 + 2)       # wrong cluster
    assert g.adjacent(3, 4)               # same-cluster Y events serialize
    assert not g.adjacent(4, 5)           # cross-cluster Y events do not
    for e in range(b.n - 1):
        assert not g.adjacent(b.eprime, e)  # E' sees nobody


def all_states(n_vars):
    for code in range(1 << n_vars):
        yield tuple(code >> t & 1 for t in range(n_vars))


def test_streak_bundle_occurrence_scan_matches_holds():
    b = AppendixABundle(2, 1)
    rng = random.Random(4)
    for _ in range(50):
        state = b.sample(rng)
        assert b.occurring(state) == [i for i in range(b.n) if b.holds(i, state)]


def test_streak_bundle_events_are_fair_bits():
    b = AppendixABundle(2, 1)
    states = list(all_states(b.n_vars))
    for i in range(b.n):
        hits = sum(1 for s in states if b.holds(i, s))
        assert Fraction(hits, len(states)) == Fraction(1, 2)


class _BitFeed:
    def __init__(self, bits):
        self.bits = list(bits)

    def getrandbits(self, _):
        return self.bits.pop(0)


def test_streak_oracle_x_event_redraws_own_bit():
    b = AppendixABundle(2, 1)
    state = (0, 1, 0, 1, 1, 0, 1)  # X=(0,1) Y=(0,1) Z=(1,0) W=1
    out = b.resample(0, state, _BitFeed([1]))
    assert out == bytes((1, 1, 0, 1, 1, 0, 1))


def test_streak_oracle_y_event_swaps_through_queue():
    # E_0^0 moves Z_0 into X_0, stores old X_0 in Z_0, redraws Y_0^0
    b = AppendixABundle(2, 1)
    state = (0, 1, 0, 1, 1, 0, 1)
    out = b.resample(2, state, _BitFeed([1]))
    assert out == bytes((1, 1, 1, 1, 0, 0, 1))


def test_streak_oracle_prime_event_shifts_queue_into_trigger():
    # E' loads W from Z_0, shifts the queue, refreshes the tail
    b = AppendixABundle(2, 1)
    state = (0, 1, 0, 1, 1, 0, 1)
    out = b.resample(4, state, _BitFeed([1]))
    assert out == bytes((0, 1, 0, 1, 0, 1, 1))


def test_streak_oracle_requires_occurring_event():
    b = AppendixABundle(2, 1)
    state = (1, 1, 1, 1, 0, 0, 0)  # nothing holds
    for i in range(b.n):
        with pytest.raises(OracleEventError):
            b.resample(i, state, _BitFeed([0, 0, 0]))
    # on every state, the oracle refuses exactly the events that are off
    b = AppendixABundle(2, 2)
    for code in range(1 << b.n_vars):
        state = tuple(code >> t & 1 for t in range(b.n_vars))
        for i in range(b.n):
            if b.holds(i, state):
                b.resample(i, state, _BitFeed([0, 0, 0]))
            else:
                with pytest.raises(OracleEventError):
                    b.resample(i, state, _BitFeed([0, 0, 0]))


def test_streak_bundle_exact_distribution_cap():
    assert len(AppendixABundle(2, 1).exact_distribution()) == 128
    with pytest.raises(ValueError):
        AppendixABundle(4, 6).exact_distribution()


def test_streak_oracles_restore_measure_exactly():
    """Push the conditioned measure through every branch of each oracle."""
    b = AppendixABundle(2, 1)
    states = list(all_states(b.n_vars))
    uniform = Fraction(1, len(states))
    for i in range(b.n):
        sources = [s for s in states if b.holds(i, s)]
        out = {}
        for s in sources:
            law = exact_outcomes(lambda rng: b.resample(i, s, rng))
            for w, f in law.items():
                out[w] = out.get(w, Fraction(0)) + f / len(sources)
        assert len(out) == len(states)
        assert all(mass == uniform for mass in out.values())


def test_streak_oracles_never_switch_on_free_events():
    b = AppendixABundle(2, 1)
    g = b.graph
    for i in range(b.n):
        others = [j for j in range(b.n) if j != i and not g.adjacent(i, j)]
        for s in all_states(b.n_vars):
            if not b.holds(i, s):
                continue
            off = [j for j in others if not b.holds(j, s)]
            for w in exact_outcomes(lambda rng: b.resample(i, s, rng)):
                assert not any(b.holds(j, w) for j in off)


def test_streak_bundle_passes_r1_and_r2_on_every_event():
    b = AppendixABundle(2, 1)
    for i in range(b.n):
        report = run_r1(b, i, samples=4000, seed=i)
        assert report.passed and report.unexpected_states == 0, i
        assert run_r2(b, i, trials=400, seed=i) == 0, i


def test_streak_bundle_exact_distribution_keys_are_the_bytes_states():
    b = AppendixABundle(2, 1)
    exact = b.exact_distribution()
    assert set(exact) == {bytes(s) for s in all_states(b.n_vars)}
    state = b.sample(random.Random(0))
    assert type(state) is bytes and state in exact


# ---------------------------------------------------------------------------
# streak bundle against the tuple reference


def run_with_next_draw(bundle, seed, budget):
    """Engine run on the bundle, and the draw that follows it on the run's stream."""
    streams = []
    sample = bundle.sample

    def recorded(rng):
        streams.append(rng)
        return sample(rng)

    bundle.sample = recorded
    state, log = maximal_set_resample(bundle, seed, budget)
    return state, log, streams[0].random()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 4), st.integers(0, 2**64 - 1),
       st.sampled_from([1, 7, 40, 1_000_000]))
def test_streak_bundle_matches_the_tuple_reference(k, l, seed, budget):
    state, log, draw = run_with_next_draw(AppendixABundle(k, l), seed, budget)
    ref_state, ref_log, ref_draw = run_with_next_draw(TupleAppendixABundle(k, l), seed, budget)
    assert type(state) is bytes
    assert log == ref_log
    assert tuple(state) == ref_state
    assert draw == ref_draw


@pytest.mark.parametrize("k, l", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_streak_oracles_match_the_tuple_reference_on_every_state(k, l):
    b, ref = AppendixABundle(k, l), TupleAppendixABundle(k, l)
    for state in all_states(b.n_vars):
        bits = bytes(state)
        assert b.occurring(bits) == b.occurring(state) == ref.occurring(state)
        for i in range(b.n):
            assert b.holds(i, bits) == ref.holds(i, state)
            if not ref.holds(i, state):
                with pytest.raises(OracleEventError):
                    b.resample(i, bits, _BitFeed([0]))
                continue
            law = exact_outcomes(lambda rng: ref.resample(i, state, rng))
            for source in (bits, state):
                out = exact_outcomes(lambda rng: b.resample(i, source, rng))
                assert {tuple(w): pr for w, pr in out.items()} == law
                assert all(type(w) is bytes for w in out)


# ---------------------------------------------------------------------------
# streak measurement


def test_longest_streak_counts_consecutive_hits():
    its = [[4], [4], [0, 4], [1], [4], []]
    assert longest_streak(its, 4) == 3
    assert longest_streak(its, 0) == 1
    assert longest_streak(its, 9) == 0
    assert longest_streak([], 4) == 0


def test_streak_report_tail_frequency():
    report = StreakReport(runs=10, counts={0: 4, 2: 3, 5: 3}, budget_exhausted=0)
    assert report.frequency_at_least(1) == 0.6
    assert report.frequency_at_least(3) == 0.3
    assert report.frequency_at_least(6) == 0.0
    obj = report.to_json()
    assert obj["counts"] == {"0": 4, "2": 3, "5": 3}
    assert obj["runs"] == 10


def test_measure_consecutive_runs_smoke():
    b = AppendixABundle(1, 1)
    report = measure_consecutive_runs(b, runs=300, seed=11)
    assert report.runs == 300
    assert sum(report.counts.values()) == 300
    assert report.budget_exhausted == 0
    # W starts at 1 half the time, so streaks of length >= 1 are common
    freq = report.frequency_at_least(1)
    assert freq > 0.5 - 4 * (0.25 / 300) ** 0.5


def test_measure_consecutive_runs_reproducible():
    b = AppendixABundle(2, 2)
    first = measure_consecutive_runs(b, runs=60, seed=3)
    second = measure_consecutive_runs(b, runs=60, seed=3)
    assert first.counts == second.counts


def test_engine_runs_streak_bundle_to_completion():
    b = AppendixABundle(2, 2)
    state, log = maximal_set_resample(b, seed=8, max_resamples=100_000)
    assert log.terminated
    assert b.occurring(state) == []
