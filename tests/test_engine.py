"""Engine schedule semantics, logs, and agreement with a naive loop."""

import random

import pytest

from helpers import reference_resample_run
from locallemma.engine import RunLog, log_follows, maximal_set_resample
from locallemma.oracles import (
    MatchingBundle,
    PatternEvent,
    PermutationBundle,
    TreeBundle,
    VariableBundle,
    VariableEvent,
)
from locallemma.synth import ExplicitBundle, ExplicitSpace
from locallemma.graphs import DependencyGraph
from fractions import Fraction


def coin_bundle(bits, events):
    return VariableBundle([((0, 1), None)] * bits, events)


def bit_is(i, value):
    return VariableEvent(variables=(i,), predicate=lambda v: v == value)


def test_no_event_terminates_immediately():
    bundle = coin_bundle(1, [VariableEvent(variables=(0,), predicate=lambda v: False)])
    state, log = maximal_set_resample(bundle, seed=3)
    assert log.terminated
    assert log.iterations == [[]]
    assert log.total_resamples == 0


def test_budget_exhaustion_partial_log():
    always = VariableEvent(variables=(0,), predicate=lambda v: True)
    bundle = coin_bundle(1, [always])
    state, log = maximal_set_resample(bundle, seed=0, max_resamples=5)
    assert not log.terminated
    assert log.total_resamples == 5
    assert log.iterations == [[0]] * 5 + [[]]


def test_budget_must_be_positive():
    bundle = coin_bundle(1, [bit_is(0, 1)])
    with pytest.raises(ValueError):
        maximal_set_resample(bundle, seed=0, max_resamples=0)


def test_geometric_mean_resamples():
    bundle = coin_bundle(1, [bit_is(0, 1)])
    total = 0
    runs = 20_000
    for s in range(runs):
        _, log = maximal_set_resample(bundle, seed=s)
        total += log.total_resamples
    assert abs(total / runs - 1.0) < 0.05


def test_same_seed_same_log():
    bundle = coin_bundle(3, [bit_is(i, 1) for i in range(3)])
    _, log1 = maximal_set_resample(bundle, seed=42)
    _, log2 = maximal_set_resample(bundle, seed=42)
    assert log1 == log2


def test_iterations_are_ascending_independent_sets():
    bundle = coin_bundle(4, [bit_is(i, 1) for i in range(4)])
    for s in range(30):
        _, log = maximal_set_resample(bundle, seed=s)
        for picks in log.iterations:
            assert picks == sorted(picks)
            assert len(set(picks)) == len(picks)
        assert log.iterations[-1] == []


def explicit_space_three_bits():
    g = DependencyGraph(3)
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    events = tuple(
        frozenset(s for s in range(8) if not (s >> i) & 1) for i in range(3)
    )
    return ExplicitSpace(tuple([Fraction(1, 8)] * 8), events, g)


def bundles_for_cross_check():
    yield coin_bundle(3, [bit_is(i, 1) for i in range(3)])
    shared = VariableEvent(variables=(0, 1), predicate=lambda a, b: a == b == 1)
    yield coin_bundle(2, [shared, bit_is(1, 1)])
    yield PermutationBundle(4, [PatternEvent(((0, 0),)), PatternEvent(((1, 1),))])
    yield MatchingBundle(6, [((0, 1),), ((2, 3),)])
    yield TreeBundle(5, [((0, 1),), ((2, 3),)])
    yield ExplicitBundle(explicit_space_three_bits())


def test_agrees_with_naive_rescan_loop():
    # one walk over the scanned events per iteration picks what rescanning
    # every event before every pick picks, with the same random stream
    for bundle in bundles_for_cross_check():
        for seed in range(6):
            state, log = maximal_set_resample(bundle, seed=seed)
            ref_state, ref_iters, ref_total, ref_term = reference_resample_run(
                bundle, seed=seed
            )
            assert log.iterations == ref_iters
            assert log.total_resamples == ref_total
            assert log.terminated == ref_term
            assert state == ref_state


def test_log_follows_prefix_semantics():
    log = RunLog(seed=0, iterations=[[0, 2], [1], []], total_resamples=3,
                 terminated=True)
    assert log_follows(log, [])
    assert log_follows(log, [[0]])
    assert log_follows(log, [[0, 2]])
    assert log_follows(log, [[0, 2], [1]])
    # picks are consumed in ascending order, so {2} is not a valid prefix
    assert not log_follows(log, [[2]])
    assert not log_follows(log, [[1]])
    assert not log_follows(log, [[0, 2], [1], [1]])


def test_log_follows_requires_full_earlier_sets():
    log = RunLog(seed=0, iterations=[[0, 2], [1], []], total_resamples=3,
                 terminated=True)
    # the first sequence set must match the whole first iteration
    assert not log_follows(log, [[0], [1]])
