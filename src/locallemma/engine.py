"""The maximal-set resampling engine.

Each iteration greedily builds an independent set of occurring events:
walk the events that occur at the top of the iteration (every event,
when the bundle has no occurrence scan) in ascending index order, and
resample each one that still occurs and is not adjacent to an event
already picked this iteration.  The run ends when
an iteration picks nothing.

The engine works against any object satisfying the bundle interface::

    bundle.n                       number of events
    bundle.graph.keys(i)           conflict keys of event i: two distinct
                                   events are adjacent exactly when their
                                   keys meet (the graph is a
                                   ``graphs.KeyGraph``, whose other queries
                                   serve the verification and polynomial
                                   layers)
    bundle.sample(rng)             fresh state from the product measure
    bundle.holds(i, state)         does event i occur in state
    bundle.resample(i, state, rng) resampling oracle for event i
    bundle.occurring(state)        optional: indices of the occurring
                                   events, in any order

Blocking is by keys: the keys of every pick join one set, and a
candidate whose keys meet it is skipped, so each candidate is looked at
once per iteration and no pair is ever tested.  Oracles are assumed to
satisfy the two resampling-oracle properties (conditioned resampling
restores the measure; non-neighbors cannot be made to occur).  Under
the second property an event that is not adjacent to any pick and
occurs now has occurred at every state of the iteration so far, so one
``holds`` test at the moment the walk reaches it picks exactly what
re-testing every remaining candidate after every resample would pick,
with the same random stream.

The scan reads the whole state at the top of every iteration, so the
last, empty iteration shows that no event occurs, whatever the oracles
do.  Checks of the final state stay outside the engine: ``apps.solve``
serves any bundle with ``kind``, ``validate_solution`` and
``solution_json``, and checks the final state with
``validate_solution``, which the app bundles and ``ExplicitBundle``
answer without the event model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Collection, Sequence

DEFAULT_MAX_RESAMPLES = 1_000_000


@dataclass
class RunLog:
    """Complete record of one engine run.

    iterations holds the picked event indices per iteration, in pick
    order (ascending); the final empty list is included when the run
    terminated.  total_resamples equals the sum of iteration sizes.
    terminated is False when the resample budget ran out, in which case
    the last iteration is partial.
    """

    seed: int
    iterations: list[list[int]]
    total_resamples: int
    terminated: bool

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "iterations": [list(it) for it in self.iterations],
            "total_resamples": self.total_resamples,
            "terminated": self.terminated,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RunLog":
        return cls(
            seed=int(obj["seed"]),
            iterations=[[int(i) for i in it] for it in obj["iterations"]],
            total_resamples=int(obj["total_resamples"]),
            terminated=bool(obj["terminated"]),
        )


def maximal_set_resample(bundle, seed: int = 0,
                         max_resamples: int = DEFAULT_MAX_RESAMPLES):
    """Run the engine to completion or budget exhaustion.

    A single random.Random(seed) is threaded through every sample and
    resample call in program order, so identical (bundle, seed,
    max_resamples) reproduce the run exactly.  Returns (state, RunLog).
    """
    if max_resamples <= 0:
        raise ValueError("resample budget must be positive")
    rng = random.Random(seed)
    holds = bundle.holds
    resample = bundle.resample
    keys = bundle.graph.keys
    occurring = getattr(bundle, "occurring", None)

    state = bundle.sample(rng)
    iterations: list[list[int]] = []
    total = 0
    while True:
        candidates = range(bundle.n) if occurring is None else sorted(occurring(state))
        picked: list[int] = []
        blocked = set()
        for i in candidates:
            conflict = keys(i)
            if not blocked.isdisjoint(conflict) or not holds(i, state):
                continue
            if total >= max_resamples:
                iterations.append(picked)
                return state, RunLog(seed, iterations, total, False)
            state = resample(i, state, rng)
            total += 1
            picked.append(i)
            blocked.update(conflict)
        iterations.append(picked)
        if not picked:
            return state, RunLog(seed, iterations, total, True)


def log_follows(log: RunLog, sets: Sequence[Collection[int]]) -> bool:
    """Did the run resample exactly this stable set sequence at its start?

    sets is any sequence of index collections, such as another run's
    iterations.  True when iterations 1..t-1 of the log hold the same
    events as the first t-1 sets and the t-th set is a prefix of
    iteration t (picks are in ascending index order, so prefix
    comparison is well defined).  The empty sequence is followed by
    every run.
    """
    if not sets:
        return True
    if len(sets) > len(log.iterations):
        return False
    *whole, last = map(set, sets)
    picks = log.iterations
    return (all(s == set(it) for s, it in zip(whole, picks))
            and set(picks[len(whole)][: len(last)]) == last)
