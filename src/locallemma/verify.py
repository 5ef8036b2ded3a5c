"""Statistical and exhaustive verification of resampling oracles.

test_r1 checks the measure-restoration property: sample states, keep
those satisfying the event (the conditioned measure), resample once,
and compare the empirical output distribution against the exact
unconditioned measure with a chi-square test.  test_r2 checks the
containment property: resampling an event must never switch on a
non-neighbor event that was off.

The module also ships an adversarial bundle (appendix_a_bundle) whose
isolated event E' gets resampled many iterations in a row with constant
probability: each E' resampling shifts a queue of bits into E's own
trigger variable, and the queue was loaded by earlier resamplings of
other events.  It demonstrates that per-run resampling counts cannot be
bounded through per-occurrence arguments in this framework.  Its state
is a bytes bit vector, so a resample is one copy and the occurrence scan
searches for zero bytes.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import asdict, dataclass
from itertools import islice, repeat

from .engine import DEFAULT_MAX_RESAMPLES, maximal_set_resample
from .graphs import KeyGraph, non_neighbors
from .oracles import OracleEventError

DEFAULT_SIGNIFICANCE = 1e-6
DEFAULT_REJECTION_BUDGET = 10**8
#: A test whose expected rejection draws, count / P(event), pass its
#: budget this many times over is refused before it draws.
REJECTION_MARGIN = 10
#: Cap on the k + k*l + 1 events of an AppendixABundle, about 63 bytes each.
MAX_STREAK_EVENTS = 1 << 20


class RejectionBudgetError(RuntimeError):
    """A test's rejection draws ran out before it had all its conditioned states."""


def derive_seed(master: int, index: int) -> int:
    """Stable per-trial seed stream, independent of process hashing."""
    digest = hashlib.blake2b(
        f"{master}:{index}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


@dataclass
class DistributionTestReport:
    """Outcome of one chi-square comparison against an exact law."""

    event: int
    samples: int
    support_size: int
    chi_square: float
    threshold: float
    significance: float
    max_abs_deviation: float
    unexpected_states: int
    passed: bool

    def to_json(self) -> dict:
        return asdict(self)


def _conditioned_states(bundle, event: int, rng, budget: int):
    """States from the measure conditioned on the event, by rejection.

    One generator serves a whole test, so its budget caps the draws of
    all the states it yields together; it raises RejectionBudgetError, a
    RuntimeError, when the budget runs out before the next state is found.
    It draws only when asked for a state, so the caller's resamples
    interleave on the same stream.
    """
    sample, holds = bundle.sample, bundle.holds
    for _ in range(budget):
        state = sample(rng)
        if holds(event, state):
            yield state
    raise RejectionBudgetError(
        f"rejection sampling ran out of its draw budget on event {event}"
    )


def _refuse_hopeless(exact, holds, event: int, count: int, budget: int) -> None:
    """ValueError unless ``count`` states conditioned on the event stand a
    chance within ``budget`` rejection draws: the event needs positive
    probability under the exact law, and count / P(event) may pass the
    budget by at most REJECTION_MARGIN times."""
    # summed only until the event is likely enough, so a likely event
    # reads a few states of a large law
    mass = 0.0
    for state, p in exact.items():
        if p > 0 and holds(event, state):
            mass += p
            if mass * REJECTION_MARGIN * budget >= count:
                return
    if mass == 0:
        raise ValueError(f"event {event} holds on no state of positive probability")
    raise ValueError(
        f"event {event} has probability {mass:.3g}: {count} conditioned states need about "
        f"{count / mass:.3g} rejection draws, past the budget of {budget}"
    )


def test_r1(bundle, event: int, samples: int, seed: int = 0,
            significance: float = DEFAULT_SIGNIFICANCE,
            rejection_budget: int = DEFAULT_REJECTION_BUDGET,
            exact: dict | None = None) -> DistributionTestReport:
    """Measure-restoration check for one event.

    Draws `samples` states from the conditioned measure (rejection, at
    most `rejection_budget` draws in all), resamples each once, and
    chi-square-tests the outputs against bundle.exact_distribution().
    The states themselves are counted, so each must be hashable and equal
    to its key in the exact law.  Passing means the statistic stays below
    the upper quantile at the given significance and no output (a broken
    structure included) fell outside the exact support.  ``exact`` is
    that law when the caller holds it already.  An event too unlikely for
    the budget (see ``_refuse_hopeless``) is refused before any draw.
    """
    if samples < 1:
        raise ValueError("the distribution test needs at least one sample")
    if exact is None:
        exact = bundle.exact_distribution()
    _refuse_hopeless(exact, bundle.holds, event, samples, rejection_budget)
    rng = random.Random(seed)
    states = islice(_conditioned_states(bundle, event, rng, rejection_budget), samples)
    outs = map(bundle.resample, repeat(event), states, repeat(rng))
    counts = Counter(outs)

    unexpected = sum(c for k, c in counts.items() if k not in exact)
    stat = 0.0
    max_dev = 0.0
    for k, prob in exact.items():
        expected = prob * samples
        observed = counts.get(k, 0)
        if expected > 0:
            stat += (observed - expected) ** 2 / expected
        max_dev = max(max_dev, abs(observed / samples - prob))
    df = max(len(exact) - 1, 1)
    # chi2.ppf(1 - s, df) evaluates chdtri(df, 1 - (1 - s)); calling it
    # directly gives the same float without importing scipy.stats, and
    # importing it here keeps scipy (about 0.25 s and 20 MB) out of every
    # process that runs no R1 test.
    from scipy.special import chdtri

    threshold = float(chdtri(df, 1 - (1 - significance)))
    return DistributionTestReport(
        event=event,
        samples=samples,
        support_size=len(exact),
        chi_square=stat,
        threshold=threshold,
        significance=significance,
        max_abs_deviation=max_dev,
        unexpected_states=unexpected,
        passed=(unexpected == 0 and stat < threshold),
    )


def test_r2(bundle, event: int, trials: int, seed: int = 0,
            rejection_budget: int = DEFAULT_REJECTION_BUDGET,
            exact: dict | None = None) -> int:
    """Containment check: count violations over conditioned trials.

    Each trial draws a state satisfying the event (rejection, at most
    `rejection_budget` draws in all), records which non-neighbor events
    fail, resamples, and counts any of those that now hold.  An output
    the bundle's ``valid_state`` rejects (a tree or matching oracle that
    broke its structure) counts as one violation.  A correct oracle
    yields exactly zero.  When the bundle has an exact law (``exact``,
    or its ``exact_distribution()``), an event too unlikely for the
    budget is refused before any draw, as in ``test_r1``.
    """
    if trials < 1:
        raise ValueError("the containment test needs at least one trial")
    law = getattr(bundle, "exact_distribution", None)
    if exact is None and law is not None:
        try:
            exact = law()
        except ValueError:
            pass  # a law too large to enumerate: the budget alone decides
    if exact is not None:
        _refuse_hopeless(exact, bundle.holds, event, trials, rejection_budget)
    others = non_neighbors(bundle.graph, event)
    holds, resample = bundle.holds, bundle.resample
    valid = getattr(bundle, "valid_state", None)
    rng = random.Random(seed)
    violations = 0
    states = _conditioned_states(bundle, event, rng, rejection_budget)
    for state in islice(states, trials):
        off = [j for j in others if not holds(j, state)]
        after = resample(event, state, rng)
        if valid is not None and not valid(after):
            violations += 1
            continue
        for j in off:
            if holds(j, after):
                violations += 1
    return violations


def exhaustive_r2(bundle, event: int) -> int:
    """Zero-randomness containment check over every kernel support edge.

    Only for bundles exposing synthesized kernels (explicit spaces):
    walks each source state and each target in its kernel row and
    counts support edges that switch on an off non-neighbor event.
    """
    kernels = getattr(bundle, "kernels", None)
    if kernels is None:
        raise ValueError("exhaustive check needs a bundle with explicit kernels")
    others = non_neighbors(bundle.graph, event)
    violations = 0
    for u, row in kernels[event].rows.items():
        off = [j for j in others if not bundle.holds(j, u)]
        for w, _ in row:
            violations += sum(1 for j in off if bundle.holds(j, w))
    return violations


# ---------------------------------------------------------------------------
# the adversarial streak construction


class AppendixABundle:
    """Fair-bit bundle engineered for long consecutive resampling streaks.

    Variables, all independent fair bits: X_1..X_k, Y_i^j for j <= l,
    Z_1..Z_k, and W.  Events: E_i = {X_i = 0}, E_i^j = {Y_i^j = 0},
    E' = {W = 1}.  The graph makes each cluster {E_i, E_i^1..E_i^l} a
    clique; E' is isolated.  Oracles:

        E_i   : redraw X_i
        E_i^j : (X_i, Y_i^j, Z_i) <- (Z_i, fresh, X_i)
        E'    : W <- Z_1, queue shift Z_i <- Z_{i+1}, Z_k <- fresh

    Each oracle touches only variables of its own cluster, so both
    contract properties hold, yet resampling E' keeps reloading W from
    the Z-queue that earlier iterations filled with ones.  The clique
    serializes each cluster to one resample per iteration, so E_i^j
    only ever fires while X_i = 1 and its swap writes a one into the
    queue; two swaps in one iteration would cancel instead.  Event
    order: E_1..E_k, then the E_i^j, then E' last.

    A state is ``bytes``, one byte (0 or 1) per bit in the layout
    X | Y | Z | W, so the event E_i or E_i^j with index e reads slot e.
    ``holds``, ``occurring`` and ``resample`` also accept any sequence
    of 0/1 ints, such as a tuple.
    """

    def __init__(self, k: int, l: int) -> None:
        if k < 1 or l < 1:
            raise ValueError("need at least one cluster and one queue feeder")
        self.k = k
        self.l = l
        self.y_offset = k          # state layout: X | Y | Z | W
        self.z_offset = k + k * l
        self.w_slot = k + k * l + k
        self.n_vars = self.w_slot + 1
        self.eprime = k + k * l    # event index of E'
        if self.n > MAX_STREAK_EVENTS:
            raise ValueError(f"{self.n} events exceed the cap MAX_STREAK_EVENTS = "
                             f"{MAX_STREAK_EVENTS}")
        # Conflict keys: the cluster id, and a cluster of its own for E'.
        clusters = [*range(k), *(c for c in range(k) for _ in range(l)), k]
        self.graph = KeyGraph(self.eprime + 1, [(c,) for c in clusters].__getitem__)

    @property
    def n(self) -> int:
        return self.eprime + 1

    def sample(self, rng) -> bytes:
        return bytes(map(rng.getrandbits, repeat(1, self.n_vars)))

    def holds(self, i: int, state) -> bool:
        if i < self.eprime:
            return state[i] == 0
        return state[self.w_slot] == 1

    def occurring(self, state) -> list[int]:
        # The X | Y prefix holds one slot per event before E', so the
        # occurring ones are exactly its zero bytes.
        find = bytes(state).find
        end = self.eprime
        out = []
        i = find(0, 0, end)
        while i >= 0:
            out.append(i)
            i = find(0, i + 1, end)
        if state[self.w_slot] == 1:
            out.append(self.eprime)
        return out

    def resample(self, i: int, state, rng) -> bytes:
        # Each branch first tests the one slot its event reads, as holds does.
        vals = bytearray(state)
        if i < self.k:
            if vals[i] != 0:
                raise OracleEventError(f"event {i} does not hold")
            vals[i] = rng.getrandbits(1)
        elif i < self.eprime:
            if vals[i] != 0:
                raise OracleEventError(f"event {i} does not hold")
            cluster = (i - self.k) // self.l
            zi = self.z_offset + cluster
            vals[cluster], vals[zi] = vals[zi], vals[cluster]
            vals[i] = rng.getrandbits(1)
        else:
            w = self.w_slot
            if vals[w] != 1:
                raise OracleEventError(f"event {i} does not hold")
            zo = self.z_offset
            vals[w] = vals[zo]
            vals[zo:w - 1] = vals[zo + 1:w]
            vals[w - 1] = rng.getrandbits(1)
        return bytes(vals)

    def exact_distribution(self) -> dict:
        if self.n_vars > 20:
            raise ValueError("exact enumeration refused beyond 20 variables")
        out = {}
        pr = 1 / (1 << self.n_vars)
        for code in range(1 << self.n_vars):
            out[bytes(code >> t & 1 for t in range(self.n_vars))] = pr
        return out


def appendix_a_bundle(k: int, l: int) -> AppendixABundle:
    """Construct the streak bundle with k clusters and l feeders each."""
    return AppendixABundle(k, l)


@dataclass
class StreakReport:
    """Empirical distribution of the longest consecutive E'-resample run."""

    runs: int
    counts: dict[int, int]
    budget_exhausted: int

    def frequency_at_least(self, length: int) -> float:
        hits = sum(c for streak, c in self.counts.items() if streak >= length)
        return hits / self.runs

    def to_json(self) -> dict:
        return {
            "runs": self.runs,
            "counts": {str(k): v for k, v in sorted(self.counts.items())},
            "budget_exhausted": self.budget_exhausted,
        }


def longest_streak(iterations, event: int) -> int:
    """Longest run of consecutive iterations that resampled the event."""
    best = 0
    current = 0
    for it in iterations:
        if event in it:
            current += 1
            best = max(best, current)
        else:
            current = 0
    return best


def measure_consecutive_runs(bundle: AppendixABundle, runs: int, seed: int = 0,
                             max_resamples: int = DEFAULT_MAX_RESAMPLES) -> StreakReport:
    """Run the engine repeatedly and histogram the E'-streak lengths."""
    if runs < 1:
        raise ValueError("need at least one run")
    counts: dict[int, int] = {}
    exhausted = 0
    for r in range(runs):
        _, log = maximal_set_resample(bundle, derive_seed(seed, r), max_resamples)
        if not log.terminated:
            exhausted += 1
        streak = longest_streak(log.iterations, bundle.eprime)
        counts[streak] = counts.get(streak, 0) + 1
    return StreakReport(runs=runs, counts=counts, budget_exhausted=exhausted)
