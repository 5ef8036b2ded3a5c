"""The four workloads: inputs made from the seed, one round of requests, checks.

Each workload object does its set-up in the constructor, serves one
round of requests per ``round`` call (timing each request on its own,
with the checks outside the timed part), and runs its end-of-run checks
in ``finish``.  Every round serves the same requests in the same order,
all made from the seed, so rounds do the same work; a repeated request
must give the same output as its first.  Benchmark seed s uses request
indices s*STRIDE + 0, 1, ... under the acceptance masters, so seed 0
takes the first inputs of the acceptance suite.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import statistics
import tracemalloc
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

import locallemma.cli as cli
from locallemma import apps, engine, polynomials, synth, verify
from locallemma.graphs import DependencyGraph
from locallemma.oracles import (
    MatchingBundle,
    PatternEvent,
    PermutationBundle,
    TreeBundle,
    VariableBundle,
    VariableEvent,
)
from locallemma.verify import derive_seed

import checks
from spans import TracedBundle, Tracer, patched

STRIDE = 1_000_000


@dataclass
class Op:
    """One timed request: its kind, its wall time, and what went wrong."""

    kind: str
    seconds: float
    failed: bool = False
    problems: list[str] = field(default_factory=list)


class Reference:
    """A fixed piece of Python, apart from the program, timed between requests.

    ``tick`` runs it when EVERY_S seconds have passed since it last ran, so
    its times sample the machine's speed all through a run.  On a shared
    machine whose speed drifts by a third over minutes, a round's time over
    the reference's time moves far less than either time alone.
    """

    EVERY_S = 0.25
    KEYS = 10_000

    def __init__(self) -> None:
        rng = random.Random(0)
        self.keys = [rng.randrange(1 << 30) for _ in range(self.KEYS)]
        self.times: list[float] = []
        self.work()  # warm-up, untimed
        self.last = float("-inf")

    def work(self) -> int:
        """Dict inserts and lookups and a sort, with the collector off, so the
        time does not grow with the program's heap."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            table = {k: k & 255 for k in self.keys}
            return sum(table[k] for k in self.keys) + len(sorted(table))
        finally:
            if enabled:
                gc.enable()

    def tick(self) -> None:
        start = perf_counter()
        if start - self.last >= self.EVERY_S:
            self.work()
            self.last = perf_counter()
            self.times.append(self.last - start)


def timed(reference: Reference, kind: str, fn, *args) -> tuple[Op, object]:
    """Run fn(*args) as one request; an exception marks it failed."""
    reference.tick()
    start = perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # a failed request is counted, not fatal
        return Op(kind, perf_counter() - start, True, [f"{kind}: {exc!r}"]), None
    return Op(kind, perf_counter() - start), result


def checked(op: Op, check, *args) -> None:
    """Add the problems check(*args) reports, or the error it raised."""
    try:
        op.problems.extend(check(*args))
    except Exception as exc:  # a malformed output is a wrong output
        op.problems.append(f"{op.kind} check raised {exc!r}")


def kind_seconds(rounds: list[list[Op]], kind: str) -> list[float]:
    """Wall times of one kind's requests that did not fail, over the rounds."""
    return [op.seconds for r in rounds for op in r if op.kind == kind and not op.failed]


def repeated(op: Op, first: dict, key, output, check) -> None:
    """Check the first output of a request; later ones must equal it exactly."""
    if key not in first:
        first[key] = output
        checked(op, check)
    elif output != first[key]:
        op.problems.append(f"repeated {op.kind} request changed its output")


def _request_span(tracer):
    if tracer is None:
        return contextlib.nullcontext()
    tracer.request += 1
    return tracer.span("request")


def solve_patches(tracer: Tracer) -> list:
    """Spans around the engine and the tail bounds as ``apps.solve`` calls them,
    and around the CLI's rendering of a report."""
    return [
        (apps, "maximal_set_resample",
         tracer.wrap_span("engine", apps.maximal_set_resample, tracer.count_log)),
        (apps, "predicted_bound",
         tracer.wrap_span("polynomials.bound", apps.predicted_bound)),
        (cli, "_emit", tracer.wrap_span("cli.emit", cli._emit)),
    ]


# ---------------------------------------------------------------------------
# the three applications


@dataclass(frozen=True)
class App:
    kind: str
    command: str
    n: int
    multiplicity: int
    t: int | None
    instance_master: int
    solve_master: int
    family: str
    builder: str
    generator: str

    def colours(self, instance_seed: int):
        make = getattr(apps, self.generator)
        return make(self.n, self.multiplicity, random.Random(instance_seed))

    def build_args(self, colours) -> tuple:
        return (colours,) if self.t is None else (colours, self.t)

    def argv(self, index: int) -> list[str]:
        out = [self.command, "--n", str(self.n), "--multiplicity", str(self.multiplicity)]
        if self.t is not None:
            out += ["--t", str(self.t)]
        return out + ["--instance-seed", str(derive_seed(self.instance_master, index)),
                      "--seed", str(derive_seed(self.solve_master, index))]

    def check(self, colours, report: dict) -> list[str]:
        """Independent check of a solution report against the raw colours."""
        problems = checks.check_log(report["log"])
        if report["kind"] != self.command or not report["validated"]:
            problems.append(f"{self.kind} report is not a validated {self.command}")
        solution = report["solution"]
        if self.kind == "latin":
            problems += checks.check_transversals(colours.rows, self.t,
                                                  solution["transversals"])
        elif self.kind == "tree":
            problems += checks.check_rainbow_trees(colours.n, colours.color, self.t,
                                                   solution["trees"])
        else:
            problems += checks.check_rainbow_matching(colours.n, colours.color,
                                                      solution["matching"])
        return problems


#: The acceptance sizes: Latin n=128 q=6 t=6, trees n=256 q=3 t=3, matching n=128 q=13.
APPS = (
    App("latin", "latin", 128, 6, 6, 99, 100, "permutation",
        "build_latin_instance", "random_color_matrix"),
    App("tree", "rainbow-tree", 256, 3, 3, 110, 111, "tree",
        "build_rainbow_tree_instance", "random_edge_coloring"),
    App("matching", "rainbow-matching", 128, 13, None, 88, 89, "matching",
        "build_rainbow_matching_instance", "random_edge_coloring"),
)


def build_peak_mb(index: int) -> float:
    """Largest tracemalloc peak of building one acceptance instance per app.

    Kept out of the traced rounds: tracemalloc slows a build about sixfold.
    """
    peak = 0
    for app in APPS:
        args = app.build_args(app.colours(derive_seed(app.instance_master, index)))
        tracemalloc.start()
        try:
            getattr(apps, app.builder)(*args)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 2**20


def run_cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"exit code {code}")
    return buf.getvalue()


def rate(rounds: list[list[Op]], kind: str, per_op: int) -> float:
    """Work per second of one kind's requests."""
    times = kind_seconds(rounds, kind)
    return len(times) * per_op / sum(times)


def per_round(rounds: list[list[Op]], kind: str) -> float:
    """Mean time a round spends in one kind's requests."""
    return sum(kind_seconds(rounds, kind)) / len(rounds)


def _mean_solves(rounds: list[list[Op]]) -> dict:
    return {f"{app.kind}_solve_s": (statistics.mean(kind_seconds(rounds, app.kind)), "s")
            for app in APPS}


class AppsCold:
    """Each request goes through ``locallemma.cli.main``: generate, build, solve, emit."""

    BUILDS = True  # the traced run then measures build memory

    def __init__(self, seed: int, tracer: Tracer | None) -> None:
        self.index = seed * STRIDE
        self.first: dict[str, str] = {}

    def _patches(self, tracer: Tracer) -> list:
        out = [(cli, app.builder,
                tracer.build_span("apps.build", getattr(cli, app.builder), app.family))
               for app in APPS]
        out += [(cli, gen, tracer.wrap_span("apps.gen", getattr(cli, gen)))
                for gen in ("random_color_matrix", "random_edge_coloring")]
        return out + solve_patches(tracer)

    def round(self, tracer: Tracer | None, reference: Reference) -> list[Op]:
        ops = []
        for app in APPS:
            with patched(self._patches(tracer) if tracer else []):
                with _request_span(tracer):
                    op, text = timed(reference, app.kind, run_cli, app.argv(self.index))
            if not op.failed:
                colours = app.colours(derive_seed(app.instance_master, self.index))
                repeated(op, self.first, app.kind, text,
                         lambda: app.check(colours, json.loads(text)))
            ops.append(op)
        return ops

    def finish(self) -> list[str]:
        return []

    def kind_metrics(self, rounds: list[list[Op]]) -> dict:
        return _mean_solves(rounds)


class AppsJobs:
    """Set-up builds one instance per app; each request is one seeded solve plus its JSON.

    A round is SOLVES solves per app, each with its own solve seed.
    """

    BUILDS = True  # the traced run then measures build memory
    SOLVES = 4

    def __init__(self, seed: int, tracer: Tracer | None) -> None:
        self.base = seed * STRIDE
        self.instances = []
        for app in APPS:
            gen = getattr(apps, app.generator)
            build = getattr(apps, app.builder)
            if tracer is not None:
                gen = tracer.wrap_span("apps.gen", gen)
                build = tracer.wrap_span("apps.build", build, tracer.count_events)
            instance_seed = derive_seed(app.instance_master, self.base)
            colours = gen(app.n, app.multiplicity, random.Random(instance_seed))
            bundle, params = build(*app.build_args(colours))
            self.instances.append((app, colours, bundle, params))
        self.first: dict[tuple[str, int], str] = {}

    @staticmethod
    def _request(bundle, params, seed: int) -> str:
        report = apps.solve(bundle, params, seed=seed)
        if not (report.terminated and report.validated):
            raise RuntimeError("solve did not produce a validated solution")
        buf = io.StringIO()
        cli._emit(report.to_json(), "json", buf)
        return buf.getvalue()

    def round(self, tracer: Tracer | None, reference: Reference) -> list[Op]:
        ops = []
        for app, colours, bundle, params in self.instances:
            if tracer is not None:
                bundle = TracedBundle(tracer, bundle, app.family)
            for k in range(self.SOLVES):
                seed = derive_seed(app.solve_master, self.base + k)
                with patched(solve_patches(tracer) if tracer else []):
                    with _request_span(tracer):
                        op, text = timed(reference, app.kind, self._request, bundle, params, seed)
                if not op.failed:
                    repeated(op, self.first, (app.kind, k), text,
                             lambda: app.check(colours, json.loads(text)))
                ops.append(op)
        return ops

    def finish(self) -> list[str]:
        return []

    def kind_metrics(self, rounds: list[list[Op]]) -> dict:
        return _mean_solves(rounds)


# ---------------------------------------------------------------------------
# Appendix-A streaks


class Streaks:
    """Engine runs on appendix_a_bundle(64, 6); a round is RUNS engine runs."""

    BUILDS = False

    K, L, RUNS, STREAK, MIN_FREQUENCY = 64, 6, 64, 64, 0.10

    def __init__(self, seed: int, tracer: Tracer | None) -> None:
        self.base = seed * STRIDE
        self.bundle = verify.appendix_a_bundle(self.K, self.L)
        self.eprime = self.K + self.K * self.L  # E' is the last event
        self.streaks: dict[int, int] = {}  # run -> longest E' streak

    def round(self, tracer: Tracer | None, reference: Reference) -> list[Op]:
        bundle, run = self.bundle, engine.maximal_set_resample
        if tracer is not None:
            bundle = TracedBundle(tracer, bundle, "appendix-a")
            run = tracer.wrap_span("engine", run, tracer.count_log)
        ops = []
        for j in range(self.RUNS):
            seed = derive_seed(121, self.base + j)
            with _request_span(tracer):
                op, result = timed(reference, "streak", run, bundle, seed)
            if not op.failed:
                state, log = result
                checked(op, checks.check_log, log.to_json())
                checked(op, checks.check_streak_state, self.K, self.L, state)
                streak = checks.longest_streak(log.iterations, self.eprime)
                if self.streaks.setdefault(j, streak) != streak:
                    op.problems.append(f"repeated engine run {j} changed its streak")
            ops.append(op)
        return ops

    def finish(self) -> list[str]:
        hits = sum(1 for s in self.streaks.values() if s >= self.STREAK)
        frequency = hits / len(self.streaks)
        if frequency < self.MIN_FREQUENCY:
            return [f"streaks of length >= {self.STREAK} in {frequency:.3f} of runs, "
                    f"below {self.MIN_FREQUENCY}"]
        return []

    def kind_metrics(self, rounds: list[list[Op]]) -> dict:
        return {"streak_runs_per_s": (rate(rounds, "streak", 1), "1/s")}


# ---------------------------------------------------------------------------
# offline oracle checks, synthesis and tables


def _is_zero(bit) -> bool:
    return bit == 0


def acceptance_fixtures() -> list[tuple[str, object]]:
    """The five oracle fixtures of the acceptance suite, one per family."""
    two_bits = synth.ExplicitSpace(
        tuple(Fraction(1, 4) for _ in range(4)),
        (frozenset({0, 2}), frozenset({0, 1})),
        DependencyGraph(2),
    )
    return [
        ("permutation", PermutationBundle(4, [PatternEvent(((x, x),)) for x in range(3)])),
        ("matching", MatchingBundle(6, [((0, 1),), ((2, 3),), ((4, 5),)])),
        ("tree", TreeBundle(5, [((0, 1),), ((2, 3),)])),
        ("variable", VariableBundle([((0, 1), None)] * 2,
                                    [VariableEvent((0,), _is_zero),
                                     VariableEvent((1,), _is_zero)])),
        ("explicit", synth.ExplicitBundle(two_bits)),
    ]


def ring_space(rng: random.Random):
    """256 states: 8 independent bits, P(bit=0) drawn from {4/16..12/16}.

    Event i (of 4) is "bits 2i, 2i+1, 2i+2 (mod 8) are all 0", so events
    sharing a bit form a 4-cycle.  Returns (space, probs, events, neighbors).
    """
    zero = [Fraction(rng.randint(4, 12), 16) for _ in range(8)]
    probs = []
    for s in range(256):
        p = Fraction(1)
        for b in range(8):
            p *= zero[b] if not s >> b & 1 else 1 - zero[b]
        probs.append(p)
    bits = [{(2 * i + d) % 8 for d in range(3)} for i in range(4)]
    events = [frozenset(s for s in range(256) if all(not s >> b & 1 for b in bs))
              for bs in bits]
    neighbors = [{j for j in range(4) if j != i and bits[i] & bits[j]} for i in range(4)]
    edges = [(i, j) for i in range(4) for j in neighbors[i] if i < j]
    space = synth.ExplicitSpace(tuple(probs), tuple(events), DependencyGraph(4, edges))
    return space, probs, events, neighbors


def witness_instance(n: int, rng: random.Random):
    """Random graph with p under an x-witness bound, hence inside the region."""
    density = rng.uniform(0.2, 0.4)
    neighbors: list[set[int]] = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                neighbors[u].add(v)
                neighbors[v].add(u)
    x = [rng.uniform(0.05, 0.3) for _ in range(n)]
    scale = rng.uniform(0.4, 1.0)
    p = []
    for i in range(n):
        bound = scale * x[i]
        for j in neighbors[i]:
            bound *= 1 - x[j]
        p.append(bound)
    edges = [(u, v) for u in range(n) for v in neighbors[u] if u < v]
    return DependencyGraph(n, edges), neighbors, p


class OfflineChecks:
    """R1 and R2 on the five fixtures, a 256-state synthesis, tables at n=20 and 22.

    The synthesis is one request per event: the ``synthesize`` calls that
    ``ExplicitBundle`` makes, one after the other.
    """

    BUILDS = False

    R1_SAMPLES = 4000
    R2_TRIALS = 4000
    TABLE_SIZES = (20, 22)

    def __init__(self, seed: int, tracer: Tracer | None) -> None:
        self.index = seed * STRIDE * 10
        self.fixtures = acceptance_fixtures()
        self.ring = ring_space(random.Random(derive_seed(44, self.index + 5)))
        rng = random.Random(derive_seed(55, self.index + 5))
        self.instances = [witness_instance(n, rng) for n in self.TABLE_SIZES]
        self.first: dict = {}

    @staticmethod
    def _table(g, p) -> tuple:
        table = polynomials.build_table(g, p)
        return table, polynomials.shearer_report(table)

    def round(self, tracer: Tracer | None, reference: Reference) -> list[Op]:
        index = self.index
        ops = []
        for f, (family, bundle) in enumerate(self.fixtures):
            if tracer is not None:
                bundle = TracedBundle(tracer, bundle, family)
            r1, r2 = verify.test_r1, verify.test_r2
            if tracer is not None:
                r1 = tracer.wrap_span("verify.r1", r1)
                r2 = tracer.wrap_span("verify.r2", r2)
                tracer.counts["verify.conditioned"] += self.R1_SAMPLES + self.R2_TRIALS
            with _request_span(tracer):
                op, report = timed(reference, "r1", r1, bundle, 0, self.R1_SAMPLES,
                                   derive_seed(44, index + f))
            if not op.failed and not report.passed:
                op.problems.append(f"R1 fails on the {family} fixture")
            ops.append(op)
            with _request_span(tracer):
                op, violations = timed(reference, "r2", r2, bundle, 0, self.R2_TRIALS,
                                       derive_seed(55, index + f))
            if not op.failed and violations != 0:
                op.problems.append(f"R2 counts {violations} on the {family} fixture")
            ops.append(op)

        space, probs, events, neighbors = self.ring
        for i in range(space.n_events):
            with patched(self._synth_patches(tracer) if tracer else []):
                with _request_span(tracer):
                    op, kernel = timed(reference, "synth", synth.synthesize, space, i)
            if not op.failed:
                rows = getattr(kernel, "rows", None)
                repeated(op, self.first, ("synth", i), rows, lambda: (
                    [f"no kernel for event {i}: {kernel!r}"] if rows is None
                    else checks.check_kernel(probs, events, neighbors, i, rows)))
            ops.append(op)

        tables = self._table
        if tracer is not None:
            tables = tracer.wrap_span("polynomials.table", tables, self._count_sets(tracer))
        for g, neighbors, p in self.instances:
            with _request_span(tracer):
                op, result = timed(reference, "table", tables, g, p)
            if not op.failed:
                q0, report = float(result[0].q0), result[1]
                repeated(op, self.first, ("table", g.n), (q0, report), lambda: checks.check_table(
                    g.n, neighbors, p, q0, report["in_region"]))
            ops.append(op)
        return ops

    @staticmethod
    def _synth_patches(tracer: Tracer) -> list:
        def count(kernel) -> None:
            tracer.counts["synth.events"] += 1
            tracer.counts["synth.kernel_edges"] += sum(
                len(row) for row in getattr(kernel, "rows", {}).values())
        return [(synth, "synthesize",
                 tracer.wrap_span("synth.synthesize", synth.synthesize, count))]

    @staticmethod
    def _count_sets(tracer: Tracer):
        def count(result) -> None:
            tracer.counts["polynomials.table_sets"] += len(result[0].breve)
        return count

    def finish(self) -> list[str]:
        return []

    def kind_metrics(self, rounds: list[list[Op]]) -> dict:
        return {
            "r1_samples_per_s": (rate(rounds, "r1", self.R1_SAMPLES), "1/s"),
            "r2_trials_per_s": (rate(rounds, "r2", self.R2_TRIALS), "1/s"),
            "synth_s": (per_round(rounds, "synth"), "s"),
            "table_s": (per_round(rounds, "table"), "s"),
        }


WORKLOADS = {
    "apps-cold": AppsCold,
    "apps-jobs": AppsJobs,
    "streaks": Streaks,
    "offline-checks": OfflineChecks,
}
