"""The random-stream contract: same seed, same draws, same bytes.

The samplers draw through ``locallemma.streams`` and through closed-form
Wilson walks.  These tests hold them to the draws of ``random.Random``'s
own methods and of the multigraph walk they replaced (``helpers``), pin
the ``verify-oracle`` output of every built-in family, check that no
float sum depends on the interpreter's builtin ``sum``, and guard the
source against draws or float sums that bypass ``streams``.
"""

import ast
import builtins
import hashlib
import math
import operator
import random
import sys
from bisect import bisect_right
from collections import Counter
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import locallemma
from helpers import complete_multigraph, reference_spanning_tree, reference_tree_resample
from locallemma import streams
from locallemma.cli import main
from locallemma.oracles import SpanningTrees, tree_resample
from locallemma.streams import below, repeated_sum, seqsum, shuffle
from test_app_indexing import PINNED_RUNS
from test_cli import PINNED_APP_CRITERIA_RUNS, PINNED_OFFLINE_RUNS, pin_instance, write_instance

SEEDS = range(40)
SIZES = range(1, 65)


# ---------------------------------------------------------------------------
# owned draws


def test_below_draws_as_randrange_does():
    bounds = [*range(1, 70), 127, 128, 129, 2**31, 2**32 + 1, 2**64 + 3, 10**20]
    for seed in SEEDS:
        ours, theirs = random.Random(seed), random.Random(seed)
        for m in bounds:
            assert below(m, ours) == theirs.randrange(m)
        assert ours.random() == theirs.random()


def test_below_rejects_an_empty_range():
    for m in (0, -3):
        with pytest.raises(ValueError):
            below(m, random.Random(0))


def test_shuffle_draws_as_random_shuffle_does():
    # sizes past 63 run binades of steps before the precomputed tail
    for n in [*range(0, 66), 127, 128, 129, 256, 1000]:
        for seed in SEEDS:
            ours, theirs = random.Random(seed), random.Random(seed)
            x, y = list(range(n)), list(range(n))
            shuffle(x, ours)
            theirs.shuffle(y)
            assert x == y
            assert ours.random() == theirs.random()


def test_seqsum_adds_left_to_right():
    rng = random.Random(4)
    for _ in range(50):
        xs = [rng.random() * 10 ** rng.randint(-8, 8) * rng.choice((1, -1))
              for _ in range(rng.randint(0, 300))]
        expected = reduce(operator.add, xs, 0)
        assert streams._loop_sum(xs) == expected
        assert seqsum(xs) == expected
        assert seqsum(iter(xs), 0.5) == reduce(operator.add, xs, 0.5)


# ---------------------------------------------------------------------------
# repeated sums in closed form


def assert_repeated_sum_is_the_loop(v, n):
    ours = repeated_sum(v, n)
    loop = streams._loop_sum([v] * n)
    assert type(ours) is type(loop), (v, n)
    if isinstance(loop, float):
        assert ours.hex() == loop.hex(), (v, n)  # nan has one hex, -0.0 its own
    else:
        assert ours == loop, (v, n)


@st.composite
def tie_prone_floats(draw):
    """Positive floats whose low mantissa bits are cleared, so that adding
    them lands on a half ulp of the running total; subnormals included."""
    mantissa = draw(st.integers(1, (1 << 53) - 1))
    cleared = draw(st.integers(0, 52))
    exponent = draw(st.integers(-1074, 971))
    return math.ldexp(mantissa >> cleared << cleared, exponent)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(min_value=5e-324, allow_infinity=False), tie_prone_floats()),
       st.integers(0, 3000))
def test_repeated_sum_is_the_loop(v, n):
    assert_repeated_sum_is_the_loop(v, n)


def test_repeated_sum_on_explicit_cases():
    rng = random.Random(9)
    tiny = math.ulp(0.0)
    values = [
        0.1, 1 / 3, 0.5, 0.75, 1.0, 3.0, 2.0 ** -60, 1.2999915500732326e-05,
        rng.random(), rng.random() * 1e-7,
        tiny, 3 * tiny, 2.0 ** -1022 - tiny, 2.0 ** -1022, 2.0 ** -1021 + tiny,
        1e308, 1.7976931348623157e308 / 3, 1.7976931348623157e308,
        0.0, -0.0, -0.1, -2.5, math.inf, -math.inf, math.nan,
    ]
    # a mantissa of 53 random bits with the low k cleared, for every k
    values += [math.ldexp((rng.getrandbits(53) | 1 << 52) >> k << k, -60) for k in range(53)]
    for v in values:
        for n in (0, 1, 2, 3, 1000, 4099):
            assert_repeated_sum_is_the_loop(v, n)
    for v in (0.1, 0.75, 1e-7, 2.0 ** -1022 - tiny, 1e300, -0.25):
        assert_repeated_sum_is_the_loop(v, 10**6)


def test_repeated_sum_of_nothing_is_the_int_zero():
    for v in (0.5, -0.0, math.nan):
        assert repeated_sum(v, 0) == 0 and type(repeated_sum(v, 0)) is int


# ---------------------------------------------------------------------------
# closed-form Wilson walks against the multigraph walk


def test_spanning_tree_walks_follow_the_multigraph_walk():
    for n in SIZES:
        graph = complete_multigraph(n)
        for seed in SEEDS:
            ours, theirs = random.Random(seed), random.Random(seed)
            tree = SpanningTrees(n).sample(ours)
            assert tree == reference_spanning_tree(n, theirs, graph)
            if n > 1:
                pick = random.Random(seed * 1000 + n)
                edges = sorted(tree)
                event = pick.sample(edges, pick.randint(1, min(4, len(edges))))
                assert tree_resample(tree, event, ours) == reference_tree_resample(
                    tree, event, theirs)
            assert ours.random() == theirs.random()


def test_component_steps_never_round_up():
    # a step from a component of size s to the W nodes takes int(r / s)
    # where the multigraph walk bisected [s, 2s, ..., nw*s]; the floats
    # just below each multiple are where a rounded quotient would differ
    for s in range(1, 400):
        cum = [j * s for j in range(1, 65)]
        for j in range(1, 65):
            for r in (math.nextafter(j * s, 0), float(j * s), math.nextafter(j * s, math.inf)):
                if r < cum[-1]:
                    assert int(r / s) == bisect_right(cum, r)


def test_tree_resample_follows_the_multigraph_walk_on_large_events():
    # events of up to n - 1 edges leave few, large or no frozen components
    for n in (3, 6, 11, 30):
        for seed in SEEDS:
            ours, theirs = random.Random(seed), random.Random(seed)
            tree = SpanningTrees(n).sample(ours)
            reference_spanning_tree(n, theirs)
            edges = sorted(tree)
            event = random.Random(seed).sample(edges, 1 + seed % len(edges))
            assert tree_resample(tree, event, ours) == reference_tree_resample(
                tree, event, theirs)
            assert ours.random() == theirs.random()


def assert_kept_structure_is_the_tree(tree, n):
    """parent[v] is v's neighbour toward vertex 0, and the adjacency, once
    made, lists every tree edge at both of its ends.  In a tree, the n - 1
    vertices other than 0 taking n - 1 distinct edges of their own point
    toward 0, so the edge check covers the direction."""
    parent, adj = tree.parent, tree.adj
    assert len(parent) == n and parent[0] == 0
    assert {(v, p) if v < p else (p, v) for v, p in enumerate(parent) if v} == tree
    if adj is not None:
        ends = Counter((u, v) if u < v else (v, u) for u in range(n) for v in adj[u])
        assert ends == dict.fromkeys(tree, 2)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 30, 256, 1024])
def test_chained_tree_redraws_follow_the_multigraph_walk(n):
    # as the engine makes them: each redraw of 1-3 edges starts from the
    # tree the last one left
    for seed in range(2 if n > 100 else 8):
        ours = random.Random(seed)
        tree = SpanningTrees(n).sample(ours)
        assert_kept_structure_is_the_tree(tree, n)
        theirs = random.Random()
        theirs.setstate(ours.getstate())
        pick = random.Random(seed * 1000 + n)
        for _ in range(50 if n > 1 else 0):
            edges = sorted(tree)
            event = pick.sample(edges, min(len(edges), pick.randint(1, 3)))
            expected = reference_tree_resample(tree, event, theirs)
            before, tree = tree, tree_resample(tree, event, ours)
            assert tree == expected
            assert ours.getstate() == theirs.getstate()
            # the lists a chain shares are copied, never changed in place
            assert_kept_structure_is_the_tree(before, n)
            assert_kept_structure_is_the_tree(tree, n)


# ---------------------------------------------------------------------------
# pinned output


#: sha256 of what ``locallemma.cli.main`` prints, captured before the
#: walks took closed forms and the samplers drew through ``streams``.
PINNED_ORACLE_RUNS = [
    pytest.param(["verify-oracle", "variable", "--size", "3"],
                 "96ac392e16b76e400095b3e9568e566e6fca8047f0b9a046cc8ec77191308536",
                 id="variable"),
    pytest.param(["verify-oracle", "permutation", "--size", "5"],
                 "741abf981fc9acff51b93d9590e1245e63c0b48b93ef38c55550ec595b931126",
                 id="permutation"),
    pytest.param(["verify-oracle", "matching", "--size", "8"],
                 "833ca16bb0b900f668dcf8630b03585efb6b74da49de531926fcfb7aa4c912c8",
                 id="matching"),
    pytest.param(["verify-oracle", "tree", "--size", "6"],
                 "cf05977f75a98c07749829046997682af88d146e0fbf357c316dce625c71b3d8",
                 id="tree"),
]
ORACLE_FLAGS = ["--samples", "3000", "--trials", "500", "--seed", "11"]


def oracle_output(argv, capsys):
    assert main(argv + ORACLE_FLAGS) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("argv, digest", PINNED_ORACLE_RUNS)
def test_verify_oracle_output_is_pinned(argv, digest, capsys):
    out = oracle_output(argv, capsys)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


REAL_SUM = builtins.sum


def compensated_sum(iterable, /, start=0):
    """The builtin sum as Python 3.12 computes it: Neumaier-compensated
    over floats (gh-100425), exact over everything else."""
    values = list(iterable)
    if not any(isinstance(v, float) for v in (start, *values)):
        return REAL_SUM(values, start)
    hi = lo = 0.0
    for v in (start, *values):
        v = float(v)
        t = hi + v
        lo += (hi - t) + v if abs(hi) >= abs(v) else (v - t) + hi
        hi = t
    return hi + lo if lo and math.isfinite(lo) else hi


def run_pinned(kind, argv, tmp_path, capsys):
    if kind == "oracle":
        return oracle_output(argv, capsys)
    if kind != "app":
        argv = argv + [write_instance(tmp_path, pin_instance(kind))]
    assert main(argv) == 0
    return capsys.readouterr().out


ALL_PINS = (
    [pytest.param("app", *p.values, id=f"app-{p.id}") for p in PINNED_RUNS]
    + [pytest.param(*p.values, id=f"offline-{p.id}")
       for p in PINNED_OFFLINE_RUNS + PINNED_APP_CRITERIA_RUNS]
    + [pytest.param("oracle", *p.values, id=f"oracle-{p.id}") for p in PINNED_ORACLE_RUNS]
)


@pytest.mark.parametrize("kind, argv, digest", ALL_PINS)
def test_pinned_output_does_not_depend_on_the_builtin_sum(kind, argv, digest, tmp_path,
                                                          capsys, monkeypatch):
    # the builtin as 3.12 has it, and seqsum's loop as 3.12 runs it
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("locallemma") \
                and getattr(module, "seqsum", None) is seqsum:
            monkeypatch.setattr(module, "seqsum", streams._loop_sum)
    out = run_pinned(kind, argv, tmp_path, capsys)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# source guard


#: Builtin sums in the package that add only ints or Fractions, by module
#: and source text.  A float sum goes through streams.seqsum instead.
EXACT_SUMS = {
    ("cli.py", 'sum(1 for r in runs if r["validated"])'),
    ("graphs.py", "sum(1 << j for j in self.neighbors(i))"),
    ("polynomials.py", "sum(1 << i for i in subset)"),
    ("synth.py", "sum(probs)"),
    ("synth.py", "sum((self.probs[s] for s in self.events[i]), Fraction(0))"),
    ("synth.py", "sum((space.probs[u] for u in blocked), Fraction(0))"),
    ("synth.py", "sum((space.probs[w] for w in reach), Fraction(0))"),
    ("verify.py", "sum(c for k, c in counts.items() if k not in exact)"),
    ("verify.py", "sum(1 for j in off if bundle.holds(j, w))"),
    ("verify.py", "sum(c for streak, c in self.counts.items() if streak >= length)"),
}

#: random.Random methods whose draws only streams.below and streams.shuffle
#: may reproduce: they go through Random._randbelow.
OWNED_DRAWS = {"shuffle", "randrange", "randint", "choice"}


def package_calls(wanted):
    """(module file, call source) of every package call for which
    wanted(call.func) holds."""
    root = Path(locallemma.__file__).parent
    for path in sorted(root.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call) and wanted(node.func):
                yield path.name, ast.get_source_segment(source, node)


def test_no_json_is_indented_by_json_itself():
    """json.dump(s) with indent runs CPython's pure-Python encoder (before
    3.13); the CLI writes the same bytes through the C encoder instead."""
    calls = list(package_calls(
        lambda f: isinstance(f, ast.Attribute) and f.attr in ("dump", "dumps")))
    assert calls  # the guard sees the package's own calls
    indented = [(name, source) for name, source in calls
                if any(k.arg == "indent" for k in ast.parse(source, mode="eval").body.keywords)]
    assert indented == []


def test_draws_and_float_sums_go_through_streams():
    stray_draws = list(package_calls(
        lambda f: isinstance(f, ast.Attribute) and f.attr in OWNED_DRAWS))
    assert stray_draws == []
    sums = set(package_calls(lambda f: isinstance(f, ast.Name) and f.id == "sum"))
    assert sums - EXACT_SUMS == set()
    # and the allowlist names no sum the package no longer has
    assert EXACT_SUMS - sums == set()
