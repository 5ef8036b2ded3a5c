"""Command-line frontend with reproducible JSON output.

Subcommands:

  criteria          evaluate convergence criteria for an instance file
  run               execute the resampling engine on an instance file
  verify-oracle     distribution / interference tests for built-in oracles
  latin             find pairwise disjoint transversals of a colored matrix
  rainbow-matching  find a rainbow perfect matching of a colored K_2n
  rainbow-tree      find edge-disjoint rainbow spanning trees of K_n

Every command is a deterministic function of its inputs and flags.
Exit codes: 0 success, 1 validation failure, 2 budget exhausted,
3 input error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from fractions import Fraction
from itertools import chain
from json.encoder import c_make_encoder, encode_basestring_ascii

from .apps import (
    ColorMatrix,
    ColoredCompleteGraph,
    build_latin_instance,
    build_rainbow_matching_instance,
    build_rainbow_tree_instance,
    random_color_matrix,
    random_edge_coloring,
    solve,
)
from .engine import DEFAULT_MAX_RESAMPLES
from .graphs import DependencyGraph, ENUMERATION_CAP, read_int
from .oracles import (
    MatchingBundle,
    PatternEvent,
    PermutationBundle,
    TreeBundle,
    VariableBundle,
    VariableEvent,
)
from .polynomials import (
    EXACT_CAP,
    CriterionParams,
    build_table,
    check_cll,
    check_gll,
    shearer_report,
    shearer_slack,
    singleton_ratio,
    tail_bounds,
)
from .synth import ExplicitBundle, ExplicitSpace, parse_probability
from .verify import (
    RejectionBudgetError,
    appendix_a_bundle,
    derive_seed,
    measure_consecutive_runs,
    test_r1,
    test_r2,
)

import random

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_BUDGET = 2
EXIT_INPUT = 3

#: Application kinds: the colour field of an instance file and whether the
#: kind reads a copy count t.
APP_KINDS = {
    "latin": ("matrix", True),
    "rainbow-matching": ("coloring", False),
    "rainbow-tree": ("coloring", True),
}


class InputError(Exception):
    """Bad instance file or inconsistent flags."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default, which collides with the
    # budget-exhausted code; route usage errors to the input-error code.
    def error(self, message):
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# output helpers


def _emit(obj: dict, fmt: str, out) -> None:
    if fmt == "json":
        parts: list[str] = []
        _json_parts(obj, 0, parts.append)
        out.write("".join(parts) + "\n")
        return
    for line in _text_lines(obj, ""):
        out.write(line + "\n")


# The JSON format is the bytes of json.dumps(obj, sort_keys=True, indent=2).
# CPython before 3.13 renders any indent with its pure-Python encoder, so
# only containers are walked here: scalars and flat runs of scalars go
# through the C encoder, whose item separator carries the indent.
_SCALARS = frozenset((str, int, float, bool, type(None)))
_NUMBERS = _SCALARS - {str}


def _indent(depth: int) -> str:
    return "\n" + "  " * depth


def _refuse(o):
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


@functools.cache
def _c_encoder(depth: int):
    """C encoder that writes a scalar as json.dumps does, and a list of
    scalars as "[a,<indent>b]" with items at ``depth``, its brackets still
    to be given their own lines."""
    return c_make_encoder(None, _refuse, encode_basestring_ascii, None, ": ",
                          "," + _indent(depth), True, False, True)


def _json_parts(o, depth: int, put) -> None:
    """Put the indented JSON of o, which opens at nesting ``depth``."""
    if isinstance(o, dict):
        if not o:
            put("{}")
            return
        inner = _indent(depth + 1)
        sep = "{" + inner
        for key in sorted(o):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            put(sep + encode_basestring_ascii(key) + ": ")
            _json_parts(o[key], depth + 1, put)
            sep = "," + inner
        put(_indent(depth) + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            put("[]")
            return
        outer, inner = _indent(depth), _indent(depth + 1)
        kinds = set(map(type, o))
        if kinds <= _SCALARS:
            put("[" + inner + "".join(_c_encoder(depth + 1)(o, 0))[1:-1] + outer + "]")
        elif kinds <= {list, tuple} and set(map(type, chain.from_iterable(o))) <= _NUMBERS:
            # Lists of numbers: every bracket in the C text is structure.
            deep = _indent(depth + 2)
            body = "".join(_c_encoder(depth + 2)(o, 0))[1:-1]
            body = (body.replace("]," + deep + "[", "]," + inner + "[")
                    .replace("[", "[" + deep).replace("]", inner + "]")
                    .replace("[" + deep + inner + "]", "[]"))
            put("[" + inner + body + outer + "]")
        else:
            sep = "[" + inner
            for item in o:
                put(sep)
                _json_parts(item, depth + 1, put)
                sep = "," + inner
            put(outer + "]")
    else:
        put("".join(_c_encoder(depth)(o, 0)))


def _text_lines(obj, prefix: str):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _text_lines(obj[key], f"{prefix}{key}." if prefix else f"{key}.")
    else:
        yield f"{prefix[:-1]}: {json.dumps(obj, sort_keys=True)}"


# ---------------------------------------------------------------------------
# instance loading


@contextlib.contextmanager
def _reading(what: str):
    """The one place where failing to read a file value is an input error."""
    try:
        yield
    except KeyError as exc:
        raise InputError(f"bad {what}: missing field {exc}") from exc
    except (TypeError, ValueError, AttributeError, ArithmeticError, RecursionError) as exc:
        raise InputError(f"bad {what}: {exc}") from exc


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh, _reading(f"JSON file {path}"):
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError(f"{path}: top-level value must be an object")
    if not isinstance(obj.get("kind", ""), str):
        raise InputError(f"{path}: kind must be a string")
    return obj


def _parse_params(obj, n: int) -> CriterionParams:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError("params must be an object with a 'kind' field")
    kind = obj["kind"]
    with _reading("params"):
        eps = float(parse_probability(obj.get("epsilon", 0)))
        if kind == "shearer":
            return CriterionParams(kind="shearer", epsilon=eps)
        if kind not in ("gll", "cll"):
            raise InputError(f"unknown params kind {kind!r}")
        # the ranges check_gll and check_cll require, which tail_bounds assumes
        field, high = ("x", 1) if kind == "gll" else ("y", math.inf)
        vector = tuple(float(parse_probability(v)) for v in obj[field])
        if len(vector) != n:
            raise InputError(f"params.{field} has length {len(vector)}, expected {n}")
        if not all(0 < v < high for v in vector):
            raise InputError(f"params.{field} has an entry outside (0, {high})")
        return CriterionParams(kind=kind, epsilon=eps, **{field: vector})


def _build_app_instance(obj: dict):
    """Instance file payload -> (bundle, params) for the three solvers."""
    kind = obj["kind"]
    field, takes_t = APP_KINDS[kind]
    # Names resolved on each call, so that patched module attributes (as
    # bench/workloads.py sets for its traced spans) are the ones called.
    load, generate = ((ColorMatrix, random_color_matrix) if field == "matrix"
                      else (ColoredCompleteGraph.from_json, random_edge_coloring))
    build = {"latin": build_latin_instance, "rainbow-tree": build_rainbow_tree_instance,
             "rainbow-matching": build_rainbow_matching_instance}[kind]
    with _reading(f"{kind} instance"):
        rng = random.Random(read_int(obj.get("generator", {}).get("seed", 0)))
        t = (read_int(obj["t"]),) if takes_t else ()
        if field in obj:
            colours = load(obj[field])
        else:
            gen = obj["generator"]
            colours = generate(read_int(gen["n"]), read_int(gen["multiplicity"]), rng)
        return build(colours, *t)


# ---------------------------------------------------------------------------
# criteria


def _criteria_report(graph: DependencyGraph, probs, params, exact: bool) -> dict:
    p_float = tuple(float(v) for v in probs)
    table = build_table(graph, probs if exact else p_float, exact=exact)
    shearer = shearer_report(table)
    report: dict = {
        "n": graph.n,
        "q0": float(table.q0),
        "shearer": shearer,
        "gll": None,
        "cll": None,
        "slack": None,
        "singleton_ratios": [],
        "predicted_bounds": {},
    }
    if shearer["in_region"]:
        float_table = table if not exact else build_table(graph, p_float)
        slack = shearer_slack(float_table)
        report["slack"] = None if math.isinf(slack) else slack
        report["singleton_ratios"] = [
            singleton_ratio(float_table, i) for i in range(graph.n)
        ]
        shearer_params = (params if params is not None and params.kind == "shearer"
                          else CriterionParams(kind="shearer"))
        report["predicted_bounds"]["shearer"] = tail_bounds(shearer_params, float_table)
    if params is not None and params.kind == "gll":
        report["gll"] = check_gll(graph, p_float, params.x)
        if report["gll"]:
            report["predicted_bounds"]["gll"] = tail_bounds(params)
    if params is not None and params.kind == "cll":
        report["cll"] = check_cll(graph, p_float, params.y)
        if report["cll"]:
            report["predicted_bounds"]["cll"] = tail_bounds(params)
    return report


def cmd_criteria(args, out) -> int:
    obj = _load_json(args.instance)
    kind = obj.get("kind")
    if kind == "custom-graph":
        # the event count is checked before the graph's n vertex sets are built
        with _reading("graph object"):
            n = read_int(obj.get("graph")["n"])
        probs = obj.get("p", [])
        if not isinstance(probs, list):
            raise InputError("p must be a list of probabilities")
        with _reading("p"):
            probs = [parse_probability(v) for v in probs]
        if len(probs) != n:
            raise InputError(f"p has length {len(probs)}, expected {n}")
        if not all(0 <= v < 1 for v in probs):
            raise InputError("event probabilities must lie in [0,1)")
        with _reading("graph object"):
            graph = DependencyGraph.from_json(obj["graph"])
        params = _parse_params(obj["params"], graph.n) if "params" in obj else None
        report = _criteria_report(graph, probs, params, args.exact)
    elif kind == "explicit-space":
        space, params = _space_from_json(obj)
        probs = [space.event_prob(i) for i in range(space.n_events)]
        report = _criteria_report(space.graph, probs, params, args.exact)
    elif kind in APP_KINDS:
        bundle, params = _build_app_instance(obj)
        report = {
            "n": bundle.n,
            "kind": kind,
            "cll_clique_bound": bundle.cluster_criterion_ok(),
            "clique_size_bounds": bundle.clique_size_bounds(),
            "predicted_bounds": {"cll": tail_bounds(params)},
        }
        if bundle.n <= (EXACT_CAP if args.exact else ENUMERATION_CAP):
            probs = [Fraction(bundle.event_prob(i)) for i in range(bundle.n)]
            exact_report = _criteria_report(bundle.graph, probs, params, args.exact)
            bounds = {**exact_report["predicted_bounds"], **report["predicted_bounds"]}
            exact_report.update(report, predicted_bounds=bounds)
            report = exact_report
    else:
        raise InputError(f"unknown instance kind {kind!r}")
    _emit(report, args.format, out)
    return EXIT_OK


def _space_from_json(obj: dict) -> tuple[ExplicitSpace, CriterionParams | None]:
    """The space of an explicit-space instance, and its params if it has any."""
    if not isinstance(obj.get("space"), dict):
        raise InputError("explicit-space instance needs a 'space' object")
    with _reading("space object"):
        space = ExplicitSpace.from_json(obj["space"])
    params = _parse_params(obj["params"], space.n_events) if "params" in obj else None
    return space, params


# ---------------------------------------------------------------------------
# run


def _exit_code(terminated: bool, validated: bool) -> int:
    if not terminated:
        return EXIT_BUDGET
    return EXIT_OK if validated else EXIT_INVALID


def _run(bundle, params, seed: int, budget: int, jobs: int) -> tuple[dict, int]:
    """One solve report, or for jobs > 1 a summary of runs at derived seeds."""
    seeds = [seed] if jobs == 1 else [derive_seed(seed, r) for r in range(jobs)]
    runs = []
    code = EXIT_OK
    for s in seeds:
        rep = solve(bundle, params, seed=s, budget=budget)
        runs.append(rep.to_json())
        code = max(code, _exit_code(rep.terminated, rep.validated))
    if jobs == 1:
        return runs[0], code
    summary = {
        "kind": bundle.kind,
        "jobs": jobs,
        "seed": seed,
        "validated_runs": sum(1 for r in runs if r["validated"]),
        "max_resamples": max(r["total_resamples"] for r in runs),
        "runs": runs,
    }
    return summary, code


def cmd_run(args, out, obj: dict | None = None) -> int:
    """Run an instance file, or the instance object an app subcommand built."""
    if args.jobs < 1:
        raise InputError(f"--jobs must be at least 1, got {args.jobs}")
    if obj is None:
        obj = _load_json(args.instance)
    kind = obj.get("kind")
    if kind == "explicit-space":
        space, params = _space_from_json(obj)
        if params is not None and params.kind == "shearer":
            params = None  # shearer bounds need the polynomial table
        bundle = ExplicitBundle(space)
    elif kind in APP_KINDS:
        bundle, params = _build_app_instance(obj)
    else:
        raise InputError(f"instance kind {kind!r} cannot be executed")
    report, code = _run(bundle, params, args.seed, args.budget, args.jobs)
    _emit(report, args.format, out)
    return code


# ---------------------------------------------------------------------------
# verify-oracle


def _default_bundle(family: str, size: int):
    if family == "variable":
        size = size or 2
        dists = [((0, 1), None)] * size
        events = [_bit_event(i) for i in range(size)]
        return VariableBundle(dists, events)
    if family == "permutation":
        size = size or 4
        return PermutationBundle(size, [PatternEvent(((0, 0),))])
    if family == "matching":
        size = size or 6
        return MatchingBundle(size, [((0, 1),)])
    if family == "tree":
        size = size or 5
        return TreeBundle(size, [((0, 1),)])
    raise InputError(f"unknown oracle family {family!r}")


def _bit_event(i: int):
    return VariableEvent(variables=(i,), predicate=lambda value: value == 1)


def cmd_verify_oracle(args, out) -> int:
    if args.family == "appendix-a":
        bundle = appendix_a_bundle(args.k, args.l)
        report = measure_consecutive_runs(
            bundle, runs=args.runs, seed=args.seed, max_resamples=args.budget
        )
        payload = report.to_json()
        payload["frequency_at_least_k"] = report.frequency_at_least(args.k)
        _emit(payload, args.format, out)
        return EXIT_OK if not report.budget_exhausted else EXIT_BUDGET

    # both counts before either test runs, so a bad one is refused at once
    for flag, count in (("--samples", args.samples), ("--trials", args.trials)):
        if count < 1:
            raise InputError(f"{flag} must be at least 1, got {count}")
    if args.family == "synthesized":
        if args.instance:
            space, _ = _space_from_json(_load_json(args.instance))
        else:
            space = _default_space()
        n = space.n_events
    else:
        bundle = _default_bundle(args.family, args.size)
        n = bundle.n
    if not 0 <= args.event < n:
        raise InputError(f"event index {args.event} out of range for {n} events")
    if args.family == "synthesized":
        # R1 and R2 resample no other event, so no other kernel is built
        bundle = ExplicitBundle(space, [args.event])
    # enumerated once for both tests
    exact = bundle.exact_distribution()
    r1 = test_r1(bundle, args.event, samples=args.samples, seed=args.seed, exact=exact)
    violations = test_r2(bundle, args.event, trials=args.trials, seed=args.seed + 1, exact=exact)
    payload = {
        "family": args.family,
        "r1": r1.to_json(),
        "r2": {"trials": args.trials, "violations": violations},
        "passed": bool(r1.passed and violations == 0),
    }
    _emit(payload, args.format, out)
    return EXIT_OK if payload["passed"] else EXIT_INVALID


def _default_space() -> ExplicitSpace:
    # three fair bits, event i = "bit i is zero", events 0-1 and 1-2 adjacent
    graph = DependencyGraph(3)
    graph.add_edge(0, 1)
    graph.add_edge(1, 2)
    probs = [Fraction(1, 8)] * 8
    events = [
        frozenset(s for s in range(8) if not (s >> i) & 1)
        for i in range(3)
    ]
    return ExplicitSpace(tuple(probs), tuple(events), graph)


# ---------------------------------------------------------------------------
# app sugar subcommands


def cmd_app(kind: str, args, out) -> int:
    """Run the instance object the flags describe, as `run` runs a file."""
    field, takes_t = APP_KINDS[kind]
    obj: dict = {"kind": kind}
    if takes_t:
        obj["t"] = args.t
    path = getattr(args, field)
    if path:
        colours = _load_json(path)
        # A matrix file holds {"matrix": rows}, a coloring file the coloring.
        if field == "matrix":
            with _reading(f"{kind} instance"):
                colours = colours["matrix"]
        obj[field] = colours
    elif args.n is None or args.multiplicity is None:
        raise InputError("need --n and --multiplicity when no input file is given")
    else:
        obj["generator"] = {
            "n": args.n,
            "multiplicity": args.multiplicity,
            "seed": args.instance_seed,
        }
    return cmd_run(args, out, obj)


# ---------------------------------------------------------------------------
# argument wiring


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    sub.add_argument("--budget", type=int, default=DEFAULT_MAX_RESAMPLES,
                     help=f"resample cap (default {DEFAULT_MAX_RESAMPLES})")
    sub.add_argument("--format", choices=("json", "text"), default="json",
                     help="output format (default json)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every ``main`` call shares it."""
    parser = _Parser(prog="locallemma",
                     description="Resampling-oracle solver and verification suite")
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)

    c = subs.add_parser("criteria",
                        help="evaluate convergence criteria for an instance")
    c.add_argument("instance", help="instance JSON file")
    c.add_argument("--exact", action="store_true",
                   help="use exact rational arithmetic for the tables")
    c.add_argument("--format", choices=("json", "text"), default="json")

    r = subs.add_parser("run", help="execute the engine on an instance file")
    r.add_argument("instance", help="instance JSON file")
    _add_common(r)
    r.add_argument("--jobs", type=int, default=1,
                   help="independent seeded repetitions (default 1)")

    v = subs.add_parser("verify-oracle",
                        help="distribution and interference tests")
    v.add_argument("family",
                   choices=("variable", "permutation", "matching", "tree",
                            "synthesized", "appendix-a"))
    v.add_argument("--size", type=int, default=0,
                   help="space size (family-specific default)")
    v.add_argument("--event", type=int, default=0, help="event index (default 0)")
    v.add_argument("--samples", type=int, default=100_000,
                   help="conditioned samples for the distribution test")
    v.add_argument("--trials", type=int, default=10_000,
                   help="interference trials")
    v.add_argument("--instance", default=None,
                   help="explicit-space instance file (synthesized family)")
    v.add_argument("--k", type=int, default=64, help="clusters (appendix-a)")
    v.add_argument("--l", type=int, default=6, help="cluster width (appendix-a)")
    v.add_argument("--runs", type=int, default=10_000, help="runs (appendix-a)")
    _add_common(v)

    for kind, (field, takes_t) in APP_KINDS.items():
        a = subs.add_parser(kind,
                            help=f"solve a {kind.replace('-', ' ')} instance")
        a.add_argument("--n", type=int, default=None, help="size for the generator")
        a.add_argument("--multiplicity", type=int, default=None,
                       help="color multiplicity cap for the generator")
        a.add_argument("--instance-seed", type=int, default=0,
                       help="generator seed (default 0)")
        if takes_t:
            a.add_argument("--t", type=int, required=True,
                           help="number of structures to find")
        a.add_argument(f"--{field}", default=None, help=f"{field} JSON file")
        a.add_argument("--jobs", type=int, default=1,
                       help="independent seeded repetitions (default 1)")
        _add_common(a)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    try:
        if args.command == "criteria":
            return cmd_criteria(args, out)
        if args.command == "run":
            return cmd_run(args, out)
        if args.command == "verify-oracle":
            return cmd_verify_oracle(args, out)
        if args.command in APP_KINDS:
            return cmd_app(args.command, args, out)
        raise InputError(f"unknown command {args.command!r}")
    except (InputError, ValueError, MemoryError, RejectionBudgetError) as exc:
        # a library ValueError is a bad input or flag value, a MemoryError
        # an input too large to hold, and a spent rejection budget an
        # event too rare for the test's counts; none is a crash
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
