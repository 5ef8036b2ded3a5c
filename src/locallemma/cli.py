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
import json
import math
import sys
from fractions import Fraction

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
from .engine import maximal_set_resample
from .graphs import DependencyGraph, ENUMERATION_CAP
from .oracles import (
    MatchingBundle,
    PatternEvent,
    PermutationBundle,
    TreeBundle,
    VariableBundle,
    VariableEvent,
)
from .polynomials import (
    CriterionParams,
    build_table,
    check_cll,
    check_gll,
    shearer_report,
    shearer_slack,
    singleton_ratio,
    tail_bounds,
)
from .synth import ExplicitBundle, ExplicitSpace
from .verify import (
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
        out.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")
        return
    for line in _text_lines(obj, ""):
        out.write(line + "\n")


def _text_lines(obj, prefix: str):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _text_lines(obj[key], f"{prefix}{key}." if prefix else f"{key}.")
    else:
        yield f"{prefix[:-1]}: {json.dumps(obj, sort_keys=True)}"


def _parse_number(value) -> Fraction:
    # accepts JSON numbers, decimal strings, and "a/b" rationals
    if isinstance(value, bool):
        raise InputError(f"expected a probability, got {value!r}")
    if isinstance(value, (int, float)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad numeric literal {value!r}") from exc
    raise InputError(f"expected a number, got {type(value).__name__}")


# ---------------------------------------------------------------------------
# instance loading


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError(f"{path}: top-level value must be an object")
    return obj


def _parse_params(obj, n: int) -> CriterionParams:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError("params must be an object with a 'kind' field")
    kind = obj["kind"]
    try:
        eps = float(obj.get("epsilon", 0.0))
        if kind == "gll":
            x = tuple(float(_parse_number(v)) for v in obj["x"])
            if len(x) != n:
                raise InputError(f"params.x has length {len(x)}, expected {n}")
            return CriterionParams(kind="gll", x=x, epsilon=eps)
        if kind == "cll":
            y = tuple(float(_parse_number(v)) for v in obj["y"])
            if len(y) != n:
                raise InputError(f"params.y has length {len(y)}, expected {n}")
            return CriterionParams(kind="cll", y=y, epsilon=eps)
        if kind == "shearer":
            return CriterionParams(kind="shearer", epsilon=eps)
    except KeyError as exc:
        raise InputError(f"params missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad params: {exc}") from exc
    raise InputError(f"unknown params kind {kind!r}")


def _graph_from_json(obj) -> DependencyGraph:
    try:
        return DependencyGraph.from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad graph object: {exc}") from exc


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
    try:
        rng = random.Random(int(obj.get("generator", {}).get("seed", 0)))
        t = (int(obj["t"]),) if takes_t else ()
        if field in obj:
            colours = load(obj[field])
        else:
            gen = obj["generator"]
            colours = generate(int(gen["n"]), int(gen["multiplicity"]), rng)
        return build(colours, *t)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad {kind} instance: {exc}") from exc


# ---------------------------------------------------------------------------
# criteria


def _criteria_report(graph: DependencyGraph, probs, params, exact: bool) -> dict:
    if graph.n > ENUMERATION_CAP:
        raise InputError(
            f"instance has {graph.n} events; exact tables stop at {ENUMERATION_CAP}"
        )
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
        report["predicted_bounds"]["shearer"] = tail_bounds(
            CriterionParams(kind="shearer"), float_table
        )
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
        graph = _graph_from_json(obj.get("graph"))
        probs = obj.get("p", [])
        if not isinstance(probs, list):
            raise InputError("p must be a list of probabilities")
        probs = [_parse_number(v) for v in probs]
        if len(probs) != graph.n:
            raise InputError(f"p has length {len(probs)}, expected {graph.n}")
        params = _parse_params(obj["params"], graph.n) if "params" in obj else None
        report = _criteria_report(graph, probs, params, args.exact)
    elif kind == "explicit-space":
        space = _space_from_json(obj.get("space"))
        probs = [space.event_prob(i) for i in range(space.n_events)]
        params = _parse_params(obj["params"], space.n_events) if "params" in obj else None
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
        if bundle.n <= ENUMERATION_CAP:
            probs = [Fraction(bundle.event_prob(i)) for i in range(bundle.n)]
            exact_report = _criteria_report(bundle.graph, probs, params, args.exact)
            bounds = {**exact_report["predicted_bounds"], **report["predicted_bounds"]}
            exact_report.update(report, predicted_bounds=bounds)
            report = exact_report
    else:
        raise InputError(f"unknown instance kind {kind!r}")
    _emit(report, args.format, out)
    return EXIT_OK


def _space_from_json(obj) -> ExplicitSpace:
    if not isinstance(obj, dict):
        raise InputError("explicit-space instance needs a 'space' object")
    try:
        return ExplicitSpace.from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad space object: {exc}") from exc


# ---------------------------------------------------------------------------
# run


def _exit_code(terminated: bool, validated: bool) -> int:
    if not terminated:
        return EXIT_BUDGET
    return EXIT_OK if validated else EXIT_INVALID


def _run_explicit(obj: dict, seed: int, budget: int) -> tuple[dict, int]:
    space = _space_from_json(obj.get("space"))
    try:
        bundle = ExplicitBundle(space)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    state, log = maximal_set_resample(bundle, seed=seed, max_resamples=budget)
    validated = log.terminated and not any(
        bundle.holds(i, state) for i in range(bundle.n)
    )
    report = {
        "kind": "explicit-space",
        "seed": seed,
        "budget": budget,
        "terminated": log.terminated,
        "validated": validated,
        "total_resamples": log.total_resamples,
        "solution": {"state": state},
        "log": log.to_json(),
    }
    if "params" in obj:
        params = _parse_params(obj["params"], bundle.n)
        if params.kind != "shearer":
            report["predicted_bounds"] = tail_bounds(params)
    return report, _exit_code(log.terminated, validated)


def _run_app(obj: dict, seed: int, budget: int, jobs: int) -> tuple[dict, int]:
    bundle, params = _build_app_instance(obj)
    if jobs <= 1:
        report = solve(bundle, params, seed=seed, budget=budget)
        return report.to_json(), _exit_code(report.terminated, report.validated)
    runs = []
    worst = EXIT_OK
    for r in range(jobs):
        rep = solve(bundle, params, seed=derive_seed(seed, r), budget=budget)
        runs.append(rep.to_json())
        worst = max(worst, _exit_code(rep.terminated, rep.validated))
    summary = {
        "kind": bundle.kind,
        "jobs": jobs,
        "seed": seed,
        "validated_runs": sum(1 for r in runs if r["validated"]),
        "max_resamples": max(r["total_resamples"] for r in runs),
        "runs": runs,
    }
    return summary, worst


def cmd_run(args, out) -> int:
    obj = _load_json(args.instance)
    kind = obj.get("kind")
    if kind == "explicit-space":
        report, code = _run_explicit(obj, args.seed, args.budget)
    elif kind in APP_KINDS:
        report, code = _run_app(obj, args.seed, args.budget, args.jobs)
    else:
        raise InputError(f"instance kind {kind!r} cannot be executed")
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

    if args.family == "synthesized":
        if args.instance:
            obj = _load_json(args.instance)
            space = _space_from_json(obj.get("space"))
        else:
            space = _default_space()
        try:
            bundle = ExplicitBundle(space)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    else:
        bundle = _default_bundle(args.family, args.size)

    event = args.event if args.event is not None else 0
    if not 0 <= event < bundle.n:
        raise InputError(f"event index {event} out of range for {bundle.n} events")
    r1 = test_r1(bundle, event, samples=args.samples, seed=args.seed)
    violations = test_r2(bundle, event, trials=args.trials, seed=args.seed + 1)
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
        # A matrix file holds {"matrix": rows} and an instance the rows; a
        # file without them leaves null for _build_app_instance to reject.
        obj[field] = colours.get("matrix") if field == "matrix" else colours
    elif args.n is None or args.multiplicity is None:
        raise InputError("need --n and --multiplicity when no input file is given")
    else:
        obj["generator"] = {
            "n": args.n,
            "multiplicity": args.multiplicity,
            "seed": args.instance_seed,
        }
    report, code = _run_app(obj, args.seed, args.budget, args.jobs)
    _emit(report, args.format, out)
    return code


# ---------------------------------------------------------------------------
# argument wiring


def _add_common(sub, budget_default=1_000_000):
    sub.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    sub.add_argument("--budget", type=int, default=budget_default,
                     help=f"resample cap (default {budget_default})")
    sub.add_argument("--format", choices=("json", "text"), default="json",
                     help="output format (default json)")


def build_parser() -> argparse.ArgumentParser:
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
    v.add_argument("--event", type=int, default=None, help="event index (default 0)")
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
    except (InputError, ValueError) as exc:
        # a library ValueError is a bad input or flag value, not a crash
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
