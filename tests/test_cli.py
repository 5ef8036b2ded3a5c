"""End-to-end command-line checks: exit codes, output shapes, determinism."""

import ast
import contextlib
import hashlib
import io
import json
import math
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from referencing import Registry, Resource
from referencing.jsonschema import DRAFT7

from locallemma import cli, synth
from locallemma.cli import _parse_params, main
from locallemma.synth import ExplicitBundle, parse_probability
from locallemma.verify import derive_seed

from helpers import distinct_color_matrix, rainbow_edge_coloring

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def load_schemas():
    store = {}
    for path in SCHEMA_DIR.glob("*.json"):
        schema = json.loads(path.read_text())
        store[schema["$id"]] = schema
    return store


SCHEMAS = load_schemas()


#: Every schema under its $id, so a $ref to another file or to a local
#: definition resolves against the file it appears in.
REGISTRY = Registry().with_resources(
    (schema_id, Resource.from_contents(schema, default_specification=DRAFT7))
    for schema_id, schema in SCHEMAS.items()
)


def schema_check(obj, schema_id):
    jsonschema.Draft7Validator(SCHEMAS[schema_id], registry=REGISTRY).validate(obj)


def write_instance(tmp_path, obj, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def three_bit_instance():
    return {
        "kind": "explicit-space",
        "space": {
            "states": 8,
            "prob": ["1/8"] * 8,
            "events": [
                sorted(s for s in range(8) if not s >> i & 1) for i in range(3)
            ],
            "graph": {"n": 3, "edges": [[0, 1], [1, 2]]},
        },
    }


# ---------------------------------------------------------------------------
# criteria


def test_criteria_single_tight_event(tmp_path, capsys):
    path = write_instance(tmp_path, {
        "kind": "custom-graph",
        "graph": {"n": 1, "edges": []},
        "p": [0.5],
        "params": {"kind": "gll", "x": [0.5]},
    })
    code, out, _ = run_cli(["criteria", path], capsys)
    assert code == 0
    report = json.loads(out)
    schema_check(report, "criteria-report.schema.json")
    assert report["gll"] is True
    assert report["shearer"]["in_region"] is True
    assert report["q0"] == pytest.approx(0.5)
    assert report["slack"] == pytest.approx(0.5)
    assert report["singleton_ratios"] == [pytest.approx(1.0)]
    assert set(report["predicted_bounds"]) == {"gll", "shearer"}


def test_criteria_boundary_edge(tmp_path, capsys):
    path = write_instance(tmp_path, {
        "kind": "custom-graph",
        "graph": {"n": 2, "edges": [[0, 1]]},
        "p": [0.5, 0.5],
    })
    code, out, _ = run_cli(["criteria", path], capsys)
    assert code == 0
    report = json.loads(out)
    schema_check(report, "criteria-report.schema.json")
    assert report["shearer"]["in_region"] is False
    assert report["shearer"]["boundary"] is True
    assert report["gll"] is None and report["cll"] is None
    assert report["slack"] is None
    assert report["predicted_bounds"] == {}


def test_criteria_empty_instance(tmp_path, capsys):
    path = write_instance(tmp_path, {
        "kind": "custom-graph",
        "graph": {"n": 0, "edges": []},
        "p": [],
        "params": {"kind": "gll", "x": []},
    })
    code, out, _ = run_cli(["criteria", path], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["gll"] is True
    assert report["shearer"]["in_region"] is True
    assert report["q0"] == 1.0


def test_criteria_accepts_rational_strings(tmp_path, capsys):
    path = write_instance(tmp_path, {
        "kind": "custom-graph",
        "graph": {"n": 2, "edges": [[0, 1]]},
        "p": ["1/3", "1/4"],
    })
    code, out, _ = run_cli(["criteria", path, "--exact"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["q0"] == pytest.approx(5 / 12)
    assert report["shearer"]["in_region"] is True


def test_criteria_explicit_space(tmp_path, capsys):
    path = write_instance(tmp_path, three_bit_instance())
    code, out, _ = run_cli(["criteria", path], capsys)
    assert code == 0
    report = json.loads(out)
    schema_check(report, "criteria-report.schema.json")
    # three events at probability 1/2 on a path sit outside the region
    assert report["n"] == 3
    assert report["shearer"]["in_region"] is False


def test_criteria_app_instance(tmp_path, capsys):
    rows = [[0, 1, 2, 3], [4, 0, 5, 6], [7, 8, 9, 10], [11, 12, 13, 14]]
    path = write_instance(tmp_path, {"kind": "latin", "t": 1, "matrix": rows})
    code, out, _ = run_cli(["criteria", path], capsys)
    assert code == 0
    report = json.loads(out)
    schema_check(report, "criteria-report.schema.json")
    assert report["kind"] == "latin"
    assert isinstance(report["cll_clique_bound"], bool)
    assert report["clique_size_bounds"] == {"same-space": 4, "cross-space": 0}
    assert report["n"] == 1
    assert "cll" in report  # small instance also gets the exact table


def test_criteria_rejects_unknown_kind(tmp_path, capsys):
    path = write_instance(tmp_path, {"kind": "mystery"})
    code, _, err = run_cli(["criteria", path], capsys)
    assert code == 3
    assert "unknown instance kind" in err


def test_criteria_rejects_missing_file(capsys):
    code, _, err = run_cli(["criteria", "/no/such/file.json"], capsys)
    assert code == 3
    assert "cannot read" in err


def test_criteria_rejects_wrong_params_length(tmp_path, capsys):
    path = write_instance(tmp_path, {
        "kind": "custom-graph",
        "graph": {"n": 2, "edges": []},
        "p": [0.1, 0.1],
        "params": {"kind": "gll", "x": [0.5]},
    })
    code, _, err = run_cli(["criteria", path], capsys)
    assert code == 3
    assert "length" in err


def test_json_params_stay_tuples():
    gll = _parse_params({"kind": "gll", "x": [0.5, "1/4"]}, 2)
    cll = _parse_params({"kind": "cll", "y": [0.5, 0.5]}, 2)
    assert gll.x == (0.5, 0.25) and type(gll.x) is tuple
    assert cll.y == (0.5, 0.5) and type(cll.y) is tuple


# ---------------------------------------------------------------------------
# run


def test_run_explicit_space(tmp_path, capsys):
    instance = three_bit_instance()
    schema_check(instance, "instance.schema.json")
    path = write_instance(tmp_path, instance)
    code, out, _ = run_cli(["run", path, "--seed", "0"], capsys)
    assert code == 0
    report = json.loads(out)
    schema_check(report, "solution-report.schema.json")
    assert report["terminated"] and report["validated"]
    assert report["solution"]["state"] == 7  # all bits one, no event holds
    schema_check(report["log"], "runlog.schema.json")


def test_run_explicit_space_budget_exhaustion(tmp_path, capsys):
    path = write_instance(tmp_path, three_bit_instance())
    code, out, _ = run_cli(
        ["run", path, "--seed", "1", "--budget", "1"], capsys
    )
    assert code == 2
    report = json.loads(out)
    assert report["terminated"] is False
    assert report["total_resamples"] == 1


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_run_explicit_space_refuses_jobs_before_synthesis(jobs, tmp_path, capsys, monkeypatch):
    def refuse(space):
        raise AssertionError("a kernel was synthesized")

    monkeypatch.setattr(cli, "ExplicitBundle", refuse)
    path = write_instance(tmp_path, three_bit_instance())
    code, out, err = run_cli(["run", path, "--jobs", jobs], capsys)
    assert (code, out) == (3, "")
    assert err == f"error: --jobs must be at least 1, got {jobs}\n"


def test_run_explicit_space_with_jobs_repeats_at_derived_seeds(tmp_path, capsys):
    path = write_instance(tmp_path, three_bit_instance())
    code, out, _ = run_cli(["run", path, "--seed", "5", "--jobs", "2"], capsys)
    assert code == 0
    report = json.loads(out)
    schema_check(report, "solution-report.schema.json")
    assert (report["kind"], report["jobs"], report["seed"]) == ("explicit-space", 2, 5)
    assert report["validated_runs"] == 2
    assert report["max_resamples"] == max(r["total_resamples"] for r in report["runs"])
    assert len(report["runs"]) == 2
    for r, run in enumerate(report["runs"]):
        code, single, _ = run_cli(["run", path, "--seed", str(derive_seed(5, r))], capsys)
        assert code == 0 and run == json.loads(single)


def test_run_explicit_space_checks_params_before_the_run(tmp_path, capsys, monkeypatch):
    def refuse(self, rng):
        raise AssertionError("the engine ran")

    monkeypatch.setattr(ExplicitBundle, "sample", refuse)
    instance = dict(three_bit_instance(), params={"kind": "cll", "y": [0.1, 0.1]})
    path = write_instance(tmp_path, instance)
    code, out, err = run_cli(["run", path], capsys)
    assert (code, out) == (3, "")
    assert err == "error: params.y has length 2, expected 3\n"


def test_run_explicit_space_validates_through_the_event_sets(tmp_path, capsys, monkeypatch):
    # one event on both states, so every state violates it; a holds that
    # answers False lets the engine stop at once, and the check must see it
    monkeypatch.setattr(ExplicitBundle, "holds", lambda self, i, state: False)
    path = write_instance(tmp_path, {"kind": "explicit-space", "space": {
        "states": 2, "prob": ["1/2", "1/2"], "events": [[0, 1]],
        "graph": {"n": 1, "edges": []}}})
    code, out, _ = run_cli(["run", path, "--budget", "10"], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["terminated"] and not report["validated"]
    assert "predicted_bounds" not in report


@pytest.mark.parametrize("argv", [["run"], ["verify-oracle", "synthesized", "--instance"]],
                         ids=["run", "verify-oracle"])
def test_space_without_an_oracle_exits_with_one_line(argv, tmp_path, capsys):
    # two fair states, one event on each: neither event has an oracle
    path = write_instance(tmp_path, {"kind": "explicit-space", "space": {
        "states": 2, "prob": ["1/2", "1/2"], "events": [[0], [1]],
        "graph": {"n": 2, "edges": []}}})
    code, out, err = run_cli(argv + [path], capsys)
    assert code == 3 and out == ""
    assert err.startswith("error: event 0 admits no resampling oracle")
    assert err.count("\n") == 1


def test_float_probabilities_read_as_their_decimal_text(tmp_path, capsys):
    # two independent bits at P = 0.3; as binary floats the four numbers
    # sum to 1 - 2.8e-17, and event 0 would have no exact oracle
    outputs = []
    for name, prob in (("float", [0.49, 0.21, 0.21, 0.09]),
                       ("decimal", ["0.49", "0.21", "0.21", "0.09"]),
                       ("fraction", ["49/100", "21/100", "21/100", "9/100"])):
        path = write_instance(tmp_path, {"kind": "explicit-space", "space": {
            "states": 4, "prob": prob, "events": [[2, 3], [1, 3]],
            "graph": {"n": 2, "edges": []}}}, name=f"{name}.json")
        outputs.append([run_cli(argv, capsys) for argv in (
            ["run", path, "--seed", "4"],
            ["verify-oracle", "synthesized", "--instance", path,
             "--samples", "2000", "--trials", "200", "--seed", "3"],
            ["criteria", path, "--exact"])])
    assert [code for code, _, _ in outputs[0]] == [0, 0, 0]
    assert outputs[0] == outputs[1] == outputs[2]


def test_custom_graph_p_reads_json_numbers_as_their_decimal_text(tmp_path, capsys):
    # as binary floats, q0 of this path reads -0.02999999999999995
    outputs = []
    for name, p in (("float", [0.1, 0.3, 0.7]), ("decimal", ["0.1", "0.3", "0.7"])):
        path = write_instance(tmp_path, {"kind": "custom-graph", "p": p,
                                         "graph": {"n": 3, "edges": [[0, 1], [1, 2]]}},
                              name=f"{name}.json")
        outputs.append(run_cli(["criteria", path, "--exact"], capsys))
    assert outputs[0] == outputs[1]
    code, out, _ = outputs[0]
    assert code == 0 and json.loads(out)["q0"] == -0.03


@given(st.floats(0, 1e6) | st.integers(0, 10**6))
def test_a_parsed_probability_keeps_its_float(value):
    assert float(parse_probability(value)) == float(Fraction(value))
    assert float(parse_probability(str(value))) == float(value)


@pytest.mark.parametrize("argv", [
    ["run"], ["criteria"], ["verify-oracle", "synthesized", "--instance"],
], ids=["run", "criteria", "verify-oracle"])
def test_probabilities_must_sum_to_exactly_one(argv, tmp_path, capsys):
    # two independent bits at P = 1/3, rounded to 13 decimals: the total
    # falls 1e-13 short of 1
    path = write_instance(tmp_path, {"kind": "explicit-space", "space": {
        "states": 4, "prob": ["0.4444444444444", "0.2222222222222", "0.2222222222222",
                              "0.1111111111111"],
        "events": [[2, 3], [1, 3]], "graph": {"n": 2, "edges": []}}})
    code, out, err = run_cli(argv + [path], capsys)
    assert code == 3 and out == ""
    assert err == ("error: bad space object: state probabilities sum to "
                   "9999999999999/10000000000000, not 1\n")


def test_run_latin_generator_instant(tmp_path, capsys):
    instance = {
        "kind": "latin",
        "t": 1,
        "generator": {"n": 32, "multiplicity": 1, "seed": 0},
    }
    schema_check(instance, "instance.schema.json")
    path = write_instance(tmp_path, instance)
    code, out, _ = run_cli(["run", path], capsys)
    assert code == 0
    report = json.loads(out)
    schema_check(report, "solution-report.schema.json")
    assert report["validated"] and report["total_resamples"] == 0
    assert len(report["solution"]["transversals"]) == 1


def test_custom_graph_instances_match_the_schema():
    schema_check({"kind": "custom-graph", "graph": {"n": 1, "edges": []}, "p": [0.5]},
                 "instance.schema.json")
    schema_check({
        "kind": "custom-graph",
        "graph": {"n": 2, "edges": [[0, 1]]},
        "p": ["1/4", 0.25],
        "params": {"kind": "cll", "y": ["1/3", 0.5]},
    }, "instance.schema.json")
    with pytest.raises(jsonschema.ValidationError):  # a negative probability
        schema_check({"kind": "custom-graph", "graph": {"n": 1, "edges": []}, "p": ["-1/2"]},
                     "instance.schema.json")
    with pytest.raises(jsonschema.ValidationError):  # the graph's own schema applies
        schema_check({"kind": "custom-graph", "graph": {"n": -1, "edges": []}, "p": []},
                     "instance.schema.json")


def test_run_rejects_criteria_only_kind(tmp_path, capsys):
    path = write_instance(tmp_path, {
        "kind": "custom-graph",
        "graph": {"n": 1, "edges": []},
        "p": [0.5],
    })
    code, _, err = run_cli(["run", path], capsys)
    assert code == 3
    assert "cannot be executed" in err


# ---------------------------------------------------------------------------
# app subcommands


def test_rainbow_matching_flags_with_jobs(capsys):
    code, out, _ = run_cli(
        ["rainbow-matching", "--n", "12", "--multiplicity", "2",
         "--instance-seed", "1", "--seed", "7", "--jobs", "3"], capsys
    )
    assert code == 0
    report = json.loads(out)
    schema_check(report, "solution-report.schema.json")
    assert report["jobs"] == 3
    assert report["validated_runs"] == 3
    assert len(report["runs"]) == 3
    assert report["max_resamples"] == max(
        r["total_resamples"] for r in report["runs"]
    )


def test_rainbow_tree_flags(capsys):
    code, out, _ = run_cli(
        ["rainbow-tree", "--n", "8", "--multiplicity", "2", "--t", "2",
         "--instance-seed", "3", "--seed", "1"], capsys
    )
    assert code == 0
    report = json.loads(out)
    schema_check(report, "solution-report.schema.json")
    assert report["validated"]
    assert len(report["solution"]["trees"]) == 2


def test_latin_flags(capsys):
    code, out, _ = run_cli(
        ["latin", "--n", "6", "--multiplicity", "2", "--t", "2",
         "--instance-seed", "2", "--seed", "4"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["validated"]


@pytest.mark.parametrize("argv, field", [
    (["latin", "--t", "1", "--matrix"], "matrix"),
    (["rainbow-tree", "--t", "1", "--coloring"], "n"),
    (["rainbow-matching", "--coloring"], "n"),
], ids=["latin", "rainbow-tree", "rainbow-matching"])
def test_app_file_without_its_field_names_the_field(tmp_path, capsys, argv, field):
    path = write_instance(tmp_path, {}, "colours.json")
    code, out, err = run_cli([*argv, path], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"missing field '{field}'" in err


def test_app_subcommand_accepts_coloring_file(tmp_path, capsys):
    path = write_instance(
        tmp_path, rainbow_edge_coloring(6).to_json(), "coloring.json"
    )
    code, out, _ = run_cli(["rainbow-matching", "--coloring", path], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["validated"] and report["total_resamples"] == 0


def test_latin_accepts_matrix_file(tmp_path, capsys):
    path = write_instance(
        tmp_path, distinct_color_matrix(5).to_json(), "matrix.json"
    )
    code, out, _ = run_cli(["latin", "--matrix", path, "--t", "2"], capsys)
    assert code == 0
    assert json.loads(out)["validated"]


def test_app_subcommand_requires_generator_flags(capsys):
    code, _, err = run_cli(["rainbow-matching"], capsys)
    assert code == 3
    assert "--n and --multiplicity" in err


# ---------------------------------------------------------------------------
# verify-oracle


def test_verify_oracle_variable(capsys):
    code, out, _ = run_cli(
        ["verify-oracle", "variable", "--samples", "3000", "--trials", "500"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    schema_check(report, "verify-report.schema.json")
    assert report["family"] == "variable"
    assert report["passed"] is True
    assert report["r2"] == {"trials": 500, "violations": 0}


def test_verify_oracle_tree(capsys):
    code, out, _ = run_cli(
        ["verify-oracle", "tree", "--samples", "4000", "--trials", "300"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["r1"]["support_size"] == 125
    assert report["passed"] is True


def test_verify_oracle_synthesized_default_space(capsys):
    code, out, _ = run_cli(
        ["verify-oracle", "synthesized", "--samples", "3000",
         "--trials", "400", "--event", "1"], capsys
    )
    assert code == 0
    report = json.loads(out)
    schema_check(report, "verify-report.schema.json")
    assert report["passed"] is True


def test_verify_oracle_synthesizes_the_tested_kernel_only(tmp_path, capsys, monkeypatch):
    calls = []

    def counting(space, i):
        calls.append(i)
        return real(space, i)

    real = synth.synthesize
    monkeypatch.setattr(synth, "synthesize", counting)
    # two fair states; event 0 meets both others, so it has an oracle,
    # but events 1 and 2 are not adjacent and neither has one
    path = write_instance(tmp_path, {"kind": "explicit-space", "space": {
        "states": 2, "prob": ["1/2", "1/2"], "events": [[0], [0], [1]],
        "graph": {"n": 3, "edges": [[0, 1], [0, 2]]}}})
    code, out, _ = run_cli(["verify-oracle", "synthesized", "--instance", path,
                            "--samples", "2000", "--trials", "200"], capsys)
    assert code == 0 and json.loads(out)["passed"]
    assert calls == [0]
    code, out, err = run_cli(["run", path], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: event 1 admits no resampling oracle")
    assert calls == [0, 0, 1]


def test_verify_oracle_appendix_a(capsys):
    code, out, _ = run_cli(
        ["verify-oracle", "appendix-a", "--k", "2", "--l", "1",
         "--runs", "150", "--seed", "5"], capsys
    )
    assert code == 0
    report = json.loads(out)
    schema_check(report, "verify-report.schema.json")
    assert sum(report["counts"].values()) == 150
    assert report["budget_exhausted"] == 0
    assert 0.0 <= report["frequency_at_least_k"] <= 1.0


def test_verify_oracle_bad_event(capsys):
    code, _, err = run_cli(
        ["verify-oracle", "variable", "--event", "9"], capsys
    )
    assert code == 3
    assert "out of range" in err


@pytest.mark.parametrize("argv", [
    pytest.param(["verify-oracle", "permutation", "--size", "-3"], id="negative-size"),
    pytest.param(["verify-oracle", "appendix-a", "--k", "2", "--l", "1", "--runs", "0"],
                 id="no-streak-runs"),
    pytest.param(["verify-oracle", "permutation", "--samples", "0", "--trials", "0"],
                 id="no-samples"),
    pytest.param(["verify-oracle", "permutation", "--samples", "10", "--trials", "0"],
                 id="no-trials"),
    pytest.param(["latin", "--n", "8", "--multiplicity", "2", "--t", "2", "--jobs", "0"],
                 id="no-jobs"),
    pytest.param(["latin", "--n", "8", "--multiplicity", "2", "--t", "2", "--jobs", "-1"],
                 id="negative-jobs"),
    pytest.param(["latin", "--n", "0", "--multiplicity", "1", "--t", "1"], id="latin-n0"),
    pytest.param(["latin", "--n", "1", "--multiplicity", "1", "--t", "2"], id="latin-n1"),
])
def test_degenerate_sizes_exit_with_input_error(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    if "--jobs" in argv:
        assert "--jobs" in err


@pytest.mark.parametrize("flag", ["--samples", "--trials"])
def test_verify_oracle_refuses_a_count_before_either_test_runs(flag, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an oracle test ran")

    monkeypatch.setattr(cli, "test_r1", refuse)
    monkeypatch.setattr(cli, "test_r2", refuse)
    code, out, err = run_cli(["verify-oracle", "permutation", flag, "0"], capsys)
    assert (code, out) == (3, "")
    assert err == f"error: {flag} must be at least 1, got 0\n"


@pytest.mark.parametrize("argv, cap", [
    pytest.param(["latin", "--n", "4", "--multiplicity", "1", "--t", "100000"],
                 "MAX_COPY_PAIRS", id="latin-copies"),
    pytest.param(["rainbow-tree", "--n", "100000", "--multiplicity", "1", "--t", "1"],
                 "MAX_ITEMS", id="tree-edges"),
    pytest.param(["latin", "--n", "60000", "--multiplicity", "1", "--t", "1"],
                 "MAX_ITEMS", id="latin-cells"),
    pytest.param(["latin", "--n", "200", "--multiplicity", "1000000", "--t", "1",
                  "--budget", "10"], "MAX_PAIRS", id="latin-one-colour"),
    pytest.param(["rainbow-tree", "--n", "300", "--multiplicity", "1000000", "--t", "1",
                  "--budget", "10"], "MAX_PAIRS", id="tree-one-colour"),
    pytest.param(["rainbow-matching", "--n", "300", "--multiplicity", "1000000",
                  "--budget", "10"], "MAX_PAIRS", id="matching-one-colour"),
    pytest.param(["verify-oracle", "appendix-a", "--k", "1048576", "--l", "1", "--runs", "1",
                  "--budget", "10"], "MAX_STREAK_EVENTS", id="streak-events"),
])
def test_oversized_instances_are_refused_before_allocation(argv, cap, capsys):
    start = time.perf_counter()
    code, out, err = run_cli(argv, capsys)
    assert time.perf_counter() - start < 0.5
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and cap in err


@pytest.mark.parametrize("n", [21, 25])
def test_exact_tables_past_the_cap_are_refused_at_once(n, tmp_path, capsys):
    path = write_instance(tmp_path, {
        "kind": "custom-graph", "p": ["1/100"] * n,
        "graph": {"n": n, "edges": [[i, i + 1] for i in range(n - 1)]}})
    start = time.perf_counter()
    code, out, err = run_cli(["criteria", path, "--exact"], capsys)
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "EXACT_CAP" in err


def test_float_tables_run_up_to_the_enumeration_cap(tmp_path, capsys):
    # 2^25 independent sets, none of which the report needs to list
    path = write_instance(tmp_path, {
        "kind": "custom-graph", "p": ["1/100"] * 25, "graph": {"n": 25, "edges": []}})
    start = time.perf_counter()
    code, out, _ = run_cli(["criteria", path], capsys)
    assert time.perf_counter() - start < 10
    assert code == 0
    ratios = json.loads(out)["singleton_ratios"]
    assert ratios == [pytest.approx(1 / 99)] * 25


def test_tables_past_the_enumeration_cap_are_refused_at_once(tmp_path, capsys):
    path = write_instance(tmp_path, {
        "kind": "custom-graph", "p": ["1/100"] * 26,
        "graph": {"n": 26, "edges": [[i, i + 1] for i in range(25)]}})
    start = time.perf_counter()
    code, out, err = run_cli(["criteria", path], capsys)
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "ENUMERATION_CAP" in err


@pytest.mark.parametrize("size", [21, 26])
def test_variable_laws_past_the_product_cap_are_refused_at_once(size, capsys):
    # 2^size joint values: --size 26 used to enumerate for tens of seconds
    start = time.perf_counter()
    code, out, err = run_cli(["verify-oracle", "variable", "--size", str(size)], capsys)
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "PRODUCT_LAW_CAP" in err


def test_an_event_too_rare_for_the_rejection_budget_is_refused_at_once(tmp_path, capsys):
    # P(event 0) = 1e-12: 10 samples need about 10^13 draws, and the
    # rejection sampler used to spend its 10^8 before a traceback
    path = write_instance(tmp_path, _space_file(prob=["1/1000000000000",
                                                      "999999999999/1000000000000"]))
    start = time.perf_counter()
    code, out, err = run_cli(["verify-oracle", "synthesized", "--instance", path,
                              "--event", "0", "--samples", "10", "--trials", "10"], capsys)
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "rejection draws" in err


def test_matching_on_two_vertices_solves_with_zero_bounds(tmp_path, capsys):
    # One event-free matching; its y = beta * p is negative at K_2.
    code, out, _ = run_cli(["rainbow-matching", "--n", "2", "--multiplicity", "1"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["validated"] and set(report["predicted_bounds"].values()) == {0.0}
    path = write_instance(tmp_path, {"kind": "rainbow-matching",
                                     "generator": {"n": 2, "multiplicity": 1, "seed": 0}})
    code, out, _ = run_cli(["criteria", path], capsys)
    assert code == 0 and json.loads(out)["n"] == 0


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 256. GiB for an array", "Unable to allocate 256. GiB for an array"),
    ("", "out of memory"),
])
def test_memory_exhaustion_exits_with_one_line(message, line, tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "build_table", exhausted)
    path = write_instance(tmp_path, {"kind": "custom-graph", "graph": {"n": 25, "edges": []},
                                     "p": ["1/100"] * 25})
    code, out, err = run_cli(["criteria", path], capsys)
    assert code == 3 and out == ""
    assert err == f"error: {line}\n"


@pytest.mark.parametrize("argv", [
    pytest.param(["latin", "--t", "1", "--matrix"], id="matrix"),
    pytest.param(["rainbow-tree", "--t", "1", "--coloring"], id="coloring"),
])
def test_empty_colour_file_exits_with_input_error(argv, tmp_path, capsys):
    code, out, err = run_cli(argv + [write_instance(tmp_path, {}, "colours.json")], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")


def test_library_value_error_exits_with_input_error():
    cmd = [sys.executable, "-m", "locallemma.cli", "rainbow-matching",
           "--n", "12", "--multiplicity", "2", "--budget", "0"]
    result = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert result.returncode == 3
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: ")


def test_tree_event_outside_the_graph_is_an_input_error():
    # the default event (0, 1) does not exist on K_1; sampling a state in
    # which it holds used to spin through the whole rejection budget
    cmd = [sys.executable, "-m", "locallemma.cli", "verify-oracle", "tree",
           "--size", "1", "--samples", "10", "--trials", "10"]
    result = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    assert result.returncode == 3
    assert "Traceback" not in result.stderr


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    # scipy takes about half of a CLI process's start-up; only the R1
    # threshold needs it, and R1 imports it itself
    cmd = [sys.executable, "-c", "import locallemma.cli, sys; "
           "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"]
    result = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


#: Runs commands through ``main`` in one process and prints, after the
#: commands without an R1 test and again after ``verify-oracle variable``,
#: whether any scipy module is loaded, then the sha256 of the last output.
SCIPY_PROBE = """
import contextlib, hashlib, io, sys
from locallemma.cli import main

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    return out.getvalue()

def scipy_loaded():
    return any(m.split(".")[0] == "scipy" for m in sys.modules)

run(["latin", "--n", "6", "--multiplicity", "2", "--t", "2"])
run(["run", sys.argv[1], "--seed", "7"])
run(["verify-oracle", "appendix-a", "--k", "2", "--l", "1", "--runs", "50"])
print(scipy_loaded())
out = run(["verify-oracle", "variable", "--samples", "3000", "--trials", "500"])
print("scipy.special" in sys.modules, hashlib.sha256(out.encode()).hexdigest())
"""


def test_scipy_is_loaded_only_by_an_r1_test(tmp_path):
    space = write_instance(tmp_path, explicit_space_pin_instance())
    result = subprocess.run([sys.executable, "-c", SCIPY_PROBE, space],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    # the digest was captured while verify imported scipy at module load
    assert result.stdout.split() == [
        "False", "True",
        "393b968d3a5d5cd56f88826d14bfe62a729327e79b034bad115c2ffe20708ff4"]


def test_reused_parser_gives_the_bytes_of_a_fresh_process(tmp_path, capsys, monkeypatch):
    # main builds its parser once per process; a usage error or --help on
    # the shared parser must leave later calls as a fresh process has them
    monkeypatch.setenv("COLUMNS", "80")
    space = write_instance(tmp_path, explicit_space_pin_instance())
    latin = ["latin", "--n", "6", "--multiplicity", "2", "--t", "2", "--seed", "4"]
    for argv in (["verify-oracle", "quantum"], ["--help"], latin + ["--format", "text"],
                 latin, ["run", space, "--jobs", "2"]):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "locallemma.cli", *argv],
                               capture_output=True, text=True, timeout=120)
        assert (code, captured.out, captured.err) == (
            fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert cli.build_parser.cache_info().misses == 1


def test_unknown_family_exits_with_input_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify-oracle", "quantum"])
    assert excinfo.value.code == 3


def test_missing_subcommand_exits_with_input_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 3


# ---------------------------------------------------------------------------
# output formats and determinism


def test_text_format(tmp_path, capsys):
    path = write_instance(tmp_path, {
        "kind": "custom-graph",
        "graph": {"n": 1, "edges": []},
        "p": [0.5],
    })
    code, out, _ = run_cli(["criteria", path, "--format", "text"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert "q0: 0.5" in lines
    assert "shearer.in_region: true" in lines


def test_identical_inputs_identical_bytes(tmp_path, capsys):
    path = write_instance(tmp_path, three_bit_instance())
    argv = ["run", path, "--seed", "42"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second


#: Scalars json.dumps accepts, with the spellings it special-cases.
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-(2**80), 2**80),
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324]),
    st.text(), st.text(st.characters(max_codepoint=0x1f) | st.sampled_from("é€\"\\/𝄞")))
#: Lists of number lists, the shape of tree edges, transversals and logs.
NUMBER_ROWS = st.lists(st.lists(st.one_of(st.integers(), st.floats(), st.booleans(),
                                          st.none()), max_size=4), max_size=4)
JSON_VALUES = st.recursive(
    JSON_SCALARS | NUMBER_ROWS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(st.characters(max_codepoint=0x1f) | st.characters()), inner,
                        max_size=4)),
    max_leaves=24)


def emitted(obj) -> str:
    buf = io.StringIO()
    cli._emit(obj, "json", buf)
    return buf.getvalue()


@settings(max_examples=400, deadline=None)
@given(JSON_VALUES)
def test_json_output_is_the_bytes_of_indented_json_dumps(obj):
    assert emitted(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("obj", [
    {1, 2}, {"a": [frozenset()]}, np.int64(3), [np.int64(3)], [[np.int64(3)]],
    {"a": {"b": (1, {2})}},
])
def test_json_output_refuses_what_json_dumps_refuses(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        emitted(obj)


@pytest.mark.parametrize("obj", [{1: "int key"}, {"a": {2.5: "b"}}, {None: 0}])
def test_json_output_refuses_keys_that_are_no_strings(obj):
    with pytest.raises(TypeError):
        emitted(obj)


def test_json_output_takes_float_subclasses_as_json_dumps_does():
    obj = {"x": np.float64(0.1), "y": [np.float64(math.nan)], "z": [[np.float64(2.5)]]}
    assert emitted(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_console_entry_point_determinism(tmp_path):
    path = write_instance(tmp_path, three_bit_instance())
    cmd = [sys.executable, "-m", "locallemma.cli", "run", path, "--seed", "3"]
    first = subprocess.run(cmd, capture_output=True, timeout=120)
    second = subprocess.run(cmd, capture_output=True, timeout=120)
    assert first.returncode == 0
    assert first.stdout == second.stdout


# ---------------------------------------------------------------------------
# pinned offline outputs


def custom_graph_pin_instance():
    """14 events on a random graph, rational p under a gll witness x."""
    rng = random.Random(2024)
    n = 14
    nbrs = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.3:
                nbrs[u].add(v)
                nbrs[v].add(u)
    x = [Fraction(rng.randint(5, 30), 100) for _ in range(n)]
    p = []
    for i in range(n):
        bound = x[i]
        for j in nbrs[i]:
            bound *= 1 - x[j]
        p.append(Fraction(int(bound * 4096), 4096))
    return {
        "kind": "custom-graph",
        "graph": {"n": n, "edges": [[u, v] for u in range(n) for v in sorted(nbrs[u]) if u < v]},
        "p": [str(v) for v in p],
        "params": {"kind": "gll", "x": [str(v) for v in x]},
    }


def explicit_space_pin_instance():
    """Six biased bits; event i is "bits i and i+1 (mod 6) are 0", a 6-cycle."""
    rng = random.Random(2025)
    bits = 6
    zero = [Fraction(rng.randint(4, 12), 16) for _ in range(bits)]
    probs = []
    for s in range(1 << bits):
        pr = Fraction(1)
        for b in range(bits):
            pr *= zero[b] if not s >> b & 1 else 1 - zero[b]
        probs.append(pr)
    events = [sorted(s for s in range(1 << bits)
                     if not s >> i & 1 and not s >> (i + 1) % bits & 1)
              for i in range(bits)]
    edges = [sorted((i, (i + 1) % bits)) for i in range(bits)]
    return {
        "kind": "explicit-space",
        "space": {"states": 1 << bits, "prob": [str(v) for v in probs],
                  "events": events, "graph": {"n": bits, "edges": edges}},
    }


#: sha256 of what ``locallemma.cli.main`` prints for each argv, captured
#: before the tables ran on arrays and the transport flow on integers.
PINNED_OFFLINE_RUNS = [
    pytest.param("graph", ["criteria"],
                 "acf61a265aa00d8cb811e8dc5ac5bd23e51faccf8187a6be6ca0a21d16d4b73b",
                 id="criteria-graph"),
    pytest.param("graph", ["criteria", "--exact"],
                 "0984e2cbce76e1cc6c345658773d973fd623d5884df561a413b4a6d1ce43b968",
                 id="criteria-exact-graph"),
    pytest.param("space", ["criteria"],
                 "2dcfb65bdfbd1aafbd40ca61e63a2f42c499862a67ba120f1cb197cba54367cb",
                 id="criteria-space"),
    pytest.param("space", ["criteria", "--exact"],
                 "2dcfb65bdfbd1aafbd40ca61e63a2f42c499862a67ba120f1cb197cba54367cb",
                 id="criteria-exact-space"),
    pytest.param("space", ["verify-oracle", "synthesized", "--event", "2", "--samples",
                           "3000", "--trials", "500", "--seed", "5", "--instance"],
                 "a0446db5fdf75e6e234bfb495103e323954ef405a448c2a1498d9d0b2baeb14f",
                 id="verify-oracle-synthesized"),
    pytest.param("space", ["run", "--seed", "7"],
                 "96da8120477081a64d4c7ffcf54c8779ea382bf1a6798a97095781549c3d71d2",
                 id="run-space"),
]


#: App instance files for ``criteria``: three small enough for the exact
#: table and ``check_cll``, and the first rainbow-tree acceptance instance,
#: which gets the tail bounds only.
APP_PIN_INSTANCES = {
    "latin": {"kind": "latin", "t": 2,
              "generator": {"n": 3, "multiplicity": 2, "seed": 1}},
    "tree": {"kind": "rainbow-tree", "t": 2,
             "generator": {"n": 4, "multiplicity": 2, "seed": 0}},
    "matching": {"kind": "rainbow-matching",
                 "generator": {"n": 10, "multiplicity": 2, "seed": 0}},
    "tree-256": {"kind": "rainbow-tree", "t": 3,
                 "generator": {"n": 256, "multiplicity": 3, "seed": derive_seed(110, 0)}},
}


def pin_instance(fixture):
    if fixture in APP_PIN_INSTANCES:
        return APP_PIN_INSTANCES[fixture]
    return {"graph": custom_graph_pin_instance,
            "space": explicit_space_pin_instance}[fixture]()


#: sha256 of ``criteria`` on the app instances, captured while the app
#: params still held one y entry per event.  The two matching pins were
#: captured again when the Shearer bounds of the exact report were kept
#: next to the cll bound; the rest of that output is unchanged.
PINNED_APP_CRITERIA_RUNS = [
    pytest.param("latin", ["criteria"],
                 "4ef5c36e9e93e2ca43ab7bdd73908038d87433bfa451825b379e033aae65a5b4",
                 id="criteria-latin"),
    pytest.param("tree", ["criteria"],
                 "60906d60d9506d6574974441248c5e0e36e48369844b95a5106feea6fec34035",
                 id="criteria-tree"),
    pytest.param("matching", ["criteria"],
                 "dea176086713bec099a5104713633138b097eb94e7a665ed6920565f7062512f",
                 id="criteria-matching"),
    pytest.param("matching", ["criteria", "--exact"],
                 "2ce3706a65a3940737785c24d597876533f377f8b633f519ee7e0c71076e7dbf",
                 id="criteria-exact-matching"),
    pytest.param("tree-256", ["criteria"],
                 "2b44500000f4cd703feee5a0fb2987d1cf9f4a29b5b028b7b68bf33c3823b088",
                 id="criteria-tree-256"),
]


@pytest.mark.parametrize("fixture, argv, digest",
                         PINNED_OFFLINE_RUNS + PINNED_APP_CRITERIA_RUNS)
def test_offline_output_is_pinned(fixture, argv, digest, tmp_path, capsys):
    instance = pin_instance(fixture)
    code, out, _ = run_cli(argv + [write_instance(tmp_path, instance)], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_small_app_criteria_keep_shearer_and_cll_bounds(tmp_path, capsys):
    instance = write_instance(tmp_path, APP_PIN_INSTANCES["matching"])
    code, out, _ = run_cli(["criteria", instance], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["shearer"]["in_region"]
    assert sorted(report["predicted_bounds"]) == ["cll", "shearer"]


#: (argv, exit code, sha256 of stdout) of streak measurements, captured
#: while the streak bundle kept its state as a tuple of ints.
PINNED_STREAK_RUNS = [
    pytest.param(["verify-oracle", "appendix-a", "--k", "64", "--l", "6", "--runs", "300"], 0,
                 "b55c3e6f709e064981dd673841b3fe642b4076d19d97c9a3c6a3aaaf41d1c8b6",
                 id="appendix-a-64-6"),
    pytest.param(["verify-oracle", "appendix-a", "--k", "8", "--l", "3", "--runs", "40",
                  "--seed", "3", "--budget", "30"], 2,
                 "953b5efe32d4f271b3f1de00dae2ab0e48bca8dc8713fc2528feca228d7930e8",
                 id="appendix-a-budget"),
]


@pytest.mark.parametrize("argv, exit_code, digest", PINNED_STREAK_RUNS)
def test_streak_output_is_pinned(argv, exit_code, digest, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# fuzz: every input ends in an exit code, never in a traceback


#: Values a hand-written file may hold where something else was expected.
JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 3), st.floats(-1, 2),
                 st.text(max_size=3), st.lists(st.integers(-1, 3), max_size=3),
                 st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2))
NUMBER = st.one_of(st.floats(-0.5, 1.5),
                   st.sampled_from(["1/2", "1/3", "0.2", "2/0", "x", math.inf, -math.inf]), JUNK)
COLOR = st.one_of(st.integers(-3, 3), st.sampled_from([2**63, -(2**64), 2**70]))


def maybe(values):
    return st.one_of(values, JUNK)


def full_colorings():
    def colors(n):
        m = n * (n - 1) // 2
        return st.lists(COLOR, min_size=m, max_size=m).map(lambda cs: {
            "n": n,
            "colors": [[u, v, c] for (u, v), c in zip(
                [(u, v) for u in range(n) for v in range(u + 1, n)], cs)],
        })
    return st.integers(1, 6).flatmap(colors)


GRAPHS = st.fixed_dictionaries({
    "n": maybe(st.integers(-1, 4)),
    "edges": maybe(st.lists(st.lists(maybe(st.integers(-1, 4)), max_size=3), max_size=4)),
})
GENERATORS = maybe(st.fixed_dictionaries({
    "n": maybe(st.integers(-1, 8)),
    "multiplicity": maybe(st.integers(-1, 5)),
    "seed": maybe(st.integers(0, 3)),
}))
PARAMS = maybe(st.fixed_dictionaries({
    "kind": st.sampled_from(["gll", "cll", "shearer", "lll"]),
}, optional={
    "x": maybe(st.lists(NUMBER, max_size=5)),
    "y": maybe(st.lists(NUMBER, max_size=5)),
    "epsilon": maybe(st.floats(-1, 1)),
}))


@st.composite
def rare_event_spaces(draw):
    """Valid explicit spaces whose states, and so events, weigh as little as 1e-12."""
    masses = [Fraction(1, 10**draw(st.sampled_from([1, 2, 3, 9, 12])))
              for _ in range(draw(st.integers(1, 4)))]
    prob = [str(m) for m in masses] + [str(1 - sum(masses))]
    n = draw(st.integers(1, 3))
    events = [draw(st.lists(st.integers(0, len(prob) - 1), min_size=1, max_size=2, unique=True))
              for _ in range(n)]
    edges = [[i, j] for i in range(n) for j in range(i + 1, n)] if draw(st.booleans()) else []
    return {"states": len(prob), "prob": prob, "events": events,
            "graph": {"n": n, "edges": edges}}


@st.composite
def instances(draw):
    """Instance objects of every kind, each field valid or junk."""
    kind = draw(st.sampled_from(["custom-graph", "explicit-space", "latin",
                                 "rainbow-matching", "rainbow-tree", "other", [], {}, 1]))
    obj = {"kind": kind}
    if kind == "custom-graph":
        obj["graph"] = draw(maybe(GRAPHS))
        obj["p"] = draw(maybe(st.lists(NUMBER, max_size=5)))
    elif kind == "explicit-space":
        obj["space"] = draw(st.one_of(rare_event_spaces(), maybe(st.fixed_dictionaries({
            "states": maybe(st.integers(-1, 6)),
            "prob": maybe(st.lists(NUMBER, max_size=6)),
            "events": maybe(st.lists(maybe(st.lists(st.integers(-1, 6), max_size=4)),
                                     max_size=3)),
            "graph": maybe(GRAPHS),
        }))))
    elif kind == "latin":
        obj["t"] = draw(maybe(st.integers(-1, 3)))
        if draw(st.booleans()):
            obj["matrix"] = draw(maybe(st.lists(maybe(st.lists(COLOR, max_size=4)),
                                                max_size=4)))
        else:
            obj["generator"] = draw(GENERATORS)
    elif kind in ("rainbow-matching", "rainbow-tree"):
        if kind == "rainbow-tree":
            obj["t"] = draw(maybe(st.integers(-1, 3)))
        if draw(st.booleans()):
            obj["coloring"] = draw(maybe(full_colorings()))
        else:
            obj["generator"] = draw(GENERATORS)
    if draw(st.booleans()):
        obj["params"] = draw(PARAMS)
    return obj


#: Contents of a --matrix or --coloring file that hold no colours.
JUNK_COLOUR_FILES = st.sampled_from([{}, [], {"matrix": 5}])


@st.composite
def flag_argvs(draw):
    """(argv, files): subcommand flags from small, zero and negative values,
    and the contents of the junk colour files to pass by flag; slow defaults
    (samples, trials, runs, budget) are always given."""
    command = draw(st.sampled_from(["latin", "rainbow-matching", "rainbow-tree",
                                    "verify-oracle"]))
    argv = [command]
    files = {}
    if command == "verify-oracle":
        argv.append(draw(st.sampled_from(["variable", "permutation", "matching", "tree",
                                          "synthesized", "appendix-a"])))
        optional = {"--size": st.integers(-3, 6), "--event": st.integers(-2, 4),
                    "--k": st.integers(-1, 4), "--l": st.integers(-1, 3)}
        for name, values in (("--samples", st.integers(-1, 30)),
                             ("--trials", st.integers(-1, 30)), ("--runs", st.integers(-1, 4))):
            argv += [name, str(draw(values))]
    else:
        optional = {"--n": st.integers(-2, 9), "--multiplicity": st.integers(-1, 100),
                    "--jobs": st.integers(-1, 3), "--instance-seed": st.integers(0, 3)}
        if command != "rainbow-matching":
            optional["--t"] = st.integers(-1, 3)
        if draw(st.booleans()):
            files["--matrix" if command == "latin" else "--coloring"] = draw(JUNK_COLOUR_FILES)
    optional.update({"--seed": st.integers(0, 3), "--format": st.sampled_from(["json", "text"])})
    for name, values in optional.items():
        if draw(st.booleans()):
            argv += [name, str(draw(values))]
    return argv + ["--budget", str(draw(st.integers(-1, 300)))], files


def exit_code(argv):
    """main's exit code, with output discarded; any other exception escapes."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@settings(max_examples=150, deadline=None)
@given(flag_argvs())
def test_fuzzed_flags_end_in_an_exit_code(flags):
    argv, files = flags
    with tempfile.TemporaryDirectory() as tmp:
        for name, contents in files.items():
            argv += [name, write_instance(Path(tmp), contents, "colours.json")]
        assert exit_code(argv) in (0, 1, 2, 3)


@settings(max_examples=150, deadline=None)
@given(instances(), st.sampled_from([
    ["criteria", "FILE"], ["criteria", "FILE", "--exact"],
    ["run", "FILE", "--budget", "40"], ["run", "FILE", "--budget", "40", "--jobs", "2"],
    ["verify-oracle", "synthesized", "--instance", "FILE", "--samples", "10", "--trials", "10"],
]))
def test_fuzzed_instances_end_in_an_exit_code(obj, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_instance(Path(tmp), obj)
        assert exit_code([path if arg == "FILE" else arg for arg in command]) in (0, 1, 2, 3)


def _space_file(**fields):
    space = {"states": 2, "prob": ["1/2", "1/2"], "events": [[0]], "graph": {"n": 1, "edges": []}}
    return {"kind": "explicit-space", "space": {**space, **fields}}


def _graph_file(**fields):
    return {"kind": "custom-graph", "graph": {"n": 1, "edges": []}, "p": ["1/2"], **fields}


#: Instance files whose reading once ended in a traceback (or, for
#: params-x-one, params-y-zero and the integer reads from t-float on, in a
#: run that exited 0 or spent its budget), as (id, JSON text). Infinity
#: and 1e400 both read as math.inf; 10**400 is an int that no float holds.
BAD_FILES = [
    ("prob-zero-denominator", json.dumps(_space_file(prob=["1/0", "1/2"]))),
    ("p-infinite", json.dumps(_graph_file(p=[math.inf]))),
    ("p-past-float", json.dumps(_graph_file(p=[10**400]))),
    ("params-y-infinite", json.dumps({**_space_file(), "params": {"kind": "cll", "y": [math.inf]}})),
    ("prob-infinite", json.dumps(_space_file(prob=[math.inf, "1/2"])).replace("Infinity", "1e400")),
    ("generator-n-infinite", json.dumps(
        {"kind": "rainbow-matching", "generator": {"n": math.inf, "multiplicity": 1}})),
    ("t-infinite", json.dumps(
        {"kind": "latin", "t": math.inf, "generator": {"n": 4, "multiplicity": 1}})),
    ("states-infinite", json.dumps(_space_file(states=math.inf)).replace("Infinity", "1e400")),
    ("graph-n-infinite", json.dumps(_graph_file(graph={"n": math.inf, "edges": []}))),
    ("colour-infinite", json.dumps({"kind": "latin", "t": 1, "matrix": [[0, 1], [2, 1e400]]})),
    ("kind-list", json.dumps({"kind": []})),
    ("kind-object", json.dumps({"kind": {}})),
    ("nested-100000-deep", "[" * 100_000 + "]" * 100_000),
    ("params-x-one", json.dumps({**_space_file(), "params": {"kind": "gll", "x": [1]}})),
    ("params-epsilon-nan", json.dumps(
        {**_space_file(), "params": {"kind": "cll", "y": [1], "epsilon": "nan"}})),
    ("params-y-zero", json.dumps({**_space_file(), "params": {"kind": "cll", "y": [0]}})),
    *((f"t-{name}", json.dumps(
        {"kind": "latin", "t": t, "generator": {"n": 6, "multiplicity": 1, "seed": 1}}))
      for name, t in (("float", 2.7), ("bool", True), ("string", "2"))),
    ("generator-seed-float", json.dumps(
        {"kind": "rainbow-matching", "generator": {"n": 4, "multiplicity": 1, "seed": 1.5}})),
    ("edge-end-float", json.dumps(
        _graph_file(graph={"n": 2, "edges": [[0, 1.5]]}, p=["1/2", "1/2"]))),
    ("graph-n-string", json.dumps(_graph_file(graph={"n": "1", "edges": []}))),
    ("states-float", json.dumps(_space_file(states=2.0))),
    ("event-state-bool", json.dumps(_space_file(events=[[True]]))),
    ("params-epsilon-bool", json.dumps(
        {**_space_file(), "params": {"kind": "cll", "y": [1], "epsilon": True}})),
    ("colour-float", json.dumps({"kind": "latin", "t": 1, "matrix": [[0, 1.5], [1.7, 0]]})),
    ("coloring-colour-float", json.dumps(
        {"kind": "rainbow-matching", "coloring": {"n": 2, "colors": [[0, 1, 0.5]]}})),
]


def _bad_file_runs():
    """Each bad file under every command its kind allows; FILE is its path."""
    for name, text in BAD_FILES:
        commands = [["criteria", "FILE"]]
        if '"custom-graph"' not in text:
            commands.append(["run", "FILE", "--budget", "10"])
        if '"explicit-space"' in text:
            commands.append(["verify-oracle", "synthesized", "--samples", "10",
                             "--trials", "10", "--instance", "FILE"])
        for command in commands:
            yield pytest.param(text, command, id=f"{name}-{command[0]}")


@pytest.mark.parametrize("text, command", _bad_file_runs())
def test_bad_file_values_exit_with_one_input_error_line(text, command, tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(text)
    code, out, err = run_cli([str(path) if a == "FILE" else a for a in command], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1


#: A path of three events inside Shearer's region.
SHEARER_PATH = {"kind": "custom-graph", "graph": {"n": 3, "edges": [[0, 1], [1, 2]]},
                "p": ["0.1", "0.2", "0.2"]}


def test_criteria_reports_the_shearer_bound_at_the_claimed_slack(tmp_path, capsys):
    bounds = {}
    for epsilon in (None, 0.1):
        obj = SHEARER_PATH if epsilon is None else {
            **SHEARER_PATH, "params": {"kind": "shearer", "epsilon": epsilon}}
        code, out, _ = run_cli(["criteria", write_instance(tmp_path, obj)], capsys)
        assert code == 0
        bounds[epsilon] = json.loads(out)["predicted_bounds"]["shearer"]["t=1"]
    # (2 / eps) * (ln 1/q0' + 1), q0' the table's q0 at 1.1 p
    q0 = 1 - 0.11 - 0.22 - 0.22 + 0.11 * 0.22
    assert bounds[0.1] == pytest.approx(2 / 0.1 * (math.log(1 / q0) + 1), rel=1e-12)
    assert round(bounds[0.1], 2) == 34.92 and round(bounds[None], 2) == 9.79


@pytest.mark.parametrize("epsilon", [50, 2], ids=["p-past-one", "leaves-region"])
def test_a_shearer_slack_the_instance_lacks_is_an_input_error(epsilon, tmp_path, capsys):
    # at 1 + 50 every p passes 1; at 3p the path has q0 < 0
    obj = {**SHEARER_PATH, "params": {"kind": "shearer", "epsilon": epsilon}}
    code, out, err = run_cli(["criteria", write_instance(tmp_path, obj)], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: claimed slack ") and err.count("\n") == 1


@pytest.mark.parametrize("obj", [
    pytest.param(_space_file(states=4, prob=["1/2", False, "1/4", "1/4"]), id="space-prob"),
    pytest.param(_graph_file(p=[False]), id="graph-p"),
    pytest.param({**_space_file(), "params": {"kind": "cll", "y": [True]}}, id="params-y"),
])
def test_a_boolean_probability_is_refused(obj, tmp_path, capsys):
    # the schema's "number" excludes booleans, and every reader agrees
    path = write_instance(tmp_path, obj)
    code, out, err = run_cli(["criteria", path], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: bad ") and err.endswith(
        ": expected a number or a string, got bool\n")
    if obj["kind"] == "explicit-space":
        assert run_cli(["run", path], capsys)[0] == 3


@pytest.mark.parametrize("command", [["criteria"], ["run", "--budget", "10"]])
def test_tail_bounds_that_are_not_finite_are_refused(command, tmp_path, capsys):
    # (t + ln 1/(1 - x)) / epsilon overflows at the least positive epsilon
    path = write_instance(tmp_path, {
        **_space_file(), "params": {"kind": "gll", "x": [0.9], "epsilon": 5e-324}})
    code, out, err = run_cli([command[0], path, *command[1:]], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "epsilon" in err


@pytest.mark.parametrize("obj, command", [
    pytest.param({"kind": "custom-graph", "graph": {"n": 10**8, "edges": []}, "p": []},
                 "criteria", id="custom-graph-criteria"),
    *(pytest.param(_space_file(graph={"n": 10**8, "edges": []}), command,
                   id=f"explicit-space-{command}") for command in ("criteria", "run")),
])
def test_event_count_is_checked_before_the_graph_is_built(obj, command, tmp_path, capsys):
    # a graph of 10^8 vertex sets would take about 22 GB
    path = write_instance(tmp_path, obj)
    start = time.perf_counter()
    code, out, err = run_cli([command, path], capsys)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1


#: (function, exception) of every except clause in cli.py: the reading
#: boundary, the open of a file, and main's report of an input error or
#: of a spent rejection budget.
CLI_EXCEPTS = {
    *(("_reading", name) for name in ("KeyError", "TypeError", "ValueError",
                                      "AttributeError", "ArithmeticError", "RecursionError")),
    ("_load_json", "OSError"),
    ("main", "InputError"), ("main", "ValueError"), ("main", "MemoryError"),
    ("main", "RejectionBudgetError"),
}


def except_clauses(node, function=None):
    """(enclosing function, exception name) of each except clause under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ExceptHandler):
            types = (child.type.elts if isinstance(child.type, ast.Tuple)
                     else [child.type])
            for t in types:
                yield function, "bare" if t is None else ast.unparse(t)
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from except_clauses(child, inner)


def test_input_errors_are_decided_at_one_boundary():
    clauses = set(except_clauses(ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))))
    assert clauses - CLI_EXCEPTS == set()
    # and the allowlist names no clause the CLI no longer has
    assert CLI_EXCEPTS - clauses == set()
