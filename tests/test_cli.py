"""End-to-end command-line checks: exit codes, output shapes, determinism."""

import json
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import pytest

from locallemma.apps import distinct_color_matrix, rainbow_edge_coloring
from locallemma.cli import main

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def load_schemas():
    store = {}
    for path in SCHEMA_DIR.glob("*.json"):
        schema = json.loads(path.read_text())
        store[schema["$id"]] = schema
    return store


SCHEMAS = load_schemas()


def schema_check(obj, schema_id):
    schema = SCHEMAS[schema_id]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        resolver = jsonschema.RefResolver(
            base_uri=schema_id, referrer=schema, store=SCHEMAS
        )
        jsonschema.Draft7Validator(schema, resolver=resolver).validate(obj)


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


def test_console_entry_point_determinism(tmp_path):
    path = write_instance(tmp_path, three_bit_instance())
    cmd = [sys.executable, "-m", "locallemma.cli", "run", path, "--seed", "3"]
    first = subprocess.run(cmd, capture_output=True, timeout=120)
    second = subprocess.run(cmd, capture_output=True, timeout=120)
    assert first.returncode == 0
    assert first.stdout == second.stdout
