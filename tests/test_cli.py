"""End-to-end command-line checks: exit codes, output shapes, determinism."""

import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st
from referencing import Registry, Resource
from referencing.jsonschema import DRAFT7

from locallemma.apps import distinct_color_matrix, rainbow_edge_coloring
from locallemma.cli import _parse_params, main
from locallemma.verify import derive_seed

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


@pytest.mark.parametrize("argv", [
    pytest.param(["verify-oracle", "permutation", "--size", "-3"], id="negative-size"),
    pytest.param(["verify-oracle", "appendix-a", "--k", "2", "--l", "1", "--runs", "0"],
                 id="no-streak-runs"),
    pytest.param(["verify-oracle", "permutation", "--samples", "0", "--trials", "0"],
                 id="no-samples"),
    pytest.param(["latin", "--n", "0", "--multiplicity", "1", "--t", "1"], id="latin-n0"),
    pytest.param(["latin", "--n", "1", "--multiplicity", "1", "--t", "2"], id="latin-n1"),
])
def test_degenerate_sizes_exit_with_input_error(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")


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
    # scipy.stats alone takes most of a second to import; the R1 threshold
    # comes from scipy.special instead
    cmd = [sys.executable, "-c",
           "import locallemma.cli, sys; print('scipy.stats' in sys.modules)"]
    result = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


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
NUMBER = st.one_of(st.floats(-0.5, 1.5), st.sampled_from(["1/2", "1/3", "0.2", "2/0", "x"]),
                   JUNK)
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
def instances(draw):
    """Instance objects of every kind, each field valid or junk."""
    kind = draw(st.sampled_from(["custom-graph", "explicit-space", "latin",
                                 "rainbow-matching", "rainbow-tree", "other"]))
    obj = {"kind": kind}
    if kind == "custom-graph":
        obj["graph"] = draw(maybe(GRAPHS))
        obj["p"] = draw(maybe(st.lists(NUMBER, max_size=5)))
    elif kind == "explicit-space":
        obj["space"] = draw(maybe(st.fixed_dictionaries({
            "states": maybe(st.integers(-1, 6)),
            "prob": maybe(st.lists(NUMBER, max_size=6)),
            "events": maybe(st.lists(maybe(st.lists(st.integers(-1, 6), max_size=4)),
                                     max_size=3)),
            "graph": maybe(GRAPHS),
        })))
    elif kind == "latin":
        obj["t"] = draw(maybe(st.integers(-1, 3)))
        if draw(st.booleans()):
            obj["matrix"] = draw(maybe(st.lists(maybe(st.lists(COLOR, max_size=4)),
                                                max_size=4)))
        else:
            obj["generator"] = draw(GENERATORS)
    elif kind.startswith("rainbow"):
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
        optional = {"--n": st.integers(-2, 9), "--multiplicity": st.integers(-1, 6),
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
@given(instances(), st.sampled_from([["criteria"], ["criteria", "--exact"],
                                     ["run", "--budget", "40"],
                                     ["run", "--budget", "40", "--jobs", "2"]]))
def test_fuzzed_instances_end_in_an_exit_code(obj, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_instance(Path(tmp), obj)
        assert exit_code([command[0], path, *command[1:]]) in (0, 1, 2, 3)
