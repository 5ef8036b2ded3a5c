"""The package's public names: ``__all__`` and what ``__init__`` binds
agree, the optional bundle hooks the package probes for, the occurrence
scan every bundle has, and the places where the package dispatches on a
value's type."""

import ast
import types
from pathlib import Path

import locallemma


def test_all_names_resolve_once():
    names = locallemma.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(locallemma, name)]
    assert missing == []


def test_every_public_binding_is_exported():
    bound = {name for name, value in vars(locallemma).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert bound == set(locallemma.__all__)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from locallemma import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(locallemma.__all__)
    assert all(namespace[name] is getattr(locallemma, name) for name in namespace)


def test_the_optional_bundle_hooks_are_the_known_ones():
    # every getattr(bundle, "<name>", ...) in the package names one
    # optional hook; a new one widens what every bundle may be asked for
    probed = set()
    for path in Path(locallemma.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "getattr" and len(node.args) == 3
                    and isinstance(node.args[0], ast.Name) and node.args[0].id == "bundle"):
                probed.add(ast.literal_eval(node.args[1]))
    assert probed == {"valid_state", "kernels", "exact_distribution"}


def _isinstance_scopes(node, scope, found):
    """Add the dotted name of the def or class around every isinstance
    call under node to found."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            _isinstance_scopes(child, f"{scope}.{child.name}", found)
            continue
        if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                and child.func.id == "isinstance"):
            found.add(scope)
        _isinstance_scopes(child, scope, found)


def test_type_dispatch_is_in_the_known_places():
    # a value has one form, so the package tests types only where it reads
    # input or walks JSON, where a sum takes its closed form, where a table
    # turns to Fractions, and where synthesis tells a kernel from a Hall
    # certificate; a new isinstance widens the forms a value may take
    found = set()
    for path in Path(locallemma.__file__).parent.glob("*.py"):
        _isinstance_scopes(ast.parse(path.read_text()), path.stem, found)
    assert found == {
        "cli._json_parts", "cli._text_lines",
        "cli._load_json", "cli._parse_params", "cli._space_from_json", "cli.cmd_criteria",
        "graphs.read_int", "synth.parse_probability",
        "polynomials._sum_of", "polynomials.build_table", "streams.repeated_sum",
        "synth.ExplicitBundle.__init__",
    }


def test_the_occurrence_hook_takes_the_state_alone():
    # every bundle's scan reads the whole state, and the engine passes it
    # nothing else
    package = Path(locallemma.__file__).parent
    signatures = []
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name == "occurring":
                args = node.args
                signatures.append((path.name, [a.arg for a in args.posonlyargs + args.args],
                                   args.vararg, args.kwonlyargs, args.kwarg))
    assert len(signatures) >= 2
    assert all(sig[1:] == (["self", "state"], None, [], None) for sig in signatures), signatures
    calls = [node for node in ast.walk(ast.parse((package / "engine.py").read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "occurring"]
    assert calls and all(len(c.args) == 1 and not c.keywords for c in calls)
    # the scan is the engine's one candidate source: it probes for no hook
    # and never walks all the events
    engine = ast.walk(ast.parse((package / "engine.py").read_text()))
    assert not [node for node in engine
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "getattr")
                or (isinstance(node, ast.Attribute) and node.attr == "n"
                    and isinstance(node.value, ast.Name) and node.value.id == "bundle")]
    # so every bundle class with an oracle has a scan
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                methods = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
                if "resample" in methods:
                    assert "occurring" in methods, (path.name, node.name)
