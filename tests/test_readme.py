"""The README's examples run as written: each Python block in a fresh
interpreter, and the explicit-space instance through the CLI."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced_blocks(language):
    """The bodies of the README's ```language fenced blocks, in order."""
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```$", text, re.M | re.S)


PYTHON_BLOCKS = fenced_blocks("python")


def test_the_readme_has_python_examples():
    assert len(PYTHON_BLOCKS) >= 2


@pytest.mark.parametrize("source", PYTHON_BLOCKS,
                         ids=[f"block-{k}" for k in range(len(PYTHON_BLOCKS))])
def test_python_example_runs_in_a_fresh_interpreter(source):
    result = subprocess.run([sys.executable, "-c", source], capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("command", ["criteria", "run"])
def test_explicit_space_example_runs(command, tmp_path):
    [instance] = [block for block in fenced_blocks("json") if '"explicit-space"' in block]
    path = tmp_path / "instance.json"
    path.write_text(instance, encoding="utf-8")
    result = subprocess.run([sys.executable, "-m", "locallemma.cli", command, str(path)],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("{")
