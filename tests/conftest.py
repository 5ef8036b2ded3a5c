import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

# pytest's `pythonpath` setting reaches this interpreter only; the CLI
# tests that start `python -m locallemma.cli` need src on PYTHONPATH.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
