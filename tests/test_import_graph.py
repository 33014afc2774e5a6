"""The package's import graph stays one-way: engines never load the I/O layers.

Read statically from the ``ast`` of each module under ``src/lindbladrate``,
so no import runs.  ``lindbladrate.qubit`` (which ``perfbench/run.py``
imports before it measures) loads the package ``__init__`` and every engine
module; an edge from one of them to ``config``, ``output`` or ``cli`` makes
each process load the parsers and the CSV writer, and shows in its peak
memory.  ``config`` only parses input, so it never needs ``output``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lindbladrate"
ENGINES = ("__init__", "linalg", "model", "solver", "stochastic", "_kernels", "_rng", "qubit")
IO_LAYERS = {"config", "output", "cli"}


def _imports(path: Path) -> set[str]:
    """The ``lindbladrate`` modules that ``path`` imports anywhere in its body."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names if alias.name.startswith("lindbladrate.")]
        elif isinstance(node, ast.ImportFrom) and node.level == 1:  # from . / from .x
            names = [node.module] if node.module else [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("lindbladrate"):
            names = [node.module] if node.module != "lindbladrate" else [alias.name for alias in node.names]
        else:
            continue
        found.update(name.removeprefix("lindbladrate.").split(".")[0] for name in names)
    return found


GRAPH = {path.stem: _imports(path) for path in PACKAGE.glob("*.py")}


def test_graph_sees_the_known_edges():
    # the reader is not vacuous: these edges exist today
    assert {"output", "config", "solver"} <= GRAPH["cli"]
    assert {"linalg", "solver"} <= GRAPH["output"]
    assert {"_kernels", "model"} <= GRAPH["stochastic"]
    assert set(ENGINES) | IO_LAYERS <= set(GRAPH)


@pytest.mark.parametrize("module", ENGINES)
def test_engine_imports_no_io_layer(module):
    assert not GRAPH[module] & IO_LAYERS


def test_config_does_not_import_output():
    assert "output" not in GRAPH["config"]
