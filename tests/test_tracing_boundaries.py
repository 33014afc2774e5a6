"""Every attribute that the traced benchmark run wraps must exist.

``perfbench/tracing.py`` swaps the names in its ``BOUNDARIES`` table for
timing wrappers.  A rename in the package would only surface as a crash of a
traced benchmark run; this test reads the table and resolves each entry the
same way ``Tracer.install`` does.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


@pytest.mark.parametrize("mod_name, attr, span", _boundaries(), ids=lambda v: str(v))
def test_boundary_resolves(mod_name, attr, span):
    owner = importlib.import_module(mod_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    # methods are wrapped in the class that defines them, not an inherited copy
    target = owner.__dict__.get(leaf) if isinstance(owner, type) else getattr(owner, leaf, None)
    assert callable(target), f"{mod_name}.{attr} (span {span}) does not resolve"
