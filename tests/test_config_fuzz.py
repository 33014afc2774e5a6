"""Mutated configs through ``lre validate``: every one ends in a documented
exit code, and a configuration error names a ``$.`` path.

Each example takes one valid config of each model type (preset, rate,
walk, tripartite, correlations) and applies one to three mutations: a leaf
or subtree replaced by a value from ``REPLACEMENTS``, or a key or list item
deleted.  A refusal prints no numpy warning: entries above ~1e154 overflow
on the way to one.
"""

import contextlib
import io
import json
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindbladrate.cli import main

_SIGMA_Z = [[1, 0], [0, -1]]
_GRID = {"stop": 5.0, "count": 3}
_PLUS_X = [[0.5, 0.5], [0.5, 0.5]]


def _config(model: dict) -> dict:
    return {"model": model, "grid": _GRID, "initial_state": _PLUS_X}


SEEDS = {
    "preset": _config({"type": "preset", "name": "fig2"}),
    "rate": _config(
        {
            "type": "rate",
            "basis": [_SIGMA_Z],
            "weights": [0.5, 0.5],
            "diagonal_blocks": [[[0.1]], [[0.2]]],
            "offdiagonal_blocks": [{"to": 1, "from": 0, "block": [[0.05]]}],
            "hamiltonians": [[[1, 0], [0, -1]], [[0, [0, 1]], [[0, -1], 0]]],
            "system_hamiltonian": [[0.5, 0], [0, -0.5]],
        }
    ),
    # the fig2 preset written out as a walk
    "walk": _config(
        {
            "type": "walk",
            "basis": [_SIGMA_Z],
            "hamiltonian": [[0, 0], [0, 0]],
            "channel_dissipators": [[[0.0]], [[0.0]]],
            "hop_rates": [[0.0, 1.0], [0.1, 0.0]],
            "jump_kraus": [[_SIGMA_Z], [_SIGMA_Z]],
            "weights": [0.1, 0.9],
        }
    ),
    "tripartite": _config(
        {
            "type": "tripartite",
            "basis": [_SIGMA_Z],
            "channels": 2,
            "b": [
                {"u": [0, 0], "v": [0, 0], "block": [[0.1]]},
                {"u": [1, 0], "v": [1, 0], "block": [[0.3]]},
            ],
            "weights": [0.5, 0.5],
        }
    ),
    # exp(-5 tau) has decayed to 2e-9 of its peak at tau = 4
    "correlations": _config(
        {
            "type": "correlations",
            "basis": [_SIGMA_Z],
            "tau": [0.0, 1.0, 2.0, 3.0, 4.0],
            "chi": [[[[[1.0]], [[6.7e-3]], [[4.5e-5]], [[3.1e-7]], [[2.1e-9]]]]],
            "system_hamiltonian": [[0.5, 0], [0, -0.5]],
            "weights": [1.0],
            "quadrature": "trapezoid",
        }
    ),
}
REPLACEMENTS = [None, 1e308, -1e308, 10**30, True, False, "abc", -1.0, [], [[1, 0], [0]]]


_DELETE = object()


def _slots(node) -> list:
    """Every ``(container, key)`` below ``node``, depth first."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    out = []
    for key in keys:
        out.append((node, key))
        if isinstance(node[key], (dict, list)):
            out += _slots(node[key])
    return out


@st.composite
def mutated_configs(draw) -> dict:
    config = json.loads(json.dumps(SEEDS[draw(st.sampled_from(sorted(SEEDS)))]))  # no shared sublists
    for _ in range(draw(st.integers(1, 2))):
        parent, key = draw(st.sampled_from(_slots(config)))
        value = draw(st.sampled_from([_DELETE, *REPLACEMENTS]))
        if value is _DELETE:
            del parent[key]
        else:
            parent[key] = json.loads(json.dumps(value))
    return config


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("name", sorted(SEEDS))
def test_seed_configs_pass_validate(fuzz_dir, capsys, name):
    path = fuzz_dir / f"{name}.json"
    path.write_text(json.dumps(SEEDS[name]))
    assert main(["validate", "--config", str(path)]) == 0, capsys.readouterr().err


def validate_stderr(path) -> tuple[int, str]:
    """``lre validate``'s exit code and stderr, warnings included as Python prints them."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["validate", "--config", str(path)])
    shown = (warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught)
    return code, err.getvalue() + "".join(shown)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(config=mutated_configs())
def test_mutated_configs_exit_0_1_or_2(fuzz_dir, config):
    path = fuzz_dir / "run.json"
    path.write_text(json.dumps(config))
    code, err = validate_stderr(path)
    assert code in (0, 1, 2), err
    assert "RuntimeWarning" not in err, err
    if code == 1:
        assert re.match(r"configuration error: \$\.", err), err
