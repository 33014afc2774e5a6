import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import lindbladrate
from lindbladrate import cli, solver
from lindbladrate.cli import main
from lindbladrate.config import (
    ConfigError,
    ModelSource,
    OutputTable,
    _csv_chunk,
    _decimal,
    _matrix,
    emit_csv,
    parse_config,
)
from lindbladrate.solver import _BLOCK_ROWS

from test_output_bytes import _RATE33, _STATE3

BASE_CONFIG = {
    "model": {"type": "preset", "name": "fig2"},
    "grid": {"stop": 10.0, "count": 41, "spacing": "linear"},
}


def write_config(tmp_path, payload, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(x) for x in line.split(",")] for line in fh if line.strip()]
    return header, np.array(rows)


class TestParseConfig:
    def test_readme_config_example_parses(self):
        # the documented example must not advertise a field the parser refuses
        readme = Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text(encoding="utf-8").split("### Config format", 1)[1]
        example = section.split("```json\n", 1)[1].split("```", 1)[0]
        config = parse_config(example)
        assert config.model.preset_name() == "fig2"
        assert config.trajectories == 50000 and config.seed == 7

    def test_preset_with_grid(self):
        config = parse_config(json.dumps(BASE_CONFIG))
        assert config.model.preset_name() == "fig2"
        assert config.grid[0] == 0.0 and config.grid[-1] == 10.0

    @pytest.mark.parametrize(
        "state",
        [[[1.5, 0], [0, -0.5]], [[0.5, 1], [0, 0.5]], [[1, 0, 0], [0, 0, 0]], [[0.6, 0], [0, 0.6]]],
        ids=["negative-eigenvalue", "non-hermitian", "non-square", "trace"],
    )
    def test_initial_state_not_a_density_rejected_with_path(self, state):
        with pytest.raises(ConfigError, match=r"\$\.initial_state"):
            parse_config(json.dumps(dict(BASE_CONFIG, initial_state=state)))

    def test_weights_not_normalized_rejected_with_path(self):
        payload = {
            "model": {
                "type": "rate",
                "basis": [[[1, 0], [0, -1]]],
                "weights": [0.5, 0.6],
                "diagonal_blocks": [[[0.1]], [[0.2]]],
            },
            "grid": {"stop": 1.0, "count": 3},
        }
        with pytest.raises(ConfigError, match=r"\$\.model"):
            parse_config(json.dumps(payload))

    def test_missing_seed_for_stochastic_rejected(self):
        payload = dict(BASE_CONFIG, engine="stochastic", trajectories=100)
        with pytest.raises(ConfigError, match=r"\$\.seed"):
            parse_config(json.dumps(payload))

    def test_missing_trajectories_rejected(self):
        payload = dict(BASE_CONFIG, engine="stochastic", seed=1)
        with pytest.raises(ConfigError, match=r"\$\.trajectories"):
            parse_config(json.dumps(payload))

    @pytest.mark.parametrize("field, value", [("trajectories", "abc"), ("trajectories", 0), ("seed", "x")])
    def test_stochastic_fields_checked_without_engine(self, field, value):
        payload = dict(BASE_CONFIG, **{field: value})
        with pytest.raises(ConfigError, match=rf"\$\.{field}"):
            parse_config(json.dumps(payload))

    @pytest.mark.parametrize("seed", [-3, 2**64, 2**64 + 5, True, 1.5])
    def test_seed_outside_stream_range_rejected(self, seed):
        payload = dict(BASE_CONFIG, engine="stochastic", trajectories=10, seed=seed)
        with pytest.raises(ConfigError, match=r"\$\.seed"):
            parse_config(json.dumps(payload))

    def test_seed_range_edges_accepted(self):
        for seed in (0, 2**64 - 1):
            payload = dict(BASE_CONFIG, engine="stochastic", trajectories=10, seed=seed)
            assert parse_config(json.dumps(payload)).seed == seed

    def test_syntax_error_carries_location(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("{not json")

    def test_complex_entries(self):
        payload = dict(BASE_CONFIG, initial_state=[[0.5, [0.25, 0.25]], [[0.25, -0.25], 0.5]])
        config = parse_config(json.dumps(payload))
        assert config.initial_state[0, 1] == 0.25 + 0.25j

    def test_log_grid(self):
        payload = dict(BASE_CONFIG, grid={"stop": 10.0, "count": 6, "spacing": "log"})
        grid = parse_config(json.dumps(payload)).grid
        assert grid[0] == 0.0
        assert np.all(np.diff(grid) > 0)
        assert grid[-1] == pytest.approx(10.0)

    def test_bad_spacing_named(self):
        payload = dict(BASE_CONFIG, grid={"stop": 1.0, "count": 3, "spacing": "cubic"})
        with pytest.raises(ConfigError, match=r"\$\.grid\.spacing"):
            parse_config(json.dumps(payload))


def _matrix_per_entry(value, path):
    """Reference parse, one entry at a time: bare numbers are real, [re, im]
    pairs complex; the first bad entry or ragged row is named."""
    if not isinstance(value, list) or not value or not all(isinstance(row, list) for row in value):
        raise ConfigError(path, "expected a matrix as a list of rows")
    rows = []
    for i, row in enumerate(value):
        entries = []
        for j, x in enumerate(row):
            if isinstance(x, (int, float)):
                entries.append(complex(x))
            elif isinstance(x, list) and len(x) == 2 and all(isinstance(y, (int, float)) for y in x):
                entries.append(complex(x[0], x[1]))
            else:
                raise ConfigError(f"{path}[{i}][{j}]", f"expected a number or [re, im] pair, got {x!r}")
        if rows and len(entries) != len(rows[0]):
            raise ConfigError(f"{path}[{i}]", "ragged matrix rows")
        rows.append(entries)
    return np.array(rows, dtype=complex)


def _same_bits(a, b):
    return (
        a.shape == b.shape
        and a.dtype == b.dtype
        and np.array_equal(a, b)
        and np.array_equal(np.signbit(a.real), np.signbit(b.real))
        and np.array_equal(np.signbit(a.imag), np.signbit(b.imag))
    )


class TestMatrixParse:
    VALID = {
        "real": [[0.5, -0.0], [0.0, 0.5]],
        "ints": [[1, -2], [3, 0]],
        "bools": [[True, False], [False, True]],
        "pairs": [[[0.5, -0.0], [-0.0, 0.25]], [[0.1, 1e-300], [-1e300, -0.0]]],
        "int-pairs": [[[1, 0], [0, -1]], [[2, 3], [4, 5]]],
        "uint64-range": [[2**63 + 1025, 2**64 - 1], [-(2**63), 7]],
        "int-and-float": [[1, 2.5], [-0.0, 3]],
        "single-row": [[[1.0, 2.0], [3.0, 4.0]]],
        "one-entry": [[-0.0]],
    }

    @pytest.mark.parametrize("name", sorted(VALID))
    def test_valid_matrix_bits_match_per_entry_parse(self, name):
        value = self.VALID[name]
        assert _same_bits(_matrix(value, "$.m"), _matrix_per_entry(value, "$.m"))

    IRREGULAR = {
        "string": [[1.0, "x"], [0.0, 1.0]],
        "numeric-string": [["1.5", 0.0], [0.0, 1.0]],
        "none": [[1.0, None], [0.0, 1.0]],
        "ragged": [[1.0, 0.0], [0.0]],
        "mixed-rows": [[[1.0, 0.0], [0.0, 0.0]], [0.0, 1.0]],
        "mixed-entries": [[1.0, [0.0, 0.5]], [[0.0, -0.5], 0.0]],
        "three-element": [[[1.0, 0.0, 0.0], 0.0], [0.0, 1.0]],
        "empty-row": [[1.0], []],
        "empty-rows": [[], []],
        "too-deep": [[[[1.0, 0.0], [0.0, 0.0]], 0.0], [0.0, 1.0]],
        "int-beyond-64-bits": [[2**64, 0], [0, -(2**63) - 1]],
        "dict": [[{"re": 1}, 0.0], [0.0, 1.0]],
    }

    @pytest.mark.parametrize("name", sorted(IRREGULAR))
    def test_irregular_matrix_keeps_per_entry_outcome(self, name):
        value = self.IRREGULAR[name]
        try:
            expected = _matrix_per_entry(value, "$.m")
        except ConfigError as exc:
            with pytest.raises(ConfigError) as got:
                _matrix(value, "$.m")
            assert str(got.value) == str(exc)
        else:
            assert _same_bits(_matrix(value, "$.m"), expected)

    @pytest.mark.parametrize(
        "name", ["string", "numeric-string", "none", "ragged", "three-element", "empty-row", "too-deep", "dict"]
    )
    def test_malformed_state_exit_1_naming_entry(self, tmp_path, capsys, name):
        cfg = write_config(tmp_path, dict(BASE_CONFIG, initial_state=self.IRREGULAR[name]))
        assert main(["evolve", "--config", cfg]) == 1
        assert "$.initial_state[" in capsys.readouterr().err

    def test_number_beyond_float_range_exit_1(self, tmp_path, capsys):
        # complex(10**400) used to raise OverflowError out of the parser
        cfg = write_config(tmp_path, dict(BASE_CONFIG, initial_state=[[10**400, 0], [0, 0]]))
        assert main(["evolve", "--config", cfg]) == 1
        assert "$.initial_state[0][0]" in capsys.readouterr().err


class TestEmitCsv:
    def test_header_only_for_empty_grid(self, tmp_path):
        table = OutputTable(["t", "x"], np.empty((0, 2)))
        path = tmp_path / "empty.csv"
        emit_csv(table, str(path))
        assert path.read_text() == "t,x\n"

    def test_roundtrip_bit_exact(self, tmp_path, rng):
        values = rng.normal(size=(7, 3)) * 10.0 ** rng.integers(-12, 12, size=(7, 3))
        table = OutputTable(["a", "b", "c"], values)
        path = tmp_path / "table.csv"
        emit_csv(table, str(path))
        _, back = read_csv(path)
        assert np.array_equal(back, values)

    def test_rows_newline_terminated(self, tmp_path):
        table = OutputTable(["t"], np.array([[1.0], [2.0]]))
        path = tmp_path / "rows.csv"
        emit_csv(table, str(path))
        assert path.read_text().endswith("\n")

    @staticmethod
    def _reference_text(table):
        """One f-string per cell: the text every earlier version wrote."""
        lines = [",".join(table.columns)] + [",".join(f"{x:.17g}" for x in row) for row in table.rows]
        return "\n".join(lines) + "\n"

    _SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0, -3.0, 2.0**53]

    def _table(self, rng, count):
        width = len(self._SPECIAL)
        values = rng.normal(size=(count, width)) * 10.0 ** rng.integers(-300, 300, size=(count, width))
        values[:, 1] = rng.integers(-(10**9), 10**9, size=count)  # exact integers
        values[0] = self._SPECIAL
        values[-1, ::-1] = self._SPECIAL
        return OutputTable([f"c{i}" for i in range(width)], values)

    def test_bytes_match_per_cell_reference_across_blocks(self, tmp_path, rng):
        for count in (1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 7):
            table = self._table(rng, count)
            path = tmp_path / f"rows{count}.csv"
            emit_csv(table, str(path))
            assert path.read_bytes() == self._reference_text(table).encode("utf-8"), count

    def test_stdout_gets_the_same_bytes(self, tmp_path, rng, capsys):
        table = self._table(rng, _BLOCK_ROWS + 3)
        capsys.readouterr()
        emit_csv(table, None)
        assert capsys.readouterr().out == self._reference_text(table)

    def test_memory_stays_bounded_on_long_tables(self, tmp_path, rng):
        # 14000 x 14 is an evolve-long sized table (~4 MB of text); formatting
        # it in one piece would hold the text and a float per cell at once
        table = OutputTable([f"c{i}" for i in range(14)], rng.normal(size=(14000, 14)))
        tracemalloc.start()
        try:
            emit_csv(table, str(tmp_path / "long.csv"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6, peak

    @staticmethod
    def _hard_values():
        """Cells the digit product cannot round alone, or where its exponent
        guess can miss by one."""
        powers2 = np.ldexp(1.0, np.arange(-1074, 1024))
        powers10 = np.array([float(f"1e{k}") for k in range(-323, 309)])
        edges = np.concatenate([powers10, np.nextafter(powers10, 0), np.nextafter(powers10, np.inf)])
        near53 = [2.0**53 - 1, 2.0**53, 2.0**53 + 2, 0.0, -0.0]
        values = np.concatenate([TestEmitCsv._ties(), powers2, edges[np.isfinite(edges)], near53])
        return np.concatenate([values, -values])

    @staticmethod
    def _ties():
        """Doubles whose 17-digit rounding is an exact tie: below 1e15 the
        17th digit is the second decimal and eighths end in a 5 one place
        further; from 2**50 to 2**51 it is the first decimal and quarters do."""
        rng = np.random.default_rng(18)
        eighths = rng.integers(2**47, 10**15, size=64) + rng.choice([0.125, 0.375, 0.625, 0.875], size=64)
        quarters = rng.integers(2**50, 2**51, size=64) + rng.choice([0.25, 0.75], size=64)
        return np.concatenate([eighths, quarters])

    def test_ties_go_to_the_per_cell_fallback(self):
        assert _decimal(self._ties(), {})[2].all()

    def test_hard_cells_match_reference_across_chunk_boundaries(self, tmp_path):
        # cycled, so that every chunk and the rows on both sides of each
        # chunk boundary hold hard cells
        values = np.resize(self._hard_values(), (2 * _BLOCK_ROWS + 3, 5))
        table = OutputTable([f"c{i}" for i in range(5)], values)
        path = tmp_path / "hard.csv"
        emit_csv(table, str(path))
        assert path.read_bytes() == self._reference_text(table).encode("utf-8")

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(
        values=hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 90), st.integers(1, 8)),
            elements=st.floats(allow_nan=False, allow_infinity=False),  # subnormals and -0.0 included
            fill=st.nothing(),
        )
    )
    def test_any_finite_floats_match_reference(self, csv_dir, values):
        table = OutputTable([f"c{i}" for i in range(values.shape[1])], values)
        path = csv_dir / "any.csv"
        emit_csv(table, str(path))
        assert path.read_bytes() == self._reference_text(table).encode("utf-8")


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


_RATE_K2 = {
    "type": "rate",
    "basis": [[[1, 0], [0, -1]]],
    "weights": [0.5, 0.5],
    "diagonal_blocks": [[[0.1]], [[0.2]]],
}
# the fig2 preset written out as a walk
_WALK_K2 = {
    "type": "walk",
    "basis": [[[1, 0], [0, -1]]],
    "hamiltonian": [[0, 0], [0, 0]],
    "channel_dissipators": [[[0.0]], [[0.0]]],
    "hop_rates": [[0.0, 1.0], [0.1, 0.0]],
    "jump_kraus": [[[[1, 0], [0, -1]]], [[[1, 0], [0, -1]]]],
    "weights": [0.1, 0.9],
}
# channel 0's dissipator block in the walk basis {sigma_z, sigma_x}: each fails
# the CP condition that validate and evolve check
FAILING_WALK_BLOCKS = {
    "negative": [[-0.5, 0], [0, 0]],
    "not-hermitian": [[0, 1], [0, 0]],
}
_TRIPARTITE_K1 = {"type": "tripartite", "basis": [[[1, 0], [0, -1]]], "channels": 1}
_CORRELATIONS_K1 = {
    "type": "correlations",
    "basis": [[[1, 0], [0, -1]]],
    "tau": [0.0, 1.0, 2.0],
    "chi": [[[[[1.0]], [[1e-5]], [[0.0]]]]],
    "system_hamiltonian": [[0, 0], [0, 0]],
    "weights": [1.0],
}
_LOG_GRID = {"stop": 10.0, "count": 41, "spacing": "log"}
BAD_FIELDS = {
    "state-dim-mismatch": ({"initial_state": [[1, 0, 0], [0, 0, 0], [0, 0, 0]]}, "$.initial_state:"),
    # no key sets a tolerance: each check has one fixed tolerance
    "psd-string": ({"tolerances": {"psd": "abc"}}, "$.tolerances: unknown field"),
    "tolerances-list": ({"tolerances": []}, "$.tolerances: unknown field"),
    "rtol-null": ({"tolerances": {"rtol": None}}, "$.tolerances: unknown field"),
    "psd-negative": ({"tolerances": {"psd": -1}}, "$.tolerances: unknown field"),
    "kernel-u-string": ({"kernel_u": "abc"}, "$.kernel_u: expected a list"),
    "workers": ({"workers": 4}, "$.workers:"),
    "rtol": ({"tolerances": {"rtol": 1e-9, "psd": 1e-8}}, "$.tolerances: unknown field"),
    "misspelt-key": ({"initial_sate": [[1, 0], [0, 0]]}, "$.initial_sate:"),
    "decades-string": ({"grid": dict(_LOG_GRID, decades="abc")}, "$.grid.decades:"),
    "decades-400": ({"grid": dict(_LOG_GRID, decades=400)}, "$.grid.decades:"),
    "stop-nan": ({"grid": {"stop": float("nan"), "count": 41}}, "$.grid.stop:"),
    "stop-infinity": ({"grid": {"stop": float("inf"), "count": 41}}, "$.grid.stop:"),
    "stop-true": ({"grid": {"stop": True, "count": 41}}, "$.grid.stop:"),
    "rate-weights-string": ({"model": dict(_RATE_K2, weights="abc")}, "$.model.weights:"),
    # weights summing to 1.1: walk named only $.model, tripartite and correlations exited 2 as a CP failure
    "rate-weights-sum": ({"model": dict(_RATE_K2, weights=[0.5, 0.6])}, "$.model.weights: weights must be nonnegative"),
    "walk-weights-sum": ({"model": dict(_WALK_K2, weights=[0.2, 0.9])}, "$.model.weights: weights must be nonnegative"),
    "tripartite-weights-sum": (
        {"model": dict(_TRIPARTITE_K1, b=[], weights=[1.1])},
        "$.model.weights: weights must be nonnegative",
    ),
    "tripartite-weights-count": (
        {"model": dict(_TRIPARTITE_K1, b=[], weights=[0.5, 0.5])},
        "$.model.weights: expected 1 weights, one per channel, got 2",
    ),
    "correlations-weights-sum": (
        {
            "model": {
                "type": "correlations",
                "basis": [[[1, 0], [0, -1]]],
                "tau": [0.0, 1.0, 2.0],
                "chi": [[[[[0.0]], [[0.0]], [[0.0]]]]],
                "system_hamiltonian": [[0, 0], [0, 0]],
                "weights": [1.1],
            }
        },
        "$.model.weights: weights must be nonnegative",
    ),
    "correlations-tau-string": (
        {"model": {"type": "correlations", "basis": [[[1, 0], [0, -1]]], "tau": "abc"}},
        "$.model.tau:",
    ),
    "tripartite-channels-string": (
        {"model": {"type": "tripartite", "basis": [[[1, 0], [0, -1]]], "channels": "x", "b": []}},
        "$.model.channels:",
    ),
    "offdiagonal-to-string": (
        {"model": dict(_RATE_K2, offdiagonal_blocks=[{"to": "a", "from": 0, "block": [[0.1]]}])},
        "$.model.offdiagonal_blocks[0].to:",
    ),
    "offdiagonal-to-out-of-range": (
        {"model": dict(_RATE_K2, offdiagonal_blocks=[{"to": 7, "from": 0, "block": [[0.1]]}])},
        "$.model.offdiagonal_blocks[0].to:",
    ),
    "offdiagonal-entry-number": ({"model": dict(_RATE_K2, offdiagonal_blocks=[5])}, "$.model.offdiagonal_blocks[0]:"),
    "diagonal-blocks-count": ({"model": dict(_RATE_K2, diagonal_blocks=[[[0.1]]])}, "$.model.diagonal_blocks:"),
    "tripartite-pair-out-of-range": (
        {
            "model": {
                "type": "tripartite",
                "basis": [[[1, 0], [0, -1]]],
                "channels": 2,
                "b": [{"u": [0, 5], "v": [0, 1], "block": [[1.0]]}],
            }
        },
        "$.model.b[0].u[1]:",
    ),
    "correlations-chi-string": (
        {
            "model": {
                "type": "correlations",
                "basis": [[[1, 0], [0, -1]]],
                "tau": [0.0, 1.0, 2.0],
                "chi": "abc",
                "system_hamiltonian": [[0, 0], [0, 0]],
                "weights": [1.0],
            }
        },
        "$.model.chi:",  # named only $.model, and a null entry exited 3
    ),
    "grid-points-collapse": ({"grid": {"stop": 1e-321, "count": 1000}}, "$.grid:"),
    # these two ended in ValueError tracebacks from numpy's allocation
    "grid-count-huge": ({"grid": {"stop": 5.0, "count": 10**30}}, "$.grid.count:"),
    "tripartite-channels-huge": ({"model": dict(_TRIPARTITE_K1, channels=10**30, b=[])}, "$.model.channels:"),
    "output-number": ({"output": 5}, "$.output:"),
    "output-list": ({"output": ["a"]}, "$.output:"),
    # unknown keys below the top level used to be ignored
    "grid-misspelt-key": ({"grid": {"stop": 10.0, "count": 41, "spacnig": "log"}}, "$.grid.spacnig:"),
    "preset-misspelt-key": ({"model": {"type": "preset", "name": "fig2", "nmae": "fig1-upper"}}, "$.model.nmae:"),
    "rate-unknown-key": ({"model": dict(_RATE_K2, workers=2)}, "$.model.workers:"),
    "walk-unknown-key": ({"model": dict(_WALK_K2, basiss=[])}, "$.model.basiss:"),
    "tripartite-unknown-key": ({"model": dict(_TRIPARTITE_K1, b=[], weigths=[1.0])}, "$.model.weigths:"),
    "correlations-unknown-key": ({"model": {"type": "correlations", "quadratur": "simpson"}}, "$.model.quadratur:"),
    "offdiagonal-misspelt-key": (
        {"model": dict(_RATE_K2, offdiagonal_blocks=[{"to": 1, "from": 0, "blokc": [[0.1]]}])},
        "$.model.offdiagonal_blocks[0].blokc:",
    ),
    "tripartite-b-misspelt-key": (
        {"model": dict(_TRIPARTITE_K1, b=[{"u": [0, 0], "v": [0, 0], "blokc": [[1.0]]}])},
        "$.model.b[0].blokc:",
    ),
    "model-type-list": ({"model": {"type": ["rate"]}}, "$.model.type:"),
    # these two ended in TypeError tracebacks, and a NaN hop rate ran with exit 0
    "walk-jump-kraus-number": ({"model": dict(_WALK_K2, jump_kraus=5)}, "$.model.jump_kraus:"),
    "walk-hop-rates-object": ({"model": dict(_WALK_K2, hop_rates={"a": 1})}, "$.model.hop_rates:"),
    "walk-hop-rate-nan": ({"model": dict(_WALK_K2, hop_rates=[[0.0, float("nan")], [0.1, 0.0]])}, "$.model.hop_rates[0]:"),
    # these two named only $.model
    "walk-hop-rate-negative": ({"model": dict(_WALK_K2, hop_rates=[[0.0, -1.0], [0.1, 0.0]])}, "$.model.hop_rates[0]:"),
    "walk-hop-rate-self": ({"model": dict(_WALK_K2, hop_rates=[[0.0, 1.0], [0.1, 0.5]])}, "$.model.hop_rates[1]:"),
    "walk-weights-string": ({"model": dict(_WALK_K2, weights="abc")}, "$.model.weights:"),
    # walk shape errors printed numpy's "inhomogeneous shape" message on $.model
    "walk-hop-rates-ragged": (
        {"model": dict(_WALK_K2, hop_rates=[[0.0, 1.0], [0.1]])},
        "$.model.hop_rates[1]: expected shape (2,)",
    ),
    "walk-hop-rates-rows": (
        {"model": dict(_WALK_K2, hop_rates=[[0.0, 1.0], [0.1, 0.0], [0.0, 0.0]])},
        "$.model.hop_rates: expected one entry per channel (2 weights), got 3",
    ),
    "walk-dissipator-sizes": (
        {"model": dict(_WALK_K2, channel_dissipators=[[[0.0]], [[0.0, 0.0], [0.0, 0.0]]])},
        "$.model.channel_dissipators[1]: expected shape (1, 1)",
    ),
    "walk-jump-kraus-size": (
        {"model": dict(_WALK_K2, jump_kraus=[[[[1, 0], [0, -1]]], [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]])},
        "$.model.jump_kraus[1][0]: expected shape (2, 2)",
    ),
    "walk-hamiltonian-size": ({"model": dict(_WALK_K2, hamiltonian=[[0.0]])}, "$.model.hamiltonian: expected shape (2, 2)"),
    # the same for rate and tripartite blocks: a numpy message on $.model, or a ValueError traceback
    "rate-diagonal-block-sizes": (
        {"model": dict(_RATE_K2, diagonal_blocks=[[[0.1]], [[0.2, 0.0], [0.0, 0.1]]])},
        "$.model.diagonal_blocks[1]: expected shape (1, 1)",
    ),
    "rate-offdiagonal-block-size": (
        {"model": dict(_RATE_K2, offdiagonal_blocks=[{"to": 1, "from": 0, "block": [[0.1, 0.0], [0.0, 0.1]]}])},
        "$.model.offdiagonal_blocks[0].block: expected shape (1, 1)",
    ),
    "rate-hamiltonian-sizes": (
        {"model": dict(_RATE_K2, hamiltonians=[[[1, 0], [0, -1]], [[1]]])},
        "$.model.hamiltonians[1]: expected shape (2, 2)",
    ),
    "rate-system-hamiltonian-size": (
        {"model": dict(_RATE_K2, system_hamiltonian=[[1]])},
        "$.model.system_hamiltonian: expected shape (2, 2)",
    ),
    "correlations-system-hamiltonian-size": (
        {
            "model": {
                "type": "correlations",
                "basis": [[[1, 0], [0, -1]]],
                "tau": [0.0, 1.0, 2.0],
                "chi": [],
                "system_hamiltonian": [[0]],
                "weights": [1.0],
            }
        },
        "$.model.system_hamiltonian: expected shape (2, 2)",
    ),
    "rate-basis-sizes": (
        {"model": dict(_RATE_K2, basis=[[[1, 0], [0, -1]], [[1]]])},
        "$.model.basis[1]: expected shape (2, 2)",
    ),
    "tripartite-block-size": (
        {"model": dict(_TRIPARTITE_K1, b=[{"u": [0, 0], "v": [0, 0], "block": [[1.0, 0.0], [0.0, 1.0]]}])},
        "$.model.b[0].block: expected shape (1, 1)",
    ),
    # non-finite matrix entries used to exit 3 with "engine failure: matrix has non-finite entries"
    "rate-block-nan": (
        {"model": dict(_RATE_K2, diagonal_blocks=[[[float("nan")]], [[0.2]]])},
        "$.model.diagonal_blocks[0][0][0]:",
    ),
    "initial-state-nan": ({"initial_state": [[1, 0], [0, float("nan")]]}, "$.initial_state[1][1]:"),
    "walk-hamiltonian-infinity": (
        {"model": dict(_WALK_K2, hamiltonian=[[[0, 0], [0, float("inf")]], [[0, float("-inf")], [0, 0]]])},
        "$.model.hamiltonian[0][1]:",
    ),
    "kernel-u-nan": ({"kernel_u": [1.5, float("nan")]}, "$.kernel_u[1]:"),
    # an unhashable preset name used to end in a TypeError traceback
    "preset-name-list": ({"model": {"type": "preset", "name": []}}, "$.model.name:"),
    "preset-name-object": ({"model": {"type": "preset", "name": {}}}, "$.model.name:"),
    # booleans used to run as u = 1 and u = 0; u = 0 is a pole of every resolvent
    "kernel-u-bool": ({"kernel_u": [True, 2.0]}, "$.kernel_u[0]:"),
    "kernel-u-bool-part": ({"kernel_u": [1.5, [2, False]]}, "$.kernel_u[1]:"),
    "kernel-u-zero": ({"kernel_u": [1.5, 0]}, "$.kernel_u[1]: u = 0 is a pole"),
    "kernel-u-zero-pair": ({"kernel_u": [[-0.0, 0.0]]}, "$.kernel_u[0]: u = 0 is a pole"),
    # a non-Hermitian Hamiltonian used to exit 2 as "blocks: weights/hamiltonians", or name only $.model
    "rate-hamiltonian-not-hermitian": (
        {"model": dict(_RATE_K2, hamiltonians=[[[0, 0], [0, 0]], [[0, 1], [0, 0]]])},
        "$.model.hamiltonians[1]: Hamiltonian is not Hermitian",
    ),
    "rate-system-hamiltonian-not-hermitian": (
        {"model": dict(_RATE_K2, system_hamiltonian=[[0, [0, 1]], [[0, 1], 0]])},
        "$.model.system_hamiltonian: Hamiltonian is not Hermitian",
    ),
    "correlations-system-hamiltonian-not-hermitian": (
        {
            "model": {
                "type": "correlations",
                "basis": [[[1, 0], [0, -1]]],
                "tau": [0.0, 1.0, 2.0],
                "chi": [[[[[0.0]], [[0.0]], [[0.0]]]]],
                "system_hamiltonian": [[0, 1], [0, 0]],
                "weights": [1.0],
            }
        },
        "$.model.system_hamiltonian: Hamiltonian is not Hermitian",
    ),
    "walk-hamiltonian-not-hermitian": (
        {"model": dict(_WALK_K2, hamiltonian=[[0, 1], [0, 0]])},
        "$.model.hamiltonian: Hamiltonian is not Hermitian",
    ),
    # walk jump maps used to name only $.model, and a Kraus operator outside the basis span exited 3
    "walk-jump-kraus-not-trace-preserving": (
        {"model": dict(_WALK_K2, jump_kraus=[[[[1, 0], [0, 0]]], [[[1, 0], [0, -1]]]])},
        "$.model.jump_kraus[0]: jump map of channel 0 is not trace preserving",
    ),
    "walk-jump-kraus-outside-basis": (
        {"model": dict(_WALK_K2, jump_kraus=[[[[1, 0], [0, -1]]], [[[0, 1], [1, 0]]]])},
        "$.model.jump_kraus[1]: jump map of channel 1 has a Kraus operator not expandable in the basis",
    ),
    # a norm overflowing to inf made each residual inf / inf = NaN, which passed the checks: the
    # Hamiltonian validated as PASS and evolve ended in a traceback, the jump map exited 3
    "rate-hamiltonian-overflow": (
        {"model": dict(_RATE_K2, hamiltonians=[[[1, 0], [-1e308, -1]], [[0, 0], [0, 0]]])},
        "$.model.hamiltonians[0]: Hamiltonian is not Hermitian",
    ),
    "walk-jump-kraus-overflow": (
        {"model": dict(_WALK_K2, jump_kraus=[[[[1, 0], [0, -1]]], [[[1e308, 0], [0, -1]]]])},
        "$.model.jump_kraus[1]: jump map of channel 1 is not trace preserving",
    ),
    "correlations-chi-null": (
        {
            "model": {
                "type": "correlations",
                "basis": [[[1, 0], [0, -1]]],
                "tau": [0.0, 1.0, 2.0],
                "chi": [[[[[1.0]], [[None]], [[0.0]]]]],
                "system_hamiltonian": [[0, 0], [0, 0]],
                "weights": [1.0],
            }
        },
        "$.model.chi:",
    ),
    # a finite entry whose product or integral overflows exited 3 as "matrix has non-finite entries"
    "walk-feed-block-overflow": (
        {"model": dict(_WALK_K2, basis=[[[1e-3, 0], [0, -1e-3]]], hop_rates=[[0.0, 1e308], [0.1, 0.0]])},
        "$.model.hop_rates[0]: a hop rate times its jump map's Gram matrix overflows",
    ),
    "correlations-chi-overflow": (
        {"model": dict(_CORRELATIONS_K1, chi=[[[[[1e308]], [[1e308]], [[0.0]]]]])},
        "$.model.chi: the integrals of the correlations overflow",
    ),
    # these named only $.model, and a string entry in chi was read as a number
    "rate-hamiltonians-count": ({"model": dict(_RATE_K2, hamiltonians=[[[0, 0], [0, 0]]])}, "$.model.hamiltonians:"),
    "tripartite-not-rate-form": (
        {
            "model": dict(
                _TRIPARTITE_K1,
                channels=2,
                b=[{"u": [0, 1], "v": [1, 0], "block": [[0.1]]}, {"u": [1, 0], "v": [0, 1], "block": [[0.1]]}],
            )
        },
        "$.model.b: pair-off-diagonal coefficients",
    ),
    "correlations-undecayed": (
        {"model": dict(_CORRELATIONS_K1, chi=[[[[[1.0]], [[1.0]], [[1.0]]]]])},
        "$.model.chi: correlations of pair (0, 0) retain",
    ),
    "correlations-chi-string-entry": ({"model": dict(_CORRELATIONS_K1, chi=[[[[["1"]], [[0.0]], [[0.0]]]]])}, "$.model.chi:"),
    "correlations-weights-count": (
        {"model": dict(_CORRELATIONS_K1, weights=[0.5, 0.5])},
        "$.model.weights: expected 1 weights, one per channel, got 2",
    ),
}


def _exceptional_point_walk(w: float) -> dict:
    """Basis {sigma_-, I}, decay 1 on sigma_- in both channels, H = (w/2) sigma_x
    and identity jump maps; each self-generator is defective at w = 1/4."""
    return {
        "type": "walk",
        "basis": [[[0, 1], [0, 0]], [[1, 0], [0, 1]]],
        "hamiltonian": [[0, w / 2], [w / 2, 0]],
        "channel_dissipators": [[[1, 0], [0, 0]]] * 2,
        "hop_rates": [[0.0, 1.0], [0.5, 0.0]],
        "jump_kraus": [[[[1, 0], [0, 1]]]] * 2,
        "weights": [0.5, 0.5],
    }


@pytest.mark.parametrize(
    "w, digests",
    [
        (0.25, None),  # self-generator residual ~1e-8
        (0.25 + 1e-12, None),  # ~4e-11: traj used to accept it while evolve took expm
        (
            1.0,  # sha256 of the evolve and traj CSVs, recorded at 23660be
            (
                "73bafb9416400c1c86635539108d6b36304d317fd64913d9c8ed6b38371dec8e",
                "f09a007fb182b2ffa5db0a392be7a12a3959adf055778d6e8e401ab303f753e5",
            ),
        ),
    ],
)
def test_evolve_and_traj_share_one_diagonalization_rule(tmp_path, capsys, monkeypatch, w, digests):
    payload = {"model": _exceptional_point_walk(w), "grid": {"stop": 5.0, "count": 11}, "trajectories": 200, "seed": 5}
    cfg = write_config(tmp_path, payload)
    expm = scipy.linalg.expm
    expm_calls = []
    monkeypatch.setattr(scipy.linalg, "expm", lambda a: expm_calls.append(a) or expm(a))
    assert main(["evolve", "--config", cfg]) == 0
    evolve_out = capsys.readouterr().out
    traj_code = main(["traj", "--config", cfg])
    traj_out, err = capsys.readouterr()
    if digests is None:
        assert expm_calls  # evolve stepped with expm
        assert traj_code == 3
        assert re.fullmatch(
            r"engine failure: self-generator of channel 0 is not reliably diagonalizable: eigendecomposition "
            r"residual \S+ exceeds EIG_TOL = 1e-11; trajectories need its eigenbasis\n",
            err,
        )
    else:
        assert expm_calls == [] and traj_code == 0 and err == ""
        assert tuple(hashlib.sha256(out.encode()).hexdigest() for out in (evolve_out, traj_out)) == digests


class TestCliCommands:
    def test_validate_preset_passes(self, capsys):
        assert main(["validate", "--preset", "fig2"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_validate_bad_weights_config_usage_error(self, tmp_path, capsys):
        payload = {
            "model": {
                "type": "rate",
                "basis": [[[1, 0], [0, -1]]],
                "weights": [0.5, 0.6],
                "diagonal_blocks": [[[0.1]], [[0.2]]],
            },
            "grid": {"stop": 1.0, "count": 3},
        }
        assert main(["validate", "--config", write_config(tmp_path, payload)]) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_validate_indefinite_block_exit_2(self, tmp_path, capsys):
        payload = {
            "model": {
                "type": "rate",
                "basis": [[[0, 1], [1, 0]], [[0, [0, -1]], [[0, 1], 0]]],
                "weights": [1.0],
                "diagonal_blocks": [[[1.0, 0.0], [0.0, -0.1]]],
            },
            "grid": {"stop": 1.0, "count": 3},
        }
        assert main(["validate", "--config", write_config(tmp_path, payload)]) == 2
        out = capsys.readouterr().out
        assert "NOT PSD" in out and "-1.0" in out

    def test_evolve_zero_model_constant_rows(self, tmp_path):
        payload = {
            "model": {
                "type": "rate",
                "basis": [[[1, 0], [0, -1]]],
                "weights": [1.0],
                "diagonal_blocks": [[[0.0]]],
            },
            "grid": {"stop": 2.0, "count": 5},
            "initial_state": [[0.5, [0.25, 0.25]], [[0.25, -0.25], 0.5]],
        }
        out = tmp_path / "evolve.csv"
        assert main(["evolve", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        for name in ("pop_0", "pop_1", "coh_01_re", "coh_01_im"):
            col = rows[:, header.index(name)]
            assert np.all(col == col[0])

    def test_example_fig2_final_coherence(self, tmp_path):
        out = tmp_path / "fig2.csv"
        payload = dict(BASE_CONFIG, grid={"stop": 100.0, "count": 201})
        assert main(["example", "fig2", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert abs(rows[-1, header.index("h_closed")] - (-0.6545454545)) < 1e-3
        assert rows[:, header.index("abs_residual")].max() < 1e-7

    def test_example_with_monte_carlo_columns(self, tmp_path):
        out = tmp_path / "fig2_mc.csv"
        assert main(["example", "fig2", "--n", "300", "--seed", "5", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        for col in ("h_mc", "se_mc", "abs_mc_residual"):
            assert col in header
        dev = rows[1:, header.index("abs_mc_residual")]
        se = rows[1:, header.index("se_mc")]
        assert np.all(dev <= 6 * se + 1e-12)

    def test_example_residuals_below_tolerance_all_presets(self, tmp_path):
        for name in ("fig1-upper", "fig1-lower", "fig2"):
            out = tmp_path / f"{name}.csv"
            assert main(["example", name, "--out", str(out)]) == 0
            header, rows = read_csv(out)
            assert rows[:, header.index("abs_residual")].max() < 1e-7

    def test_example_zero_coherence_refused_before_evolve(self, tmp_path, capsys, monkeypatch):
        # the refusal used to come after a full deterministic evolution
        calls = []
        monkeypatch.setattr(cli, "evolve", lambda *args: calls.append(args))
        cfg = write_config(tmp_path, dict(BASE_CONFIG, initial_state=[[1, 0], [0, 0]]))
        assert main(["example", "fig2", "--config", cfg]) == 1
        assert capsys.readouterr().err == "example requires an initial state with nonzero coherence\n"
        assert calls == []

    def test_example_builds_its_models_once(self, tmp_path, monkeypatch):
        # wrapped on the class, as perfbench/tracing.py does; example used to
        # build the preset a second time outside it
        builds = []
        original = ModelSource.build

        def counted(self):
            builds.append(self.kind)
            return original(self)

        monkeypatch.setattr(ModelSource, "build", counted)
        assert main(["example", "fig2", "--n", "50", "--seed", "1", "--out", str(tmp_path / "x.csv")]) == 0
        assert builds == ["preset"]

    def test_traj_outputs_se_columns_and_is_reproducible(self, tmp_path):
        payload = dict(BASE_CONFIG, engine="stochastic", trajectories=400, seed=7)
        cfg = write_config(tmp_path, payload)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["traj", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["traj", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header, rows = read_csv(out1)
        assert "se_coh_01_re" in header
        assert "trace_ch0" in header
        # deterministic table has no SE columns
        det = tmp_path / "det.csv"
        assert main(["evolve", "--config", cfg, "--out", str(det)]) == 0
        det_header, _ = read_csv(det)
        assert not any(c.startswith("se_") for c in det_header)

    @pytest.mark.parametrize(
        "fields, argv, named",
        [
            ({}, [], "--n/$.trajectories and --seed/$.seed"),
            ({"seed": 3}, [], "--n/$.trajectories"),
            ({}, ["--seed", "3"], "--n/$.trajectories"),
            ({"trajectories": 10}, [], "--seed/$.seed"),
            ({}, ["--n", "10"], "--seed/$.seed"),
        ],
        ids=["neither", "config-seed", "flag-seed", "config-n", "flag-n"],
    )
    def test_traj_names_missing_count_or_seed(self, tmp_path, capsys, fields, argv, named):
        # used to print "traj requires --n and --seed (or config fields)" for either
        cfg = write_config(tmp_path, dict(BASE_CONFIG, **fields))
        assert main(["traj", "--config", cfg, *argv]) == 1
        assert capsys.readouterr().err == f"traj requires {named}\n"

    @pytest.mark.parametrize(
        "fields, argv, named",
        [
            ({"seed": 3}, [], "--n/$.trajectories"),
            ({}, ["--seed", "3"], "--n/$.trajectories"),
            ({"trajectories": 10}, [], "--seed/$.seed"),
            ({}, ["--n", "10"], "--seed/$.seed"),
        ],
        ids=["config-seed", "flag-seed", "config-n", "flag-n"],
    )
    def test_example_names_missing_count_or_seed(self, tmp_path, capsys, fields, argv, named):
        # one of the two used to drop the Monte Carlo columns silently and exit 0
        cfg = write_config(tmp_path, dict(BASE_CONFIG, **fields))
        out = tmp_path / "example.csv"
        assert main(["example", "fig2", "--config", cfg, *argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"example requires {named} for the Monte Carlo columns\n"
        assert not out.exists()

    def test_kernel_u_zero_exit_1_without_warning(self, tmp_path, capsys, recwarn):
        # u = 0 used to exit 3 with a scipy LinAlgWarning on stderr; pytest
        # records warnings instead of printing them, so recwarn is the check
        out = tmp_path / "k.csv"
        assert main(["kernel", "--preset", "fig2", "--u", "1,0", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: --u: u = 0 is a pole") and "Warning" not in err
        cfg = write_config(tmp_path, dict(BASE_CONFIG, kernel_u=[[0, 0]]))
        assert main(["kernel", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "$.kernel_u[0]: u = 0" in err and "Warning" not in err
        assert not out.exists()
        assert not recwarn.list

    def test_traj_bad_trajectories_without_engine_exit_1(self, tmp_path, capsys):
        # the field used to pass unchecked and escape from run_ensemble as a TypeError
        cfg = write_config(tmp_path, dict(BASE_CONFIG, trajectories="abc", seed=1))
        assert main(["traj", "--config", cfg]) == 1
        assert "$.trajectories" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [2**64 + 5, True])
    def test_traj_config_seed_outside_range_exit_1(self, tmp_path, capsys, seed):
        # 5 + 2**64 used to alias seed 5 and give the same CSV
        cfg = write_config(tmp_path, dict(BASE_CONFIG, trajectories=10, seed=seed))
        assert main(["traj", "--config", cfg]) == 1
        assert "$.seed" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-3", str(2**64 + 5)])
    def test_seed_flag_outside_range_exit_1(self, tmp_path, capsys, seed):
        out = tmp_path / "t.csv"
        assert main(["traj", "--preset", "fig2", "--n", "10", "--seed", seed, "--out", str(out)]) == 1
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n", ["-5", "0"])
    def test_n_flag_below_one_exit_1(self, tmp_path, capsys, n):
        # -5 used to reach run_ensemble and exit 3 as an engine failure
        out = tmp_path / "t.csv"
        assert main(["traj", "--preset", "fig2", "--n", n, "--seed", "1", "--out", str(out)]) == 1
        assert "--n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("u", ["abc", "0.5,,1", "nan"])
    def test_malformed_u_flag_exit_1(self, tmp_path, capsys, u):
        # "abc" used to fail float() inside the kernel command and exit 3
        out = tmp_path / "k.csv"
        assert main(["kernel", "--preset", "fig2", "--u", u, "--out", str(out)]) == 1
        assert "--u" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "evolve", "traj", "example"])
    def test_tolerances_key_exit_1_naming_it(self, tmp_path, capsys, command):
        # tolerances.psd used to reach validate, evolve and stationary but not traj or example
        payload = dict(BASE_CONFIG, trajectories=10, seed=1, tolerances={"psd": 1e-5})
        out = tmp_path / "out.csv"
        assert main([command, "--config", write_config(tmp_path, payload), "--out", str(out)]) == 1
        assert "$.tolerances: unknown field" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "evolve", "stationary"])
    def test_block_hermitian_within_rounding_runs(self, tmp_path, capsys, command):
        # residual 2.8e-12 passed the report's check, then psd_check's stricter
        # one raised "matrix is not Hermitian" and every command exited 3
        payload = {
            "model": {
                "type": "rate",
                "basis": [[[0, 1], [1, 0]], [[0, [0, -1]], [[0, 1], 0]]],
                "weights": [1.0],
                "diagonal_blocks": [[[1e-3, [0, 1e-12]], [[0, 1e-12], 1e-3]]],
            },
            "grid": {"stop": 1.0, "count": 3},
        }
        out = tmp_path / "out.csv"
        assert main([command, "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""

    def test_non_psd_initial_state_exit_1(self, tmp_path, capsys):
        # trace 1 and Hermitian, but eigenvalue -0.5: used to exit 3 from the engine
        cfg = write_config(tmp_path, dict(BASE_CONFIG, initial_state=[[1.5, 0], [0, -0.5]]))
        assert main(["evolve", "--config", cfg]) == 1
        assert "$.initial_state" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, field", list(BAD_FIELDS.values()), ids=list(BAD_FIELDS))
    def test_bad_config_field_exit_1_naming_it(self, tmp_path, capsys, extra, field):
        # a 3x3 state on the qubit preset used to exit 3 from a matmul, the
        # grid, model and output cases ended in tracebacks, exit 3
        # or silent acceptance, a kernel_u string was walked as if it were a
        # list, and unknown keys (workers, rtol, misspellings) did nothing
        # entries near the float limit made numpy print overflow warnings
        cfg = write_config(tmp_path, dict(BASE_CONFIG, **extra))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["stationary", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert field in err
        assert "Traceback" not in err
        assert [str(w.message) for w in caught] == []

    def test_walk_field_error_names_its_path_once(self, tmp_path, capsys):
        # used to print "$.model: $.model.hamiltonian: ..."
        cfg = write_config(tmp_path, dict(BASE_CONFIG, model=dict(_WALK_K2, hamiltonian="x")))
        assert main(["evolve", "--config", cfg]) == 1
        assert capsys.readouterr().err == "configuration error: $.model.hamiltonian: expected a matrix as a list of rows\n"

    def test_unwritable_output_exit_1_naming_it(self, tmp_path, capsys):
        # used to end in a FileNotFoundError traceback
        target = str(tmp_path / "missing-dir" / "x.csv")
        assert main(["evolve", "--preset", "fig2", "--out", target]) == 1
        assert target in capsys.readouterr().err
        cfg = write_config(tmp_path, dict(BASE_CONFIG, trajectories=10, seed=1, output=target))
        assert main(["traj", "--config", cfg]) == 1
        assert target in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["kernel", "--u", "1.5,2,2.5,3,4,6"], ["stationary"]], ids=["kernel-6-points", "stationary"]
    )
    def test_one_spectral_analysis_per_command(self, tmp_path, monkeypatch, argv):
        # wrapped on the module, as perfbench/tracing.py does
        calls = {"stationary_projector": 0, "assemble_generator": 0}
        for name in calls:
            original = getattr(solver, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(solver, name, counted)
        out = tmp_path / "out.csv"
        assert main([*argv, "--preset", "fig2", "--out", str(out)]) == 0
        assert calls == {"stationary_projector": 1, "assemble_generator": 1}

    def test_kernel_table(self, tmp_path):
        out = tmp_path / "kernel.csv"
        assert main(["kernel", "--preset", "fig1-upper", "--u", "0.5,1,2,4", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert rows.shape[0] == 4
        from lindbladrate.qubit import PRESETS, h_of_u

        p = PRESETS["fig1-upper"]
        for row in rows:
            u = row[header.index("u_re")]
            kappa = row[header.index("K_11_re")] + 1j * row[header.index("K_11_im")]
            h = h_of_u(p, u)
            assert abs(kappa * h - (u * h - 1)) < 1e-8

    def test_stationary_report(self, capsys):
        assert main(["stationary", "--preset", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "homogeneity holds: False" in out
        assert "coherence" in out

    def test_missing_model_is_usage_error(self, capsys):
        assert main(["evolve"]) == 1
        assert "required" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evolve", "kernel", "stationary"])
    def test_failing_block_exit_2_naming_it(self, tmp_path, capsys, command):
        # used to exit 3 as "engine failure: model failed CP validation"
        payload = {
            "model": {
                "type": "rate",
                "basis": [[[1, 0], [0, -1]]],
                "weights": [0.5, 0.5],
                "diagonal_blocks": [[[-0.3]], [[0.2]]],
            },
            "grid": {"stop": 1.0, "count": 3},
        }
        out = tmp_path / "out.csv"
        assert main([command, "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "failed CP validation (blocks: (0, 0))" in err and "engine failure" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "evolve", "traj"])
    @pytest.mark.parametrize("block", list(FAILING_WALK_BLOCKS.values()), ids=list(FAILING_WALK_BLOCKS))
    def test_failing_walk_block_exit_2_from_every_command(self, tmp_path, capsys, command, block):
        # traj used to exit 0 with a table on the negative block and 3 as an
        # engine failure on the non-Hermitian one
        model = dict(_WALK_K2, basis=[[[1, 0], [0, -1]], [[0, 1], [1, 0]]])
        model["channel_dissipators"] = [block, [[0, 0], [0, 0]]]
        payload = dict(BASE_CONFIG, model=model, trajectories=10, seed=1)
        out = tmp_path / "out.csv"
        assert main([command, "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        if command == "validate":
            assert "block (0, 0):" in captured.out and "NOT PSD" in captured.out
        else:
            assert captured.err == (
                "model failed CP validation (blocks: (0, 0)); `lre validate` reports each block\n"
            )
            assert not out.exists()

    def test_singular_resolvent_exit_3_without_warning(self, tmp_path, capsys, recwarn):
        # u = 1e-300 leaves u - G singular; scipy's LinAlgWarning used to reach stderr
        assert main(["kernel", "--preset", "fig2", "--u", "1e-300"]) == 3
        assert capsys.readouterr().err == "engine failure: resolvent solve singular at u = (1e-300+0j)\n"
        assert not recwarn.list
        out = tmp_path / "k.csv"
        assert main(["kernel", "--preset", "fig2", "--u", "1e-9", "--out", str(out)]) == 0
        assert not recwarn.list

    def test_engine_failure_exit_3(self, tmp_path, capsys):
        # kernel sample at a pole of the reduced propagator
        payload = dict(BASE_CONFIG, model={"type": "preset", "name": "fig1-upper"}, kernel_u=[-0.19])
        assert main(["kernel", "--config", write_config(tmp_path, payload)]) == 3
        assert "engine failure" in capsys.readouterr().err

    def test_unknown_preset_usage_error(self, tmp_path, capsys):
        payload = dict(BASE_CONFIG, model={"type": "preset", "name": "fig9"})
        assert main(["validate", "--config", write_config(tmp_path, payload)]) == 1


# fig1-lower's zero eigenvalues carry ~2e-17 of rounding, which eigenpropagation
# multiplies by t: on this grid the total trace first drifts beyond 1e-10 at
# row 1937 (t ~ 4.9e6), in the second block of rows.
_DRIFTING_LOG_GRID = {
    "model": {"type": "preset", "name": "fig1-lower"},
    "grid": {"stop": 1e12, "count": 3000, "spacing": "log", "decades": 15},
}


class TestStreamedEvolve:
    """``lre evolve`` propagates, tabulates and writes one block of rows at a time."""

    def test_trace_drift_exit_3_naming_time_and_drift(self, tmp_path, capsys):
        # used to exit 0 with rows whose populations sum to 0.031 and 0.00097
        payload = {"model": {"type": "preset", "name": "fig2"}, "grid": {"stop": 1e18, "count": 3}}
        out = tmp_path / "out.csv"
        assert main(["evolve", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "engine failure: total trace drifts from 1 by 9.689e-01 at t = 5e+17, beyond TRACE_TOL = 1e-10\n"
        )
        assert not out.exists()

    def test_drift_in_a_later_block_removes_the_file(self, tmp_path, capsys, monkeypatch):
        formatted = []
        monkeypatch.setattr("lindbladrate.config._csv_chunk", lambda *a: formatted.append(len(a[0])) or _csv_chunk(*a))
        cfg = write_config(tmp_path, _DRIFTING_LOG_GRID)
        t = parse_config(json.dumps(_DRIFTING_LOG_GRID)).grid[1937]
        message = f"engine failure: total trace drifts from 1 by 1.011e-10 at t = {t:.17g}, beyond TRACE_TOL = 1e-10\n"
        out = tmp_path / "out.csv"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err == message
        assert formatted == [_BLOCK_ROWS] and not out.exists()
        # stdout cannot take back the first block
        assert main(["evolve", "--config", cfg]) == 3
        captured = capsys.readouterr()
        assert captured.err == message
        assert captured.out.count("\n") == 1 + _BLOCK_ROWS

    def test_failure_in_a_later_block_removes_the_file(self, tmp_path, capsys, monkeypatch):
        tables = []
        table = cli.deterministic_table

        def third_fails(block):
            tables.append(len(block.times))
            if len(tables) == 3:
                raise ValueError("injected")
            return table(block)

        monkeypatch.setattr(cli, "deterministic_table", third_fails)
        payload = dict(BASE_CONFIG, grid={"stop": 10.0, "count": 4000})
        out = tmp_path / "out.csv"
        assert main(["evolve", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 3
        assert capsys.readouterr().err == "engine failure: injected\n"
        assert tables == [_BLOCK_ROWS] * 3 and not out.exists()

    def test_long_grid_memory_stays_bounded(self, tmp_path):
        # the whole 50,000-point grid of a (3,3) model held (T, K d**2) arrays of
        # ~22 MB each and peaked at 44.6 MB; one block of rows needs ~4 MB
        payload = {"model": _RATE33, "initial_state": _STATE3, "grid": {"stop": 10.0, "count": 50000}}
        argv = ["evolve", "--config", write_config(tmp_path, payload), "--out", str(tmp_path / "long.csv")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6, peak
        assert (tmp_path / "long.csv").read_bytes().count(b"\n") == 50001


class TestModelSources:
    def test_walk_model_matches_preset_bit_for_bit(self, tmp_path):
        walk_payload = {
            "model": _WALK_K2,
            "grid": {"stop": 10.0, "count": 41},
            "engine": "stochastic",
            "trajectories": 500,
            "seed": 99,
        }
        preset_payload = dict(BASE_CONFIG, engine="stochastic", trajectories=500, seed=99)
        out_walk, out_preset = tmp_path / "walk.csv", tmp_path / "preset.csv"
        assert main(["traj", "--config", write_config(tmp_path, walk_payload, "w.json"), "--out", str(out_walk)]) == 0
        assert main(["traj", "--config", write_config(tmp_path, preset_payload, "p.json"), "--out", str(out_preset)]) == 0
        assert out_walk.read_bytes() == out_preset.read_bytes()

    def test_tripartite_source_matches_preset_evolution(self, tmp_path):
        tri_payload = {
            "model": {
                "type": "tripartite",
                "channels": 2,
                "basis": [[[1, 0], [0, -1]]],
                "weights": [0.1, 0.9],
                "b": [
                    {"u": [0, 1], "v": [0, 1], "block": [[1.0]]},
                    {"u": [1, 0], "v": [1, 0], "block": [[0.1]]},
                ],
            },
            "grid": {"stop": 10.0, "count": 41},
        }
        out_tri, out_preset = tmp_path / "tri.csv", tmp_path / "preset.csv"
        assert main(["evolve", "--config", write_config(tmp_path, tri_payload, "t.json"), "--out", str(out_tri)]) == 0
        assert main(["evolve", "--config", write_config(tmp_path, BASE_CONFIG, "p.json"), "--out", str(out_preset)]) == 0
        assert out_tri.read_bytes() == out_preset.read_bytes()

    def test_tripartite_off_diagonal_rejected(self, tmp_path, capsys):
        payload = {
            "model": {
                "type": "tripartite",
                "channels": 2,
                "basis": [[[1, 0], [0, -1]]],
                "b": [
                    {"u": [0, 1], "v": [0, 1], "block": [[1.0]]},
                    {"u": [0, 1], "v": [1, 0], "block": [[0.1]]},
                    {"u": [1, 0], "v": [0, 1], "block": [[0.1]]},
                ],
            },
            "grid": {"stop": 1.0, "count": 3},
        }
        assert main(["validate", "--config", write_config(tmp_path, payload)]) == 1
        assert "rate-equation form" in capsys.readouterr().err

    def test_correlations_source(self, tmp_path):
        tau_c, c = 0.5, 0.4
        tau = np.linspace(0.0, 12.0, 481)
        chi = (c * np.exp(-tau / tau_c)).tolist()
        payload = {
            "model": {
                "type": "correlations",
                "basis": [[[1, 0], [0, -1]]],
                "system_hamiltonian": [[0, 0], [0, 0]],
                "weights": [1.0],
                "tau": tau.tolist(),
                "chi": [[[[ [x] ] for x in chi]]],
            },
            "grid": {"stop": 2.0, "count": 5},
        }
        cfg = write_config(tmp_path, payload)
        assert main(["validate", "--config", cfg]) == 0
        from lindbladrate.config import load_config

        model, _ = load_config(cfg).model.build()
        assert model.blocks[0, 0, 0, 0].real == pytest.approx(2 * c * tau_c, rel=1e-5)


def test_parser_built_once_gives_the_bytes_of_fresh_calls(tmp_path, capsys, monkeypatch):
    # main() keeps the parser of its first call; a failed parse between two
    # calls must not change what later calls return, print or write
    built = []
    original = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or original())
    argvs = [
        ["evolve", "--preset", "fig2", "--out", "{}/evolve.csv"],
        ["evolve", "--preset", "fig2", "--no-such-flag"],
        ["traj", "--preset", "fig2", "--n", "20", "--seed", "3", "--out", "{}/traj.csv"],
        ["stationary", "--preset", "fig9"],
        ["validate", "--preset", "fig1-lower"],
    ]

    def run(directory, fresh):
        directory.mkdir()
        results = []
        for argv in argvs:
            if fresh:
                monkeypatch.setattr(cli, "_PARSER", None)
            code = main([arg.format(directory) for arg in argv])
            results.append((code, *capsys.readouterr()))
        return results, {path.name: path.read_bytes() for path in directory.iterdir()}

    fresh = run(tmp_path / "fresh", fresh=True)
    assert len(built) == len(argvs)
    monkeypatch.setattr(cli, "_PARSER", None)
    reused = run(tmp_path / "reused", fresh=False)
    assert len(built) == len(argvs) + 1
    assert reused == fresh
    assert [code for code, _, _ in fresh[0]] == [0, 1, 0, 1, 0]
    assert sorted(fresh[1]) == ["evolve.csv", "traj.csv"]


def test_cli_import_leaves_scipy_integrate_unloaded():
    # only Simpson quadrature needs it, and it is ~0.1 s of start-up
    code = "import sys, lindbladrate.cli; print('scipy.integrate' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lindbladrate.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "False"


def test_csv_writer_loads_no_exact_arithmetic_module(tmp_path):
    # the CSV digits come from numpy; fractions and decimal cost start-up time
    config = write_config(tmp_path, dict(BASE_CONFIG, grid={"stop": 10.0, "count": 2000}))
    code = """
import contextlib, io, json, sys
import lindbladrate.cli
seen = {"import": [0, "fractions" in sys.modules or "decimal" in sys.modules]}
for command in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = lindbladrate.cli.main(command.split())
    seen[command] = [code, "fractions" in sys.modules or "decimal" in sys.modules]
print(json.dumps(seen))
"""
    commands = [
        f"evolve --config {config}",
        "traj --preset fig2 --n 50 --seed 1",
        f"stationary --preset fig2 --out {tmp_path / 'stationary.csv'}",
    ]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lindbladrate.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code, *commands], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert json.loads(proc.stdout) == {"import": [0, False], **{command: [0, False] for command in commands}}


def test_scipy_linalg_loads_only_for_spectral_commands():
    # scipy.linalg is ~0.2 s of start-up; only the Schur/LU/expm branches need it
    code = """
import contextlib, io, json, sys
import lindbladrate.cli
seen = {"import": "scipy.linalg" in sys.modules}
for command in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = lindbladrate.cli.main(command.split())
    seen[command] = [code, "scipy.linalg" in sys.modules]
print(json.dumps(seen))
"""
    commands = [
        "traj --preset fig2 --n 50 --seed 1",
        "evolve --preset fig1-lower",
        "validate --preset fig2",
        "example fig2 --n 50 --seed 1",
        "kernel --preset fig2",  # last: shows that the probe can fire
    ]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lindbladrate.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code, *commands], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    seen = json.loads(proc.stdout)
    assert seen.pop("import") is False
    assert seen == {command: [0, command.startswith("kernel")] for command in commands}
