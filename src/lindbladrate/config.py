"""Run configuration parsing and result-table serialization.

Configs are JSON.  Complex scalars are two-element ``[re, im]`` arrays
(bare numbers are taken as real); matrices are nested row arrays.  Tables
are written as CSV with 17 significant digits so values roundtrip
bit-exactly through text.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from ._rng import check_seed
from .linalg import HERMITIAN_TOL, hermiticity_residual, min_eigenvalue
from .model import LindbladRateModel, OperatorBasis, _check_density, build_from_correlations, reduce_from_tripartite
from .qubit import PRESETS, dephasing_model
from .stochastic import JumpMapError, StochasticModel, convert_walk_to_rate_model

__all__ = ["ConfigError", "RunConfig", "OutputTable", "parse_config", "load_config", "emit_csv"]


class ConfigError(ValueError):
    """Schema or invariant violation, carrying the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _require(obj: dict, key: str, path: str):
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected an object, got {obj!r}")
    if key not in obj:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return obj[key]


def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(path, f"expected a list, got {value!r}")
    return value


def _finite_number(value) -> float | None:
    """``value`` as a float when it is a finite JSON number (not a bool), else ``None``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or abs(value) > sys.float_info.max:
        return None
    return float(value) if math.isfinite(value) else None


def _real_vector(value, path: str) -> np.ndarray:
    numbers = [_finite_number(x) for x in _list(value, path)]
    if None in numbers:
        raise ConfigError(path, f"expected a list of finite numbers, got {value!r}")
    return np.array(numbers, dtype=float)


def _index(value, size: int, path: str) -> int:
    """A channel index: an integer in ``[0, size)``."""
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < size:
        raise ConfigError(path, f"must be an integer in [0, {size}), got {value!r}")
    return value


def _pair(value, size: int, path: str) -> int:
    """A channel pair ``[R, R']`` as its flat index ``R * size + R'``."""
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(path, f"expected a channel pair [R, R'], got {value!r}")
    return _index(value[0], size, f"{path}[0]") * size + _index(value[1], size, f"{path}[1]")


def _complex_scalar(value, path: str) -> complex:
    parts = value if isinstance(value, list) and len(value) == 2 else [value, 0]
    if not all(isinstance(x, (int, float)) for x in parts):
        raise ConfigError(path, f"expected a number or [re, im] pair, got {value!r}")
    # true/false count as 1/0 in a matrix, as they do in _matrix's one-array parse
    re, im = (_finite_number(float(x) if isinstance(x, bool) else x) for x in parts)
    if re is None or im is None:
        raise ConfigError(path, f"expected finite numbers within the float range, got {value!r}")
    return complex(re, im)


def _laplace_point(value, path: str) -> complex:
    """A Laplace point ``u``: a number or ``[re, im]`` pair, neither part a
    boolean, and not 0, where the resolvent of every trace-preserving
    generator has a pole."""
    if any(isinstance(x, bool) for x in (value if isinstance(value, list) else [value])):
        raise ConfigError(path, f"expected a number or [re, im] pair, got {value!r}")
    u = _complex_scalar(value, path)
    if u == 0:
        raise ConfigError(path, "u = 0 is a pole of the resolvent of every trace-preserving generator")
    return u


def _matrix(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value or not all(isinstance(row, list) for row in value):
        raise ConfigError(path, "expected a matrix as a list of rows")
    # One array conversion covers the regular layouts: all bare numbers
    # (r, c) or all [re, im] pairs (r, c, 2).  Filling .real and .imag gives
    # the bits of complex(re, im), signed zeros included.
    try:
        arr = np.array(value)
    except ValueError:  # inhomogeneous nesting
        arr = None
    if (
        arr is not None
        and arr.dtype.kind in "biuf"
        and (arr.ndim == 2 or (arr.ndim == 3 and arr.shape[2] == 2))
        and np.isfinite(arr).all()
    ):
        out = np.zeros(arr.shape[:2], dtype=complex)
        if arr.ndim == 2:
            out.real = arr
        else:
            out.real, out.imag = arr[..., 0], arr[..., 1]
        return out
    # Anything else (a bad or non-finite entry, ragged rows, rows mixing
    # pairs and bare numbers, integers beyond 64 bits) goes entry by entry,
    # which names the first bad entry.
    rows = []
    width = None
    for i, row in enumerate(value):
        entries = [_complex_scalar(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)]
        if width is None:
            width = len(entries)
        elif len(entries) != width:
            raise ConfigError(f"{path}[{i}]", "ragged matrix rows")
        rows.append(entries)
    return np.array(rows, dtype=complex)


def _matrix_list(value, path: str) -> list[np.ndarray]:
    return [_matrix(m, f"{path}[{i}]") for i, m in enumerate(_list(value, path))]


def _check_shape(array: np.ndarray, shape: tuple, why: str, path: str) -> None:
    if array.shape != shape:
        raise ConfigError(path, f"expected shape {shape} ({why}), got {array.shape}")


def _sized_matrix(value, size: int, why: str, path: str) -> np.ndarray:
    """A ``(size, size)`` matrix; ``why`` says where the size comes from."""
    out = _matrix(value, path)
    _check_shape(out, (size, size), why, path)
    return out


def _hamiltonian(value, dim: int, path: str) -> np.ndarray:
    """A Hermitian ``(dim, dim)`` matrix."""
    out = _sized_matrix(value, dim, f"system dimension {dim}", path)
    residual = hermiticity_residual(out)
    if residual > HERMITIAN_TOL:
        raise ConfigError(path, f"Hamiltonian is not Hermitian (residual {residual:.3e})")
    return out


def _sized_matrix_list(value, size: int, why: str, path: str) -> list[np.ndarray]:
    return [_sized_matrix(m, size, why, f"{path}[{i}]") for i, m in enumerate(_list(value, path))]


def _check_channels(items: list, k: int, path: str) -> None:
    if len(items) != k:
        raise ConfigError(path, f"expected one entry per channel ({k} weights), got {len(items)}")


def _parse_weights(value, path: str, k: int | None = None) -> np.ndarray:
    """Channel weights: nonnegative, summing to 1, and ``k`` of them when the
    channel count ``k`` comes from another field."""
    weights = _real_vector(value, path)
    if k is not None and weights.shape[0] != k:
        raise ConfigError(path, f"expected {k} weights, one per channel, got {weights.shape[0]}")
    if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-10:
        raise ConfigError(path, f"weights must be nonnegative and sum to 1, got {weights.tolist()}")
    return weights


@dataclass
class ModelSource:
    """Parsed ``model`` section: a preset name, or the parsed rate model (and walk)."""

    kind: str  # preset | rate | walk | tripartite | correlations
    payload: dict

    def preset_name(self) -> str | None:
        return self.payload.get("name") if self.kind == "preset" else None

    @property
    def dim(self) -> int:
        """System dimension ``d`` of the model."""
        if self.kind == "preset":
            return 2  # every preset is a qubit reservoir
        return self.payload["rate"].dim

    def build(self):
        """Return ``(LindbladRateModel, StochasticModel | None)``."""
        if self.kind == "preset":
            return dephasing_model(PRESETS[self.payload["name"]])
        return self.payload["rate"], self.payload.get("walk")


@dataclass
class RunConfig:
    model: ModelSource
    initial_state: np.ndarray
    grid: np.ndarray
    trajectories: int | None = None
    seed: int | None = None
    output: str | None = None
    kernel_points: list[complex] = field(default_factory=list)


_TOP_LEVEL_KEYS = ("model", "initial_state", "grid", "engine", "trajectories", "seed", "output", "kernel_u")
_DEFAULT_STATE = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)  # +x projector


def _parse_grid(section, path: str) -> np.ndarray:
    _check_keys(section, ("stop", "count", "spacing", "decades"), path)
    stop = _finite_number(_require(section, "stop", path))
    count = _require(section, "count", path)
    spacing = section.get("spacing", "linear")
    if stop is None or stop <= 0:
        raise ConfigError(f"{path}.stop", f"must be a finite number > 0, got {section['stop']!r}")
    if isinstance(count, bool) or not isinstance(count, int) or count < 2:
        raise ConfigError(f"{path}.count", "must be an integer >= 2")
    if spacing == "linear":
        grid = np.linspace(0.0, stop, count)
    elif spacing == "log":
        decades = section.get("decades", 4)
        exponent = _finite_number(decades)
        if exponent is None or exponent <= 0 or stop * 10.0 ** -exponent == 0.0:
            raise ConfigError(f"{path}.decades", f"must be a number > 0 with stop * 10**-decades > 0, got {decades!r}")
        grid = np.concatenate([[0.0], np.geomspace(stop * 10.0 ** -exponent, stop, count - 1)])
    else:
        raise ConfigError(f"{path}.spacing", f"must be 'linear' or 'log', got {spacing!r}")
    if np.any(np.diff(grid) <= 0):
        raise ConfigError(path, "stop, count and decades do not give strictly increasing grid points")
    return grid


def _check_keys(section, known: tuple[str, ...], path: str) -> None:
    """Require an object with no key outside ``known``, where it would do nothing."""
    if not isinstance(section, dict):
        raise ConfigError(path, f"expected an object, got {section!r}")
    for key in section:
        if key not in known:
            raise ConfigError(f"{path}.{key}", f"unknown field; known fields: {', '.join(known)}")


def _parse_basis(section, path: str) -> OperatorBasis:
    ops = _matrix_list(section, path)
    for i, op in enumerate(ops):
        _check_shape(op, (ops[0].shape[0],) * 2, "square, the size of the first operator", f"{path}[{i}]")
    try:
        return OperatorBasis(np.array(ops))
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _parse_rate_model(section, path: str) -> LindbladRateModel:
    basis = _parse_basis(_require(section, "basis", path), f"{path}.basis")
    d, m = basis.dim, basis.size
    weights = _parse_weights(_require(section, "weights", path), f"{path}.weights")
    k = weights.shape[0]
    size_why = f"basis size {m}"
    diagonal = _sized_matrix_list(_require(section, "diagonal_blocks", path), m, size_why, f"{path}.diagonal_blocks")
    _check_channels(diagonal, k, f"{path}.diagonal_blocks")
    offdiag = {}
    for i, ent in enumerate(_list(section.get("offdiagonal_blocks", []), f"{path}.offdiagonal_blocks")):
        epath = f"{path}.offdiagonal_blocks[{i}]"
        _check_keys(ent, ("to", "from", "block"), epath)
        r = _index(_require(ent, "to", epath), k, f"{epath}.to")
        rp = _index(_require(ent, "from", epath), k, f"{epath}.from")
        offdiag[(r, rp)] = _sized_matrix(_require(ent, "block", epath), m, size_why, f"{epath}.block")
    hams = sys_h = None
    if "hamiltonians" in section:
        hams = _list(section["hamiltonians"], f"{path}.hamiltonians")
        hams = np.array([_hamiltonian(h, d, f"{path}.hamiltonians[{i}]") for i, h in enumerate(hams)])
    if "system_hamiltonian" in section:
        sys_h = _hamiltonian(section["system_hamiltonian"], d, f"{path}.system_hamiltonian")
    try:
        return LindbladRateModel.from_blocks(basis, weights, np.array(diagonal), offdiag, hams, sys_h)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _parse_walk_model(section, path: str) -> dict:
    """The walk and its rate model, ``{"walk": ..., "rate": ...}``."""
    basis = _parse_basis(_require(section, "basis", path), f"{path}.basis")
    d, m = basis.dim, basis.size
    dim_why, size_why = f"system dimension {d}", f"basis size {m}"
    hamiltonian = _hamiltonian(_require(section, "hamiltonian", path), d, f"{path}.hamiltonian")
    dissipators = _sized_matrix_list(
        _require(section, "channel_dissipators", path), m, size_why, f"{path}.channel_dissipators"
    )
    hop_rows = _list(_require(section, "hop_rates", path), f"{path}.hop_rates")
    hop_rates = [_real_vector(row, f"{path}.hop_rates[{i}]") for i, row in enumerate(hop_rows)]
    kraus_sets = _list(_require(section, "jump_kraus", path), f"{path}.jump_kraus")
    kraus = [_sized_matrix_list(ops, d, dim_why, f"{path}.jump_kraus[{i}]") for i, ops in enumerate(kraus_sets)]
    weights = _parse_weights(_require(section, "weights", path), f"{path}.weights")
    k = weights.shape[0]
    _check_channels(dissipators, k, f"{path}.channel_dissipators")
    _check_channels(hop_rates, k, f"{path}.hop_rates")
    for i, row in enumerate(hop_rates):
        _check_shape(row, (k,), f"one rate per channel, {k} weights", f"{path}.hop_rates[{i}]")
    _check_channels(kraus, k, f"{path}.jump_kraus")
    try:
        walk = StochasticModel(basis, hamiltonian, dissipators, hop_rates, kraus, weights)
        return {"walk": walk, "rate": convert_walk_to_rate_model(walk, basis)}
    except JumpMapError as exc:
        raise ConfigError(f"{path}.jump_kraus[{exc.channel}]", str(exc)) from exc
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


# The keys of each model type besides ``type``.
_MODEL_KEYS = {
    "preset": ("name",),
    "rate": ("basis", "weights", "diagonal_blocks", "offdiagonal_blocks", "hamiltonians", "system_hamiltonian"),
    "walk": ("basis", "hamiltonian", "channel_dissipators", "hop_rates", "jump_kraus", "weights"),
    "tripartite": ("basis", "channels", "b", "weights"),
    "correlations": ("basis", "tau", "chi", "system_hamiltonian", "weights", "quadrature"),
}


def _parse_model(section, path: str) -> ModelSource:
    kind = _require(section, "type", path)
    if not isinstance(kind, str) or kind not in _MODEL_KEYS:
        raise ConfigError(f"{path}.type", f"unknown model type {kind!r}")
    _check_keys(section, ("type", *_MODEL_KEYS[kind]), path)
    if kind == "preset":
        name = _require(section, "name", path)
        if not isinstance(name, str) or name not in PRESETS:
            raise ConfigError(f"{path}.name", f"unknown preset {name!r}; available: {sorted(PRESETS)}")
        return ModelSource("preset", {"name": name})
    if kind == "rate":
        return ModelSource("rate", {"rate": _parse_rate_model(section, path)})
    if kind == "walk":
        return ModelSource("walk", _parse_walk_model(section, path))
    if kind == "tripartite":
        basis = _parse_basis(_require(section, "basis", path), f"{path}.basis")
        k = _require(section, "channels", path)
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            raise ConfigError(f"{path}.channels", f"must be an integer >= 1, got {k!r}")
        raw = _list(_require(section, "b", path), f"{path}.b")
        m = basis.size
        b = np.zeros((k * k, k * k, m, m), dtype=complex)
        for i, ent in enumerate(raw):
            epath = f"{path}.b[{i}]"
            _check_keys(ent, ("u", "v", "block"), epath)
            u, v = (_pair(_require(ent, key, epath), k, f"{epath}.{key}") for key in ("u", "v"))
            b[u, v] = _sized_matrix(_require(ent, "block", epath), m, f"basis size {m}", f"{epath}.block")
        weights = _parse_weights(section["weights"], f"{path}.weights", k) if "weights" in section else None
        try:
            return ModelSource("rate", {"rate": reduce_from_tripartite(b, k, basis, weights)})
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from exc
    if kind == "correlations":
        basis = _parse_basis(_require(section, "basis", path), f"{path}.basis")
        tau = _real_vector(_require(section, "tau", path), f"{path}.tau")
        chi = _require(section, "chi", path)  # nested number lists; build_from_correlations converts them
        h_sys = _hamiltonian(_require(section, "system_hamiltonian", path), basis.dim, f"{path}.system_hamiltonian")
        weights = _parse_weights(_require(section, "weights", path), f"{path}.weights")
        try:
            blocks = build_from_correlations(chi, tau, h_sys, basis, section.get("quadrature", "simpson"))
            model = LindbladRateModel(basis, weights, blocks, None, h_sys)
        except (TypeError, ValueError) as exc:
            raise ConfigError(path, str(exc)) from exc
        return ModelSource("rate", {"rate": model})


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("$", f"JSON syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    _check_keys(raw, _TOP_LEVEL_KEYS, "$")

    model = _parse_model(_require(raw, "model", "$"), "$.model")
    grid = _parse_grid(_require(raw, "grid", "$"), "$.grid")
    state = _matrix(raw["initial_state"], "$.initial_state") if "initial_state" in raw else _DEFAULT_STATE.copy()

    # ``engine`` only decides whether ``trajectories`` and ``seed`` are required.
    engine = raw.get("engine", "deterministic")
    if engine not in ("deterministic", "stochastic", "both"):
        raise ConfigError("$.engine", f"must be deterministic|stochastic|both, got {engine!r}")
    trajectories = raw.get("trajectories")
    seed = raw.get("seed")
    if engine in ("stochastic", "both"):
        if trajectories is None:
            raise ConfigError("$.trajectories", "stochastic runs need an integer trajectory count >= 1")
        if seed is None:
            raise ConfigError("$.seed", "stochastic runs need an integer master seed")
    # ``traj`` and ``example`` read these whatever the engine, so check them whenever present.
    if trajectories is not None and (
        isinstance(trajectories, bool) or not isinstance(trajectories, int) or trajectories < 1
    ):
        raise ConfigError("$.trajectories", f"must be an integer >= 1, got {trajectories!r}")
    if seed is not None:
        try:
            check_seed(seed)
        except ValueError as exc:
            raise ConfigError("$.seed", str(exc)) from exc

    kernel_u = _list(raw.get("kernel_u", []), "$.kernel_u")
    kernel_points = [_laplace_point(u, f"$.kernel_u[{i}]") for i, u in enumerate(kernel_u)]
    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError("$.output", f"must be a file path string, got {output!r}")

    try:
        _check_density(state, model.dim)
    except ValueError as exc:
        raise ConfigError("$.initial_state", str(exc)) from exc

    return RunConfig(
        model=model,
        initial_state=state,
        grid=grid,
        trajectories=trajectories,
        seed=seed,
        output=output,
        kernel_points=kernel_points,
    )


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


@dataclass
class OutputTable:
    """Column-schema'd table of real observables, one row per grid point."""

    columns: list[str]
    rows: np.ndarray  # (T, C) float64

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=float)
        if self.rows.size and self.rows.shape[1] != len(self.columns):
            raise ValueError("row width does not match column count")
        if self.rows.size and not np.all(np.isfinite(self.rows)):
            raise ValueError("table contains non-finite values")


_CSV_ROWS = 256  # rows formatted per write; bounds the text held in memory


def emit_csv(table: OutputTable, path: str | None) -> None:
    """Write a table as CSV with 17-significant-digit decimal text to
    ``path``, or to stdout when no path is given.

    Each cell is ``"%.17g" % x``, the same text as ``f"{x:.17g}"``.  Rows
    are formatted ``_CSV_ROWS`` at a time with one template, so the text
    held in memory stays small whatever the table's length.
    """
    rows = table.rows
    line = ",".join(["%.17g"] * rows.shape[-1]) + "\n"
    out = open(path, "w", encoding="utf-8", newline="") if path else contextlib.nullcontext(sys.stdout)
    with out as fh:
        fh.write(",".join(table.columns) + "\n")
        for start in range(0, len(rows), _CSV_ROWS):
            blk = rows[start : start + _CSV_ROWS]
            fh.write((line * len(blk)) % tuple(blk.ravel().tolist()))


def _observable_columns(dim: int) -> list[str]:
    cols = [f"pop_{i}" for i in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            cols += [f"coh_{i}{j}_re", f"coh_{i}{j}_im"]
    return cols


def _observable_values(states: np.ndarray) -> np.ndarray:
    """Map (T, d, d) states to the named real observable columns."""
    d = states.shape[1]
    cols = [states[:, i, i].real for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            cols += [states[:, i, j].real, states[:, i, j].imag]
    return np.stack(cols, axis=1)


def _state_table(times, system, channel_traces, min_eig, se=None) -> OutputTable:
    """One row per grid time: ``t``, the observables of ``system``, the
    channel traces and ``min_eig``.  ``se`` packs standard errors as
    ``se_re + 1j * se_im``, so the observable map that reads ``system``
    reads the matching ``se_*`` columns from it."""
    obs_cols = _observable_columns(system.shape[-1])
    columns = ["t"] + obs_cols + [f"trace_ch{r}" for r in range(channel_traces.shape[1])] + ["min_eig"]
    parts = [times[:, None], _observable_values(system), channel_traces, min_eig[:, None]]
    if se is not None:
        columns += [f"se_{c}" for c in obs_cols]
        parts.append(_observable_values(se))
    return OutputTable(columns, np.concatenate(parts, axis=1))


def deterministic_table(result) -> OutputTable:
    """Table for an :class:`~lindbladrate.solver.EvolutionResult`."""
    return _state_table(result.times, result.system, result.channel_traces(), result.min_eigenvalue)


def stochastic_table(acc) -> OutputTable:
    """Table for an :class:`~lindbladrate.stochastic.EnsembleAccumulator`,
    with a standard-error column per observable."""
    system = acc.system_estimate()
    se_re, se_im = acc.system_standard_error()
    return _state_table(acc.grid, system, acc.channel_occupation(), min_eigenvalue(system), se_re + 1j * se_im)
