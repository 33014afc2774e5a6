"""Run configuration parsing.

Configs are JSON.  Complex scalars are two-element ``[re, im]`` arrays
(bare numbers are taken as real); matrices are nested row arrays.  This
module only reads input: the tables and their CSV text are in
:mod:`lindbladrate.output`.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from ._rng import check_seed
from .model import (
    LindbladRateModel,
    ModelFieldError,
    OperatorBasis,
    _check_density,
    build_from_correlations,
    reduce_from_tripartite,
)
from .qubit import PRESETS, dephasing_model
from .stochastic import StochasticModel, convert_walk_to_rate_model

__all__ = ["ConfigError", "RunConfig", "parse_config", "preset_config", "load_config"]


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


@dataclass
class ModelSource:
    """Parsed ``model`` section: a preset name, or the parsed rate model (and walk)."""

    kind: str  # preset | rate | walk: tripartite and correlations models parse to rate
    payload: dict

    def preset_name(self) -> str | None:
        return self.payload.get("name") if self.kind == "preset" else None

    @property
    def dim(self) -> int:
        """System dimension ``d`` of the model (every preset is a qubit reservoir)."""
        return 2 if self.kind == "preset" else self.payload["rate"].dim

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
    _check_fits(8 * count, f"{path}.count", f"{count} grid points")
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


def _check_fits(nbytes: int, path: str, what: str) -> None:
    """Refuse an array of ``nbytes`` bytes that this machine's memory cannot hold."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") if hasattr(os, "sysconf") else sys.maxsize
    if nbytes > memory:
        raise ConfigError(path, f"{what}: {nbytes:.3g} bytes, more than the {memory:.3g} bytes of memory")


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
    weights = _real_vector(_require(section, "weights", path), f"{path}.weights")
    k, m = weights.shape[0], basis.size
    diagonal = _matrix_list(_require(section, "diagonal_blocks", path), f"{path}.diagonal_blocks")
    offdiag = {}
    for i, ent in enumerate(_list(section.get("offdiagonal_blocks", []), f"{path}.offdiagonal_blocks")):
        epath = f"{path}.offdiagonal_blocks[{i}]"
        _check_keys(ent, ("to", "from", "block"), epath)
        r = _index(_require(ent, "to", epath), k, f"{epath}.to")
        rp = _index(_require(ent, "from", epath), k, f"{epath}.from")
        offdiag[(r, rp)] = _sized_matrix(_require(ent, "block", epath), m, f"basis size {m}", f"{epath}.block")
    hams = sys_h = None
    if "hamiltonians" in section:
        hams = _matrix_list(section["hamiltonians"], f"{path}.hamiltonians")
    if "system_hamiltonian" in section:
        sys_h = _matrix(section["system_hamiltonian"], f"{path}.system_hamiltonian")
    return LindbladRateModel.from_blocks(basis, weights, diagonal, offdiag, hams, sys_h)


def _parse_walk_model(section, path: str) -> dict:
    """The walk and its rate model, ``{"walk": ..., "rate": ...}``."""
    basis = _parse_basis(_require(section, "basis", path), f"{path}.basis")
    hamiltonian = _matrix(_require(section, "hamiltonian", path), f"{path}.hamiltonian")
    dissipators = _matrix_list(_require(section, "channel_dissipators", path), f"{path}.channel_dissipators")
    hop_rows = _list(_require(section, "hop_rates", path), f"{path}.hop_rates")
    hop_rates = [_real_vector(row, f"{path}.hop_rates[{i}]") for i, row in enumerate(hop_rows)]
    kraus_sets = _list(_require(section, "jump_kraus", path), f"{path}.jump_kraus")
    kraus = [_matrix_list(ops, f"{path}.jump_kraus[{i}]") for i, ops in enumerate(kraus_sets)]
    weights = _real_vector(_require(section, "weights", path), f"{path}.weights")
    walk = StochasticModel(basis, hamiltonian, dissipators, hop_rates, kraus, weights)
    return {"walk": walk, "rate": convert_walk_to_rate_model(walk, basis)}


# The keys of each model type besides ``type``.
_MODEL_KEYS = {
    "preset": ("name",),
    "rate": ("basis", "weights", "diagonal_blocks", "offdiagonal_blocks", "hamiltonians", "system_hamiltonian"),
    "walk": ("basis", "hamiltonian", "channel_dissipators", "hop_rates", "jump_kraus", "weights"),
    "tripartite": ("basis", "channels", "b", "weights"),
    "correlations": ("basis", "tau", "chi", "system_hamiltonian", "weights", "quadrature"),
}
# The config keys of the constructor arguments named otherwise.
_FIELD_KEYS = {
    "diagonal": "diagonal_blocks",
    "offdiagonal": "offdiagonal_blocks",
    "dissipator_blocks": "channel_dissipators",
    "kraus_maps": "jump_kraus",
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
    # the model constructors check the invariants, naming the argument
    try:
        if kind == "rate":
            return ModelSource("rate", {"rate": _parse_rate_model(section, path)})
        if kind == "walk":
            return ModelSource("walk", _parse_walk_model(section, path))
        basis = _parse_basis(_require(section, "basis", path), f"{path}.basis")
        if kind == "tripartite":
            k = _require(section, "channels", path)
            if isinstance(k, bool) or not isinstance(k, int) or k < 1:
                raise ConfigError(f"{path}.channels", f"must be an integer >= 1, got {k!r}")
            raw = _list(_require(section, "b", path), f"{path}.b")
            m = basis.size
            _check_fits(16 * k**2 * m**2, f"{path}.channels", f"rate blocks for {k} channels")
            entries = []
            for i, ent in enumerate(raw):
                epath = f"{path}.b[{i}]"
                _check_keys(ent, ("u", "v", "block"), epath)
                u, v = (_pair(_require(ent, key, epath), k, f"{epath}.{key}") for key in ("u", "v"))
                block = _sized_matrix(_require(ent, "block", epath), m, f"basis size {m}", f"{epath}.block")
                entries.append((u, v, block))
            weights = _real_vector(section["weights"], f"{path}.weights") if "weights" in section else None
            return ModelSource("rate", {"rate": reduce_from_tripartite(entries, k, basis, weights)})
        tau = _real_vector(_require(section, "tau", path), f"{path}.tau")
        chi = _require(section, "chi", path)  # nested number lists; build_from_correlations converts them
        h_sys = _matrix(_require(section, "system_hamiltonian", path), f"{path}.system_hamiltonian")
        weights = _real_vector(_require(section, "weights", path), f"{path}.weights")
        blocks = build_from_correlations(chi, tau, h_sys, basis, section.get("quadrature", "simpson"))
        return ModelSource("rate", {"rate": LindbladRateModel(basis, weights, blocks, None, h_sys)})
    except ModelFieldError as exc:
        name, bracket, index = exc.field.partition("[")
        raise ConfigError(f"{path}.{_FIELD_KEYS.get(name, name)}{bracket}{index}", exc.reason) from exc


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

    return RunConfig(model, state, grid, trajectories, seed, output, kernel_points)


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def preset_config(name: str) -> RunConfig:
    """The run of ``--preset NAME``: default state, 201 grid points from 0 to 20."""
    return parse_config(json.dumps({"model": {"type": "preset", "name": name}, "grid": {"stop": 20.0, "count": 201}}))
