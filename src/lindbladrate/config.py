"""Run configuration parsing and result-table serialization.

Configs are JSON.  Complex scalars are two-element ``[re, im]`` arrays
(bare numbers are taken as real); matrices are nested row arrays.  Tables
are written as CSV with 17 significant digits so values roundtrip
bit-exactly through text.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from ._rng import check_seed
from .linalg import HERMITIAN_TOL, hermiticity_residual, min_eigenvalue
from .model import LindbladRateModel, OperatorBasis, _check_density, build_from_correlations, reduce_from_tripartite
from .qubit import PRESETS, dephasing_model
from .solver import _BLOCK_ROWS
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
        if np.any(row < 0) or row[i] != 0:
            why = f"rates must be nonnegative with entry [{i}] zero (no self transfers)"
            raise ConfigError(f"{path}.hop_rates[{i}]", f"{why}, got {row.tolist()}")
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


_CSV_MIN_CELLS = 384  # below this a chunk is cheaper to format cell by cell than in numpy
_CELL_BYTES = 25  # the longest cell text, "-1.2345678901234567e-308", and its separator
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's splitter, for exact double-double products


def _pow10(q: int, cache: dict) -> tuple[float, float, float, float]:
    """``10**(16 - q)`` as ``hi + lo`` to about 106 bits, with ``hi`` split
    into 26-bit halves: ``(hi, hi_high, hi_low, lo)``; kept in ``cache``."""
    if q not in cache:
        p = 16 - q
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        hi = num / den  # int true division rounds correctly
        a, b = hi.as_integer_ratio()
        lo = (num * b - a * den) / (den * b)
        c = hi * _SPLIT
        high = c - (c - hi)
        cache[q] = (hi, high, hi - high, lo)
    return cache[q]


def _round_scaled(a: np.ndarray, q: np.ndarray, pow10: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``N = round(a * 10**(16 - q))`` for ``1e-280 <= a < 1e280``, from a
    double-double product whose error is below 1e-13.  Also returns where
    the integer part falls below ``10**16`` and where the fraction is too
    close to 1/2 to round by.  ``pow10`` caches the powers of ten."""
    base = int(q.min())
    q = q - base
    used = np.flatnonzero(np.bincount(q))
    table = np.zeros((4, used[-1] + 1))
    table[:, used] = np.array([_pow10(int(v) + base, pow10) for v in used]).T
    c = a * _SPLIT
    a_high = c - (c - a)
    a_low = np.subtract(a, a_high, out=c)
    # the factors of each cell are taken just before use and their memory
    # reused at their last use, so that few arrays are alive at once
    head = a * np.take(table[0], q)
    high = np.take(table[1], q)
    tail = a_high * high  # Dekker: head + tail == a * hi exactly, plus a * lo
    tail -= head
    low = np.take(table[2], q)
    tail += np.multiply(a_high, low, out=a_high)
    tail += np.multiply(a_low, high, out=high)
    tail += np.multiply(a_low, low, out=low)
    tail += np.multiply(a, np.take(table[3], q), out=low)
    whole = np.floor(head)
    head -= whole
    head += tail
    np.floor(head, out=tail)
    head -= tail  # the fraction, in [0, 1)
    n = whole.astype(np.int64)
    n += tail.astype(np.int64)  # summed as integers: above 2**53 doubles skip some
    below = n < 10**16
    n += head > 0.5
    head -= 0.5
    return n, below, np.abs(head) < 1e-9


def _decimal(x: np.ndarray, pow10: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """17 significant digits ``N`` (``10**16 <= N < 10**17``, 0 for zeros)
    and decimal exponent ``q`` of each cell, ``|x| ~ N * 10**(q - 16)``
    rounded to nearest; and the cells left to ``"%.17g" %``, which rounds
    ties to even: those within 1e-9 of a tie, and ``|x|`` outside
    ``[1e-280, 1e280)``."""
    a = np.abs(x)
    zero = a == 0
    ok = (a >= 1e-280) & (a < 1e280)
    a[~ok] = 1.0  # any value in range: these cells are not read
    q = np.log10(a)
    q = np.floor(q, out=q).astype(np.int64)  # may miss by one next to a power of 10
    n, below, tie = _round_scaled(a, q, pow10)
    off = np.flatnonzero(below | (n > 10**17))
    while off.size:
        q[off] += np.where(below[off], -1, 1)
        n[off], below[off], tie[off] = _round_scaled(a[off], q[off], pow10)
        off = off[below[off] | (n[off] > 10**17)]
    carry = n == 10**17  # rounded up into the next decade
    n[carry] = 10**16
    q += carry
    n[zero] = 0
    q[zero] = 0
    return n, q, ~(ok | zero) | tie


def _cells_text(block: np.ndarray) -> bytes:
    """The CSV lines of a block, one ``"%.17g" %`` per cell."""
    return "".join(",".join(["%.17g" % x for x in row]) + "\n" for row in block.tolist()).encode()


def _digit_rows(n: np.ndarray, order: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """The 17 ASCII digits of each ``n``, rows taken in ``order``: pair
    indices are made plane by plane, then looked up in ``pairs``."""
    n = np.take(n, order)
    planes = np.empty((9, n.size), np.uint8)  # the first digit alone, then 8 pairs
    planes[0] = n // 10**16
    n -= planes[0].astype(np.int64) * 10**16
    words = np.empty((2, n.size), np.uint32)
    words[0] = n // 10**8
    n -= words[0].astype(np.int64) * 10**8
    words[1] = n
    quads = words // np.uint32(10**4)
    words -= quads * np.uint32(10**4)
    quads = np.stack([quads[0], words[0], quads[1], words[1]])
    planes[1::2] = quads // np.uint32(100)
    planes[2::2] = quads - planes[1::2] * np.uint32(100)
    digits = np.empty((n.size, 9), np.uint16)
    for j, plane in enumerate(planes):
        digits[:, j] = np.take(pairs, plane)
    return digits.view(np.uint8)[:, 1:]


def _significant(n: np.ndarray) -> np.ndarray:
    """How many of the 17 digits of each ``n`` are left once trailing zeros
    are cut (1 for zero)."""
    low = (n % 10**8).astype(np.uint32)
    nonzero_low = low != 0
    v = np.where(nonzero_low, low, (n // 10**8 % 10**8).astype(np.uint32))
    k = np.where(nonzero_low, 17, 9)
    for zeros in (4, 2, 1):
        r = v // np.uint32(10**zeros)
        cut = r * np.uint32(10**zeros) == v
        k -= zeros * cut
        np.copyto(v, r, where=cut)
    k[v == 0] = 1
    return k


def _csv_chunk(block: np.ndarray, pow10: dict) -> np.ndarray | bytes:
    """The CSV lines of a ``(rows, cols)`` block: ``"%.17g" % x`` per cell,
    built from exact digits in numpy.

    Cells are grouped by layout: fixed notation by sign and exponent (the
    length cuts trailing zeros), scientific by sign, digit count and
    exponent sign and width.  Each group is written into a canvas of
    ``_CELL_BYTES`` per cell with slices, in sorted order; the canvas is put
    back in cell order, and one mask keeps each cell's text and separator.
    ``pow10`` caches the powers of ten across the chunks of a table.
    """
    rows, cols = block.shape
    x = block.reshape(-1)
    m = x.size
    if m < _CSV_MIN_CELLS:
        return _cells_text(block)
    n, q, hard = _decimal(x, pow10)
    k = _significant(n)
    neg = np.signbit(x)
    fixed = (q >= -4) & (q <= 16)  # the %g rule for 17 digits
    wide = np.abs(q) >= 100
    length = np.where(
        fixed,
        np.where(q >= 0, np.maximum(q + 1, k + (k > q + 1)), 1 - q + k),
        k + (k > 1) + 4 + wide,  # d[.ddd]e+XX[X]
    )
    length += neg
    key = np.where(fixed, q + 4, 21 + k + 17 * (q < 0) + 34 * wide) * 2 + neg
    order = np.argsort(key.astype(np.uint8), kind="stable")
    canvas = _sorted_canvas(n, q, k, neg, np.take(key, order), order)
    del n, k, key  # free before the canvas is copied
    back = np.empty_like(order)
    back[order] = np.arange(m)
    canvas = np.take(canvas, back, axis=0)

    for i in np.flatnonzero(hard).tolist():
        text = ("%.17g" % x[i]).encode()
        canvas[i, : len(text)] = np.frombuffer(text, np.uint8)
        length[i] = len(text)
    sep = np.full((rows, cols), 44, np.uint8)  # ","
    sep[:, -1] = 10  # "\n"
    canvas = canvas.reshape(-1)
    canvas[length + np.arange(0, m * _CELL_BYTES, _CELL_BYTES)] = sep.reshape(-1)
    width = np.arange(_CELL_BYTES)
    return canvas[np.take(width <= width[:, None], length, axis=0).reshape(-1)]


def _sorted_canvas(
    n: np.ndarray, q: np.ndarray, k: np.ndarray, neg: np.ndarray, sorted_key: np.ndarray, order: np.ndarray
) -> np.ndarray:
    """The cell texts in ``order``, ``_CELL_BYTES`` a row, each group of one
    layout (one ``sorted_key``) written with the same slices; bytes past a
    cell's length are left as they fall."""
    m = order.size
    pairs = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), np.uint16)  # "00".."99"
    digits = _digit_rows(n, order, pairs)
    canvas = np.empty((m, _CELL_BYTES), np.uint8)
    starts = [0, *(np.flatnonzero(sorted_key[1:] != sorted_key[:-1]) + 1).tolist(), m]
    for a, b in zip(starts[:-1], starts[1:]):
        first = order[a]
        j, e, nd = int(neg[first]), int(q[first]), int(k[first])
        c, d = canvas[a:b], digits[a:b]
        c[:, 0] = 45  # "-", overwritten when positive
        if 0 <= e <= 16:  # fixed notation
            c[:, j : j + e + 1] = d[:, : e + 1]
            c[:, j + e + 1] = 46
            c[:, j + e + 2 : j + 18] = d[:, e + 1 :]
        elif -4 <= e < 0:
            c[:, j : j + 1 - e] = 48  # "0.000" up to the digits
            c[:, j + 1] = 46
            c[:, j + 1 - e : j + 18 - e] = d
        else:
            c[:, j] = d[:, 0]
            c[:, j + 1] = 46
            c[:, j + 2 : j + nd + 1] = d[:, 1:nd]
            j += nd + (nd > 1)
            c[:, j : j + 2] = (101, 45 if e < 0 else 43)
            exponent = np.abs(np.take(q, order[a:b]))
            if abs(e) >= 100:
                c[:, j + 2] = 48 + exponent // 100
                exponent %= 100
                j += 1
            c[:, j + 2 : j + 4] = np.take(pairs, exponent).view(np.uint8).reshape(-1, 2)
    return canvas


def emit_csv(tables, path: str | None) -> None:
    """Write a table, or the tables of an iterable in order under the first
    one's header, as CSV with 17-significant-digit decimal text to ``path``,
    or to stdout when no path is given.

    Each cell is ``"%.17g" % x``, the same text as ``f"{x:.17g}"``.  Rows
    are formatted ``_BLOCK_ROWS`` at a time (see ``_csv_chunk``), so the
    memory held stays small whatever the table's length.  Tables are taken
    one at a time, as they are written: ``path`` is opened only once the
    first exists, and a file is removed again when a later one fails.
    """
    tables = iter([tables] if isinstance(tables, OutputTable) else tables)
    first = next(tables)
    pow10 = {}  # 10**(16 - q) by q, built as the chunks need them
    chunks = (
        _csv_chunk(table.rows[start : start + _BLOCK_ROWS], pow10)
        for table in itertools.chain([first], tables)
        for start in range(0, len(table.rows), _BLOCK_ROWS)
    )
    header = ",".join(first.columns) + "\n"
    if not path:
        sys.stdout.write(header)
        for text in chunks:
            sys.stdout.write(str(text, "ascii"))
        return
    with open(path, "wb") as fh:
        try:
            fh.write(header.encode("utf-8"))
            for text in chunks:
                fh.write(text)
        except BaseException:  # a partial table is not left behind, whatever stopped it
            fh.close()
            os.remove(path)
            raise


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
