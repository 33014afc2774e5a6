"""Result tables and their CSV text: the table of each command, and the
writer, whose 17 significant digits roundtrip every value bit-exactly."""

from __future__ import annotations

import itertools
import os
import sys
from dataclasses import dataclass

import numpy as np

from .linalg import min_eigenvalue
from .solver import _BLOCK_ROWS


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


def _complex_columns(name: str, matrices: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The ``{name}_{i}{j}_re`` and ``_im`` columns of a stack of square complex matrices, one row each."""
    n = matrices.shape[-1]
    columns = [f"{name}_{i}{j}_{part}" for i in range(n) for j in range(n) for part in ("re", "im")]
    return columns, np.stack([matrices.real, matrices.imag], -1).reshape(len(matrices), -1)


def kernel_table(samples) -> OutputTable:
    """One row per :class:`~lindbladrate.solver.KernelSample` (at least one): ``u``, shift, condition, kernel."""
    columns, values = _complex_columns("K", np.array([s.kernel for s in samples]))
    head = [[s.u.real, s.u.imag, float(s.shifted), s.condition] for s in samples]
    return OutputTable(["u_re", "u_im", "shifted", "condition", *columns], np.concatenate([head, values], axis=1))


def stationary_table(rho: np.ndarray) -> OutputTable:
    """One row: the entries of the stationary state ``rho``."""
    return OutputTable(*_complex_columns("rho", rho[None]))


def example_table(closed: np.ndarray, result, phi0: complex, acc=None) -> OutputTable:
    """A preset's ``h(t)``, the coherence over its initial value ``phi0``: the closed form ``closed``
    against ``evolve``'s ``result`` and, given an ensemble ``acc``, its Monte Carlo estimate and error."""
    engine_h = (result.system[:, 0, 1] / phi0).real
    columns = ["t", "h_closed", "h_engine", "abs_residual"]
    data = [result.times, closed, engine_h, np.abs(engine_h - closed)]
    if acc is not None:
        mc_h = (acc.system_estimate()[:, 0, 1] / phi0).real
        se_re, _ = acc.system_standard_error()
        columns += ["h_mc", "se_mc", "abs_mc_residual"]
        data += [mc_h, se_re[:, 0, 1] / abs(phi0), np.abs(mc_h - closed)]
    return OutputTable(columns, np.stack(data, axis=1))
