"""Trajectory kernel: one numpy block runner that advances trajectories in lockstep.

The jump maps are trace preserving, so a trajectory's channel path is a
classical jump process whose draws never depend on the conditional state.
Every live trajectory of a block therefore advances together, one sojourn
segment at a time, drawing from the counter-based streams of :mod:`._rng`.
Between transfers the conditional state follows its channel's
self-propagator, sampled exactly at the grid times; each transfer out of
channel R applies the jump map attached to R (the source), renormalizes the
trace, and hands the state to the selected destination.

Reproducibility: trajectory ``i`` consumes substream ``i`` of the master seed;
grid samples are written to per-channel ``(B, W, d**2)`` window buffers and
each cell ``(channel, grid point)`` sums its trajectories in index order;
blocks of ``BLOCK_SIZE`` trajectories are added, in index order, to totals
that start at zeros.  The window width changes no sum's order, but it sets
how many columns each eigenbasis product hands OpenBLAS, whose column groups
round differently (``WINDOW_BYTES = 1 << 21`` moves the last bits of the
dense walk pins).  BLOCK_SIZE and WINDOW_BYTES are constants, not options.
Blocks run in up to one process per CPU, forked children sending their
partials back; each partial is computed alone and added in block order, so
the output bytes do not depend on the CPU count.

Channels propagate with eigenbasis products, one column per sample, except
the plain ones, whose eigenvectors and their inverse are exactly I:
1. Row layout: a plain channel's samples are rows, the segment-start state
   scaled component by component, each written whole.
2. Distinct eigenvalues: component k is scaled by ``exp(eigval_k * dt)``,
   one ``exp`` per distinct nonzero eigenvalue; a zero one scales nothing,
   and a plain channel with only zero eigenvalues is still.
3. Shared first segment: before its first transfer every trajectory of a
   moving plain channel holds ``exp(L t) rho0``, so one whose first segment
   spans a window takes that window's one row for its channel.
4. Stride-0 sums: where only shared rows reach a channel in a window, it
   adds n stride-0 copies of the row and writes nothing to its buffer.

The bits are those of the column products.  ``exp`` of identical inputs has
identical bits, ``t - 0.0`` is ``t`` and a first segment's state is ``rho0``
exactly, so the shared rows and the window tables hold a product's factors.
A product with I returns its operand, and ``(1+0j) * y`` is ``y``, up to the
sign of a zero.  Each sum adds its rows in index order; leaving rows out (the
shared rows, or all but the rows of a channel that wrote fewer than half of
them) drops ``+0.0`` terms.  These, like the signs of zeros, change no sum
but a -0.0 one, which the zero-started totals make +0.0.  Each factor stays
the first operand of its complex multiply, which numpy may fuse, so ``a * b``
and ``b * a`` can differ in the last bit; every product keeps its columns,
their order and its C layout.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
import os
import pickle
import signal
import threading

import numpy as np

from ._rng import draw_u64, stream_key, to_unit
from .linalg import TRACE_TOL

BLOCK_SIZE = 1024
# Byte budget of one channel's sample buffer (BLOCK_SIZE, W, d**2): W = 8 grid
# points for a qubit, so a block's working set stays within a few MB.
WINDOW_BYTES = 1 << 19


def _run_block(kit, lo: int, hi: int, master_seed: int):
    """Sums over trajectories ``lo..hi-1``, shaped ``(K, T, d**2)`` like ``run_blocks``."""
    grid, tcount = kit.grid, kit.grid.shape[0]
    kchan, n2 = kit.weights_cum.shape[0], kit.rho0_vec.shape[0]
    nb = hi - lo
    width = max(1, WINDOW_BYTES // (16 * BLOCK_SIZE * n2))
    diag_idx = np.arange(kit.dim) * (kit.dim + 1)
    eye = np.eye(n2)
    plain = [np.array_equal(v, eye) and np.array_equal(vi, eye) for v, vi in zip(kit.eigvecs, kit.eiginvs)]
    spectra = {}  # plain channel: (component, index into the values) of each nonzero eigenvalue; the distinct values
    for c in np.flatnonzero(plain).tolist():
        comps = np.flatnonzero(kit.eigvals[c])
        distinct, which = np.unique(kit.eigvals[c, comps], return_inverse=True)
        spectra[c] = list(zip(comps.tolist(), which.tolist())), distinct
    moving = np.array([c in spectra and bool(spectra[c][0]) for c in range(kchan)])
    shares = moving.any()  # else no trajectory takes a shared first-segment row

    keys = stream_key(master_seed, np.arange(lo, hi, dtype=np.uint64))
    ctr = np.zeros(nb, dtype=np.uint64)

    def uniform(idx):
        u = to_unit(draw_u64(keys[idx], ctr[idx]))
        ctr[idx] += 1
        return u

    def by_channel(idx):
        """``(c, mask)`` for each channel ``c`` that owns some of ``idx``."""
        owners = chan[idx]
        for c in range(kchan):
            mask = owners == c
            if mask.any():
                yield c, mask

    def sample_rows(c, idx, dts):
        """States of trajectories ``idx`` of plain channel ``c``, ``dts`` after t0; one row each."""
        out = np.take(y, idx, axis=0)
        comps, distinct = spectra[c]
        if comps:
            f = np.exp(distinct * dts[:, None])
            for k, j in comps:
                out[:, k] = f[:, j] * out[:, k]
        return out

    def propagate(c, idx, dts, cols=None):
        """States of trajectories ``idx`` of channel ``c`` (not plain), ``dts`` after t0; one column each.

        All still at t0 = 0, they take the window table's columns ``cols``, C-ordered like ``np.outer``.
        """
        if cols is not None and not t0[idx].any():
            w = np.take(table[c], cols, axis=1)
        else:
            w = np.outer(kit.eigvals[c], dts)
            np.exp(w, out=w)
        w *= np.take(z, idx, axis=1)
        return kit.eigvecs[c] @ w

    chan = np.searchsorted(kit.weights_cum, uniform(slice(None)))
    # State at the segment start t0, one row each; np.take gathers rows ~2x faster than y[idx].
    y = np.tile(kit.rho0_vec, (nb, 1))
    z = np.empty((n2, nb), complex)  # y in its channel's eigenbasis, one column each
    t0 = np.zeros(nb)
    t_jump = np.empty(nb)
    g = np.zeros(nb, dtype=np.intp)  # next grid point to sample
    g_end = np.empty(nb, dtype=np.intp)  # first grid point after the jump
    fresh = np.ones(nb, dtype=bool)  # no transfer yet: y is rho0 in the first channel

    def begin_segment(idx):
        gam = kit.escape[chan[idx]]
        hops = gam > 0.0
        # math.log, not np.log: numpy's SIMD log differs in the last bit for
        # a few inputs in a thousand, and the sojourn times keep their bits.
        logs = np.fromiter(map(math.log, uniform(idx[hops]).tolist()), float, np.count_nonzero(hops))
        t_jump[idx] = np.inf
        t_jump[idx[hops]] = t0[idx[hops]] - logs / gam[hops]
        g_end[idx] = np.searchsorted(grid, t_jump[idx], side="right")
        for c, m in by_channel(idx):
            if not plain[c]:
                z[:, idx[m]] = kit.eiginvs[c] @ np.take(y, idx[m], axis=0).T

    def jump(idx):
        fresh[idx] = False
        for c, m in by_channel(idx):
            sel = idx[m]
            dts = t_jump[sel] - t0[sel]
            # the product's bits need a C-ordered operand
            w = np.ascontiguousarray(sample_rows(c, sel, dts).T) if plain[c] else propagate(c, sel, dts)
            y[sel] = (kit.jump_ops[c] @ w).T
        ys = np.take(y, idx, axis=0)
        tr = ys[:, diag_idx].sum(axis=1)
        bad = (np.abs(tr - 1.0) > TRACE_TOL) | ~np.isfinite(tr)
        if bad.any():
            raise FloatingPointError(
                f"trajectory {lo + idx[bad][0]}: non-finite state or trace drift beyond {TRACE_TOL:g}"
            )
        y[idx] = ys / tr[:, None]
        # The first column with u <= cum is never the source itself: its
        # entry repeats the previous column's (or is 0, and u > 0).
        u = uniform(idx)
        chan[idx] = (u[:, None] <= kit.trans_cum[chan[idx]]).argmax(axis=1)
        t0[idx] = t_jump[idx]
        begin_segment(idx)

    begin_segment(np.arange(nb))
    shape = (kchan, tcount, n2)
    ch_sum, sq_re, sq_im = np.zeros(shape, complex), np.zeros(shape), np.zeros(shape)
    # Per channel, the window's samples; zero where a trajectory is elsewhere.
    samples = np.zeros((kchan, nb, width, n2), complex)
    flat = samples.reshape(kchan, nb * width, n2)  # sample (row, col) at row * width + col
    row = np.dtype((np.void, 16 * n2))
    slots = flat.view(row)[..., 0]  # each sample one element, for np.put of whole rows
    touched = np.zeros((kchan, nb), dtype=bool)  # rows each channel wrote in this window
    sharing = np.zeros((kchan, nb), dtype=bool)  # rows that take each channel's shared row

    def add_up(c, w0, w1, buf, sq):
        """Sum channel ``c``'s samples ``buf`` and their squares ``sq`` over trajectories, in index order."""
        ch_sum[c, w0:w1] = np.add.reduce(buf, axis=0)
        sq = np.add.reduce(sq, axis=0)
        sq_re[c, w0:w1], sq_im[c, w0:w1] = sq[:, 0::2], sq[:, 1::2]

    for w0 in range(0, tcount, width):
        w1 = min(w0 + width, tcount)
        # exp(eigval * t) per channel at the window's grid times, (K, d**2, w1 - w0)
        table = np.exp(np.multiply.outer(kit.eigvals, grid[w0:w1]))
        if shares:
            # channel c's first-segment sample at window column j, and nb stride-0 copies
            first = np.multiply(table.transpose(0, 2, 1), kit.rho0_vec, order="C")
            first[:, grid[w0:w1] == 0.0] = kit.rho0_vec
            copies = np.broadcast_to(first, (nb, *first.shape))
            sq_copies = np.broadcast_to(np.square(first.view(float)), (nb, kchan, w1 - w0, 2 * n2))
        # Advance every trajectory to the window's end, writing its samples.
        while True:
            act = np.flatnonzero(g < w1)
            if act.size == 0:
                break
            start, stop = g[act], np.minimum(g_end[act], w1)
            g[act] = stop
            hop = act[(stop == g_end[act]) & (stop < tcount)]
            if shares:
                # a first segment across the whole window takes its channel's shared rows
                shared = fresh[act] & moving[chan[act]] & (stop - start == w1 - w0)
                sharing[chan[act[shared]], act[shared]] = True
                act, start, stop = act[~shared], start[~shared], stop[~shared]
            count = stop - start
            rows = np.repeat(act, count)
            cols = np.arange(rows.size) + np.repeat(start - (np.cumsum(count) - count), count)
            dts = grid[cols] - t0[rows]
            cols -= w0
            pos = rows * width + cols
            wrote = act[count > 0]
            touched[chan[wrote], wrote] = True
            for c, m in by_channel(rows):
                if plain[c]:
                    np.put(slots[c], pos[m], sample_rows(c, rows[m], dts[m]).view(row))
                else:
                    flat[c, pos[m]] = propagate(c, rows[m], dts[m], cols[m]).T
            at_start = np.flatnonzero(dts == 0.0)
            if at_start.size:
                flat[chan[rows[at_start]], pos[at_start]] = np.take(y, rows[at_start], axis=0)
            if hop.size:
                jump(hop)
        # Every trajectory has passed the window: its cells are final.
        for c in range(kchan):
            if shares and sharing[c].any():
                held = np.flatnonzero(sharing[c])
                if not touched[c].any():  # n copies of one row, added as the buffer would add them
                    add_up(c, w0, w1, copies[: held.size, c], sq_copies[: held.size, c])
                    continue
                samples[c, held, : w1 - w0] = first[c]
                touched[c, held] = True
            # A channel that wrote fewer than half the rows reduces just those, in index order.
            written = np.flatnonzero(touched[c])
            if 2 * written.size >= nb:
                written = slice(None)
            buf = samples[c, written, : w1 - w0]
            add_up(c, w0, w1, buf, np.square(buf.view(float)))
            samples[c, written] = 0.0
        touched.fill(False)
        sharing.fill(False)
    return ch_sum, sq_re, sq_im


def run_blocks(kit, n: int, master_seed: int):
    """Run ``n`` trajectories in fixed blocks and add their partials in block order.

    Returns ``(ch_sum, ch_sq_re, ch_sq_im)`` shaped ``(K, T, d**2)``.
    """
    shape = (kit.weights_cum.shape[0], kit.grid.shape[0], kit.rho0_vec.shape[0])
    # Start from zeros, not from the first partial: 0 + -0.0 is +0.0.
    totals = np.zeros(shape, complex), np.zeros(shape), np.zeros(shape)
    for partial in _partials(kit, n, master_seed):
        for total, part in zip(totals, partial):
            total += part
    return totals


def _partials(kit, n: int, master_seed: int):
    """Each block's partial sums, in block order, from up to one process per CPU.

    Block ``i`` runs in worker ``i % W``: worker 0 is this process, the others
    are forked children that stream their blocks' partials back over a pipe,
    or the exception a block raised, then stop.  Blocks are read in order, so
    the lowest failing block's exception is the one raised, as in one process.
    """
    def block(lo):
        return _run_block(kit, lo, min(lo + BLOCK_SIZE, n), master_seed)

    los = range(0, n, BLOCK_SIZE)
    workers = min(len(los), len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1)
    # fork copies only the calling thread; one BLAS thread per process keeps W processes on W CPUs
    blas = _openblas() if workers > 1 and hasattr(os, "fork") and threading.active_count() == 1 else None
    if blas is None:
        yield from map(block, los)
        return
    threads = blas[0]()
    blas[1](1)
    children = [None]  # (pid, reader) per worker; None runs in this process
    try:
        for w in range(1, workers):
            try:
                children.append(_fork(block, los[w::workers]))
            except OSError:  # no process or pipe to spare: this process runs the share
                children.append(None)
        for i, lo in enumerate(los):
            child = children[i % workers]
            if child is None:
                yield block(lo)
                continue
            try:
                part = pickle.load(child[1])
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(f"trajectory worker ended without the partial sums of block {lo}") from None
            if isinstance(part, Exception):
                raise part
            yield part
    finally:
        # every partial a child sent has been read, or is no longer needed
        for pid, reader in filter(None, children):
            reader.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        blas[1](threads)


def _fork(block, los):
    """``(pid, reader)`` of a child that pickles ``block(lo)`` for each of ``los``."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        try:
            os.close(read)
            with os.fdopen(write, "wb") as out:
                for lo in los:
                    try:
                        part = block(lo)
                    except Exception as exc:  # sent to the parent, which raises it in block order
                        part = exc
                    pickle.dump(part, out, pickle.HIGHEST_PROTOCOL)
                    out.flush()
                    if isinstance(part, Exception):
                        break
        finally:
            os._exit(0)  # never return into the caller's stack
    os.close(write)
    return pid, os.fdopen(read, "rb")


@functools.cache
def _openblas():
    """``(get, set)`` for the thread count of numpy's bundled OpenBLAS, or None."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return get, put
    return None
