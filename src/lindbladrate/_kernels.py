"""Trajectory kernel: one numpy block runner that advances trajectories in lockstep.

The jump maps are trace preserving, so a trajectory's channel path is a
classical jump process whose draws never depend on the conditional state.
Every live trajectory of a block therefore advances together, one sojourn
segment at a time: the block draws its sojourns and destinations from the
counter-based streams of :mod:`._rng`, and each channel propagates its
trajectories with one matrix product.

Reproducibility: trajectory ``i`` consumes substream ``i`` of the master seed;
grid samples are written to per-channel ``(B, W, d**2)`` window buffers and
each cell ``(channel, grid point)`` sums its trajectories in index order;
blocks of ``BLOCK_SIZE`` trajectories are added, in index order, to totals
that start at zeros.  No sum's order depends on anything but the inputs; the
window width changes none of them (BLOCK_SIZE and WINDOW_BYTES are constants,
not options).  Blocks run in up to one process per CPU, forked children
sending their partials back, and since each block's partial is computed
alone and added in block order, the output bytes do not depend on the CPU
count.  A channel that wrote fewer than half a block's rows in a window
reduces just those rows: the rows it skips hold +0.0, which changes no sum but
a -0.0 one, and the zero-started totals make that +0.0 as well.

Trajectory semantics: the conditional state evolves under the channel
self-propagator between exponentially distributed transfer events; each
transfer out of channel R applies the jump map attached to R (the source),
renormalizes the trace, and hands the state to the selected destination.
Grid times are sampled with the exact segment propagator (no intra-segment
discretization).
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

    def propagate(c, idx, dts, cols=None):
        """States of trajectories ``idx`` of channel ``c``, ``dts`` after t0; one column each.

        When every one of them is still at t0 = 0, ``dts`` are the grid times
        at window columns ``cols``, whose factors the window's table holds
        with the same bits (``t - 0.0`` is ``t``).  ``np.take`` keeps the
        product's operand C-ordered, as ``np.outer`` makes it.
        """
        if cols is not None and not t0[idx].any():
            w = np.take(table[c], cols, axis=1)
        else:
            w = np.outer(kit.eigvals[c], dts)
            np.exp(w, out=w)
        w *= np.take(z, idx, axis=1)
        return kit.eigvecs[c] @ w

    chan = np.searchsorted(kit.weights_cum, uniform(slice(None)))
    y = np.tile(kit.rho0_vec, (nb, 1))  # state at the segment start t0
    z = np.empty((n2, nb), complex)  # y in its channel's eigenbasis, one column each
    t0 = np.zeros(nb)
    t_jump = np.empty(nb)
    g = np.zeros(nb, dtype=np.intp)  # next grid point to sample
    g_end = np.empty(nb, dtype=np.intp)  # first grid point after the jump

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
            z[:, idx[m]] = kit.eiginvs[c] @ y[idx[m]].T

    def jump(idx):
        for c, m in by_channel(idx):
            sel = idx[m]
            y[sel] = (kit.jump_ops[c] @ propagate(c, sel, t_jump[sel] - t0[sel])).T
        ys = y[idx]
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
    touched = np.zeros((kchan, nb), dtype=bool)  # rows each channel wrote in this window
    for w0 in range(0, tcount, width):
        w1 = min(w0 + width, tcount)
        # exp(eigval * t) per channel at the window's grid times, (K, d**2, w1 - w0)
        table = np.exp(np.multiply.outer(kit.eigvals, grid[w0:w1]))
        # Advance every trajectory to the window's end, writing its samples.
        while True:
            act = np.flatnonzero(g < w1)
            if act.size == 0:
                break
            stop = np.minimum(g_end[act], w1)
            count = stop - g[act]
            rows = np.repeat(act, count)
            cols = np.arange(rows.size) + np.repeat(g[act] - (np.cumsum(count) - count), count)
            dts = grid[cols] - t0[rows]
            cols -= w0
            pos = rows * width + cols
            wrote = act[count > 0]
            touched[chan[wrote], wrote] = True
            for c, m in by_channel(rows):
                flat[c, pos[m]] = propagate(c, rows[m], dts[m], cols[m]).T
            at_start = np.flatnonzero(dts == 0.0)
            if at_start.size:
                flat[chan[rows[at_start]], pos[at_start]] = y[rows[at_start]]
            g[act] = stop
            hop = act[(stop == g_end[act]) & (stop < tcount)]
            if hop.size:
                jump(hop)
        # Every trajectory has passed the window: its cells are final.  A channel
        # that wrote fewer than half the rows reduces just those, in index order.
        for c in range(kchan):
            written = np.flatnonzero(touched[c])
            if 2 * written.size >= nb:
                written = slice(None)
            buf = samples[c, written, : w1 - w0]
            ch_sum[c, w0:w1] = buf.sum(axis=0)
            sq = np.square(buf.view(float)).sum(axis=0)
            sq_re[c, w0:w1], sq_im[c, w0:w1] = sq[:, 0::2], sq[:, 1::2]
            samples[c, written] = 0.0
        touched.fill(False)
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
