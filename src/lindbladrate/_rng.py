"""Counter-based random streams for reproducible Monte Carlo.

Every trajectory draws from its own substream, a pure function of
``(master_seed, trajectory_index, draw_counter)`` built on the splitmix64
finalizer.  This module is the one owner of the stream format: each function
takes Python ints or ``uint64`` arrays (the trajectory kernel, which draws for
a whole block at once), and both give the same bits.  Because draws are
stateless in the counter, results cannot depend on the order in which
trajectories are advanced.
"""

from __future__ import annotations

import numbers

_MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def check_seed(seed) -> int:
    """Return ``seed`` as an int; ``ValueError`` unless it is an integer in ``[0, 2**64)``.

    Keys are built from the seed modulo 2**64, so a seed outside that range
    would silently alias one inside it.
    """
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or not 0 <= seed <= _MASK:
        raise ValueError(f"master seed must be an integer in [0, 2**64), got {seed!r}")
    return int(seed)


def mix64(z: int) -> int:
    """splitmix64 finalizer on 64-bit integers (``uint64`` arrays wrap like the mask)."""
    z = z & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def stream_key(master_seed: int, index: int) -> int:
    """Derive the 64-bit key of substream ``index`` (an int or a ``uint64`` array)."""
    return mix64(mix64(master_seed & _MASK) ^ mix64((GOLDEN * (index + 1)) & _MASK))


def draw_u64(key: int, counter: int) -> int:
    """Raw 64-bit draw number ``counter`` of the given substream."""
    return mix64((key + GOLDEN * counter) & _MASK)


def to_unit(bits: int) -> float:
    """Map 64 random bits to a double strictly inside (0, 1)."""
    return ((bits >> 11) + 0.5) * 2.0**-53
