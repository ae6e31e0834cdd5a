"""Counter-style randomness.

Every random quantity in this library is a pure function of a 64-bit key built
from (seed, salt, indices) and finalized with the splitmix64 mixer.  Draws are
therefore order-independent and re-queryable: asking for the cost of pair
(i, j) twice, or in a different order, yields the same value.

Each key has a plain-int form and a numpy uint64 form that give the same
bits.  The plain-int forms serve the one-off scalar keys, where a numpy call
would cost more than the mixing itself: the seeds (stream_base,
derive_seed).  The uint64 forms serve every vectorized block: the arrival
blocks, each block's event seeds, pick uniforms and pair draws, and the
agents' rate terms.  numpy integer arrays wrap at 64 bits without a warning
(only numpy scalars warn), so they need no overflow guard.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
# second-slot multiplier, breaks (a, b) <-> (b, a) symmetry in pair keys
_INDEX2 = 0xD1B54A32D192ED03

# salt constants feeding stream_base; arbitrary distinct odd 64-bit values
SALT_GAP = 0x9D8F3C1A5B7E2461
SALT_COIN = 0x1F2E3D4C5B6A7989
SALT_COST = 0x71C3A5E9D02B4F67
SALT_RATE = 0x3B8E1D7C6F5A0925
SALT_FACTOR_CLIENT = 0x85D1B2C3E4F50617
SALT_FACTOR_PROVIDER = 0x2C4E6A8B0D1F3355
SALT_EVENT = 0x60B7D9E1F3A5C711
SALT_REPLICATION = 0x4A1C2E3F50617283
SALT_PICK = 0x0F1E2D3C4B5A6979

_U64_GOLDEN = np.uint64(_GOLDEN)
_U64_MUL1 = np.uint64(_MUL1)
_U64_MUL2 = np.uint64(_MUL2)
_U64_INDEX2 = np.uint64(_INDEX2)
_SH30 = np.uint64(30)
_SH27 = np.uint64(27)
_SH31 = np.uint64(31)
_SH11 = np.uint64(11)

_TO_UNIT = 2.0 ** -53


def mix64(x: int) -> int:
    """splitmix64 finalizer on a plain int, wrapping at 64 bits."""
    x = (x + _GOLDEN) & _MASK
    x ^= x >> 30
    x = (x * _MUL1) & _MASK
    x ^= x >> 27
    x = (x * _MUL2) & _MASK
    x ^= x >> 31
    return x


def mix64_np(x: np.ndarray) -> np.ndarray:
    """Vectorized mix64 over a uint64 array (wraparound is intended).

    The first step makes the result array; the other five work in place on
    it, so the input is never modified.
    """
    x = x + _U64_GOLDEN
    x ^= x >> _SH30
    x *= _U64_MUL1
    x ^= x >> _SH27
    x *= _U64_MUL2
    x ^= x >> _SH31
    return x


def stream_base(seed: int, salt: int) -> int:
    """Base key of the (seed, salt) sub-stream."""
    return mix64((seed & _MASK) ^ salt)


def key1(base: int, i: int) -> int:
    return mix64((base + i * _GOLDEN) & _MASK)


def stream_bases_np(seeds: np.ndarray, salt: int) -> np.ndarray:
    """stream_base over a uint64 array of seeds."""
    return mix64_np(seeds ^ np.uint64(salt))


def keys1_np(base, ids) -> np.ndarray:
    """key1 over uint64 arrays of bases and first-slot indices, broadcast.

    Either argument may be a plain int, which is masked to 64 bits first:
    a product of numpy scalars would warn on the wraparound.
    """
    if isinstance(base, int):
        base = np.uint64(base & _MASK)
    if isinstance(ids, int):
        return mix64_np(base + np.uint64(ids * _GOLDEN & _MASK))
    return mix64_np(base + ids.astype(np.uint64, copy=False) * _U64_GOLDEN)


def keys2_np(base: int, is_: np.ndarray, js: np.ndarray) -> np.ndarray:
    """The pair key mix64(key1(base, i) + j * _INDEX2), over uint64 arrays of i and j, broadcast."""
    return mix64_np(keys1_np(base, is_) + js * _U64_INDEX2)


def keys2_outer_np(base: int, is_: np.ndarray, js: np.ndarray) -> np.ndarray:
    """keys2_np on the cartesian product, shape (len(is_), len(js))."""
    return keys2_np(base, np.asarray(is_, dtype=np.uint64)[:, None], np.asarray(js, dtype=np.uint64))


def u01_np(h: np.ndarray) -> np.ndarray:
    """Map 64-bit hashes to uniforms strictly inside (0, 1)."""
    return ((h >> _SH11).astype(np.float64) + 0.5) * _TO_UNIT


def derive_seed(base_seed: int, index: int) -> int:
    """Independent per-replication seed from (base_seed, replication index)."""
    return key1(stream_base(base_seed, SALT_REPLICATION), index)


def event_seeds(run_seed: int, ks: np.ndarray) -> np.ndarray:
    """The seeds under which clearing events ks draw their fresh pair costs.

    The first event uses the run seed itself, so single-event runs see exactly
    the canonical per-pair draws; event k > 1 uses key k of one per-run
    stream base.
    """
    seeds = keys1_np(stream_base(run_seed, SALT_EVENT), ks)
    seeds[ks == 1] = run_seed & _MASK
    return seeds
