"""Counter-based deterministic random streams.

Every variate consumed by the Monte Carlo engine is a pure function of
``(seed, pulse_id, slot)``: the pulse index is pushed through a splitmix64
finalizer chain salted per ``(seed, slot)``.  Because no generator state is
carried between pulses, a simulation partitioned into batches of any size,
executed by any number of workers, in any order, reproduces bit-identical
results.

The mixer is the splitmix64 increment/finalizer pair (golden-gamma counter
followed by two full avalanche rounds), which is the standard choice for
keyed counter hashing in parallel simulations.  It is emphatically not a
cryptographic generator.  The hash runs in place; a stream given ``out`` and
``scratch`` buffers allocates nothing, else just those two.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# 1/2**53, scaling the top 53 bits of a uint64 to [0, 1)
_U53_INV = 1.0 / (1 << 53)


def _mix64(z: int) -> int:
    """Scalar splitmix64 finalizer (Python ints, used only for salting)."""
    z = (z + _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def stream_salt(seed: int, slot: int) -> int:
    """64-bit salt identifying the (seed, slot) stream."""
    return _mix64(_mix64(seed & _MASK) ^ _mix64((slot * 0x9E3779B9 + 0x632BE59B) & _MASK))


def _avalanche(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Two finalizer rounds on the salted counters ``z`` in place, with scratch ``t``."""
    for shift, mix in ((30, _MIX1), (27, _MIX2), (31, None)) * 2:
        np.right_shift(z, np.uint64(shift), out=t)
        z ^= t
        if mix:
            z *= np.uint64(mix)  # array arithmetic wraps modulo 2**64 without a warning
    return z


@lru_cache(maxsize=1)
def _steps(size: int) -> np.ndarray:
    """Read-only ``i * GAMMA mod 2**64`` for ``i < size``, shared by every thread."""
    steps = np.arange(size, dtype=np.uint64) * np.uint64(_GAMMA)
    steps.flags.writeable = False
    return steps


def _unit(bits: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Top 53 bits of ``bits`` (shifted in place) scaled to float64 in [0, 1) in ``out``."""
    bits >>= np.uint64(11)
    np.copyto(out, bits.view(np.int64), casting="unsafe")  # faster than from uint64; < 2**53
    out *= _U53_INV
    return out


def uniform_stream(seed: int, slot: int, start: int, count: int,
                   out: np.ndarray | None = None, scratch: np.ndarray | None = None) -> np.ndarray:
    """float64 uniforms in [0, 1) for pulse ids ``start .. start+count-1``.

    Deterministic and batch-independent: the value for a given
    ``(seed, slot, pulse_id)`` never depends on ``start``/``count``.  The values
    land in ``out[:count]``, hashed in the uint64 ``scratch``; both are made if not given.
    """
    if out is None:
        out, scratch = np.empty(count), np.empty(count, dtype=np.uint64)
    offset = np.uint64((start * _GAMMA + stream_salt(seed, slot)) & _MASK)
    z = out[:count].view(np.uint64)
    np.add(_steps(len(out))[:count], offset, out=z)  # (start + i) * GAMMA + salt
    return _unit(_avalanche(z, scratch[:count]), out[:count])

