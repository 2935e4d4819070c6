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
cryptographic generator.  The hash runs in place on the id array with one
scratch array, so a stream allocates three arrays: ids, scratch and result.
"""

from __future__ import annotations

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


def _hash(ids: np.ndarray, seed: int, slot: int) -> np.ndarray:
    """uint64 hash values of the pulse ids ``ids``, computed in place in ``ids``."""
    t = np.empty_like(ids)
    ids *= np.uint64(_GAMMA)  # array arithmetic wraps modulo 2**64 without a warning
    ids += np.uint64(stream_salt(seed, slot))
    for shift, mix in ((30, _MIX1), (27, _MIX2), (31, None)) * 2:  # two avalanche rounds
        np.right_shift(ids, np.uint64(shift), out=t)
        ids ^= t
        if mix:
            ids *= np.uint64(mix)
    return ids


def _unit(bits: np.ndarray) -> np.ndarray:
    """Top 53 bits of ``bits`` (shifted in place) scaled to float64 in [0, 1)."""
    bits >>= np.uint64(11)
    return bits * _U53_INV


def raw_stream(seed: int, slot: int, start: int, count: int) -> np.ndarray:
    """uint64 hash values for pulse ids ``start .. start+count-1``."""
    return _hash(np.arange(start, start + count, dtype=np.uint64), seed, slot)


def uniform_stream(seed: int, slot: int, start: int, count: int) -> np.ndarray:
    """float64 uniforms in [0, 1) for pulse ids ``start .. start+count-1``.

    Deterministic and batch-independent: the value for a given
    ``(seed, slot, pulse_id)`` never depends on ``start``/``count``.
    """
    return _unit(raw_stream(seed, slot, start, count))


def uniform_at(seed: int, slot: int, pulse_ids: np.ndarray) -> np.ndarray:
    """Uniforms for an arbitrary set of pulse ids (same values as the stream).

    Lets the engine draw expensive per-event variates only for the sparse
    subset of pulses that produced a detection.  ``pulse_ids`` is not
    modified: the hash runs on a copy.
    """
    return _unit(_hash(np.array(pulse_ids, dtype=np.uint64), seed, slot))
