"""Determinism and statistical sanity of the counter-based streams."""

import numpy as np
import pytest

from pdqkd.rng import stream_salt, uniform_stream

MASK = (1 << 64) - 1
ORACLE_IDS = (0, 1, 2**32, 2**63 + 5, 2**64 - 1)


def splitmix_reference(seed: int, slot: int, pulse_id: int) -> int:
    """Plain-int splitmix64: golden-gamma counter plus the stream salt, two finalizer rounds."""
    z = (pulse_id * 0x9E3779B97F4A7C15 + stream_salt(seed, slot)) & MASK
    for _ in range(2):
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        z ^= z >> 31
    return z


@pytest.mark.parametrize("seed, slot", [(0, 0), (901, 5), (2**64 - 1, 8)])
def test_values_match_plain_int_splitmix(seed, slot):
    def unit(pulse_id):
        return (splitmix_reference(seed, slot, pulse_id) >> 11) / 2**53

    for pulse_id in ORACLE_IDS:
        assert float(uniform_stream(seed, slot, pulse_id, 1)[0]) == unit(pulse_id)
    # whole ranges, across the wrap of the 64-bit ids too, give the values of single ids
    assert uniform_stream(seed, slot, 0, 3).tolist() == [unit(i) for i in range(3)]
    assert uniform_stream(seed, slot, 2**64 - 2, 2).tolist() == [unit(i) for i in (2**64 - 2,
                                                                                   2**64 - 1)]


def test_stream_is_batch_independent():
    full = uniform_stream(seed=123, slot=2, start=0, count=1000)
    head = uniform_stream(seed=123, slot=2, start=0, count=400)
    tail = uniform_stream(seed=123, slot=2, start=400, count=600)
    assert np.array_equal(full, np.concatenate([head, tail]))


def test_seeds_and_slots_give_distinct_streams():
    a = uniform_stream(seed=1, slot=0, start=0, count=64)
    b = uniform_stream(seed=2, slot=0, start=0, count=64)
    c = uniform_stream(seed=1, slot=1, start=0, count=64)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert stream_salt(1, 0) != stream_salt(1, 1) != stream_salt(2, 0)


def test_uniformity_and_range():
    u = uniform_stream(seed=7, slot=3, start=0, count=200_000)
    assert np.all((0.0 <= u) & (u < 1.0))
    # moment checks at ~5 sigma of the exact binomial/variance scales
    assert abs(u.mean() - 0.5) < 5 * (1 / 12) ** 0.5 / 200_000 ** 0.5
    hist, _ = np.histogram(u, bins=16, range=(0.0, 1.0))
    expected = 200_000 / 16
    assert np.all(np.abs(hist - expected) < 5 * expected ** 0.5)


def test_adjacent_slots_uncorrelated():
    n = 100_000
    a = uniform_stream(seed=11, slot=7, start=0, count=n)
    b = uniform_stream(seed=11, slot=8, start=0, count=n)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 5 / n ** 0.5


def test_stream_uses_53_bits():
    bits = (uniform_stream(seed=3, slot=0, start=0, count=4096) * 2**53).astype(np.uint64)
    assert np.all(bits < 2**53)
    # the top bits and the lowest bit must actually vary
    assert len(np.unique(bits >> np.uint64(45))) > 100
    assert len(np.unique(bits & np.uint64(1))) == 2


@pytest.mark.parametrize("start", [0, 2**32 - 1, 2**63 + 5, 2**64 - 1000])
@pytest.mark.parametrize("spare", [0, 37])
def test_stream_into_buffers_matches_oracle(start, spare):
    count = 1000
    buf = np.full(count + spare, np.nan)
    scratch = np.empty(count + spare, dtype=np.uint64)
    got = uniform_stream(77, 4, start, count, out=buf, scratch=scratch)
    assert got.base is buf and len(got) == count  # the values land in buf, nothing else
    picks = [0, 1, count - 1]
    assert got[picks].tolist() == [(splitmix_reference(77, 4, (start + i) & MASK) >> 11) / 2**53
                                   for i in picks]
    assert np.isnan(buf[count:]).all()  # entries past count are left alone
