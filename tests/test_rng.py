"""Determinism and statistical sanity of the counter-based streams."""

import numpy as np
import pytest

from pdqkd.rng import _hash, stream_salt, uniform_at, uniform_stream

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


def raw_stream(seed: int, slot: int, start: int, count: int) -> np.ndarray:
    """uint64 hash values for pulse ids ``start .. start+count-1``."""
    return _hash(np.arange(start, start + count, dtype=np.uint64), seed, slot)


@pytest.mark.parametrize("seed, slot", [(0, 0), (901, 5), (2**64 - 1, 8)])
def test_values_match_plain_int_splitmix(seed, slot):
    want = [splitmix_reference(seed, slot, i) for i in ORACLE_IDS]
    unit = [(w >> 11) / 2**53 for w in want]
    for pulse_id, bits, u in zip(ORACLE_IDS, want, unit):
        assert int(raw_stream(seed, slot, pulse_id, 1)[0]) == bits
        assert float(uniform_stream(seed, slot, pulse_id, 1)[0]) == u
    # whole ranges go through the same vector code as single ids
    assert raw_stream(seed, slot, 0, 3).tolist() == [splitmix_reference(seed, slot, i)
                                                     for i in range(3)]
    assert raw_stream(seed, slot, 2**64 - 2, 2).tolist() == [
        splitmix_reference(seed, slot, i) for i in (2**64 - 2, 2**64 - 1)]
    ids = np.array(ORACLE_IDS, dtype=np.uint64)
    before = ids.copy()
    assert uniform_at(seed, slot, ids).tolist() == unit
    assert np.array_equal(ids, before)  # the caller's ids are not hashed in place


def test_stream_is_batch_independent():
    full = uniform_stream(seed=123, slot=2, start=0, count=1000)
    head = uniform_stream(seed=123, slot=2, start=0, count=400)
    tail = uniform_stream(seed=123, slot=2, start=400, count=600)
    assert np.array_equal(full, np.concatenate([head, tail]))


def test_uniform_at_matches_stream():
    ids = np.array([0, 17, 999, 123456789], dtype=np.uint64)
    for pid in ids:
        one = uniform_stream(seed=9, slot=5, start=int(pid), count=1)
        assert uniform_at(9, 5, np.array([pid], dtype=np.uint64))[0] == one[0]


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


def test_raw_stream_is_64bit():
    bits = raw_stream(seed=3, slot=0, start=0, count=4096)
    assert bits.dtype == np.uint64
    # top bits must actually vary
    assert len(np.unique(bits >> np.uint64(56))) > 100


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
