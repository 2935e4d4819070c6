"""The engine's random draws: numpy's Philox against its published test vector, and the
generator of each block, keyed by seed and slot with the block's index in its counter."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.random import Generator, Philox
from oracles import dense_cells

from pdqkd.event_sim import _BLOCK, _SLOT_CAR, _SLOT_HBT, _SLOT_RUN, _block, _generator

# four cells, the first three of them clicked
CELLS = np.array([0.1, 0.05, 0.1, 0.75])


def test_philox4x64_10_known_answer():
    # Random123's philox4x64-10 vector for key 0 and counter 0; numpy's Philox steps its
    # counter before the first output, so the counter starts one below 0
    assert Philox(key=0, counter=2**256 - 1).random_raw(4).tolist() == [
        0x16554d9eca36314c, 0xdb20fe9d672d0fdc, 0xd7e772cee186176b, 0x7e68b68aec7ba23b]


def test_stream_is_batch_independent():
    # every block reads its own window of the one Philox stream of (seed, slot): the stream
    # advanced by the block's index times 2**192 counter steps, whatever the run around it
    seed, slot, index, size = 901, 2, 5, 3000
    g = Generator(Philox(key=901 | 2 << 64).advance(index << 192))
    counts = g.multinomial(size, CELLS)
    places = np.sort(g.choice(size, counts[:3].sum(), replace=False, shuffle=False))
    cells = g.permutation(np.repeat(np.arange(3), counts[:3]))
    got = _block(CELLS, 3, seed, slot, index * _BLOCK, index * _BLOCK + size)
    assert all(np.array_equal(x, y) for x, y in zip(got, (counts, places, cells)))


@pytest.mark.parametrize("slot", [_SLOT_RUN, _SLOT_HBT, _SLOT_CAR])
def test_reused_generator_gives_each_block_a_new_philox_stream(slot):
    # each thread sets its one generator to each block's key and counter; after a block of
    # another slot and seed has drawn from it, on this thread and on a pool thread, a block
    # still draws what a new Philox of its own key and counter draws
    seed, size = 2**64 - 2, 3000

    def philox(index):
        return Philox(key=seed | slot << 64, counter=index << 192)

    def new(index):
        g = Generator(philox(index))
        counts = g.multinomial(size, CELLS)
        places = np.sort(g.choice(size, counts[:3].sum(), replace=False, shuffle=False))
        return counts, places, g.permutation(np.repeat(np.arange(3), counts[:3]))

    def reused(index):
        _block(CELLS, 3, 5, (slot + 1) % 3, 7 * _BLOCK, 7 * _BLOCK + 100)
        state = _generator(seed, slot, index * _BLOCK).bit_generator.state  # all of it, caches too
        assert repr(state) == repr(philox(index).state)
        return _block(CELLS, 3, seed, slot, index * _BLOCK, index * _BLOCK + size)

    with ThreadPoolExecutor(max_workers=1) as pool:
        for index in (0, 5, 12_345):
            want = new(index)
            for got in (reused(index), pool.submit(reused, index).result()):
                assert all(np.array_equal(x, y) for x, y in zip(got, want)), index


def test_seeds_and_slots_give_distinct_streams():
    def places(seed, slot, index=0):
        return _block(CELLS, 3, seed, slot, index * _BLOCK, index * _BLOCK + 1000)[1].tolist()

    draws = [places(1, 0), places(2, 0), places(1, 1), places(1, 0, index=1),
             places(2**64 - 1, 0)]
    assert len({tuple(d) for d in draws}) == 5


def test_uniformity_and_range():
    # the clicked pulses of a block are spread evenly over it: 25 % of 2**20 pulses
    counts, places, cells = _block(CELLS, 3, 7, 3, 0, _BLOCK)
    assert len(places) == len(cells) == counts[:3].sum()
    assert places.min() >= 0 and places.max() < _BLOCK
    expected = counts[:3].sum() / 16
    hist, _ = np.histogram(places, bins=16, range=(0, _BLOCK))
    assert np.all(np.abs(hist - expected) < 5 * expected ** 0.5)
    # and the cells over the places: each cell's pulses fall evenly in both halves
    for c in range(3):
        first = np.count_nonzero(places[cells == c] < _BLOCK // 2)
        assert abs(first - counts[c] / 2) < 5 * (counts[c] / 4) ** 0.5


def test_adjacent_slots_uncorrelated():
    n = 100_000
    a = dense_cells(CELLS, 3, 11, 1, n) < 3
    b = dense_cells(CELLS, 3, 11, 2, n) < 3
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 5 / n ** 0.5
