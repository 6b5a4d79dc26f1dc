import numpy as np

from fkbench.rng import derive_seed, stream


def test_streams_are_address_determined():
    a = stream(9, 1, 2).random(8)
    b = stream(9, 1, 2).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, stream(9, 2, 1).random(8))
    assert not np.array_equal(a, stream(8, 1, 2).random(8))


def test_negative_seed_maps_to_unsigned():
    a = stream(-1, 0).random(4)
    b = stream((1 << 64) - 1, 0).random(4)
    assert np.array_equal(a, b)
    assert derive_seed(-1, 3) == derive_seed((1 << 64) - 1, 3)


def test_derive_seed_distinct_paths():
    seeds = {derive_seed(5, k) for k in range(100)}
    assert len(seeds) == 100

