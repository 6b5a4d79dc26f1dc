import numpy as np
import pytest

from fkbench.rng import derive_seed, replicate_keys, replicate_streams, stream


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


SEEDS = (0, 1, 2005, 2**32 - 1, 2**32, 2**64 - 1, -1, 2**64 + 5, 2**70)
STEPS = (0, 1, 2**32 + 3)


def _replicates():
    """0..49 and random one-word indices, between indices of two words of entropy."""
    drawn = np.random.default_rng(22).integers(0, 2**32, size=30, dtype=np.uint64)
    wide = [2**33 + 1], [2**32, 2**40 + 7, 2**64 - 1]
    return wide[0] + list(range(50)) + [int(r) for r in drawn] + wide[1]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("step", STEPS)
def test_replicate_keys_match_seed_sequence(seed, step):
    replicates = _replicates()
    keys = replicate_keys(seed, replicates, step)
    assert keys.shape == (len(replicates), 2) and keys.dtype == np.uint64
    for r, key in zip(replicates, keys):
        ss = np.random.SeedSequence(seed & (2**64 - 1), spawn_key=(r, step))
        assert np.array_equal(key, ss.generate_state(2, np.uint64)), (seed, r, step)


def test_replicate_streams_draw_what_fresh_streams_draw():
    replicates = [3, 0, 2**33, 7]
    for r, rng in zip(replicates, replicate_streams(9, replicates, 4), strict=True):
        assert np.array_equal(rng.integers(0, 2**32, 16), stream(9, r, 4).integers(0, 2**32, 16))


def test_reseat_clears_buffered_state():
    rows = replicate_streams(5, [0, 1], 2)
    rng = next(rows)
    rng.integers(0, 2**32, dtype=np.uint32)  # leaves a buffered half word
    rng.random()  # and a partly used Philox block
    state = rng.bit_generator.state
    assert state["has_uint32"] == 1 and 0 < state["buffer_pos"] < 4
    assert next(rows) is rng  # reseated, not reopened
    fresh = stream(5, 1, 2)
    assert np.array_equal(
        rng.integers(0, 2**32, 16, dtype=np.uint32), fresh.integers(0, 2**32, 16, dtype=np.uint32)
    )
    assert np.array_equal(rng.random(16), fresh.random(16))


def assert_state_of_a_fresh_stream(rng, seed, r, step):
    """rng's bit-generator state is stream(seed, r, step)'s, field by field, as ints."""
    got, fresh = rng.bit_generator.state, stream(seed, r, step).bit_generator.state
    for name in ("key", "counter"):
        assert [int(w) for w in got["state"][name]] == [int(w) for w in fresh["state"][name]]
    assert [int(w) for w in got["buffer"]] == [int(w) for w in fresh["buffer"]]
    for name in ("buffer_pos", "has_uint32", "uinteger"):
        assert int(got[name]) == int(fresh[name]), name


def test_each_row_is_reseated_to_a_fresh_streams_state():
    replicates = [3, 0, 2**33, 7]
    for r, rng in zip(replicates, replicate_streams(9, replicates, 4), strict=True):
        assert_state_of_a_fresh_stream(rng, 9, r, 4)
        rng.integers(0, 2**32, dtype=np.uint32)  # the next row starts from a buffered half word
        rng.random(2)  # and a partly used Philox block
        state = rng.bit_generator.state
        assert state["has_uint32"] == 1 and 0 < state["buffer_pos"] < 4
