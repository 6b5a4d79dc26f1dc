"""Counter-based, splittable random streams.

Every stream is addressed by (master seed, *path); the same address always
yields the same stream, independent of creation order, so replicates never
couple and any subset of an experiment can be reproduced in isolation.
The rule that keeps two kinds of address apart: replicate draws use
two-part paths (replicate, step), and experiment-level addresses (a grid
point's derived seed, a model builder's seed) use one-part paths, so no index
of either can reach the other.

A stream is a Philox generator whose key numpy's SeedSequence hashes from
the address.  For a batch of replicate-step streams, numpy hashes the seed
once and replicate_keys mixes the replicate and step words into that pool
for every row at once; replicate_streams reseats one generator to each key
in turn, from a state of plain Python ints, so row r's draws are those of
stream(seed, r, step) at a fraction of the cost of opening it.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

_SEED_MASK = (1 << 64) - 1  # seeds are 64-bit unsigned
_WORD = (1 << 32) - 1

# numpy.random.SeedSequence's hash-mix constants (numpy/random/bit_generator.pyx)
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def stream(master_seed: int, *path: int) -> np.random.Generator:
    """Independent generator for the given address, backed by Philox."""
    ss = np.random.SeedSequence(int(master_seed) & _SEED_MASK, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(master_seed: int, *path: int) -> int:
    """A 64-bit sub-seed for a child experiment at the given address."""
    ss = np.random.SeedSequence(int(master_seed) & _SEED_MASK, spawn_key=tuple(path))
    return int(ss.generate_state(1, np.uint64)[0])


def _words(value: int) -> list[int]:
    """value as SeedSequence reads an int: little-endian 32-bit words, at least one."""
    words = [value & _WORD]
    while value := value >> 32:
        words.append(value & _WORD)
    return words


def _hash_constants(start: int, mult: int, count: int) -> np.ndarray:
    """The first count + 1 values of SeedSequence's running hash constant."""
    consts = [start]
    for _ in range(count):
        consts.append(consts[-1] * mult & _WORD)
    return np.array(consts, dtype=np.uint32)


# uint32 arrays, wrapping on overflow
def _hashmix(value, xor, mult):
    value = (value ^ xor) * mult & _WORD
    return value ^ (value >> 16)


def _mix(x, y):
    value = (_MIX_L * x - _MIX_R * y) & _WORD
    return value ^ (value >> 16)


def replicate_keys(master_seed: int, replicates: Sequence[int], step: int) -> np.ndarray:
    """Philox keys of the streams (master_seed, r, step) for r in replicates, (R, 2) uint64.

    Row i equals SeedSequence(master_seed mod 2**64, spawn_key=(replicates[i],
    step)).generate_state(2, np.uint64), the key stream() gives that address.
    numpy hashes the seed: every row starts from SeedSequence(seed).pool,
    after its first _POOL**2 hash calls.  The replicate word, then the step's
    words, are mixed into all rows' pools at once, one hash call per pool
    word each.  A replicate of 2**32 or more is two words; numpy keys those
    rows one at a time.  Replicates lie in [0, 2**64).
    """
    seed = int(master_seed) & _SEED_MASK
    reps = np.asarray(replicates, dtype=np.uint64)
    step_words = _words(int(step))
    calls = _POOL * _POOL  # hash calls SeedSequence(seed).pool has made
    a = _hash_constants(_INIT_A, _MULT_A, calls + _POOL * (1 + len(step_words)))[calls:]
    b = _hash_constants(_INIT_B, _MULT_B, _POOL)
    narrow = reps <= _WORD
    mixer = np.random.SeedSequence(seed).pool
    for i, word in enumerate([reps[narrow, None].astype(np.uint32)] + step_words):
        at = i * _POOL
        mixer = _mix(mixer, _hashmix(word, a[at : at + _POOL], a[at + 1 : at + _POOL + 1]))
    state = _hashmix(mixer, b[:-1], b[1:]).astype(np.uint64)  # generate_state(2, uint64)
    keys = np.empty((len(reps), 2), dtype=np.uint64)
    keys[narrow] = state[:, 0::2] | (state[:, 1::2] << np.uint64(32))
    for i in np.flatnonzero(~narrow):
        spawn_key = (int(reps[i]), int(step))
        keys[i] = np.random.SeedSequence(seed, spawn_key=spawn_key).generate_state(2, np.uint64)
    return keys


def replicate_streams(
    master_seed: int, replicates: Sequence[int], step: int
) -> Iterator[np.random.Generator]:
    """stream(master_seed, r, step) for each r in replicates, in order, as one generator.

    The generator is reseated to row r's key with the state it had when it
    was opened (counter 0, no buffered words), so its draws are those of a
    fresh stream(master_seed, r, step); each yield is valid until the next
    row is taken.  The state is built once and holds plain ints (the key,
    counter and buffer as lists), which numpy's state setter reads without
    making a numpy scalar per word.
    """
    rng = np.random.Generator(np.random.Philox(0))
    state = rng.bit_generator.state
    state["state"]["counter"] = state["state"]["counter"].tolist()
    state["buffer"] = state["buffer"].tolist()
    for key in replicate_keys(master_seed, replicates, step):
        state["state"]["key"] = key.tolist()
        rng.bit_generator.state = state
        yield rng
