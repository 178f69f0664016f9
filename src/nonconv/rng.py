"""Counter-based random streams.

Every replicate gets its own Philox stream keyed by (master seed, replicate
index), so results are independent of how replicates are batched or spread
across workers.  Streams are consumed strictly sequentially within a
replicate; nothing here depends on global RNG state.

Philox is counter-based: a stream is fixed by its key alone, so every
stream is made the same way, by re-keying a generator to (master seed,
replicate index), and draws exactly what a freshly keyed one would.  Loops
over the replicates of a block take the block's streams from
``replicate_streams``: one generator and one prebuilt state dict, whose key
is set per replicate; the range of the key words is checked once per block.
A block starts with no generator, so a generator never crosses worker
threads.  The state dict holds plain Python ints: the state setter reads
every word by index, and numpy arrays there cost more than twice as much per
replicate.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

_BUFFER = 4  # Philox4x64 words per counter block; buffer_pos == 4 means empty
_ZERO_WORDS = (0,) * _BUFFER  # counter 0 and an empty buffer


def replicate_streams(master_seed: int, first: int, count: int) -> Iterator[np.random.Generator]:
    """The streams of replicates ``first, ..., first + count - 1``, in order.

    Every item is the same Philox generator, re-keyed in place to the fresh
    state of the next replicate's stream (counter 0, buffer emptied, no
    cached half word), so an item is valid until the next one is taken.  The
    generator is the caller's alone: share it with no other thread.  A seed
    or replicate index outside [0, 2^64), the Philox key words, raises
    ValueError here, before any stream is made.
    """
    if not (0 <= master_seed < 1 << 64 and 0 <= first and 0 <= count and first + count <= 1 << 64):
        raise ValueError("seed and replicate index must lie in [0, 2^64)")
    gen = np.random.Generator(np.random.Philox(key=0))
    bit_generator = gen.bit_generator
    words = {"counter": _ZERO_WORDS, "key": None}
    state = {
        "bit_generator": "Philox",
        "state": words,
        "buffer": _ZERO_WORDS,
        "buffer_pos": _BUFFER,
        "has_uint32": 0,
        "uinteger": 0,
    }

    def rekey(replicate: int) -> np.random.Generator:
        words["key"] = (master_seed, replicate)
        bit_generator.state = state
        return gen

    return map(rekey, range(first, first + count))


def replicate_rng(master_seed: int, replicate: int) -> np.random.Generator:
    """A new sequential generator for one replicate, independent of all others."""
    return next(replicate_streams(master_seed, replicate, 1))


def substream_rng(master_seed: int, purpose: int) -> np.random.Generator:
    """Named auxiliary stream (bootstrap resampling, holdout shuffles, ...).

    ``purpose`` values are small fixed integers kept disjoint from replicate
    indices by an offset in the upper half of the key space.
    """
    return replicate_rng(master_seed, (1 << 48) + purpose)
