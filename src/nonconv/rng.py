"""Counter-based random streams.

Every replicate gets its own Philox stream keyed by (master seed, replicate
index), so results are independent of how replicates are batched or spread
across workers.  Streams are consumed strictly sequentially within a
replicate; nothing here depends on global RNG state.

Philox is counter-based: a stream is fixed by its key alone, so every
stream is made the same way, by re-keying a generator to (master seed,
replicate index), and draws exactly what a freshly keyed one would.  Loops
over the replicates of a block build one generator for the block and re-key
it per replicate (``reuse``); a block starts with no generator, so a
generator never crosses worker threads.  The re-key passes the state setter
plain Python ints: it reads every word by index, and numpy arrays there cost
more than twice as much per replicate.
"""

from __future__ import annotations

import numpy as np

_BUFFER = 4  # Philox4x64 words per counter block; buffer_pos == 4 means empty
_ZERO_WORDS = (0,) * _BUFFER  # counter 0 and an empty buffer


def replicate_rng(
    master_seed: int, replicate: int, reuse: np.random.Generator | None = None
) -> np.random.Generator:
    """Sequential generator for one replicate, independent of all others.

    The generator, ``reuse`` (one returned by an earlier call) or else a new
    Philox generator, is re-keyed in place to the fresh state of this
    replicate's stream (counter 0, buffer emptied, no cached half word) and
    returned.  A re-keyed generator is the caller's alone: share it with no
    other thread.  A seed or replicate index outside [0, 2^64), the Philox
    key words, raises ValueError.
    """
    if not (0 <= master_seed < 1 << 64 and 0 <= replicate < 1 << 64):
        raise ValueError("seed and replicate index must lie in [0, 2^64)")
    gen = np.random.Generator(np.random.Philox(key=0)) if reuse is None else reuse
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_WORDS, "key": (master_seed, replicate)},
        "buffer": _ZERO_WORDS,
        "buffer_pos": _BUFFER,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def substream_rng(master_seed: int, purpose: int) -> np.random.Generator:
    """Named auxiliary stream (bootstrap resampling, holdout shuffles, ...).

    ``purpose`` values are small fixed integers kept disjoint from replicate
    indices by an offset in the upper half of the key space.
    """
    return replicate_rng(master_seed, (1 << 48) + purpose)
