import numpy as np
import pytest

from nonconv.rng import replicate_rng, replicate_streams, substream_rng


def test_replicate_streams_are_reproducible():
    a = replicate_rng(42, 7).random(16)
    b = replicate_rng(42, 7).random(16)
    assert np.array_equal(a, b)


def test_replicate_streams_differ_across_replicates():
    a = replicate_rng(42, 0).random(16)
    b = replicate_rng(42, 1).random(16)
    assert not np.array_equal(a, b)


def test_replicate_streams_differ_across_master_seeds():
    a = replicate_rng(1, 5).random(16)
    b = replicate_rng(2, 5).random(16)
    assert not np.array_equal(a, b)


def test_substream_domain_is_disjoint_from_replicates():
    # purpose streams must never collide with replicate streams of the
    # same master seed, even for large replicate indices
    sub = substream_rng(0, 3).random(8)
    for j in (0, 3, 2**20 + 3):
        assert not np.array_equal(sub, replicate_rng(0, j).random(8))


def test_substream_purposes_are_independent():
    a = substream_rng(9, 3).random(8)
    b = substream_rng(9, 7).random(8)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("seed", [0, 11, 2**63 + 5])
def test_rekeyed_generator_draws_the_fresh_stream(seed):
    # re-keying must reset everything a partly consumed stream leaves behind:
    # the counter, the buffered words, the cached half word of int32 draws
    # and the binomial set-up cache
    for j in (1, 7, (1 << 48) + 3):
        streams = replicate_streams(seed, j - 1, 2)
        gen = next(streams)
        gen.random(3)
        gen.binomial(1000, 0.3, size=2)
        gen.integers(0, 1 << 20, size=3, dtype=np.int32)
        used = gen.bit_generator.state
        assert used["buffer_pos"] != 4 and used["has_uint32"] == 1
        rekeyed = next(streams)
        # a uint64 array: Philox reads a list key through float64, losing bits past 2^53
        key = np.array([seed, j], dtype=np.uint64)
        fresh = np.random.Generator(np.random.Philox(key=key))
        assert rekeyed is gen
        got, want = rekeyed.bit_generator.state, fresh.bit_generator.state
        for part in ("key", "counter"):
            assert got["state"][part].tolist() == want["state"][part].tolist()
        assert got["buffer"].tolist() == want["buffer"].tolist()
        for k in ("buffer_pos", "has_uint32", "uinteger"):
            assert got[k] == want[k]
        draws = [
            (
                g.random(5).tobytes(),
                g.binomial(1000, 0.3, size=4).tobytes(),
                g.integers(0, 1 << 20, size=5, dtype=np.int32).tobytes(),
                int(g.binomial(10_000, 0.5)),
                g.random(7).tobytes(),
            )
            for g in (rekeyed, fresh)
        ]
        assert draws[0] == draws[1]
        assert next(streams, None) is None


def test_block_streams_equal_single_streams():
    got = [gen.random(6).tobytes() for gen in replicate_streams(3, 2**64 - 5, 5)]
    assert got == [replicate_rng(3, 2**64 - 5 + j).random(6).tobytes() for j in range(5)]


@pytest.mark.parametrize("seed, replicate", [(-1, 0), (0, -1)])
def test_negative_seed_or_replicate_raises_on_both_paths(seed, replicate):
    with pytest.raises(ValueError):
        replicate_rng(seed, replicate)
    with pytest.raises(ValueError):
        replicate_streams(seed, replicate, 3)


@pytest.mark.parametrize(
    "seed, replicate, count", [(2**64, 0, 1), (0, 2**64, 1), (0, 2**64 - 2, 3)]
)
def test_key_word_past_64_bits_raises(seed, replicate, count):
    # such a word would draw the stream of its value mod 2^64; a block is
    # checked once, before its first stream, on its last replicate index
    replicate_rng(2**64 - 1, 2**64 - 1)
    replicate_streams(2**64 - 1, 2**64 - 2, 2)
    with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
        replicate_streams(seed, replicate, count)
    if count == 1:
        with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
            replicate_rng(seed, replicate)
