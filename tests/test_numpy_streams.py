"""A canary for numpy's Generator streams.

Every artifact pufledger writes is a function of the values numpy's
default_rng draws, and numpy's policy on random streams (NEP 19) lets a
release change what a Generator method returns for a given seed. This file
pins the first values of each kind of Generator call the package makes,
keyed as the package keys its generators, so that a numpy upgrade that moves
a stream fails here, by name, rather than only as a changed golden digest.
The values were recorded with numpy 2.4.6.
"""

import numpy as np


def rng(*key):
    return np.random.default_rng(list(key))


# name: (the package's call, its first values)
PINNED = {
    # puf.random_challenge: one bounded batch a chunk, then refill rounds of 2 * need
    "integers(bank, size=(count, 2, n_bits))": (
        lambda: rng(42, 11).integers(256, size=(1, 2, 4)).tolist(),
        [[[119, 4, 207, 123], [75, 104, 9, 67]]]),
    "integers(bank, size=2 * need)": (
        lambda: rng(42, 11).integers(256, size=2 * 3).tolist(),
        [119, 4, 207, 123, 75, 104]),
    # harness: node ids and enrollment seeds; netsim: adversary bits
    "integers(0, high) scalar": (
        lambda: [int(rng(42, 10).integers(0, 1 << 48)), int(rng(42, 11).integers(0, 1 << 63)),
                 int(rng(42, 4).integers(0, 48))],
        [101853662533739, 167794512011506032, 19]),
    # netsim: latency jitter, a chunk at a time
    "integers(0, jitter + 1, size=chunk)": (
        lambda: rng(42, 1).integers(0, 3, size=8).tolist(),
        [1, 2, 1, 0, 2, 1, 2, 1]),
    # harness: transaction payloads as uint32 words
    "integers(0, 2**32, shape, dtype=uint32)": (
        lambda: rng(42, 12).integers(0, 1 << 32, (2, 2), dtype=np.uint32).tolist(),
        [[2345148186, 1166945029], [2460198593, 2136967461]]),
    # netsim: drop draws
    "random(size=chunk)": (
        lambda: rng(42, 2).random(size=3).tolist(),
        [0.2895089577003642, 0.9519967136151274, 0.09304438213630473]),
    # puf and fom: noisy reads; netsim: processing costs
    "standard_normal(n)": (
        lambda: rng(42, 3).standard_normal(3).tolist(),
        [-1.0247005749559046, 1.5080036072749925, -1.6555995506994188]),
    # puf.manufacture: oscillator frequencies
    "normal(mean, sigma, size=n)": (
        lambda: rng(42, 0).normal(250.0, 5.0, size=3).tolist(),
        [251.52358539877216, 244.80007946879752, 253.7522559790323]),
    # netsim: fabricated payloads and tags; harness: payloads of small worlds
    "bytes(n)": (
        lambda: rng(42, 4).bytes(8).hex(),
        "e27f5e66d08f86bf"),
}


def test_numpy_generator_streams_are_the_pinned_ones():
    moved = {name: got for name, (draw, expected) in PINNED.items()
             if (got := draw()) != expected}
    assert not moved, (
        f"numpy {np.__version__} draws other values than 2.4.6 did for {sorted(moved)}; "
        f"every golden digest built from these streams moves with them: {moved}")
