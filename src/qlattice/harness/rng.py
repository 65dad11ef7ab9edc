"""Counter-based per-case random streams.

Each verification case draws from a Philox generator keyed by (seed, case
index), so the sampled inputs are independent of worker count and execution
order.  case_rngs re-keys one Philox per case; case_integers draws a block
of cases' integer tuples from their raw Philox words, as numpy's
Generator.integers would draw them one case at a time.
"""

from __future__ import annotations

import numpy as np


def _key(seed: int, case_index: int) -> np.ndarray:
    # an explicit uint64 array: from a list, numpy would take a word at or
    # above 2**63 (any negative seed) through float64 and lose it
    return np.array([seed & 0xFFFFFFFFFFFFFFFF, case_index & 0xFFFFFFFFFFFFFFFF],
                    dtype=np.uint64)


def case_rng(seed: int, case_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=_key(seed, case_index)))


def case_rngs(seed: int, cases):
    """Yield, for each index in cases, a generator that draws what
    case_rng(seed, index) draws.  One Philox is re-keyed per case (counter
    0, empty buffer), which a counter-based generator allows, so each
    yielded generator is valid only until the next one is yielded.  A
    caller that draws more of a case's stream later keeps the generator's
    bit_generator.state after its draws and sets it back first
    (suites._sample)."""
    bits = np.random.Philox(key=_key(seed, 0))
    gen = np.random.Generator(bits)
    # the fresh state (counter 0, empty buffer), whose key word 1 each case
    # sets in place: the state setter copies the arrays
    state = bits.state
    key = state["state"]["key"]
    for idx in cases:
        key[1] = idx & 0xFFFFFFFFFFFFFFFF
        bits.state = state
        yield gen


_LOW32 = np.uint64(0xFFFFFFFF)


def case_integers(seed: int, cases, n: int, k: int) -> np.ndarray:
    """The (B, k) int64 array whose row i is case_rng(seed, cases[i])
    .integers(0, n, k), for 1 <= n < 2**32.

    It reproduces numpy's Generator.integers for a range below 2**32 (numpy
    2.x, random_bounded_uint64_fill), which tests/test_harness.py pins row
    for row: each 64-bit Philox word gives two 32-bit words u, low half first
    (Philox's next_uint32), and each value is (u * n) >> 32 (Lemire's
    method).  Only the ceil(k / 2) words of each re-keyed case are drawn
    one case at a time; the products are formed for the whole block.  Where
    some (u * n) mod 2**32 falls below 2**32 mod n, Lemire's method draws
    again and shifts the row's later words, so that row is drawn by
    Generator.integers itself."""
    cases = list(cases)
    half = (k + 1) // 2
    words = np.array([gen.bit_generator.random_raw(half) for gen in case_rngs(seed, cases)],
                     dtype=np.uint64).reshape(len(cases), half)
    u = np.stack((words & _LOW32, words >> np.uint64(32)), axis=-1).reshape(len(cases), -1)
    m = u[:, :k] * np.uint64(n)
    out = (m >> np.uint64(32)).astype(np.int64)
    for row in np.flatnonzero(((m & _LOW32) < 2 ** 32 % n).any(axis=1)):
        out[row] = case_rng(seed, cases[row]).integers(0, n, k)
    return out
