"""Counter-based per-case random streams.

Each verification case draws from a Philox generator keyed by (seed, case
index), so the sampled inputs are independent of worker count and execution
order.
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
