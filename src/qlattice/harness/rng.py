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
    yielded generator is valid only until the next one is yielded."""
    bits = np.random.Philox(key=_key(seed, 0))
    gen = np.random.Generator(bits)
    state = bits.state
    for idx in cases:
        state["state"] = {"counter": np.zeros(4, dtype=np.uint64), "key": _key(seed, idx)}
        bits.state = state
        yield gen
