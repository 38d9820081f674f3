"""Counter-based random streams.

Every consumer of randomness in the package derives its generator from an
explicit Philox key (seed, domain-tagged index), so draws are reproducible
and independent of execution order: replication k of a simulation always
sees the same stream no matter how many other replications ran before it.
"""

from __future__ import annotations

import numpy as np

# Domain tags keep unrelated consumers of the same user seed on disjoint keys.
DOMAIN_SIM_EXACT = 0
DOMAIN_SIM_EULER = 1
DOMAIN_LIMIT = 2
DOMAIN_REFERENCE = 3

_DOMAIN_SHIFT = 56


def stream(seed: int, domain: int, index: int = 0) -> np.random.Generator:
    """Generator for (seed, domain, index), bit-stable across runs."""
    return rekey(np.random.Generator(np.random.Philox()), seed, domain, index)


def check_seed(seed: int) -> None:
    """Raise ValueError unless seed fits the 64-bit Philox key word."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")


def rekey(gen: np.random.Generator, seed: int, domain: int, index: int = 0) -> np.random.Generator:
    """Reset Philox generator gen to the start of the (seed, domain, index) stream,
    keyed directly: a new Philox would hash OS entropy even when given a key."""
    check_seed(seed)
    if not 0 <= index < 2**_DOMAIN_SHIFT:
        raise ValueError(f"stream index out of range: {index}")
    key = np.array([seed, (int(domain) << _DOMAIN_SHIFT) | int(index)], dtype=np.uint64)
    gen.bit_generator.state = {"bit_generator": "Philox", "buffer": np.zeros(4, np.uint64),
                               "state": {"counter": np.zeros(4, np.uint64), "key": key},
                               "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return gen
