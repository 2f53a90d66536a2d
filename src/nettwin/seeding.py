"""Deterministic seed derivation shared by all stochastic components.

Every random draw in the package flows through a numpy Generator whose seed
is derived here. Derivation is pure, so any run, sample, fold or restart can
be reproduced in isolation without replaying the events that preceded it.
"""

from __future__ import annotations

import hashlib

import numpy as np

_U32 = 1 << 32


class SeedError(ValueError):
    """Raised for a seed component that no seed can be derived from."""


def _as_words(part: int | str) -> list[int]:
    if isinstance(part, bool):  # bool is an int subclass; keep it explicit
        return [int(part)]
    if isinstance(part, (int, np.integer)):
        value = int(part)
        if value < 0:
            raise SeedError(f"seed components must be non-negative, got {value}")
        words = []
        while True:
            words.append(value % _U32)
            value //= _U32
            if value == 0:
                return words
    if isinstance(part, str):
        digest = hashlib.sha256(part.encode("utf-8")).digest()
        return [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    raise TypeError(f"unsupported seed component type: {type(part).__name__}")


def derive_seed(*parts: int | str) -> int:
    """Mix components into a stable 64-bit seed.

    The mapping depends only on the component values, not on platform,
    process, or invocation order elsewhere in the program.
    """
    if not parts:
        raise ValueError("derive_seed needs at least one component")
    entropy: list[int] = []
    for part in parts:
        entropy.extend(_as_words(part))
    # one array: numpy would convert a list word by word, to the same words
    words = np.array(entropy, dtype=np.uint32)
    state = np.random.SeedSequence(words).generate_state(2, np.uint32)
    return int(state[0]) | (int(state[1]) << 32)


def make_rng(*parts: int | str) -> np.random.Generator:
    """Generator seeded from derive_seed(*parts)."""
    return np.random.Generator(np.random.PCG64(derive_seed(*parts)))
