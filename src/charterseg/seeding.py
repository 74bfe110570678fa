"""Deterministic seed derivation.

Every stochastic component draws from its own generator seeded through
``derive_seed``, keyed by what it draws for, so results never depend on draw order.
"""

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One step of the splitmix64 mixing function (64-bit avalanche)."""
    x = (x + _GOLDEN) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def derive_seed(master: int, *indices: int) -> int:
    """Mix a master seed with one or more stream indices into a fresh seed."""
    s = splitmix64(master & _MASK)
    for i in indices:
        s = splitmix64(s ^ ((i + 1) & _MASK))
    return s


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed & _MASK))
