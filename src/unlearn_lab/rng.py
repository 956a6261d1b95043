"""Named, counter-based random streams.

Every random block in the package is drawn from its own Philox stream,
keyed by ``(seed, label)``.  Streams are independent of each other and of
the order in which they are consumed, so adding or reordering blocks in a
generator never perturbs the values of the remaining blocks.
"""

from __future__ import annotations

import zlib

import numpy as np


def stream(seed: int, label: str) -> np.random.Generator:
    """Return the deterministic generator for ``(seed, label)``.

    The Philox key is the 64-bit seed paired with a CRC-32 of the label,
    which is stable across platforms and Python versions.  A seed that is
    not an integer (a bool included) raises :class:`TypeError`, and one
    outside ``[0, 2^64)`` :class:`ValueError`, so no two seeds share a key.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
    if not 0 <= int(seed) < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    key = np.array([int(seed), zlib.crc32(label.encode("utf-8"))], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
