"""Seedable, portable randomness: SplitMix64 with documented substreams.

SplitMix64 output ``i`` (0-based) of a stream seeded with ``seed`` is a
pure function of the counter::

    out(seed, i) = mix64((seed + (i + 1) * GAMMA) mod 2**64)

so scalar and vectorized evaluation agree bit-exactly on every platform.

Stream splitting rule: substream ``s`` of a master seed is itself seeded
with ``out(master, s)``.  Consumers use fixed substream indices:

* axis ``i`` of a grid selection uses substream ``i`` (1-based);
* Monte Carlo trial ``t`` uses substream ``TRIAL_OFFSET + t``;
* projection retry ``r`` uses substream ``RETRY_OFFSET + r``;
* two-slit sampling uses substream ``SLIT_OFFSET + which``.

Selection against an exact rational probability ``p`` keeps draw ``u``
iff ``u / 2**64 < p``, i.e. ``u < ceil(p * 2**64)`` — no floating point.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

TRIAL_OFFSET = 1 << 32
RETRY_OFFSET = 1 << 33
SLIT_OFFSET = 1 << 34


def mix64(z: int) -> int:
    z &= MASK64
    z = ((z ^ (z >> 30)) * _M1) & MASK64
    z = ((z ^ (z >> 27)) * _M2) & MASK64
    return z ^ (z >> 31)


def splitmix64(seed: int, index: int) -> int:
    """Output ``index`` (0-based) of the SplitMix64 stream seeded with ``seed``."""
    if index < 0:
        raise ValueError("stream index must be nonnegative")
    return mix64((seed + (index + 1) * GAMMA) & MASK64)


def substream(seed: int, s: int) -> int:
    """Seed of substream ``s`` of the given master seed."""
    return splitmix64(seed, s)


BLOCK = 1 << 13  # outputs per seed in one stage-1 selection block
# the step table: (i + 1) * GAMMA mod 2**64 for i < BLOCK
_STEPS = np.arange(1, BLOCK + 1, dtype=np.uint64) * np.uint64(GAMMA)
_MIX = ((np.uint64(30), np.uint64(_M1)), (np.uint64(27), np.uint64(_M2)), (np.uint64(31), None))


def splitmix64_block(seed, start: int, count: int, out: np.ndarray | None = None) -> np.ndarray:
    """Outputs ``start .. start+count-1`` as a uint64 array (one row per
    seed if ``seed`` is a sequence), into ``out`` if given: the step table
    (i + 1) * GAMMA plus each seed's offset start * GAMMA + seed, then
    ``mix64`` in place, where uint64 array arithmetic wraps mod 2**64."""
    steps = _STEPS[:count]
    if count > len(_STEPS):
        steps = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(GAMMA)
    one = np.isscalar(seed)
    offsets = [(int(s) + start * GAMMA) & MASK64 for s in ([seed] if one else seed)]
    if out is None:
        out = np.empty(count if one else (len(offsets), count), dtype=np.uint64)
    z = out[None] if one else out
    np.add(steps, np.array(offsets, dtype=np.uint64)[:, None], out=z)
    shifted = np.empty_like(z)
    for shift, mult in _MIX:  # numpy scalars built at import, not per block
        z ^= np.right_shift(z, shift, out=shifted)
        if mult is not None:
            z *= mult
    return out


def selection_threshold(p: Fraction) -> int:
    """Smallest t with u < t  <=>  u/2**64 < p, for 64-bit draws u."""
    if not 0 <= p <= 1:
        raise ValueError("probability must lie in [0, 1]")
    num, den = p.numerator << 64, p.denominator
    return -((-num) // den)  # ceil(num / den)


def integer_root(x: int, m: int) -> int:
    """floor(x ** (1/m)) for nonnegative integer x, by Newton iteration."""
    if x < 0 or m < 1:
        raise ValueError("integer_root needs x >= 0 and m >= 1")
    if x == 0:
        return 0
    r = 1 << (x.bit_length() // m + 1)
    while True:
        nxt = ((m - 1) * r + x // r ** (m - 1)) // m
        if nxt >= r:
            break
        r = nxt
    while r ** m > x:
        r -= 1
    return r


def default_selection_probability(k: int, n: int) -> Fraction:
    """Largest multiple of 2**-64 not exceeding min(1, 2 * n**(-2/(2k-1)))."""
    if k < 2 or n < 1:
        raise ValueError("need k >= 2 and n >= 1")
    m = 2 * k - 1
    t = integer_root((1 << (65 * m)) // (n * n), m)
    return Fraction(min(t, 1 << 64), 1 << 64)
