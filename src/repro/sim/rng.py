"""Named, seeded random streams, and draws from them in bulk.

Experiments need independent random streams (arrival process, address
generator, workload mix, ...) that are individually reproducible and do not
perturb one another when one component draws more numbers.  ``stream(seed,
name)`` derives an independent :class:`random.Random` for each (seed, name)
pair via SHA-256, so adding a new consumer never changes existing streams.

:func:`random_floats` and :func:`randrange_ints` replay *n* calls of
``random()`` or ``randrange(stop)`` on such a stream as one numpy array:
the same values, and the stream left in the state the *n* calls leave it
in.  Both read the Mersenne Twister's 32-bit outputs in bulk through
``getrandbits(32 * m)``, which hands out the next *m* outputs at once,
first output in the lowest bits.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np

__all__ = ["derive_seed", "stream", "random_floats", "randrange_ints"]

#: ``random()`` is ``(a * 2**26 + b) * 2**-53`` for the next two outputs
#: shifted right by 5 and 6 bits (CPython's ``random_random``)
_HIGH = 67108864.0
_SCALE = 1.0 / 9007199254740992.0


def derive_seed(seed: int, name: str) -> int:
    """Derive a 64-bit child seed from a parent seed and a stream name."""
    digest = hashlib.sha256(f"{seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def stream(seed: int, name: str) -> random.Random:
    """Return an independent ``random.Random`` for the (seed, name) pair."""
    return random.Random(derive_seed(seed, name))


def _outputs(rng: random.Random, m: int) -> np.ndarray:
    """The generator's next *m* 32-bit outputs, in draw order."""
    return np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"),
                         dtype="<u4")


def random_floats(rng: random.Random, n: int) -> np.ndarray:
    """*n* values of ``rng.random()``, drawn in order, leaving *rng* in the
    state those *n* calls leave it in.  *rng* is a plain
    :class:`random.Random` (each value is two of its outputs)."""
    if n <= 0:
        return np.empty(0, dtype=np.float64)
    words = _outputs(rng, 2 * n)
    high = (words[0::2] >> np.uint32(5)).astype(np.float64)
    low = (words[1::2] >> np.uint32(6)).astype(np.float64)
    return (high * _HIGH + low) * _SCALE


def randrange_ints(rng: random.Random, stop: int, n: int) -> np.ndarray:
    """*n* values of ``rng.randrange(stop)``, drawn in order, leaving *rng*
    in the state those *n* calls leave it in.

    For a plain :class:`random.Random` and ``stop < 2**32`` the calls are
    replayed in bulk: each ``randrange(stop)`` try takes the top
    ``stop.bit_length()`` bits of one output and rejects values ``>=
    stop``.  Every round draws only as many outputs as values are still
    missing, so no output past the last accepted one is consumed.  Other
    generators, and wider ranges, draw through ``randrange`` itself."""
    k = stop.bit_length()
    if type(rng) is not random.Random or k > 32:
        randrange = rng.randrange
        return np.array([randrange(stop) for _ in range(n)], dtype=np.int64)
    parts = [np.empty(0, dtype=np.int64)]
    missing = n
    while missing > 0:
        values = _outputs(rng, missing) >> np.uint32(32 - k)
        values = values[values < stop]
        parts.append(values.astype(np.int64))
        missing -= len(values)
    return np.concatenate(parts)
