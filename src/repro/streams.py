"""Per-instance RNG streams, built for a whole instance range at once.

Every chunk-stable draw in the package gives instance ``i`` its own
generator, ``np.random.default_rng((*prefix, i))``, where ``prefix`` is
``(seed,)`` for the silicon draws or ``(seed, tag[, stratum])`` for the
component and mission draws.  Constructing one such generator costs far
more than the handful of normals it then draws: ``SeedSequence`` hashes
the key word by word in interpreted code, and ``PCG64`` seeds itself from
it.  This module produces the *same* generators, bit for bit, without
that per-instance construction:

1. the ``SeedSequence`` entropy hash (``hashmix`` / ``mix`` /
   ``generate_state``, all ``uint32`` arithmetic whose multiplier sequence
   does not depend on the data) runs as numpy array arithmetic over the
   whole instance range;
2. the 128-bit ``PCG64`` seeding step (``state = 0; step; state +=
   initstate; step`` with ``inc = 2 * initseq + 1``) runs on Python ints;
3. one reused ``Generator(PCG64)`` gets each instance's state assigned
   through the public ``bit_generator.state`` setter, with the buffered
   ``uint32`` (``has_uint32`` / ``uinteger``) cleared exactly as a fresh
   generator has it.

This relies only on numpy's documented stream-stability guarantees: the
``SeedSequence`` algorithm and the ``PCG64`` seeding and state layout are
fixed across numpy versions (distributions drawn *from* a generator are
not part of what this module reproduces -- the caller draws them from the
returned generator exactly as before).  ``tests/test_streams.py`` checks
the equivalence against ``default_rng`` directly.

Example -- the streams of instances 5, 6, 7 under key prefix ``(2012,)``:

    >>> import numpy as np
    >>> draws = [rng.standard_normal() for rng in instance_streams((2012,), 5, 3)]
    >>> draws == [np.random.default_rng((2012, i)).standard_normal()
    ...           for i in (5, 6, 7)]
    True
"""

from __future__ import annotations

import operator
from collections.abc import Iterator, Sequence

import numpy as np
import numpy.typing as npt

__all__ = ["instance_streams", "standard_normals"]

_Words = npt.NDArray[np.uint32]

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1

# numpy.random.SeedSequence constants (bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)

#: PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645

#: Instances below this bound key on one or two uint32 entropy words and
#: are hashed vectorized; larger ones fall back to ``default_rng``.
_VECTOR_LIMIT = 1 << 64


def _uint32_words(value: int) -> list[int]:
    """``value`` split into little-endian uint32 words, as ``SeedSequence``
    splits an integer entropy element (zero is one zero word)."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


class _Hasher:
    """``SeedSequence``'s ``hashmix`` with its evolving multiplier."""

    def __init__(self, init: int, mult: int) -> None:
        self.const = init
        self.mult = mult

    def __call__(self, value: _Words) -> _Words:
        value = value ^ np.uint32(self.const)
        self.const = (self.const * self.mult) & _MASK32
        value = value * np.uint32(self.const)
        return value ^ (value >> _XSHIFT)


def _mix(x: _Words, y: _Words) -> _Words:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _seed_words(entropy: Sequence[_Words], count: int) -> list[_Words]:
    """The 8 uint32 words ``SeedSequence(entropy).generate_state(4, u64)``
    produces, for ``count`` entropy vectors given column by column."""
    hashmix = _Hasher(_INIT_A, _MULT_A)
    zero = np.zeros(count, dtype=np.uint32)
    pool = [
        hashmix(entropy[i] if i < len(entropy) else zero)
        for i in range(_POOL_SIZE)
    ]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(_POOL_SIZE, len(entropy)):
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], hashmix(entropy[i_src]))
    generate = _Hasher(_INIT_B, _MULT_B)
    return [generate(pool[i % _POOL_SIZE]) for i in range(8)]


def _pcg64_states(
    prefix_words: list[int], instances: npt.NDArray[np.uint64]
) -> Iterator[tuple[int, int]]:
    """``(state, inc)`` of ``PCG64`` seeded from ``(*prefix, i)`` per ``i``."""
    count = len(instances)
    entropy = [np.full(count, word, dtype=np.uint32) for word in prefix_words]
    entropy.append((instances & _MASK32).astype(np.uint32))
    if instances[-1] > _MASK32:  # one range never straddles 2**32
        entropy.append((instances >> np.uint64(32)).astype(np.uint32))
    words = [word.astype(np.uint64) for word in _seed_words(entropy, count)]
    # generate_state(4, uint64) pairs the words little-endian.
    lanes = [
        (words[2 * k] | (words[2 * k + 1] << np.uint64(32))).tolist()
        for k in range(4)
    ]
    for high_s, low_s, high_i, low_i in zip(*lanes):
        inc = (((high_i << 64) | low_i) << 1 | 1) & _MASK128
        state = (inc + ((high_s << 64) | low_s)) & _MASK128
        yield (state * _PCG_MULTIPLIER + inc) & _MASK128, inc


def instance_streams(
    prefix: Sequence[int], first_instance: int, count: int
) -> Iterator[np.random.Generator]:
    """Generators of instances ``[first_instance, first_instance + count)``.

    The ``k``-th generator yielded is bit-identical to
    ``np.random.default_rng((*prefix, first_instance + k))``.  One
    generator object is reused: its state is reset before each yield, so
    consume each stream before advancing the iterator and keep no
    reference to it.  Negative keys raise the same :class:`ValueError` as
    ``SeedSequence``.
    """
    prefix_words = [word for value in prefix for word in _uint32_words(value)]
    _uint32_words(first_instance)  # SeedSequence's error for a negative key
    if count < 0:
        raise ValueError(f"count must be non-negative; got {count}")
    generator = np.random.Generator(np.random.PCG64(0))
    bit_generator = generator.bit_generator
    end = first_instance + count
    start = first_instance
    while start < min(end, _VECTOR_LIMIT):
        # Split at 2**32 so every block keys on a fixed number of words.
        limit = _MASK32 + 1 if start <= _MASK32 else _VECTOR_LIMIT
        stop = min(end, limit)
        instances = np.arange(start, stop, dtype=np.uint64)
        for state, inc in _pcg64_states(prefix_words, instances):
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield generator
        start = stop
    for offset in range(max(start, _VECTOR_LIMIT) - first_instance, count):
        yield np.random.default_rng((*prefix, first_instance + offset))


def standard_normals(
    prefix: Sequence[int],
    first_instance: int,
    count: int,
    shape: int | tuple[int, ...],
) -> npt.NDArray[np.float64]:
    """Standard normals of shape ``(count, *shape)``, row ``k`` drawn first
    thing from instance ``first_instance + k``'s stream -- exactly
    ``default_rng((*prefix, first_instance + k)).standard_normal(shape)``."""
    z = np.empty((count, *np.atleast_1d(shape)))
    for row, rng in zip(z, instance_streams(prefix, first_instance, count)):
        rng.standard_normal(out=row)
    return z
