"""The batched stream builder reproduces ``default_rng`` bit for bit.

:func:`repro.streams.instance_streams` replaces per-instance
``np.random.default_rng((*prefix, i))`` construction everywhere a draw is
chunk-stable, so every golden output rests on it producing exactly those
generators.  These properties compare it with ``default_rng`` directly
across the whole key space the package uses: 64-bit seeds, the
``comp`` / ``stra`` / ``miss`` stream tags, stratum keys, instance ranges
that start at 0 or straddle the ``2**32`` entropy-word boundary, and the
draw kinds that exercise every piece of generator state (doubles,
buffered ``uint32`` integers, permutation-based ``choice``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.converter.missions import MISSION_STREAM_TAG
from repro.core.yield_analysis import _COMPONENT_STREAM_TAG, _STRATUM_STREAM_TAG
from repro.streams import instance_streams, standard_normals

WORD = 2**32

seeds = st.integers(min_value=0, max_value=2**64 - 1)
prefixes = st.one_of(
    st.tuples(seeds),
    st.tuples(seeds, st.sampled_from([_COMPONENT_STREAM_TAG, MISSION_STREAM_TAG])),
    st.tuples(
        seeds, st.just(_STRATUM_STREAM_TAG), st.integers(min_value=0, max_value=7)
    ),
)
#: First instances near 0, near the 2**32 word boundary, and far beyond it.
firsts = st.one_of(
    st.integers(min_value=0, max_value=64),
    st.integers(min_value=WORD - 8, max_value=WORD + 8),
    st.integers(min_value=WORD, max_value=2**64 - 16),
)


def _consume(rng: np.random.Generator) -> tuple[object, ...]:
    """Draw a mix that touches every piece of a generator's state.

    The first draw is a buffered ``uint32`` one that never rejects, so a
    stale ``has_uint32`` / ``uinteger`` pair left over from the previous
    instance would show up as a wrong first value.
    """
    return (
        int(rng.integers(2**31)),
        rng.standard_normal(3).tolist(),
        int(rng.integers(5)),  # buffered uint32 draw
        rng.random(),
        int(rng.integers(5)),  # consumes the buffered half
        rng.choice(np.arange(1, 300), size=4, replace=False).tolist(),
        int(rng.integers(2**31)),
    )


@given(prefix=prefixes, first=firsts, count=st.integers(min_value=1, max_value=12))
@settings(max_examples=150, deadline=None)
def test_streams_match_default_rng(
    prefix: tuple[int, ...], first: int, count: int
) -> None:
    batched = [_consume(rng) for rng in instance_streams(prefix, first, count)]
    reference = [
        _consume(np.random.default_rng((*prefix, first + k))) for k in range(count)
    ]
    assert batched == reference


def test_range_straddling_the_word_boundary_matches() -> None:
    first = WORD - 3
    batched = [rng.random() for rng in instance_streams((2012, 5), first, 6)]
    reference = [
        np.random.default_rng((2012, 5, first + k)).random() for k in range(6)
    ]
    assert batched == reference


def test_instances_beyond_64_bits_fall_back_exactly() -> None:
    first = 2**64 - 2
    batched = [rng.random() for rng in instance_streams((7,), first, 4)]
    reference = [np.random.default_rng((7, first + k)).random() for k in range(4)]
    assert batched == reference


@given(
    prefix=prefixes,
    first=st.integers(min_value=0, max_value=2**40),
    count=st.integers(min_value=1, max_value=9),
    shape=st.sampled_from([5, (3, 2), (1,), (4, 1, 2)]),
)
@settings(max_examples=60, deadline=None)
def test_standard_normals_match_per_instance_draws(
    prefix: tuple[int, ...], first: int, count: int, shape: int | tuple[int, ...]
) -> None:
    z = standard_normals(prefix, first, count, shape)
    reference = np.stack(
        [
            np.random.default_rng((*prefix, first + k)).standard_normal(shape)
            for k in range(count)
        ]
    )
    assert z.shape == reference.shape
    np.testing.assert_array_equal(z, reference)


def test_empty_range_yields_nothing() -> None:
    assert list(instance_streams((1,), 3, 0)) == []
    assert standard_normals((1,), 3, 0, 4).shape == (0, 4)


@pytest.mark.parametrize(
    ("prefix", "first"), [((-1,), 0), ((3, -2), 0), ((3,), -1)]
)
def test_negative_keys_raise_like_seed_sequence(
    prefix: tuple[int, ...], first: int
) -> None:
    with pytest.raises(ValueError) as expected:
        np.random.SeedSequence((*prefix, first))
    with pytest.raises(ValueError) as raised:
        list(instance_streams(prefix, first, 2))
    assert str(raised.value) == str(expected.value)


def test_negative_count_raises() -> None:
    with pytest.raises(ValueError, match="count"):
        list(instance_streams((1,), 0, -1))
