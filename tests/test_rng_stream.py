"""numpy RNG-stream facts the bit-identity contract relies on, pinned.

Every engine family replays the scalar engine's draws exactly, and the event
engine's :class:`~repro.core.rng.BulkDraws` source goes further: it replays
numpy's bounded-integer draws in python from bulk blocks of raw 32-bit words.
That is only sound while the installed numpy lays the stream out as pinned
here.  A numpy upgrade that changes any of these facts fails this file
loudly instead of silently changing archived results:

* ``integers(0, b)`` (int64) is Lemire's multiply-and-reject on the bit
  generator's buffered ``next_uint32`` words, and ``integers(0, 1)`` draws
  nothing;
* ``integers(0, 2, size=r, dtype=int64)`` is the top bits of the next ``r``
  words;
* ``integers(0, 2**32, size=B, dtype=uint32)`` is exactly the next ``B``
  words, a pending half-word included;
* ``random()`` leaves a pending half-word buffered.

A hypothesis property then checks :class:`~repro.core.rng.BulkDraws` against
per-call draws value for value, final generator state included, across odd
draw counts, block-boundary crossings and early exit by exception.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import rng as rng_module
from repro.core.rng import BulkDraws, StreamDraws
from repro.errors import SimulationError
from repro.gf import GF

WORD = 1 << 32
BOUNDS = (2, 3, 7, 10, 255, 10_000, 2**31 + 5, 3_000_000_000, WORD - 1)


def _lemire(words, bound: int) -> int:
    """numpy's 32-bit bounded draw on an iterator of raw words."""
    product = next(words) * bound
    if product % WORD < bound:
        threshold = WORD % bound
        while product % WORD < threshold:
            product = next(words) * bound
    return product >> 32


def _pending(seed: int) -> np.random.Generator:
    """A PCG64 generator with a half-word buffered (``has_uint32 == 1``)."""
    rng = np.random.default_rng(seed)
    rng.integers(0, WORD, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"] == 1
    return rng


def _next_words(rng: np.random.Generator, count: int) -> list[int]:
    """The next ``count`` ``next_uint32`` words, derived from 64-bit outputs.

    PCG64 serves a 64-bit output as its low half, then its high half from
    the buffer; ``random_raw`` runs on a copy so ``rng`` is untouched.
    """
    state = rng.bit_generator.state
    words = [state["uinteger"]] if state["has_uint32"] else []
    copy = np.random.PCG64()
    copy.state = state
    for raw in copy.random_raw((count + 1) // 2).tolist():
        words += [raw & (WORD - 1), raw >> 32]
    return words[:count]


@pytest.mark.parametrize("pending", [False, True], ids=["aligned", "pending"])
def test_uint32_bulk_call_yields_the_next_words(pending):
    rng = _pending(3) if pending else np.random.default_rng(3)
    expected = _next_words(rng, 9)
    assert rng.integers(0, WORD, size=9, dtype=np.uint32).tolist() == expected


@pytest.mark.parametrize("bound", BOUNDS)
def test_bounded_draw_is_lemire_on_next_uint32(bound):
    rng = _pending(11)
    words = iter(_next_words(rng, 4000))
    draws = [int(rng.integers(0, bound)) for _ in range(1000)]
    assert draws == [_lemire(words, bound) for _ in range(1000)]
    # The generator consumed exactly the words the replay did.
    assert _next_words(rng, 4) == [next(words) for _ in range(4)]


def test_bound_one_draws_nothing():
    rng = _pending(5)
    before = rng.bit_generator.state
    assert int(rng.integers(0, 1)) == 0
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("count", [1, 2, 7, 8])
def test_bit_draws_are_top_bits_of_the_next_words(count):
    rng = _pending(8)
    words = _next_words(rng, count)
    bits = rng.integers(0, 2, size=count, dtype=np.int64).tolist()
    assert bits == [word >> 31 for word in words]
    reference = _pending(8)
    reference.integers(0, WORD, size=count, dtype=np.uint32)
    assert rng.bit_generator.state == reference.bit_generator.state


def test_random_leaves_the_pending_half_word_buffered():
    rng = _pending(21)
    pending = rng.bit_generator.state["uinteger"]
    rng.random()
    state = rng.bit_generator.state
    assert state["has_uint32"] == 1 and state["uinteger"] == pending


def test_bulk_draws_refuse_bounds_outside_32_bits():
    with BulkDraws(np.random.default_rng(0)) as draws:
        for bound in (0, WORD, WORD + 1):
            with pytest.raises(SimulationError, match="bounds"):
                draws.below(bound)


# ----------------------------------------------------------------------
# BulkDraws == StreamDraws, value for value and state for state
# ----------------------------------------------------------------------
BIT_GENERATORS = (np.random.PCG64, np.random.Philox, np.random.MT19937, np.random.SFC64)

OPS = st.one_of(
    st.tuples(st.just("below"), st.sampled_from((1,) + BOUNDS)),
    st.tuples(st.just("below"), st.integers(min_value=1, max_value=WORD - 1)),
    st.tuples(st.just("bit_mask"), st.integers(min_value=0, max_value=70)),
    st.tuples(st.just("elements"), st.integers(min_value=0, max_value=9)),
)


def _apply(draws, op, argument):
    if op == "elements":
        return draws.elements(GF(16), argument).tolist()
    return getattr(draws, op)(argument)


class _Stop(Exception):
    pass


def _state(rng: np.random.Generator):
    """The bit generator's state with arrays as lists, so states compare."""

    def plain(value):
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value

    return plain(rng.bit_generator.state)


@settings(max_examples=150, deadline=None)
@given(
    generator=st.sampled_from(BIT_GENERATORS),
    seed=st.integers(min_value=0, max_value=2**32),
    warmup=st.integers(min_value=0, max_value=3),
    block=st.sampled_from((1, 2, 3, 7, 64, 4096)),
    ops=st.lists(OPS, max_size=60),
    stop_after=st.one_of(st.none(), st.integers(min_value=0, max_value=60)),
)
def test_bulk_draws_match_per_call_draws(generator, seed, warmup, block, ops, stop_after):
    """Odd counts, tiny blocks (every crossing) and exits by exception."""
    bulk = np.random.Generator(generator(seed))
    scalar = np.random.Generator(generator(seed))
    for rng in (bulk, scalar):
        # An odd warm-up leaves a half-word pending on the 64-bit generators.
        rng.integers(0, WORD, size=warmup, dtype=np.uint32)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rng_module, "DRAW_BLOCK", block)
        got, expected = [], []
        try:
            with BulkDraws(bulk) as draws:
                for index, (op, argument) in enumerate(ops):
                    if index == stop_after:
                        raise _Stop
                    got.append(_apply(draws, op, argument))
        except _Stop:
            pass
    with StreamDraws(scalar) as draws:
        for op, argument in ops[: len(got)]:
            expected.append(_apply(draws, op, argument))
    assert got == expected
    assert _state(bulk) == _state(scalar)
    # Both generators continue identically afterwards.
    assert bulk.random() == scalar.random()
