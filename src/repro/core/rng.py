"""Deterministic random-number management for simulations.

All stochastic components of the library (gossip partner selection,
asynchronous node activation, RLNC coefficient sampling, queueing service
times) draw from :class:`numpy.random.Generator` instances produced here so
that every experiment is reproducible from a single integer seed.

The central concept is a *stream*: a named, independent random generator
derived from a root seed.  Deriving the same stream name from the same root
seed always yields an identical sequence, while distinct stream names yield
statistically independent sequences.  This lets a simulation use separate
streams for, e.g., the activation schedule and the coding coefficients, so
changing one component does not perturb the randomness of another.
"""

from __future__ import annotations

import hashlib
from typing import Iterator

import numpy as np

from ..errors import SimulationError

__all__ = [
    "DEFAULT_SEED",
    "make_rng",
    "derive_seed",
    "derive_rng",
    "spawn_rngs",
    "RngStreams",
    "StreamDraws",
    "BulkDraws",
]

#: Seed used when the caller does not supply one.  Chosen arbitrarily but
#: fixed so that "no seed" still means "reproducible".
DEFAULT_SEED = 20110123  # the arXiv submission date of the paper (2011-01-23)

#: ``next_uint32`` words a :class:`BulkDraws` source pulls per refill.
DRAW_BLOCK = 4096

_WORD = 1 << 32
_LOW = _WORD - 1


def make_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may be ``None`` (use :data:`DEFAULT_SEED`), an integer, or an
    existing generator (returned unchanged).  Accepting an existing generator
    makes it convenient for helpers to take ``seed`` parameters that are
    either raw seeds or already-constructed generators.
    """
    if seed is None:
        return np.random.default_rng(DEFAULT_SEED)
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(int(seed))


def derive_seed(root_seed: int, stream: str) -> int:
    """Derive a child seed from ``root_seed`` and a ``stream`` name.

    The derivation hashes the pair so that nearby root seeds and similar
    stream names still produce unrelated child seeds.  The result fits in
    63 bits and is therefore safe to pass to :func:`numpy.random.default_rng`.
    """
    digest = hashlib.sha256(f"{root_seed}:{stream}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF


def derive_rng(root_seed: int, stream: str) -> np.random.Generator:
    """Return an independent generator for the named ``stream``."""
    return np.random.default_rng(derive_seed(root_seed, stream))


def spawn_rngs(root_seed: int, count: int, prefix: str = "trial") -> Iterator[np.random.Generator]:
    """Yield ``count`` independent generators, one per repeated trial.

    The ``i``-th generator is derived from the stream ``f"{prefix}-{i}"`` so
    trials can run in any order (or in parallel) and still be reproducible.
    """
    for index in range(count):
        yield derive_rng(root_seed, f"{prefix}-{index}")


class RngStreams:
    """Bundle of named random streams sharing a single root seed.

    A simulation typically needs several independent sources of randomness.
    ``RngStreams`` hands out one generator per name, lazily, and caches it so
    repeated lookups return the same generator object (and hence continue the
    same sequence).

    Example
    -------
    >>> streams = RngStreams(seed=7)
    >>> activation = streams["activation"]
    >>> coding = streams["coding"]
    >>> activation is streams["activation"]
    True
    """

    def __init__(self, seed: int | None = None) -> None:
        self.seed = DEFAULT_SEED if seed is None else int(seed)
        self._cache: dict[str, np.random.Generator] = {}

    def __getitem__(self, stream: str) -> np.random.Generator:
        if stream not in self._cache:
            self._cache[stream] = derive_rng(self.seed, stream)
        return self._cache[stream]

    def reset(self) -> None:
        """Forget all cached generators so streams restart from scratch."""
        self._cache.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"RngStreams(seed={self.seed}, streams={sorted(self._cache)})"


class StreamDraws:
    """Bounded-integer draws issued on the generator one numpy call at a time.

    The reference behaviour :class:`BulkDraws` replays, behind the same
    interface.  Use it wherever other code draws from the same generator in
    between (loss coins, weighted wakeups), which a bulk source cannot allow.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng

    def __enter__(self) -> "StreamDraws":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def below(self, bound: int) -> int:
        """One uniform integer in ``[0, bound)``: ``int(rng.integers(0, bound))``."""
        return int(self.rng.integers(0, bound))

    def bit_mask(self, count: int) -> int:
        """``count`` uniform bits (GF(2) elements) packed as one int, draw ``j`` at bit ``j``."""
        bits = self.rng.integers(0, 2, size=count, dtype=np.int64).astype(np.uint8)
        return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")

    def elements(self, field, count: int) -> np.ndarray:
        """``field.random_elements(rng, count)``."""
        return field.random_elements(self.rng, count)


class BulkDraws(StreamDraws):
    """:class:`StreamDraws`, replayed in python from bulk blocks of raw words.

    For ``bound < 2**32`` numpy's ``Generator.integers(0, bound)`` (int64,
    scalar or sized) is Lemire's multiply-and-reject on the bit generator's
    buffered ``next_uint32`` words, and ``bound == 1`` draws nothing, while
    ``integers(0, 2**32, size=B, dtype=np.uint32)`` returns exactly the next
    ``B`` of those words.  This source pulls :data:`DRAW_BLOCK` words at a time
    and replays the bounded draws on python ints, so a hot loop pays no numpy
    call per draw; a GF(2) draw is the top bit of its word.

    Use it as a context manager, and draw nothing else from ``rng`` inside.
    On exit, also by exception, the generator is rewound to its entry state
    and advanced by exactly the words consumed, in chunks of at most one
    block, so its state (the pending ``has_uint32`` half-word included) is
    what the same draws issued per call would leave.  ``tests/test_rng_stream
    .py`` pins each of these stream facts against the installed numpy.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        super().__init__(rng)
        self._words: list[int] = []
        self._tops = 0  # bit t is the top bit of self._words[t]
        self._next = 0
        self._pulled = 0

    def __enter__(self) -> "BulkDraws":
        self._entry = self.rng.bit_generator.state
        return self

    def __exit__(self, *exc_info) -> None:
        consumed = self._pulled - len(self._words) + self._next
        self.rng.bit_generator.state = self._entry
        while consumed > 0:
            chunk = min(consumed, DRAW_BLOCK)
            self.rng.integers(0, _WORD, size=chunk, dtype=np.uint32)
            consumed -= chunk
        self._words, self._tops, self._next, self._pulled = [], 0, 0, 0

    def _refill(self) -> None:
        block = self.rng.integers(0, _WORD, size=DRAW_BLOCK, dtype=np.uint32)
        self._words = block.tolist()
        tops = np.packbits((block >> 31).astype(np.uint8), bitorder="little")
        self._tops = int.from_bytes(tops.tobytes(), "little")
        self._next = 0
        self._pulled += DRAW_BLOCK

    def _word(self) -> int:
        if self._next == len(self._words):
            self._refill()
        self._next += 1
        return self._words[self._next - 1]

    def below(self, bound: int) -> int:
        if not 1 < bound < _WORD:
            if bound == 1:
                return 0
            raise SimulationError(
                f"bulk draws replay bounds in [1, 2**32) only, got {bound}"
            )
        index = self._next
        if index == len(self._words):
            self._refill()
            index = 0
        product = self._words[index] * bound
        self._next = index + 1
        if product & _LOW < bound:
            threshold = _WORD % bound
            while product & _LOW < threshold:
                product = self._word() * bound
        return product >> 32

    def bit_mask(self, count: int) -> int:
        start = self._next
        if start + count <= len(self._words):
            self._next = start + count
            return (self._tops >> start) & ((1 << count) - 1)
        mask = 0
        for bit in range(count):
            mask |= (self._word() >> 31) << bit
        return mask

    def elements(self, field, count: int) -> np.ndarray:
        order = field.order
        return np.array([self.below(order) for _ in range(count)], dtype=field.dtype)
