"""Bit-packed word-parallel GF(2) kernels (the ``gf2bit`` backend).

Over ``GF(2)`` a row of ``c`` field elements is just ``c`` bits, so this
backend packs every stored row into ``ceil(c / 64)`` ``uint64`` words
(column ``j`` is bit ``j % 64`` of word ``j // 64``) and replaces the dense
field arithmetic of the numpy backend with machine-word operations, in the
style of the M4RI family of GF(2) libraries:

* **elimination** — subtracting a pivot row is one XOR per word instead of a
  masked modular multiply-subtract over ``c`` bytes (the numpy
  :class:`~repro.gf.field.PrimeField` path widens to int64 on top);
* **pivot normalisation** — a GF(2) pivot is always 1, so the whole
  normalisation step disappears;
* **pivot search** — the first non-zero column of a reduced row is the
  lowest set bit of its first non-zero word, found with an isolate-and-log2
  trick on whole batches at once;
* **encoding** — a random linear combination is the XOR-reduction of the
  packed basis rows selected by the 0/1 coefficients.

Everything is **bit-identical** to the numpy backend by construction: both
maintain the canonical RREF basis, and the RREF of a subspace is unique.
``tests/test_backend_conformance.py`` asserts this on seeded random traces,
whole registry scenarios and hypothesis-generated matrices.

Any field other than ``GF(2)`` is rejected with a typed
:class:`~repro.errors.BackendError` — never a silent fallback — so a run
that names this backend either computes with packed words or fails loudly.
"""

from __future__ import annotations

import numpy as np

from ..errors import BackendError, FieldError
from ..gf.field import GaloisField
from .base import ComputeBackend, EliminatorState

__all__ = ["Gf2BitBackend", "PackedGf2Eliminator"]

_WORD_BITS = 64
_BYTE_SHIFTS = (np.arange(8, dtype=np.uint64) * np.uint64(8))
_ONE = np.uint64(1)
_WORD_MASK = (1 << _WORD_BITS) - 1


def _require_gf2(field: GaloisField) -> None:
    """The no-silent-fallback guard: anything but GF(2) is a typed error."""
    if field.order != 2:
        raise BackendError(
            f"the gf2bit backend only supports GF(2), got GF({field.order}); "
            "choose the numpy backend for other fields"
        )


def _pack_rows(rows: np.ndarray, words: int) -> np.ndarray:
    """Pack ``(m, c)`` 0/1 rows into ``(m, words)`` little-bit-endian uint64."""
    m = rows.shape[0]
    bits = np.packbits(rows, axis=1, bitorder="little")  # (m, ceil(c/8)) bytes
    padded = np.zeros((m, words * 8), dtype=np.uint8)
    padded[:, : bits.shape[1]] = bits
    grouped = padded.reshape(m, words, 8).astype(np.uint64)
    return np.bitwise_or.reduce(grouped << _BYTE_SHIFTS, axis=2)


def _unpack_rows(packed: np.ndarray, columns: int, dtype) -> np.ndarray:
    """Inverse of :func:`_pack_rows` for any ``(..., words)`` array."""
    if packed.size == 0:
        return np.zeros((*packed.shape[:-1], columns), dtype=dtype)
    grouped = ((packed[..., np.newaxis] >> _BYTE_SHIFTS) & np.uint64(0xFF)).astype(
        np.uint8
    )
    flat = grouped.reshape(*packed.shape[:-1], -1)
    bits = np.unpackbits(flat, axis=-1, bitorder="little")
    return bits[..., :columns].astype(dtype)


def _lowest_set_bit(masked: np.ndarray) -> np.ndarray:
    """Global bit index of the lowest set bit of each ``(m, words)`` row.

    Rows must be non-zero.  Isolates the lowest bit of the first non-zero
    word with ``v & (~v + 1)`` and recovers its position through an exact
    ``log2`` (powers of two up to ``2**63`` are exact in float64).
    """
    first_word = np.argmax(masked != 0, axis=1).astype(np.int64)
    vals = np.take_along_axis(masked, first_word[:, np.newaxis], axis=1)[:, 0]
    lowest = vals & (~vals + _ONE)
    bit = np.rint(np.log2(lowest.astype(np.float64))).astype(np.int64)
    return first_word * _WORD_BITS + bit


def _ints_to_words(values: "list[int]", words: int) -> np.ndarray:
    """Python ints as ``(len(values), words)`` little-endian uint64 rows."""
    shifts = range(0, words * _WORD_BITS, _WORD_BITS)
    flat = np.fromiter(
        ((value >> shift) & _WORD_MASK for value in values for shift in shifts),
        dtype=np.uint64,
        count=len(values) * words,
    )
    return flat.reshape(-1, words)


def _words_to_ints(packed: np.ndarray) -> "list[int]":
    """Inverse of :func:`_ints_to_words` for any ``(..., words)`` array."""
    blob = np.ascontiguousarray(packed, dtype=np.uint64).tobytes()
    width = packed.shape[-1] * 8
    return [
        int.from_bytes(blob[start : start + width], "little")
        for start in range(0, len(blob), width)
    ]


class PackedGf2Eliminator(EliminatorState):
    """Word-parallel incremental GF(2) elimination over stacked problems.

    The packed twin of :class:`~repro.gf.linalg.BatchEliminator`: identical
    constructor signature, identical validation, identical canonical-RREF
    state — but ``rows[b, p]`` is a ``(words,)`` uint64 view of the stored
    row and every sweep is XOR arithmetic.  :meth:`basis` and :meth:`combine`
    unpack back to dense field elements on demand, so callers never see the
    packed representation.

    The single-problem fast path (:meth:`combine_one` / :meth:`eliminate_one`)
    works on a second representation built on its first use: every stored
    row as one python int in a flat ``batch * pivot_limit`` list, plus one
    pivot bitmask int per problem.  The fast path marks the problems it
    changes; the ``rows`` / ``pivot_mask`` / ``ranks`` arrays are written back
    from the ints whenever they are read and before any batch-side method
    runs, and batch-side mutations refresh the ints of the problems they
    touch, so whichever side is read, it holds the current state.
    """

    def __init__(
        self,
        field: GaloisField,
        batch: int,
        columns: int,
        *,
        augmented_columns: int = 0,
    ) -> None:
        _require_gf2(field)
        if batch < 1:
            raise FieldError(f"batch size must be positive, got {batch}")
        if columns < 1:
            raise FieldError(f"column count must be positive, got {columns}")
        if not 0 <= augmented_columns < columns:
            raise FieldError(
                f"augmented_columns must lie in [0, {columns}), "
                f"got {augmented_columns}"
            )
        self.field = field
        self.batch = batch
        self.columns = columns
        self.pivot_limit = columns - augmented_columns
        self.words = (columns + _WORD_BITS - 1) // _WORD_BITS
        #: Packed stored rows, keyed by pivot column as in BatchEliminator.
        self._rows = np.zeros((batch, self.pivot_limit, self.words), dtype=np.uint64)
        self._pivot_mask = np.zeros((batch, self.pivot_limit), dtype=bool)
        self._ranks = np.zeros(batch, dtype=np.int64)
        # Word mask selecting the pivot-eligible bits (augmented bits never
        # decide helpfulness or pivots).
        pivot_words = np.zeros(self.words, dtype=np.uint64)
        for word in range(self.words):
            low = word * _WORD_BITS
            high = min(low + _WORD_BITS, self.pivot_limit)
            if high <= low:
                continue
            count = high - low
            if count == _WORD_BITS:
                pivot_words[word] = np.uint64(0xFFFFFFFFFFFFFFFF)
            else:
                pivot_words[word] = (_ONE << np.uint64(count)) - _ONE
        self._pivot_words = pivot_words
        # Pivot-eligible bits of a whole packed row, as one arbitrary-precision
        # python int (the single-delivery fast path works in int space).
        self._eligible_int = (1 << self.pivot_limit) - 1
        self._mask_words = (self.pivot_limit + _WORD_BITS - 1) // _WORD_BITS
        # The fast path's int state (None until first used), and one flag
        # per problem it changed since the arrays were last written back.
        self._ints: "list[int] | None" = None
        self._pivot_bits: "list[int]" = []
        self._dirty = bytearray(batch)

    @property
    def rows(self) -> np.ndarray:
        """``(batch, pivot_limit, words)`` packed stored rows."""
        self._sync()
        return self._rows

    @property
    def pivot_mask(self) -> np.ndarray:
        """``(batch, pivot_limit)`` bool: which pivot columns each problem holds."""
        self._sync()
        return self._pivot_mask

    @property
    def ranks(self) -> np.ndarray:
        """``(batch,)`` int64 rank of every problem."""
        self._sync()
        return self._ranks

    def _sync(self) -> None:
        """Write the fast path's changed problems back into the arrays."""
        if self._ints is None:
            return
        flags = np.frombuffer(self._dirty, dtype=np.uint8)
        dirty = np.flatnonzero(flags).tolist()
        flags[dirty] = 0
        limit = self.pivot_limit
        for start in range(0, len(dirty), 1024):
            problems = dirty[start : start + 1024]
            rows = [
                self._ints[problem * limit + col]
                for problem in problems
                for col in range(limit)
            ]
            bits = [self._pivot_bits[problem] for problem in problems]
            self._rows[problems] = _ints_to_words(rows, self.words).reshape(
                len(problems), limit, self.words
            )
            self._pivot_mask[problems] = _unpack_rows(
                _ints_to_words(bits, self._mask_words), limit, bool
            )
            self._ranks[problems] = [value.bit_count() for value in bits]

    def _int_state(self) -> "list[int]":
        """The fast path's flat int rows, built from the arrays on first use."""
        if self._ints is None:
            self._ints = _words_to_ints(self._rows.reshape(-1, self.words))
            self._pivot_bits = _words_to_ints(
                _pack_rows(self._pivot_mask, self._mask_words)
            )
        return self._ints

    def _refresh_ints(self, problems: "list[int]") -> None:
        """Re-read the int state of ``problems`` after a batch-side mutation."""
        if self._ints is None or not problems:
            return
        limit = self.pivot_limit
        rows = _words_to_ints(self._rows[problems])
        bits = _words_to_ints(_pack_rows(self._pivot_mask[problems], self._mask_words))
        for offset, problem in enumerate(problems):
            self._ints[problem * limit : (problem + 1) * limit] = rows[
                offset * limit : (offset + 1) * limit
            ]
            self._pivot_bits[problem] = bits[offset]

    def eliminate(
        self, incoming: np.ndarray, indices: "np.ndarray | None" = None
    ) -> np.ndarray:
        """Absorb one row per selected problem; return the helpfulness mask.

        Same contract (and validation) as
        :meth:`repro.gf.linalg.BatchEliminator.eliminate`; the arithmetic is
        one XOR per 64 columns instead of a dense field sweep.
        """
        self._sync()
        work = np.ascontiguousarray(incoming, dtype=self.field.dtype)
        if work.ndim != 2 or work.shape[1] != self.columns:
            raise FieldError(
                f"expected incoming rows of shape (m, {self.columns}), got {work.shape}"
            )
        if indices is None:
            indices = np.arange(work.shape[0])
        else:
            indices = np.asarray(indices, dtype=np.int64)
            if indices.shape != (work.shape[0],):
                raise FieldError(
                    f"indices shape {indices.shape} does not match {work.shape[0]} rows"
                )
            if indices.size > 1 and np.unique(indices).size != indices.size:
                raise FieldError(
                    "eliminate requires distinct problem indices "
                    "(one row per problem per sweep)"
                )
        packed = _pack_rows(work, self.words)
        # Forward sweep over the stored pivot columns: testing bit ``col`` of
        # every incoming row and XOR-ing the matching packed pivot rows in.
        selected_mask = self._pivot_mask[indices]
        for col in np.nonzero(selected_mask.any(axis=0))[0]:
            word, bit = divmod(int(col), _WORD_BITS)
            has_bit = (packed[:, word] >> np.uint64(bit)) & _ONE
            live = selected_mask[:, col] & has_bit.astype(bool)
            if not live.any():
                continue
            sel = np.nonzero(live)[0]
            packed[sel] ^= self._rows[indices[sel], col]
        masked = packed & self._pivot_words[np.newaxis, :]
        helpful = masked.any(axis=1)
        sel = np.nonzero(helpful)[0]
        if sel.size:
            # The new pivot is the lowest surviving pivot-eligible bit; a
            # GF(2) pivot is already 1, so there is nothing to normalise.
            new_pivots = _lowest_set_bit(masked[sel])
            problems = indices[sel]
            stored = self._rows[problems]
            word_idx = (new_pivots // _WORD_BITS).astype(np.int64)
            bit_idx = (new_pivots % _WORD_BITS).astype(np.uint64)
            pivot_col_words = np.take_along_axis(
                stored, word_idx[:, np.newaxis, np.newaxis], axis=2
            )[:, :, 0]
            factors = (pivot_col_words >> bit_idx[:, np.newaxis]) & _ONE
            # Back-substitute: XOR the new row into every stored row holding
            # the new pivot bit (0/1 factors make the multiply a select).
            self._rows[problems] = stored ^ (
                factors[:, :, np.newaxis] * packed[sel][:, np.newaxis, :]
            )
            self._rows[problems, new_pivots] = packed[sel]
            self._pivot_mask[problems, new_pivots] = True
            self._ranks[problems] += 1
            self._refresh_ints(problems.tolist())
        return helpful

    def rank_of(self, index: int) -> int:
        """Current rank of one problem."""
        return int(self.ranks[index])

    def basis(self, index: int) -> np.ndarray:
        """Stored RREF rows of one problem, pivot order, unpacked (a copy)."""
        self._sync()
        pivots = np.nonzero(self._pivot_mask[index])[0]
        return _unpack_rows(self._rows[index, pivots], self.columns, self.field.dtype)

    def combine(self, index: int, coefficients: np.ndarray) -> np.ndarray:
        """Linear combination of one problem's stored rows (the encode step)."""
        self._sync()
        pivots = np.nonzero(self._pivot_mask[index])[0]
        coefficients = np.asarray(coefficients)
        if coefficients.shape != pivots.shape:
            raise FieldError(
                f"expected {pivots.size} coefficients for problem {index}, "
                f"got {coefficients.shape}"
            )
        if pivots.size == 0:
            return self.field.zeros(self.columns)
        selected = self._rows[index, pivots] * coefficients.astype(np.uint64)[
            :, np.newaxis
        ]
        return _unpack_rows(
            np.bitwise_xor.reduce(selected, axis=0), self.columns, self.field.dtype
        )

    def combine_one(self, index: int, coefficients: "np.ndarray | int") -> int:
        """Encode step for one problem, returned as one packed python int.

        The packed twin of :meth:`combine`: same coefficient-per-pivot
        semantics (ascending pivot order), but the XOR-reduction runs on
        python ints and the dense unpack is skipped entirely.
        ``coefficients`` is either the ``rank`` field elements or one int
        whose bit ``j`` is the coefficient of the ``j``-th pivot (what
        :meth:`~repro.core.rng.StreamDraws.bit_mask` draws).  The payload is
        only meaningful to :meth:`eliminate_one` on this eliminator.
        """
        ints = self._ints if self._ints is not None else self._int_state()
        bits = self._pivot_bits[index]
        if not isinstance(coefficients, int):
            coefficients = np.asarray(coefficients)
            if coefficients.shape != (bits.bit_count(),):
                raise FieldError(
                    f"expected {bits.bit_count()} coefficients for problem "
                    f"{index}, got {coefficients.shape}"
                )
            coefficients = _words_to_ints(
                _pack_rows(coefficients[np.newaxis], self._mask_words)
            )[0]
        elif coefficients >> bits.bit_count():
            raise FieldError(
                f"coefficient mask {coefficients:#x} exceeds the "
                f"{bits.bit_count()} pivots of problem {index}"
            )
        base = index * self.pivot_limit - 1
        acc = 0
        while coefficients:
            low = bits & -bits
            if coefficients & 1:
                acc ^= ints[base + low.bit_length()]
            bits ^= low
            coefficients >>= 1
        return acc

    def eliminate_one(self, index: int, payload: int) -> bool:
        """Absorb one packed-int payload into one problem.

        Bit-identical to a single-row :meth:`eliminate` call on the unpacked
        payload, but every sweep is python-int bit arithmetic — no array
        packing, no per-column numpy dispatch.  This is what keeps the
        event-driven engine's per-delivery cost in the microsecond range.
        """
        ints = self._ints if self._ints is not None else self._int_state()
        bits = self._pivot_bits[index]
        base = index * self.pivot_limit - 1
        # Forward sweep.  The stored rows are in RREF, so each one is zero in
        # every other stored pivot column: XOR-ing it in clears exactly its
        # own pivot bit, and the pivots to clear are those set on entry.
        hits = payload & bits
        while hits:
            low = hits & -hits
            payload ^= ints[base + low.bit_length()]
            hits ^= low
        residual = payload & self._eligible_int
        if not residual:
            return False
        # The new pivot is the lowest surviving eligible bit.  Back-substitute
        # it out of every stored row, then store the row under it.
        pivot_bit = residual & -residual
        scan = bits
        while scan:
            low = scan & -scan
            slot = base + low.bit_length()
            if ints[slot] & pivot_bit:
                ints[slot] ^= payload
            scan ^= low
        ints[base + pivot_bit.bit_length()] = payload
        self._pivot_bits[index] = bits | pivot_bit
        self._dirty[index] = 1
        return True

    def reset_problems(self, indices: np.ndarray) -> None:
        """Wipe the selected problems back to the empty (rank-zero) state.

        Same contract as
        :meth:`repro.gf.linalg.BatchEliminator.reset_problems` — the cleared
        problems behave exactly like freshly constructed ones.
        """
        self._sync()
        indices = np.asarray(indices, dtype=np.int64)
        self._rows[indices] = 0
        self._pivot_mask[indices] = False
        self._ranks[indices] = 0
        self._refresh_ints(indices.tolist())


class Gf2BitBackend(ComputeBackend):
    """Bit-packed GF(2) linear algebra; rejects every other field loudly."""

    name = "gf2bit"

    def supports_field(self, field: GaloisField) -> bool:
        return field.order == 2

    def row_reduce(
        self, field: GaloisField, matrix: np.ndarray, *, augmented_columns: int = 0
    ) -> "tuple[np.ndarray, list[int]]":
        _require_gf2(field)
        work = field.validate(matrix).copy()
        if work.ndim != 2:
            raise FieldError(f"row_reduce expects a 2-D matrix, got shape {work.shape}")
        rows, cols = work.shape
        pivot_limit = cols - augmented_columns
        if pivot_limit < 0:
            raise FieldError(
                f"augmented_columns={augmented_columns} exceeds column count {cols}"
            )
        if rows == 0 or cols == 0 or pivot_limit == 0:
            return work, []
        words = (cols + _WORD_BITS - 1) // _WORD_BITS
        packed = _pack_rows(work, words)
        pivot_columns = self._packed_rref(packed, pivot_limit)
        return _unpack_rows(packed, cols, field.dtype), pivot_columns

    @staticmethod
    def _packed_rref(packed: np.ndarray, pivot_limit: int) -> "list[int]":
        """In-place packed RREF; mirrors the reference sweep swap-for-swap.

        Dependent rows (zero in the pivot-eligible columns) keep exactly the
        residuals — and the row order — the dense reference produces, so the
        unpacked output is byte-identical to the numpy backend's.
        """
        rows = packed.shape[0]
        pivot_columns: "list[int]" = []
        pivot_row = 0
        for col in range(pivot_limit):
            if pivot_row >= rows:
                break
            word, bit = divmod(col, _WORD_BITS)
            column_bits = (packed[pivot_row:, word] >> np.uint64(bit)) & _ONE
            candidates = np.nonzero(column_bits)[0]
            if candidates.size == 0:
                continue
            source = pivot_row + int(candidates[0])
            if source != pivot_row:
                packed[[pivot_row, source]] = packed[[source, pivot_row]]
            # Eliminate the pivot bit from every other row in one XOR pass.
            has_bit = ((packed[:, word] >> np.uint64(bit)) & _ONE).astype(bool)
            has_bit[pivot_row] = False
            sel = np.nonzero(has_bit)[0]
            if sel.size:
                packed[sel] ^= packed[pivot_row]
            pivot_columns.append(col)
            pivot_row += 1
        return pivot_columns

    def rank(self, field: GaloisField, matrix: np.ndarray) -> int:
        _require_gf2(field)
        matrix = field.validate(matrix)
        if matrix.size == 0:
            return 0
        words = (matrix.shape[1] + _WORD_BITS - 1) // _WORD_BITS
        packed = _pack_rows(matrix, words)
        return len(self._packed_rref(packed, matrix.shape[1]))

    def is_in_row_space(
        self, field: GaloisField, matrix: np.ndarray, vector: np.ndarray
    ) -> bool:
        _require_gf2(field)
        matrix = field.validate(matrix)
        vector = field.validate(vector)
        if matrix.size == 0:
            return not np.any(vector)
        if vector.ndim != 1 or vector.shape[0] != matrix.shape[1]:
            raise FieldError(
                f"vector of length {vector.shape} does not match matrix with "
                f"{matrix.shape[1]} columns"
            )
        eliminator = PackedGf2Eliminator(field, 1, matrix.shape[1])
        target = np.zeros(1, dtype=np.int64)
        for row in matrix:
            eliminator.eliminate(row[np.newaxis, :], target)
        # Helpful ⇔ the vector increases the rank ⇔ it is NOT in the span.
        return not bool(eliminator.eliminate(vector[np.newaxis, :], target)[0])

    def make_eliminator(
        self,
        field: GaloisField,
        batch: int,
        columns: int,
        *,
        augmented_columns: int = 0,
    ) -> EliminatorState:
        _require_gf2(field)
        return PackedGf2Eliminator(
            field, batch, columns, augmented_columns=augmented_columns
        )
