"""Exact min-plus matrix algebra over the integers.

Scalars live in the tropical semiring (Z, oplus, otimes) where
``a oplus b = min(a, b)`` and ``a otimes b = a + b``.  Square matrices over
it add entrywise and multiply like ordinary matrices with (min, +) in place
of (+, *).  Entries are plain Python ints, so values hundreds of bits wide
(routine at the suggested key-exchange parameters) stay exact.  Floating
point is deliberately never used: the attack relies on exact order
comparisons, and a rounded entry could fake or hide an order relation.
Besides the plain product kernel there is a packed one for matrices of
bounded span, each held as one int of fixed-width fields: exact integer
arithmetic too, under the width condition its docstring proves.

Matrix addition is idempotent, which induces the partial order
``x <= y  iff  x oplus y == x``, i.e. entrywise ``<=``.  ``chain_compare``
classifies a pair of matrices under that order; elements of one monotone
power chain are always comparable.
"""

from __future__ import annotations

import reprlib
import sys
from array import array
from enum import Enum
from itertools import chain
from operator import add, le
from random import Random
from typing import Iterable, Iterator, Sequence


class DimensionMismatchError(ValueError):
    """Two matrices of different sizes were combined."""


class FormatError(ValueError):
    """A serialized object violates the wire format."""


class ChainOrdering(Enum):
    """Outcome of comparing two matrices under the min-plus partial order."""

    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


class TropicalMatrix:
    """An immutable k-by-k integer matrix under (min, +) arithmetic.

    ``entries`` is a tuple of its k*k ints, row-major, and ``rows`` a view
    of them as a tuple of k tuples of k ints.  Instances are values:
    equality and hashing are structural, all operations return new
    matrices, and instances may be shared freely across threads.
    """

    __slots__ = ("k", "entries")

    k: int
    entries: tuple[int, ...]

    def __init__(self, rows: Iterable[Iterable[int]]):
        rows = tuple(tuple(row) for row in rows)
        k = len(rows)
        if k == 0:
            raise ValueError("matrix needs at least one row")
        for row in rows:
            if len(row) != k:
                raise ValueError(f"expected {k} entries per row, got {len(row)}")
            for entry in row:
                if type(entry) is not int:  # bools and other int subclasses may not write as ints
                    raise TypeError(f"entries must be int, not {type(entry).__name__}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "entries", tuple(_flatten(rows)))

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_rows_of(self.entries, self.k))

    def __setattr__(self, name, value):
        raise AttributeError("TropicalMatrix is immutable")

    def __eq__(self, other):
        if not isinstance(other, TropicalMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        body = ", ".join(repr(list(row)) for row in self.rows)
        if len(body) <= 120:
            return f"TropicalMatrix([{body}])"
        return f"TropicalMatrix(k={self.k}, <{self.k * self.k} entries>)"

    def _check_dim(self, other: "TropicalMatrix") -> None:
        if self.k != other.k:
            raise DimensionMismatchError(
                f"dimension mismatch: {self.k}x{self.k} vs {other.k}x{other.k}"
            )

    def oplus(self, other: "TropicalMatrix") -> "TropicalMatrix":
        """Entrywise minimum of two matrices of the same size."""
        self._check_dim(other)
        return _wrap_flat(map(min, self.entries, other.entries), self.k)

    def otimes(self, other: "TropicalMatrix") -> "TropicalMatrix":
        """Min-plus matrix product: result[i][j] = min over l of a[i][l] + b[l][j]."""
        self._check_dim(other)
        k = self.k
        return _wrap_flat(_min_plus(_rows_of(self.entries, k), _columns_of(other.entries, k)), k)

    def transpose(self) -> "TropicalMatrix":
        return _wrap_flat(_flatten(_columns_of(self.entries, self.k)), self.k)

    def leq(self, other: "TropicalMatrix") -> bool:
        """True iff self oplus other == self, i.e. entrywise self <= other."""
        self._check_dim(other)
        return all(map(le, self.entries, other.entries))


def _check_matrices(record, *names: str) -> None:
    # The named fields of a record must be matrices, so that a wrong type
    # is refused by name before any field's size is read.
    for name in names:
        if not isinstance(value := getattr(record, name), TropicalMatrix):
            raise TypeError(f"'{name}' must be a TropicalMatrix, not {type(value).__name__}")


# The one unchecked constructor, for results built by the kernels, the
# parser and the sampler: k*k ints in row-major order.  Skips validation
# (which would dominate the hot loops) and sets the slots through their
# descriptors, past the immutability guard in __setattr__.
_new_matrix = object.__new__
_set_k = TropicalMatrix.k.__set__
_set_entries = TropicalMatrix.entries.__set__


def _wrap_flat(entries: Iterable[int], k: int) -> TropicalMatrix:
    m = _new_matrix(TropicalMatrix)
    _set_k(m, k)
    _set_entries(m, tuple(entries))
    return m


_flatten = chain.from_iterable


def _rows_of(entries: Sequence[int], k: int) -> Iterator[tuple[int, ...]]:
    # The rows of k*k row-major entries, cut lazily: zip takes k at a time
    # from one iterator.
    return zip(*[iter(entries)] * k)


def _columns_of(entries: Sequence[int], k: int) -> list[Sequence[int]]:
    # The columns of k*k row-major entries, each one slice.
    return [entries[j::k] for j in range(k)]


def _min_plus(rows, cols) -> list[int]:
    # The package's one k^3 min-plus product: entry (i, j) is the minimum
    # of rows[i][l] + cols[j][l] over l, flat and row-major like a matrix's
    # ``entries``, so callers fold further entrywise minima into one pass.
    # ``rows`` is read once and ``cols`` once per row.
    _min, _map, _add = min, map, add
    return [_min(_map(_add, row, col)) for row in rows for col in cols]


# Field sizes, in bytes, that an unsigned array type stores natively, with
# its type code.  On a little-endian machine an array's bytes are then its
# items in order, least significant byte first: exactly a packed int's
# fields, so ``_Packing`` converts all k^2 of them in one call.  Elsewhere
# the table is empty and every size takes the bytes path.
_ARRAY_CODES = {array(code).itemsize: code for code in "BHIQ"} if sys.byteorder == "little" else {}


class _Packing:
    """A layout that holds a k-by-k matrix of non-negative ints up to
    ``largest`` as one int: entry (i, j) is the w-bit field at bit
    (i k + j) w, row-major.  The low w - 1 bits of a field hold
    ``largest``, and its top bit is the guard bit; w is rounded up to a
    multiple of 8 so that packing and unpacking go through bytes, and
    through one ``array`` of the field's machine width when it has one
    (1, 2, 4 or 8 bytes).  Either way an entry below 0 or of 2^w or more
    raises ``OverflowError``.  Callers build one per use (four masks) and
    keep track of each packed matrix's offset, the scalar its fields omit.
    """

    __slots__ = ("k", "w", "code", "column", "spread", "guard", "ones")

    def __init__(self, k: int, largest: int):
        self.k = k
        self.w = w = (largest.bit_length() + 8) // 8 * 8
        size = w // 8
        self.code = _ARRAY_CODES.get(size)
        # each mask is one field's bytes repeated: low byte first
        one, zeros = b"\x01" + bytes(size - 1), bytes(size * (k - 1))
        self.spread = int.from_bytes(one * k, "little")  # a 1 in each field of row 0
        self.ones = int.from_bytes(one * (k * k), "little")  # a 1 in every field
        # the values of column 0: 2^(w-1) - 1 in field (i, 0), every i
        self.column = int.from_bytes((b"\xff" * (size - 1) + b"\x7f" + zeros) * k, "little")
        self.guard = int.from_bytes((bytes(size - 1) + b"\x80") * (k * k), "little")

    def pack(self, entries: Iterable[int]) -> int:
        """k*k ints in [0, 2^(w-1)), row-major, as one int."""
        if self.code:
            return int.from_bytes(array(self.code, entries).tobytes(), "little")
        size = self.w // 8
        return int.from_bytes(b"".join(e.to_bytes(size, "little") for e in entries), "little")

    def fields(self, x: int) -> list[int]:
        """The k*k fields of ``x``, row-major: ``pack`` undone."""
        size = self.w // 8
        data = x.to_bytes(self.k * self.k * size, "little")
        if self.code:
            return array(self.code, data).tolist()
        read = int.from_bytes
        return [read(data[i : i + size], "little") for i in range(0, len(data), size)]

    def unpack(self, x: int, offset: int) -> TropicalMatrix:
        """The matrix whose fields ``x`` holds, each plus ``offset``."""
        return _wrap_flat([f + offset for f in self.fields(x)], self.k)

    def tiles(self, x: int) -> list[int]:
        """Row l of ``x`` copied into every row, for each l: the right
        factor of ``_min_plus_packed``."""
        k, size = self.k, self.k * self.w // 8
        data, read = x.to_bytes(k * size, "little"), int.from_bytes
        return [read(data[i : i + size] * k, "little") for i in range(0, len(data), size)]


def _min_plus_packed(x: int, tiles: list[int], packing: _Packing) -> int:
    """The min-plus product of two packed matrices, packed: ``x`` is the
    left factor and ``tiles`` the right factor's ``packing.tiles``.

    Exact when every field of x plus every field of the right factor is
    below 2^(w-1), the guard bit, and then so is every field of the
    product.  Step l spreads column l of x across each row (mask column
    0, multiply by a 1 in each field of the row) and adds row l of the
    right factor to every row: field (i, j) is x[i][l] + v[l][j], below
    the guard bit, so no sum carries into the next field.  The running
    minimum of two such ints a, y sets each field's guard bit in
    (a | G) - y, G the guard bits, iff a >= y there: each field computes
    2^(w-1) + a - y in [1, 2^w), so no borrow crosses a field.  Masked to
    G as m, m - (m >> (w - 1)) fills the value bits of just those fields,
    and the xor selects y in them and keeps a elsewhere.  k such steps of
    a dozen whole-matrix int operations replace the k^3 interpreted adds
    of ``_min_plus``.
    """
    w, column, spread, guard = packing.w, packing.column, packing.spread, packing.guard
    top = w - 1
    acc = (x & column) * spread + tiles[0]
    for tile in tiles[1:]:
        x >>= w
        y = (x & column) * spread + tile
        m = ((acc | guard) - y) & guard
        acc ^= (acc ^ y) & (m - (m >> top))
    return acc


_LESS, _EQUAL, _GREATER, _INCOMPARABLE = (
    ChainOrdering.LESS, ChainOrdering.EQUAL, ChainOrdering.GREATER, ChainOrdering.INCOMPARABLE
)


def chain_compare(x: TropicalMatrix, y: TropicalMatrix) -> ChainOrdering:
    """Classify x against y under the min-plus partial order.

    INCOMPARABLE means neither x <= y nor y <= x; callers walking a
    monotone power chain treat that as evidence the inputs are not on a
    common chain, not as a value to coerce.
    """
    x._check_dim(y)
    x_entries, y_entries = x.entries, y.entries
    if x_entries == y_entries:
        return _EQUAL
    if all(map(le, x_entries, y_entries)):
        return _LESS
    if all(map(le, y_entries, x_entries)):
        return _GREATER
    return _INCOMPARABLE


def random_matrix(k: int, n_bound: int, rng: Random) -> TropicalMatrix:
    """A k-by-k matrix with entries drawn uniformly from [-n_bound, n_bound].

    The caller owns the seeded ``random.Random`` instance, so runs are
    replayable.  The entries, row-major, are what k*k calls to
    ``rng.randint(-n_bound, n_bound)`` would draw, and ``rng`` is left in
    the same state, but they are drawn straight through ``rng.getrandbits``
    as CPython's ``randint`` does it: one ``getrandbits(width.bit_length())``
    call per try, width = 2 n_bound + 1, repeated while the value is not
    below width, and the entry is that value less n_bound.  k and n_bound
    must be ints, not bools.
    """
    for name, value in (("k", k), ("n_bound", n_bound)):
        if type(value) is not int:
            raise ValueError(f"'{name}' must be an integer")
    if k < 1:
        raise ValueError("k must be >= 1")
    if n_bound < 0:
        raise ValueError("entry bound must be >= 0")
    width = 2 * n_bound + 1
    bits, draw = width.bit_length(), rng.getrandbits
    entries = []
    add = entries.append
    for _ in range(k * k):
        r = draw(bits)
        while r >= width:
            r = draw(bits)
        add(r - n_bound)
    return _wrap_flat(entries, k)


# Wire format: {"k": int, "entries": [[str, ...], ...]}, row-major, every
# entry a decimal string so arbitrary-precision values survive JSON intact.
# A cell is canonical iff it is a str equal to str(int(cell)): str writes
# exactly "0" or an optional "-" and digits without a leading 0, and a cell
# of any other type never equals a str.  ``int`` raises ValueError on other
# text and past the digit limit, TypeError on null, lists and objects, and
# OverflowError on JSON's Infinity.
_NOT_DECIMAL = (ValueError, TypeError, OverflowError)


def matrix_to_json(m: TropicalMatrix) -> dict:
    return {"k": m.k, "entries": [[str(e) for e in row] for row in m.rows]}


def _refusal(row: list) -> FormatError:
    # The error for a row that is not all canonical, naming its first bad
    # cell: only a refused row is checked one cell at a time.
    for cell in row:
        try:
            if str(int(cell)) == cell:
                continue
            reason = ""
        except _NOT_DECIMAL as exc:
            reason = f": {exc}"
        return FormatError(f"entry {reprlib.repr(cell)} is not a canonical decimal string{reason}")


def matrix_from_json(obj) -> TropicalMatrix:
    if not isinstance(obj, dict):
        raise FormatError("matrix must be a JSON object")
    if "k" not in obj or "entries" not in obj:
        raise FormatError("matrix object needs 'k' and 'entries'")
    k = obj["k"]
    entries = obj["entries"]
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise FormatError("'k' must be a positive integer")
    if not isinstance(entries, list) or len(entries) != k:
        raise FormatError(f"'entries' must be a list of {k} rows")
    flat: list[int] = []
    for row in entries:
        if not isinstance(row, list) or len(row) != k:
            raise FormatError(f"each row must be a list of {k} entries")
        try:
            parsed = tuple(map(int, row))
            canonical = list(map(str, parsed)) == row
        except _NOT_DECIMAL:
            canonical = False
        if not canonical:
            raise _refusal(row)
        flat += parsed
    return _wrap_flat(flat, k)
