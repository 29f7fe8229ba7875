"""The two pair operations the key exchange is built on.

A pair (M, G) combines with (S, H) under either of two laws:

  circ:  (M oplus S oplus H oplus (M otimes H),  G oplus H oplus (G otimes H))
  star:  ((H otimes M^T) oplus (M^T otimes H) oplus S,  G otimes H)

For both laws the first component of a product never depends on G, which
is what lets the key-exchange parties publish first components only.

circ is an honest semigroup operation: its first component applies the
map X -> X + H + (X * H) to M, and that family of maps is closed under
composition (composing the maps for H and V gives the map for
H + V + (H * V), the same law the second component follows).

star, written exactly as above, is NOT associative for k >= 2: its first
component applies X -> (H * X^T) + (X^T * H) to M, and composing two
such maps re-transposes X, producing terms no single-parameter map of
the same shape can express.  The test suite pins a concrete 2x2
counterexample.  Consequences, all exercised by tests: powers under star
depend on the multiplication order, so ``power`` (which combines the
squares in ascending bit order) and the two step-by-step folds can
disagree for k >= 2; the key exchange over star can fail to agree; and
the chain search over star can step off the chain.  Only the left fold
base * (base * (... )) yields the monotone first-component chain, so
chain-related code uses that order for star.  Everything is consistent
for k == 1, where transposition is trivial and star is associative.

Powering is one least-bit-first pass: ``powers`` squares the base once
per bit and folds each square into the accumulator of every exponent
with that bit set, so several powers of one base share their squarings
(both parties of an exchange power the same public pair).  There is no
identity pair (the semiring has no multiplicative identity matrix), so
exponents start at 1.

Every counted application goes through ``apply``, which picks the law and
increments an optional ``OpCounter`` by exactly one.  The attack's cost
guarantees are stated in these counts, so they are measured, never
estimated.  ``product_first`` computes only the first component of a
product, which is all a party needs to derive the shared key.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import add
from typing import Sequence

from .tropical import DimensionMismatchError, FormatError, TropicalMatrix, _flatten, _wrap_flat
from .tropical import matrix_from_json, matrix_to_json


class SemigroupOpKind(Enum):
    CIRC = "circ"
    STAR = "star"


# Enum members bound once: a class-attribute lookup on an Enum costs several
# times a global load, and ``apply`` runs once per pair application.
_CIRC, _STAR = SemigroupOpKind.CIRC, SemigroupOpKind.STAR


@dataclass(frozen=True, slots=True)
class SemigroupPair:
    """A pair of equally sized matrices, the element both laws combine."""

    first: TropicalMatrix
    second: TropicalMatrix

    def __post_init__(self):
        if self.first.k != self.second.k:
            raise DimensionMismatchError(
                f"pair components differ in size: {self.first.k} vs {self.second.k}"
            )

    @property
    def k(self) -> int:
        return self.first.k


class OpCounter:
    """Mutable tally of pair-operation applications, owned by the caller."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def __repr__(self):
        return f"OpCounter(count={self.count})"


_new_pair_object = object.__new__
_set_first = SemigroupPair.first.__set__
_set_second = SemigroupPair.second.__set__


def _new_pair(first: TropicalMatrix, second: TropicalMatrix) -> SemigroupPair:
    # Internal fast constructor for results whose dimensions already match;
    # the slot descriptors bypass the frozen dataclass's __setattr__.
    pair = _new_pair_object(SemigroupPair)
    _set_first(pair, first)
    _set_second(pair, second)
    return pair


# The kernels fuse the entrywise minima into the product pass: a separate
# pass per oplus term would add a k^2 cost with a constant big enough to
# distort small-k timings, and the benchmark asserts that the attack's cost
# profile is k^3-shaped.  For the same reason each kernel works on the k^2
# entries as one flat row-major sequence and cuts it into rows only once, in
# ``_wrap_flat``: per-row iterators and comprehension frames cost about as
# much as the arithmetic at k = 5.


def _circ_first(
    m: TropicalMatrix, s: TropicalMatrix, h: TropicalMatrix, h_cols: tuple[tuple[int, ...], ...]
) -> TropicalMatrix:
    # M + S + H + (M * H), given the columns of H: circ's first component;
    # with S = H also its second.
    _min, _map, _add = min, map, add
    products = [_min(_map(_add, m_row, col)) for m_row in m.rows for col in h_cols]
    return _wrap_flat(
        _map(_min, products, _flatten(m.rows), _flatten(s.rows), _flatten(h.rows)),
        len(h_cols),
    )


def _star_first(m: TropicalMatrix, s: TropicalMatrix, h: TropicalMatrix) -> TropicalMatrix:
    # (H * M^T) + (M^T * H) + S: star's first component.
    m_rows, h_cols = m.rows, h._columns()
    _min, _map, _add = min, map, add
    left = [_min(_map(_add, h_row, m_row)) for h_row in h.rows for m_row in m_rows]
    # row i of M^T is column i of M
    right = [_min(_map(_add, m_col, h_col)) for m_col in m._columns() for h_col in h_cols]
    return _wrap_flat(_map(_min, left, right, _flatten(s.rows)), len(m_rows))


def op_circ(p: SemigroupPair, q: SemigroupPair) -> SemigroupPair:
    """First law, circ: see the module docstring."""
    if p.first.k != q.first.k:
        raise DimensionMismatchError(f"pair dimension mismatch: {p.k} vs {q.k}")
    h = q.second
    h_cols = h._columns()
    return _new_pair(_circ_first(p.first, q.first, h, h_cols), _circ_first(p.second, h, h, h_cols))


def op_star(p: SemigroupPair, q: SemigroupPair) -> SemigroupPair:
    """Second law, star: see the module docstring."""
    if p.first.k != q.first.k:
        raise DimensionMismatchError(f"pair dimension mismatch: {p.k} vs {q.k}")
    return _new_pair(_star_first(p.first, q.first, q.second), p.second.otimes(q.second))


def product_first(op: SemigroupOpKind, m: TropicalMatrix, q: SemigroupPair) -> TropicalMatrix:
    """First component of (m, G) combined with q, which is the same for every G."""
    if op is _CIRC:
        return _circ_first(m, q.first, q.second, q.second._columns())
    if op is _STAR:
        return _star_first(m, q.first, q.second)
    raise ValueError(f"unknown operation kind: {op!r}")


def apply(
    op: SemigroupOpKind,
    p: SemigroupPair,
    q: SemigroupPair,
    counter: OpCounter | None = None,
) -> SemigroupPair:
    """One pair application under ``op``, bumping ``counter`` by one."""
    # op_circ / op_star are looked up at call time, so a wrapper installed
    # on the module attribute sees every application.
    if op is _CIRC:
        combine = op_circ
    elif op is _STAR:
        combine = op_star
    else:
        raise ValueError(f"unknown operation kind: {op!r}")
    if counter is not None:
        counter.count += 1
    return combine(p, q)


def powers(
    op: SemigroupOpKind,
    base: SemigroupPair,
    exponents: Sequence[int],
    counter: OpCounter | None = None,
) -> tuple[SemigroupPair, ...]:
    """base^e for every e in ``exponents``, in one least-bit-first pass.

    The base is squared once per bit up to the largest exponent's top bit,
    and each square is folded into the accumulator of every exponent whose
    bit is set, in ascending bit order with the new factor on the right.
    Under circ any order would give the same value (powers of one element
    commute there); the fixed order makes results and op counts
    reproducible, and matters under star, whose products are
    order-dependent.  The squarings are shared, so the pass costs
    (L - 1) + sum(popcount(e) - 1) applications, L the largest bit length.
    It streams: only the current square and one accumulator per exponent
    are kept.  Exponents below 1 are rejected: without an identity pair
    there is nothing for them to mean.
    """
    if any(e < 1 for e in exponents):
        raise ValueError("exponent must be >= 1 (the semigroup has no identity)")
    accs: list[SemigroupPair | None] = [None] * len(exponents)
    square = base
    for i in range(max(exponents, default=0).bit_length()):
        if i:
            square = apply(op, square, square, counter)
        for j, e in enumerate(exponents):
            if e >> i & 1:
                acc = accs[j]
                accs[j] = square if acc is None else apply(op, acc, square, counter)
    return tuple(accs)


def power(
    op: SemigroupOpKind,
    base: SemigroupPair,
    e: int,
    counter: OpCounter | None = None,
) -> SemigroupPair:
    """base^e: ``powers`` with one exponent, so (bit_length(e) - 1) +
    (popcount(e) - 1) applications."""
    return powers(op, base, (e,), counter)[0]


def pair_to_json(p: SemigroupPair) -> dict:
    return {"first": matrix_to_json(p.first), "second": matrix_to_json(p.second)}


def pair_from_json(obj) -> SemigroupPair:
    if not isinstance(obj, dict) or "first" not in obj or "second" not in obj:
        raise FormatError("pair must be a JSON object with 'first' and 'second'")
    return SemigroupPair(matrix_from_json(obj["first"]), matrix_from_json(obj["second"]))
