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
base * (base * (... )) yields the monotone first-component chain, and no
code in this package folds that way: ``powers`` and the attack's
doubling and descent all multiply the new factor on the right, and only
the tests' oracle ``chain_fold`` builds the left fold for star.
Everything is consistent for k == 1, where transposition is trivial and
star is associative.

There are two ways to power.  ``powers`` is one least-bit-first pass
for either law: it squares the base once per bit and folds each square
into the accumulator of every exponent with that bit set, so several
powers of one base share their squarings (both parties of an exchange
power the same public pair).  ``periodic_powers`` is circ only: it walks
the chain base, base^2, ... one application per step until the chain
repeats itself up to a scalar shift, proves the repeat exactly, and then
reads every exponent off the period held in its window of the last k + 1
pairs, so its cost depends on the chain's transient and period, not on
the exponents' bit length.  It gives up, returning None, when that would
cost more than a caller's budget or the period outgrows the window.  There
is no identity pair (the semiring has no multiplicative identity
matrix), so exponents start at 1.

Every counted application goes through ``apply``, which picks the law and
increments an optional ``OpCounter`` by exactly one.  The attack's cost
guarantees are stated in these counts, so they are measured, never
estimated.  ``product_first`` computes only the first component of a
product, which is all a party needs to derive the shared key.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from operator import add, sub
from typing import Iterator, Sequence

from .tropical import DimensionMismatchError, TropicalMatrix, _flatten, _wrap_flat


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


def _chain(base: SemigroupPair, counter: OpCounter | None) -> Iterator[SemigroupPair]:
    # base, base^2, base^3, ... under circ, new factor on the right; each
    # step after the first is one counted application, made only when the
    # consumer asks for the next power.
    pair = base
    while True:
        yield pair
        pair = apply(_CIRC, pair, base, counter)


def _shift_key(p: SemigroupPair) -> int:
    # Hash of p with each component shifted so that its (0, 0) entry is 0:
    # pairs that differ by one scalar per component share it.
    x, g = p.first.rows, p.second.rows
    return hash((
        tuple(map(sub, _flatten(x), repeat(x[0][0]))),
        tuple(map(sub, _flatten(g), repeat(g[0][0]))),
    ))


def _shifted(p: SemigroupPair, c_first: int, c_second: int) -> SemigroupPair:
    # c_first added to every entry of the first component, c_second to the
    # second: the scalar multiples c (x) X of min-plus algebra.
    return _new_pair(
        _wrap_flat(map(add, _flatten(p.first.rows), repeat(c_first)), p.k),
        _wrap_flat(map(add, _flatten(p.second.rows), repeat(c_second)), p.k),
    )


def periodic_powers(
    base: SemigroupPair,
    exponents: Sequence[int],
    budget: int,
    counter: OpCounter | None = None,
) -> tuple[SemigroupPair, ...] | None:
    """base^e under circ for every e in ``exponents``, read off the chain's
    period; None if that would take more than ``budget`` applications or
    the period exceeds k.

    Write P_m = (X_m, G_m) = base^m and base = (M, H).  The walk computes
    P_m = P_{m-1} circ base, one ``apply`` per step, keeps the last k + 1
    pairs it walked, and from m = 2 on looks each P_m up by its shift key,
    the hash of (X_m - X_m[0][0], G_m - G_m[0][0]).  When P_m's key was
    first seen at P_n, n < m, and the period p = m - n is at most k, P_n is
    still in the window, and the function checks P_m == P_n + (c_X, c_G)
    exactly, with c_X = X_m[0][0] - X_n[0][0] and likewise c_G; a hash
    collision fails the check and the function returns None, as it does
    for a longer period (when that happens is argued below).  Once the
    check holds, every e > m is served as P_{n+r}, also in the window,
    shifted by q * (c_X, c_G), where (q, r) = divmod(e - n, p).  Exponents
    up to m are taken from the walk as it passes them, and an exponent
    reached before any repeat ends the walk there.

    Why one checked equality is a proof for every later index: circ gives
    X_{m+1} = X_m oplus M oplus H oplus (X_m otimes H) and G_{m+1} = G_m
    oplus H oplus (G_m otimes H).  For m >= 2, X_m already holds M oplus H
    as a term, so X_m <= M oplus H entrywise, and G_m <= H holds from
    m = 1.  So from m = 2 on the step is F: X -> X oplus (X otimes H) on
    each component, and adding one integer c to every entry commutes with
    it: F(X + c) = F(X) + c.  Then P_m = P_n + c gives, by induction on j,
    P_{m+j} = F^j(P_n + c) = P_{n+j} + c, hence P_{n+qp+r} = P_{n+r} + q c.
    A repeat always comes: F multiplies by B = I oplus H (I the min-plus
    identity), which is irreducible because H is finite, and by the
    cyclicity theorem of min-plus algebra the powers of B are ultimately
    periodic up to such a shift, with period the cyclicity of B: the lcm,
    over the strongly connected components of B's critical graph, of the
    gcd of each component's cycle lengths.  The shifted states are an
    iteration of one map, so p, the length of their first cycle, divides
    that cyclicity.  When the critical graph is strongly connected, the
    cyclicity divides the length of one of its cycles without repeated
    nodes, so p <= k and k + 1 pairs hold P_n, ..., P_m.  Otherwise the
    cyclicity can exceed k (critical cycles of lengths 2 and 3 at k = 5
    give p = 6); the window has then lost P_n and the function returns
    None, as it does for a long transient.

    The walk costs min(m, max e) - 1 applications and stops before the
    application that would exceed ``budget``.  Only the base, the last
    k + 1 pairs, one result per exponent and one dict entry per step are
    kept, never the whole walk.
    """
    if any(e < 1 for e in exponents):
        raise ValueError("exponent must be >= 1 (the semigroup has no identity)")
    results: list[SemigroupPair | None] = [None] * len(exponents)
    top = max(exponents, default=1)
    first_seen: dict[int, int] = {}
    window: deque[SemigroupPair] = deque(maxlen=base.k + 1)
    for m, end in enumerate(_chain(base, counter), 1):
        window.append(end)
        for j, e in enumerate(exponents):
            if e == m:
                results[j] = end
        if m == top:
            return tuple(results)
        if m > 1:
            n = first_seen.setdefault(_shift_key(end), m)
            if n < m:
                break
        if m > budget:  # the next step would be application number m
            return None
    period = m - n
    if period >= len(window):
        return None
    start = window[-1 - period]
    c_first = end.first.rows[0][0] - start.first.rows[0][0]
    c_second = end.second.rows[0][0] - start.second.rows[0][0]
    if _shifted(start, c_first, c_second) != end:
        return None
    for j, e in enumerate(exponents):
        if e > m:
            q, r = divmod(e - n, period)
            results[j] = _shifted(window[r - 1 - period], q * c_first, q * c_second)
    return tuple(results)

