"""The two pair operations the key exchange is built on.

A pair (M, G) combines with (S, H) under either of two laws:

  circ:  ((M otimes B) oplus S oplus H,  (G otimes B) oplus H)
  star:  ((H otimes M^T) oplus (M^T otimes H) oplus S,  G otimes H)

with B = H oplus I, I the min-plus identity (0 on the diagonal, +inf off
it): H with its diagonal clipped at 0.  Since X otimes B is
X oplus (X otimes H), circ is the paper's
(M oplus S oplus H oplus (M otimes H), G oplus H oplus (G otimes H)).
For both laws the first component of a product never depends on G, which
is what lets the key-exchange parties publish first components only.
On the plain kernel each component is one call of ``tropical._min_plus``
with the law's oplus terms as its floors, so no entrywise pass follows
the products: circ's first component is M * B with floors S and H, its
second G * B with floor H, and star's first is H * M^T with floor S,
then M^T * H with that product as its floor.

circ is an honest semigroup operation: its first component applies the
map X -> (X * B) + H to M and adds S, and that family of maps is closed
under composition (composing the maps for H and V gives the map for
W = (H * B_V) + V, the law the second component follows, because
B_H * B_V = B_W).

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
the powers of B = H oplus I to an exact repeat up to a scalar shift and
serves each exponent off that period, in O(k log T) products for B's
transient T, and runs ``powers`` itself where that could cost more; its
docstring has the proof and the serving, and ``_certify_b``'s, the walk's
schedule, repeat key and packed layout.  There is
no identity pair (the semiring has no multiplicative identity matrix),
so exponents start at 1.

``apply`` is one pair application under either law; it looks ``op_circ``
and ``op_star`` up at call time, so a wrapper installed on either module
attribute sees every application.  The attack's cost guarantees are
stated in applications, which each phase counts where it makes them.
``product_first`` computes only the first component of a product, which
is all a party needs to derive the shared key; it makes the same kernel
calls as that component of ``op_circ`` or ``op_star``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .tropical import (
    DimensionMismatchError,
    TropicalMatrix,
    _check_matrices,
    _min_plus,
    _min_plus_packed,
    _Packing,
    _wrap_flat,
)


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
        _check_matrices(self, "first", "second")
        if self.first.k != self.second.k:
            raise DimensionMismatchError(
                f"pair components differ in size: {self.first.k} vs {self.second.k}"
            )

    @property
    def k(self) -> int:
        return self.first.k


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


# The honest walk's circ products are packed (``_certify_b`` and
# ``periodic_powers``' serving); every other product is plain: the attack's
# and the fallback pass's, for the k^3 cost AC4 times, and P_2's and the
# key derivation's, which would pay for packing their own factors (both are
# slower packed below k = 15 on an exchange's operands).


def _b_entries(h: TropicalMatrix) -> list[int]:
    # The entries of B = H + I, flat and row-major: H's with the diagonal
    # clipped at 0.
    b = [*h.entries]
    for i in range(0, len(b), h.k + 1):
        if b[i] > 0:
            b[i] = 0
    return b


def _star_first(m: TropicalMatrix, s: TropicalMatrix, h: TropicalMatrix) -> TropicalMatrix:
    # (H * M^T) + (M^T * H) + S: star's first component, with M^T made once
    # and each product one kernel call, the first with S as its floor and
    # the second with the first's result as its floor.
    k, mt = m.k, m.transpose().entries
    left = _min_plus(h.entries, mt, k, s.entries)
    return _wrap_flat(_min_plus(mt, h.entries, k, left), k)


def _circ_first(
    m: TropicalMatrix, b: list[int], s: TropicalMatrix, h: TropicalMatrix
) -> TropicalMatrix:
    # (M * B) + S + H: circ's first component, one kernel call with S and H
    # as its floors, the same for ``op_circ`` and ``product_first``.
    return _wrap_flat(_min_plus(m.entries, b, m.k, s.entries, h.entries), m.k)


def op_circ(p: SemigroupPair, q: SemigroupPair) -> SemigroupPair:
    """First law, circ: see the module docstring."""
    if p.first.k != q.first.k:
        raise DimensionMismatchError(f"pair dimension mismatch: {p.k} vs {q.k}")
    # One kernel call per component, the law's oplus terms as its floors:
    # (M * B) + S + H and (G * B) + H.
    h, k = q.second, q.first.k
    b = _b_entries(h)
    first = _circ_first(p.first, b, q.first, h)
    second = _wrap_flat(_min_plus(p.second.entries, b, k, h.entries), k)
    return _new_pair(first, second)


def op_star(p: SemigroupPair, q: SemigroupPair) -> SemigroupPair:
    """Second law, star: see the module docstring."""
    if p.first.k != q.first.k:
        raise DimensionMismatchError(f"pair dimension mismatch: {p.k} vs {q.k}")
    return _new_pair(_star_first(p.first, q.first, q.second), p.second.otimes(q.second))


def product_first(op: SemigroupOpKind, m: TropicalMatrix, q: SemigroupPair) -> TropicalMatrix:
    """First component of (m, G) combined with q, which is the same for every G."""
    if m.k != q.k:
        raise DimensionMismatchError(f"pair dimension mismatch: {m.k} vs {q.k}")
    if op is _CIRC:
        return _circ_first(m, _b_entries(q.second), q.first, q.second)
    if op is _STAR:
        return _star_first(m, q.first, q.second)
    raise ValueError(f"unknown operation kind: {op!r}")


def apply(op: SemigroupOpKind, p: SemigroupPair, q: SemigroupPair) -> SemigroupPair:
    """One pair application under ``op``."""
    # op_circ / op_star are looked up at call time, so a wrapper installed
    # on the module attribute sees every application.
    if op is _CIRC:
        return op_circ(p, q)
    if op is _STAR:
        return op_star(p, q)
    raise ValueError(f"unknown operation kind: {op!r}")


def powers(
    op: SemigroupOpKind, base: SemigroupPair, exponents: Sequence[int]
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
            square = apply(op, square, square)
        for j, e in enumerate(exponents):
            if e >> i & 1:
                acc = accs[j]
                accs[j] = square if acc is None else apply(op, acc, square)
    return tuple(accs)


def power(op: SemigroupOpKind, base: SemigroupPair, e: int) -> SemigroupPair:
    """base^e: ``powers`` with one exponent, so (bit_length(e) - 1) +
    (popcount(e) - 1) applications."""
    return powers(op, base, (e,))[0]


def _certify_b(
    walk: _Packing, x: int, tiles: list[int], offset: int, allowance: int, least: int
) -> tuple[int, int, int, dict[int, tuple[int, int]]] | None:
    """B's certificate W_{n+p} = W_n + c, W_j = B^j, as (n, p, c, segment),
    or None when the walk gives up.  B is the packed ``x`` plus ``offset``
    in the layout ``walk``, rebased as below, with ``tiles`` its
    ``walk.tiles``.  The segment maps each index j the walk holds at the
    end, n and n + p among them, to W_j packed, (fields, offset).

    Schedule: the walk squares from W_1 = B (otimes is associative) while
    its index j is below 2k, then steps W_{j+1} = W_j otimes B in segments
    W_s .. W_{s+k}, squaring the last power of each to start the next.  It
    gives up before a product past the ``allowance``-th, and before a
    squaring that would start a segment past ``least``.  The squarings
    cost one product each and a segment k + 1, so the walk passes B's
    transient T after about log2(2k) + (k + 1) log2(T / 2k) products and
    shows the period within p more.

    Repeat key: each power of a segment is keyed by W_j - W_j[0][0], so a
    hit on W_n, p = j - n, is the exact certificate W_j = W_n + c,
    c = W_j[0][0] - W_n[0][0].  It proves every later index, since
    otimes B commutes with adding a scalar: W_{n+qp+r} = W_{n+r} + q c for
    r < p.  A repeat always comes: B is irreducible because H is finite,
    so by the cyclicity theorem of min-plus algebra its powers are
    ultimately periodic up to such a shift, and p divides B's cyclicity,
    the lcm over the strongly connected components of B's critical graph
    of the gcd of each one's cycle lengths.  When that graph is strongly
    connected, the cyclicity divides the length of one of its elementary
    cycles, so p <= k and the first segment to start at or past T shows
    it.  Otherwise p can exceed k (critical cycles of lengths 2 and 3 at
    k = 5 give p = 6): no segment holds two powers p apart, and the walk
    gives up.

    Rebasing: ``walk`` holds W_j as one int of k^2 fields, w bits each,
    row-major, plus an offset, W_j = fields + offset (``tropical._Packing``),
    and its products are ``_min_plus_packed``, exact while every sum of
    two fields stays below a field's top (guard) bit.  With S = span(B),
    the largest entry less the least, every power has span(W_j) <= 2S: a
    least-weight path of length j >= 2 from i' to l' becomes a path from
    i to l when its first edge is swapped for one out of i and its last
    for one into l, each swap adding at most S (for j = 1, the one edge
    adds at most S).  After each product the walk rebases: f0 the packed
    [0][0] field, it takes f0 - 2S off every field and adds it to the
    offset, so field [0][0] is 2S and every field lies in [0, 4S].  B
    comes packed the same way, so its [0][0] field gives 2S.  The rebased
    int is W_j - W_j[0][0] + 2S exactly, so it is the repeat key, and c is
    the difference of the offsets.

    Width rule: the walk's sums stay at most 8S, and ``periodic_powers``'
    serving's at most R + 4S (R is defined there), so one layout whose
    fields hold 4S + max(4S, R) is exact for both at any entry size.
    """
    k, corner = walk.k, (1 << walk.w) - 1  # field [0][0]
    lift, b_offset = x & corner, offset  # 2S
    window: dict[int, tuple[int, int]] = {}  # the segment's packed powers, by index
    first_seen: dict[int, int] = {}  # their indices, by packed power
    j, spent = 1, 0
    while True:  # W_j is x with offset, after ``spent`` products
        window[j] = x, offset
        if (n := first_seen.setdefault(x, j)) < j:
            return n, j - n, offset - window[n][1], window
        squaring = j < 2 * k or len(window) > k  # to W_{2j}, starting a new segment
        if spent >= allowance or (squaring and 2 * j > least):
            return None
        if squaring:
            x, offset, j = _min_plus_packed(x, walk.tiles(x), walk), 2 * offset, 2 * j
            window.clear()
            first_seen.clear()
        else:
            x, offset, j = _min_plus_packed(x, tiles, walk), offset + b_offset, j + 1
        shift = (x & corner) - lift
        x -= shift * walk.ones
        offset += shift
        spent += 1


def periodic_powers(
    base: SemigroupPair, exponents: Sequence[int]
) -> tuple[SemigroupPair, ...]:
    """base^e under circ for every e in ``exponents``, read off the period
    of one matrix's powers, or from ``powers`` when that does not fit the
    k^3 products the pass spends: two per application, so a budget of
    2 ((L - 1) + sum(popcount(e) - 1)), L the largest bit length.

    Write base = (M, H), P_m = (X_m, G_m) = base^m and B = H oplus I as in
    circ's law.  Y otimes B <= Y for any Y, as B's diagonal is at most 0,
    so an oplus term of the law drops out where the left factor lies below
    it: P_2 = ((M otimes B) oplus H, H otimes B), past it X_m <= M oplus H
    and G_m <= H, so a step is (X_m otimes B, G_m otimes B), and
    P_e = (X_2 otimes W_{e-2}, G_2 otimes W_{e-2}) with W_j = B^j.
    ``_certify_b`` walks the W_j to the certificate W_{n+p} = W_n + c, so
    P_e = (X_2 otimes W_{n+r}, G_2 otimes W_{n+r}) + q c for
    e - 2 = n + q p + r, r < p; its docstring has the schedule, the repeat
    key, the rebasing and the width rule, with S = span(B).

    P_2 is two plain products of M and H by B.  Serving multiplies X_2 and
    G_2 by the walk's own W_i in the walk's layout, each packed less its
    least entry.  X_2 has H as an oplus term and G_2 <= H, so every entry
    is at most max(H), and min(B) <= 0, so every entry is at least
    min(min M, min H) + min(B): each spans at most
    R = max(H) - min(min M, min H) - min(B), and serving's sums stay at
    most R + 4S.  Offsets add, so P_e is unpacked with its component's
    least entry plus W_i's offset plus q c.  B is packed and tiled once,
    only when some exponent is above 2.

    Cost: serving costs two products for P_2, then, since adding a scalar
    commutes with otimes, two per distinct W_{n+r} (or W_i of the segment,
    for i < n) the exponents need.  The walk's allowance is the budget
    less the most serving can cost, two per exponent above 2, and no
    segment may start past the least needed index e - 2, whose power it
    would then never hold; where it gives up, ``powers`` runs.  So this
    never costs more than the pass, and a fallback at most twice.  Only
    one segment and one matrix per exponent are kept.
    """
    if any(e < 1 for e in exponents):
        raise ValueError("exponent must be >= 1 (the semigroup has no identity)")
    top = max(exponents, default=1)
    budget = 2 * (top.bit_length() - 1 + sum(e.bit_count() - 1 for e in exponents))
    serving = 2 * (top > 1) + 2 * sum(e > 2 for e in exponents)  # the most it can cost
    k, m, h, b = base.k, base.first.entries, base.second.entries, _b_entries(base.second)
    if top > 2:
        lift = 2 * (max(b) - min(b))  # 2S
        reach = max(h) - min(min(m), min(h)) - min(b)  # R
        walk = _Packing(k, 2 * lift + max(2 * lift, reach))
        b_offset = b[0] - lift
        x = walk.pack([e - b_offset for e in b])
        least = min(e for e in exponents if e > 2) - 2
        certificate = _certify_b(walk, x, walk.tiles(x), b_offset, budget - serving, least)
        if certificate is None:
            return powers(_CIRC, base, exponents)
        n, period, c, window = certificate
    if top > 1:  # X_2 = (M * B) + H and G_2 = H * B
        x2, g2 = _min_plus(m, b, k, h), _min_plus(h, b, k)
        square = _new_pair(_wrap_flat(x2, k), _wrap_flat(g2, k))
    if top > 2:
        factors = [(walk.pack([e - lo for e in y]), lo) for y, lo in ((x2, min(x2)), (g2, min(g2)))]
    served: dict[int, list[tuple[int, int]]] = {}  # X_2 and G_2 times W_i, packed, by i
    result = []
    for e in exponents:
        if e < 3:
            result.append(base if e == 1 else square)
            continue
        i, q = e - 2, 0
        if i >= n:
            q, r = divmod(i - n, period)
            i = n + r
        pair = served.get(i)
        if pair is None:
            x, offset = window[i]
            tiles = walk.tiles(x)
            pair = served[i] = [(_min_plus_packed(y, tiles, walk), lo + offset) for y, lo in factors]
        result.append(_new_pair(*(walk.unpack(y, lo + q * c) for y, lo in pair)))
    return tuple(result)
