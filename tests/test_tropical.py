import inspect
import json
import sys
from itertools import chain
from operator import ne
from random import Random

import pytest
from hypothesis import given, strategies as st

from tropkex import (
    ChainOrdering,
    DimensionMismatchError,
    FormatError,
    SemigroupPair,
    TropicalMatrix,
    chain_compare,
    in_column_space,
    matrix_from_json,
    matrix_to_json,
    random_matrix,
)
from tropkex import tropical
from tropkex.protocol import MAX_K, setup
from tropkex.semidirect import (
    SemigroupOpKind,
    op_circ,
    op_star,
    periodic_powers,
    product_first,
)
from tropkex.tropical import _min_plus_packed, _Packing

from _oracles import (
    count_fallbacks,
    naive_apply,
    naive_in_column_space,
    naive_otimes,
    naive_residual,
    random_mat,
)


@st.composite
def matrix_triples(draw, max_k=8, bound=50):
    k = draw(st.integers(1, max_k))
    entry = st.integers(-bound, bound)

    def one():
        return TropicalMatrix(
            [[draw(entry) for _ in range(k)] for _ in range(k)]
        )

    return one(), one(), one()


def test_oplus_examples():
    a = TropicalMatrix([[1, 5], [3, -2]])
    b = TropicalMatrix([[2, 4], [0, 7]])
    assert a.oplus(b) == TropicalMatrix([[1, 4], [0, -2]])
    # idempotency on a specific matrix
    assert a.oplus(a) == a
    # min with a 200-bit magnitude entry stays exact
    big = TropicalMatrix([[-(2**200)]])
    assert big.oplus(TropicalMatrix([[0]])) == big


def test_otimes_examples():
    a = TropicalMatrix([[0, 1], [2, 3]])
    # c11 = min(0+4, 1+6) = 4 and so on, entry by entry
    assert a.otimes(TropicalMatrix([[4, 5], [6, 7]])) == TropicalMatrix([[4, 5], [6, 7]])
    # against the zero matrix each c_ij is the row minimum
    assert a.otimes(TropicalMatrix([[0, 0], [0, 0]])) == TropicalMatrix([[0, 0], [2, 2]])
    # 1x1 product is plain integer addition
    assert TropicalMatrix([[2]]).otimes(TropicalMatrix([[3]])) == TropicalMatrix([[5]])


def _packed_otimes(a, b):
    # a otimes b through the packed kernel: each factor less its least
    # entry, in the narrowest byte-sized fields that hold the sum of the
    # two spans, so no sum reaches the guard bit; the two least entries
    # are added back on the way out
    a_least, b_least = min(a.entries), min(b.entries)
    packing = _Packing(a.k, max(a.entries) - a_least + max(b.entries) - b_least)
    x = packing.pack([e - a_least for e in a.entries])
    tiles = packing.tiles(packing.pack([e - b_least for e in b.entries]))
    return packing.unpack(_min_plus_packed(x, tiles, packing), a_least + b_least)


@pytest.mark.parametrize("size", (1, 2, 3, 4, 8, 9, 16))
def test_packing_round_trip_at_every_field_size(size):
    """``_Packing`` at fields of 1, 2, 4 and 8 bytes (one machine-width
    array) and of 3, 9 and 16 (bytes one field at a time): ``pack`` and
    ``fields`` undo each other and agree with shifts, up to fields of
    2^(w-1) - 1 and at k = 1; the masks equal their sums of shifts; an
    entry of 2^w or below 0 raises instead of wrapping into a neighbour."""
    w = 8 * size
    rng = Random(size)
    for k in (1, 2, 5):
        packing = _Packing(k, (1 << (w - 1)) - 1)
        assert packing.w == w
        assert (packing.code is not None) == (size in (1, 2, 4, 8) and sys.byteorder == "little")
        top = (1 << (w - 1)) - 1
        for entries in (
            [top] * (k * k),
            [0] * (k * k),
            [rng.randint(0, top) for _ in range(k * k)],
            [top if i % 2 else 0 for i in range(k * k)],
        ):
            x = packing.pack(entries)
            assert x == sum(e << (i * w) for i, e in enumerate(entries))
            assert packing.fields(x) == entries
            assert packing.unpack(x, -5) == TropicalMatrix(
                [[e - 5 for e in entries[i * k : (i + 1) * k]] for i in range(k)]
            )
        fields = range(k * k)
        assert packing.ones == sum(1 << (i * w) for i in fields)
        assert packing.spread == sum(1 << (j * w) for j in range(k))
        assert packing.column == sum(top << (i * k * w) for i in range(k))
        assert packing.guard == sum(1 << (i * w + w - 1) for i in fields)
        for bad in (1 << w, -1):
            with pytest.raises(OverflowError):
                packing.pack([0] * (k * k - 1) + [bad])
            with pytest.raises(OverflowError):
                packing.pack([bad] + [0] * (k * k - 1))


def test_otimes_matches_naive_oracle():
    """Both product kernels, the plain one behind ``otimes`` and the packed
    one, against the triple loop at k = 1..6: random entries, equal
    entries (span 0), all negative, up to 10^30 (fields past 64 bits),
    and sums that fill every value bit of a field below its guard bit."""
    rng = Random(101)
    pairs = []
    for trial in range(200):
        k = 1 + trial % 6
        pairs.append((random_mat(rng, k), random_mat(rng, k)))
    for k in range(1, 7):
        c = rng.randint(-10**6, 10**6)
        pairs.append((TropicalMatrix([[c] * k] * k), random_mat(rng, k)))
        pairs.append((random_mat(rng, k), TropicalMatrix([[-c] * k] * k)))
        for lo, hi in ((-10**30, -10**29), (-10**30, 10**30), (0, 2**64)):
            a, b = (
                TropicalMatrix([[rng.randint(lo, hi) for _ in range(k)] for _ in range(k)])
                for _ in range(2)
            )
            pairs.append((a, b))
        # spans 2^14 - 1 and 2^14: sums up to 2^15 - 1 in 16-bit fields
        rows = [[rng.randint(0, 2**14 - 1) for _ in range(k)] for _ in range(k)]
        rows[0][0], rows[-1][-1] = 2**14 - 1, 0
        pairs.append((TropicalMatrix(rows), TropicalMatrix([[2**14] * k] * (k - 1) + [[0] * k])))
    for a, b in pairs:
        expected = naive_otimes(a, b)
        assert a.otimes(b) == expected
        assert _packed_otimes(a, b) == expected


def _wide(rng, offset):
    # offset plus a value of either sign: small, past 2^64, or near 4 000
    # bits, so that sums cancel the offsets and the minimum turns on the rest
    scale = rng.choice((50, 2**70, 2**3999))
    return offset + rng.randint(-scale, scale)


def _wide_matrix(rng, k, offset):
    return TropicalMatrix([[_wide(rng, offset) for _ in range(k)] for _ in range(k)])


def _floors_around(rng, expected, count):
    # count floors for a product whose true entries are ``expected``: each
    # floor entry lies above, on or below its entry, by up to ~4 000 bits,
    # so that some floors win over the sums, some tie and some lose
    def around(e):
        return e + rng.choice((-1, 0, 1)) * rng.randint(1, 2 ** rng.choice((6, 70, 3999)))

    return [[around(e) for e in expected] for _ in range(count)]


def test_min_plus_matches_triple_loop_at_every_k():
    """The plain kernel against the triple loop at every k up to MAX_K,
    with no floor, one and two, on entries of mixed sign and magnitude up
    to ~4 000 bits; at a few k also ``otimes`` and both components of
    ``op_circ`` and ``op_star``."""
    rng = Random(2601)
    offset = 2**3990
    wins = {1: 0, 2: 0}  # entries a floor sets, by number of floors
    losses = {1: 0, 2: 0}  # entries a sum sets below every floor
    for k in range(1, MAX_K + 1):
        for count in (0, 1, 2):
            a, b = _wide_matrix(rng, k, offset), _wide_matrix(rng, k, -offset)
            sums = naive_otimes(a, b).entries
            floors = _floors_around(rng, sums, count)
            expected = [min((e, *column)) for e, *column in zip(sums, *floors)]
            product = tropical._min_plus(a.entries, b.entries, k, *floors)
            assert product == expected, (k, count)
            if count:
                wins[count] += sum(map(ne, expected, sums))
                losses[count] += sum(e < min(column) for e, *column in zip(sums, *floors))
    assert all(wins.values()) and all(losses.values()), (wins, losses)
    for k in (1, 2, 3, 7, 16):
        a, b = _wide_matrix(rng, k, offset), _wide_matrix(rng, k, -offset)
        assert a.otimes(b) == naive_otimes(a, b)
        p, q = (SemigroupPair(_wide_matrix(rng, k, 0), _wide_matrix(rng, k, 0)) for _ in range(2))
        for op, law in ((SemigroupOpKind.CIRC, op_circ), (SemigroupOpKind.STAR, op_star)):
            assert law(p, q) == naive_apply(op, p, q), (op, k)  # both components


@pytest.mark.parametrize("k", [1, 2, 3, 5, 10])
def test_min_plus_each_term_wins_in_turn(k):
    """Each term of every entry, each sum l and each floor, is made the
    entry's unique minimum in turn, with the winning values distinct
    along every row and column: so a compare dropped from the kernel, or
    one that reads the wrong a, b or floor name, gives a wrong entry,
    which random operands need not show."""
    rng = Random(2800 + k)
    big = 10**9  # every losing term lies at least this far above the winner

    def distinct():
        return rng.sample(range(-1000, 1000), k * k)

    for count in (0, 1, 2):
        for winner in range(k + count):
            a, b, floors = [big + e for e in distinct()], distinct(), []
            if winner < k:  # sum l = winner: a's column l drops below every other
                a[winner::k] = distinct()[:k]
            for n in range(count):
                floors.append(distinct() if winner == k + n else [3 * big + e for e in distinct()])
            sums = naive_otimes(*(TropicalMatrix(zip(*[iter(m)] * k)) for m in (a, b))).entries
            expected = [min((e, *column)) for e, *column in zip(sums, *floors)]
            for index, e in enumerate(expected):  # the term meant to win is the one that does
                i, j = divmod(index, k)
                terms = [a[i * k + l] + b[l * k + j] for l in range(k)] + [f[index] for f in floors]
                assert terms.count(e) == 1 and terms.index(e) == winner
            assert tropical._min_plus(a, b, k, *floors) == expected, (k, count, winner)


def _far(rng):
    # a scalar of either sign and ~4 000 bits
    return rng.choice((-1, 1)) * (2**3999 + rng.getrandbits(3999))


def test_min_plus_commutes_with_scalar_shifts():
    """Adding s to every entry of a, t to every entry of b and s + t to
    every floor adds s + t to every entry of the product, at every k up
    to MAX_K with no floor, one and two, for s and t of ~4 000 bits and
    either sign: the kernel takes a's and b's first entries off its sums
    and adds them back once per entry, before the floors."""
    rng = Random(3301)
    for k in range(1, MAX_K + 1):
        for count in (0, 1, 2):
            a, b = random_mat(rng, k).entries, random_mat(rng, k).entries
            floors = [random_mat(rng, k, 100).entries for _ in range(count)]
            s, t = _far(rng), _far(rng)
            shifted = tropical._min_plus(
                [e + s for e in a], [e + t for e in b], k, *([e + s + t for e in f] for f in floors)
            )
            product = tropical._min_plus(a, b, k, *floors)
            assert shifted == [e + s + t for e in product], (k, count)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 10, MAX_K])
def test_min_plus_with_outlying_first_entries(k):
    """Operands whose first entry lies ~4 000 bits from the rest, above or
    below, so that taking it off leaves the other entries as wide as
    before, still give the triple loop's product, with no floor, one and
    two."""
    rng = Random(3400 + k)
    for count in (0, 1, 2):
        for a_sign in (-1, 1):
            for b_sign in (-1, 1):
                a, b = ([[*row] for row in random_mat(rng, k).rows] for _ in range(2))
                a[0][0] += a_sign * 2**4000
                b[0][0] += b_sign * 2**4000
                a, b = TropicalMatrix(a), TropicalMatrix(b)
                sums = naive_otimes(a, b).entries
                floors = _floors_around(rng, sums, count)
                expected = [min((e, *column)) for e, *column in zip(sums, *floors)]
                product = tropical._min_plus(a.entries, b.entries, k, *floors)
                assert product == expected, (count, a_sign, b_sign)


def test_min_plus_kernel_is_built_once_per_k(monkeypatch):
    """One kernel per (k, number of floors), kept for every later product;
    a k that is not an int of at least 1 is refused before any source text
    is made, even where it equals a k whose kernel is already built (True,
    2.0)."""
    built = []
    source = tropical._kernel_source
    monkeypatch.setattr(
        tropical, "_kernel_source", lambda k, floors: built.append((k, floors)) or source(k, floors)
    )
    tropical._kernel.cache_clear()
    kernel = tropical._kernel(3, 0)
    assert tropical._kernel(3, 0) is kernel
    assert tropical._kernel(3, 2) is not kernel
    a = TropicalMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert a.otimes(a) == a.otimes(a) == naive_otimes(a, a)
    p = SemigroupPair(a, a.transpose())
    for op, law in ((SemigroupOpKind.CIRC, op_circ), (SemigroupOpKind.STAR, op_star)):
        assert law(p, p) == law(p, p) == naive_apply(op, p, p)
    assert built == [(3, 0), (3, 2), (3, 1)]
    for k in (1, 2):  # built, so True and 2.0 each meet an equal key
        for floors in (0, 2):
            tropical._kernel(k, floors)
    built.clear()
    for bad, error in (
        (True, TypeError), (False, TypeError), (2.0, TypeError), ("3", TypeError),
        (None, TypeError), (0, ValueError), (-4, ValueError),
    ):
        for floors in (0, 2):
            with pytest.raises(error):
                tropical._kernel(bad, floors)
            with pytest.raises(error):
                tropical._min_plus([], [], bad, *[[]] * floors)
    assert built == []


def test_kernel_source_comment_is_what_the_generator_emits():
    """The two examples in ``_kernel_source``'s comment are its own text
    at k = 2, with no floors and with two floors."""
    blocks, block = [], []
    for line in inspect.getsource(tropical._kernel_source).splitlines():
        text = line.strip()
        if text.startswith("#     "):
            block.append(text[6:])
        elif block:
            blocks.append("\n".join(block) + "\n")
            block = []
    assert blocks == [tropical._kernel_source(2, 0), tropical._kernel_source(2, 2)]


def test_transpose():
    assert TropicalMatrix([[1, 2], [3, 4]]).transpose() == TropicalMatrix([[1, 3], [2, 4]])
    assert TropicalMatrix([[7]]).transpose() == TropicalMatrix([[7]])
    m = TropicalMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert m.transpose().transpose() == m


def test_leq():
    assert TropicalMatrix([[1, 2], [3, 4]]).leq(TropicalMatrix([[1, 3], [3, 5]]))
    x = TropicalMatrix([[0, 5], [0, 5]])
    y = TropicalMatrix([[1, 2], [1, 2]])
    assert not x.leq(y)
    assert not y.leq(x)
    assert x.leq(x)


def test_leq_is_oplus_absorption():
    rng = Random(5)
    for _ in range(100):
        k = rng.randint(1, 5)
        x, y = random_mat(rng, k), random_mat(rng, k)
        assert x.leq(y) == (x.oplus(y) == x)


def test_chain_compare():
    assert chain_compare(
        TropicalMatrix([[1, 1], [1, 1]]), TropicalMatrix([[2, 3], [2, 3]])
    ) is ChainOrdering.LESS
    assert chain_compare(
        TropicalMatrix([[2, 3], [2, 3]]), TropicalMatrix([[2, 3], [2, 3]])
    ) is ChainOrdering.EQUAL
    assert chain_compare(
        TropicalMatrix([[2, 3], [2, 3]]), TropicalMatrix([[1, 1], [1, 1]])
    ) is ChainOrdering.GREATER
    assert chain_compare(
        TropicalMatrix([[0, 5], [0, 5]]), TropicalMatrix([[1, 2], [1, 2]])
    ) is ChainOrdering.INCOMPARABLE


def test_in_column_space_matches_residuation_oracle():
    # random pairs mostly fail the test; products y otimes z and the
    # residual's own product always pass it
    rng = Random(31)
    outcomes = set()
    for _ in range(300):
        k = rng.randint(1, 4)
        y, x = random_mat(rng, k, 6), random_mat(rng, k, 6)
        for a, b in ((y, x), (x, y), (y, naive_otimes(y, x))):
            expected = naive_in_column_space(a, b)
            assert in_column_space(a, b) is expected
            outcomes.add(expected)
        assert in_column_space(y, naive_otimes(y, naive_residual(y, x)))
        assert in_column_space(y, y)
    assert outcomes == {True, False}


def test_in_column_space_examples():
    # 1x1: every x is y + (x - y)
    assert in_column_space(TropicalMatrix([[5]]), TropicalMatrix([[-9]]))
    y = TropicalMatrix([[0, 0], [0, 0]])
    assert in_column_space(y, TropicalMatrix([[3, -1], [3, -1]]))
    assert not in_column_space(y, TropicalMatrix([[0, 0], [0, 1]]))
    with pytest.raises(DimensionMismatchError):
        in_column_space(TropicalMatrix([[0]]), y)


def test_dimension_mismatch_rejected():
    a = TropicalMatrix([[1]])
    b = TropicalMatrix([[1, 2], [3, 4]])
    for fn in (a.oplus, a.otimes, a.leq):
        with pytest.raises(DimensionMismatchError):
            fn(b)
    with pytest.raises(DimensionMismatchError):
        chain_compare(a, b)


def test_construction_validation():
    with pytest.raises(ValueError):
        TropicalMatrix([])
    with pytest.raises(ValueError):
        TropicalMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        TropicalMatrix([[1, 2]])  # one row of two entries is not square
    with pytest.raises(TypeError):
        TropicalMatrix([[1.5]])
    with pytest.raises(TypeError):
        TropicalMatrix([["3"]])


def test_immutability_and_value_semantics(monkeypatch):
    m = TropicalMatrix([[1, 2], [3, 4]])
    for name in ("k", "entries", "rows"):
        with pytest.raises(AttributeError):
            setattr(m, name, 3)
    same = TropicalMatrix([[1, 2], [3, 4]])
    assert m == same
    assert hash(m) == hash(same)
    assert m != TropicalMatrix([[1, 2], [3, 5]])
    assert m != 17
    assert len({m, same}) == 1
    # one layout, whichever code made the matrix: ``entries`` flat and
    # row-major, ``rows`` a view of them
    assert TropicalMatrix.__slots__ == ("k", "entries")
    passes = count_fallbacks(monkeypatch)
    params = setup(3, 1000, 40, SemigroupOpKind.CIRC, Random(7))
    a, b, p = params.M, params.H, params.base_pair
    served = periodic_powers(p, ((1 << 39) + 5,))[0]  # unpacked off the walk's layout
    assert passes == []
    circ, star = op_circ(p, p), op_star(p, p)
    made = [
        m, a.oplus(b), a.otimes(b), a.transpose(), circ.first, circ.second, star.first, star.second,
        product_first(SemigroupOpKind.CIRC, a, p), product_first(SemigroupOpKind.STAR, a, p),
        matrix_from_json(matrix_to_json(b)), random_matrix(4, 100, Random(1)),
        served.first, served.second,
    ]
    for x in made:
        assert type(x.entries) is tuple and len(x.entries) == x.k * x.k
        assert all(type(e) is int for e in x.entries)
        assert x.entries == tuple(chain.from_iterable(x.rows))
        again = TropicalMatrix(x.rows)
        assert again == x and hash(again) == hash(x)


def test_random_matrix_contract():
    # degenerate range gives the all-zero matrix
    assert random_matrix(3, 0, Random(9)) == TropicalMatrix([[0] * 3 for _ in range(3)])
    # same seed, same matrix
    assert random_matrix(2, 1000, Random(4)) == random_matrix(2, 1000, Random(4))
    # different draws differ (overwhelmingly) and respect the range
    m = random_matrix(2, 5, Random(11))
    assert all(-5 <= e <= 5 for row in m.rows for e in row)
    with pytest.raises(ValueError):
        random_matrix(0, 5, Random(0))
    with pytest.raises(ValueError):
        random_matrix(2, -1, Random(0))
    # sizes and bounds are ints, not bools or floats
    for k, n_bound, name in ((True, 3, "k"), (2.0, 3, "k"), (2, True, "n_bound"), (2, 3.0, "n_bound")):
        with pytest.raises(ValueError, match=f"'{name}' must be an integer"):
            random_matrix(k, n_bound, Random(1))


@pytest.mark.parametrize(
    "n_bound", [0, 1, 2, 3, 7, 8, 1000, 2**31 - 1, 2**31, 2**32, 2**40, 10**30]
)
def test_random_matrix_draws_what_randint_would(n_bound):
    """The sampler's entries are the k*k ``randint(-N, N)`` draws of a twin
    generator, row-major, and both generators end in the same state: at
    widths just below, at and past a power of two, where the rejection
    loop runs most and least, and past 32 and 64 bits."""
    for k in (1, 3, 10):
        for seed in (0, 1, 2024, 2**64 + 7):
            rng, twin = Random(seed), Random(seed)
            m = random_matrix(k, n_bound, rng)
            assert [*map(list, m.rows)] == [
                [twin.randint(-n_bound, n_bound) for _ in range(k)] for _ in range(k)
            ]
            assert rng.getstate() == twin.getstate()


@given(matrix_triples())
def test_oplus_laws(mats):
    x, y, z = mats
    assert x.oplus(y) == y.oplus(x)
    assert x.oplus(y).oplus(z) == x.oplus(y.oplus(z))
    assert x.oplus(x) == x


@given(matrix_triples())
def test_otimes_associative(mats):
    x, y, z = mats
    assert x.otimes(y).otimes(z) == x.otimes(y.otimes(z))


@given(matrix_triples())
def test_otimes_distributes_over_oplus(mats):
    x, y, z = mats
    assert x.otimes(y.oplus(z)) == x.otimes(y).oplus(x.otimes(z))
    assert y.oplus(z).otimes(x) == y.otimes(x).oplus(z.otimes(x))


@given(matrix_triples())
def test_order_respects_operations(mats):
    x, y, z = mats
    lower = x.oplus(y)  # lower <= y by construction
    assert lower.oplus(z).leq(y.oplus(z))
    assert lower.otimes(z).leq(y.otimes(z))
    assert z.otimes(lower).leq(z.otimes(y))


def test_partial_order_axioms():
    rng = Random(31)
    for _ in range(200):
        k = rng.randint(1, 5)
        x, y, z = (random_mat(rng, k, 20) for _ in range(3))
        assert x.leq(x)
        if x.leq(y) and y.leq(x):
            assert x == y
        # a constructed chain lowest <= middle <= z witnesses transitivity
        middle = y.oplus(z)
        lowest = x.oplus(middle)
        assert lowest.leq(middle)
        assert middle.leq(z)
        assert lowest.leq(z)


def test_matrix_json_round_trip():
    m = TropicalMatrix([[0, -(2**200)], [2**199 + 7, 12]])
    obj = matrix_to_json(m)
    assert obj["k"] == 2
    assert all(isinstance(cell, str) for row in obj["entries"] for cell in row)
    assert matrix_from_json(obj) == m
    # survives an actual JSON text round trip bit-exactly
    assert matrix_from_json(json.loads(json.dumps(obj))) == m


@pytest.mark.parametrize(
    "obj",
    [
        "not an object",
        {"k": 1},
        {"entries": [["1"]]},
        {"k": 0, "entries": []},
        {"k": True, "entries": [["1"]]},
        {"k": 2, "entries": [["1", "2"]]},
        {"k": 1, "entries": [["1", "2"]]},
        {"k": 1, "entries": [[1]]},
        {"k": 1, "entries": [["07"]]},
        {"k": 1, "entries": [["+7"]]},
        {"k": 1, "entries": [["-0"]]},
        {"k": 1, "entries": [["1_0"]]},
        {"k": 1, "entries": [[" 1"]]},
        {"k": 1, "entries": [["-"]]},
        *(
            {"k": 1, "entries": [[cell]]}
            for cell in (
                None, [1], {}, True, 1.0, float("inf"), float("nan"),
                "\u0661", "\uff11", "1\n", "", "9" * 4301,
            )
        ),
    ],
)
def test_matrix_from_json_rejects_bad_input(obj):
    with pytest.raises(FormatError):
        matrix_from_json(obj)
