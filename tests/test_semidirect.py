from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from tropkex import (
    DimensionMismatchError,
    SemigroupOpKind,
    SemigroupPair,
    TropicalMatrix,
    op_circ,
    op_star,
    periodic_powers,
    power,
    powers,
    run_exchange,
    setup,
)
from tropkex import protocol, semidirect
from tropkex.attack import recover_key_targeting
from tropkex.semidirect import _certify_b, apply, product_first
from tropkex.tropical import _min_plus_packed, _Packing

from _oracles import (
    chain_fold,
    count_applications,
    count_fallbacks,
    count_products,
    fold_left,
    fold_right,
    identity_oplus,
    ladder_power,
    matrix_period,
    naive_apply,
    naive_oplus,
    naive_otimes,
    pass_products,
    period_six_pair,
    periodic_cost,
    random_mat,
    random_pair,
    record_layouts_and_plain,
)

CIRC = SemigroupOpKind.CIRC
STAR = SemigroupOpKind.STAR


def m1(x):
    return TropicalMatrix([[x]])


def pair1(a, b):
    return SemigroupPair(m1(a), m1(b))


def test_op_circ_1x1_examples():
    # first = min(2, 1, 3, 2+3), second = min(5, 3, 5+3)
    r = op_circ(pair1(2, 5), pair1(1, 3))
    assert r == pair1(1, 3)
    # an idempotent instance: squaring changes nothing
    r = op_circ(pair1(0, 1), pair1(0, 1))
    assert r == pair1(0, 1)


def test_op_star_1x1_example():
    # first = min(3+2, 2+3, 1), second = 5+3
    r = op_star(pair1(2, 5), pair1(1, 3))
    assert r == pair1(1, 8)


def test_op_star_2x2_hand_example():
    # With the acting component zero, the products against M^T pick out
    # column and row minima of M^T; hand evaluation:
    #   H*M^T = [[1,2],[1,2]], M^T*H = [[1,1],[2,2]], then min with S.
    m = TropicalMatrix([[1, 2], [2, 5]])
    zero = TropicalMatrix([[0, 0], [0, 0]])
    s = TropicalMatrix([[9, 9], [9, 9]])
    r = op_star(SemigroupPair(m, zero), SemigroupPair(s, zero))
    assert r.first == TropicalMatrix([[1, 1], [1, 2]])
    assert r.second == TropicalMatrix([[0, 0], [0, 0]])


@pytest.mark.parametrize("op", [CIRC, STAR])
def test_first_component_ignores_second_of_left_operand(op):
    rng = Random(77)
    for _ in range(50):
        k = rng.randint(1, 4)
        p, q = random_pair(rng, k), random_pair(rng, k)
        replaced = SemigroupPair(p.first, random_pair(rng, k).second)
        assert apply(op, p, q).first == apply(op, replaced, q).first


@pytest.mark.parametrize("op", [CIRC, STAR])
def test_apply_dispatches_and_counts(op, monkeypatch):
    rng = Random(3)
    p, q = random_pair(rng, 3), random_pair(rng, 3)
    expected = op_circ(p, q) if op is CIRC else op_star(p, q)
    applications = count_applications(monkeypatch)
    result = apply(op, p, q)
    assert applications.count == 1
    assert result == expected
    assert apply(op, p, q) == expected
    assert applications.count == 2


def test_apply_matches_naive_oracle():
    rng = Random(13)
    for op in (CIRC, STAR):
        cases = []
        for _ in range(60):
            k = rng.randint(1, 4)
            cases.append((random_pair(rng, k), random_pair(rng, k)))
        # H's diagonal all above, at or below 0: circ multiplies by
        # B = H + I, which clips that diagonal at 0
        for k in range(1, 5):
            for sign in (1, 0, -1):
                p, q = random_pair(rng, k), random_pair(rng, k)
                h = [
                    [sign * rng.randint(1, 50) if i == j else x for j, x in enumerate(row)]
                    for i, row in enumerate(q.second.rows)
                ]
                cases.append((p, SemigroupPair(q.first, TropicalMatrix(h))))
        for p, q in cases:
            expected = naive_apply(op, p, q)
            assert apply(op, p, q) == expected
            assert product_first(op, p.first, q) == expected.first


def test_circ_product_first_matches_naive_oracle():
    """``product_first`` under circ, one product by B with S and H as its
    floors: against the triple loop at k = 1..6, with H's diagonal all
    above, at or below 0, and entries of +-10^30."""
    rng = Random(17)
    for k in range(1, 7):
        for bound in (50, 10**30):
            for sign in (1, 0, -1):
                for _ in range(3):
                    m, q = random_mat(rng, k, bound), random_pair(rng, k, bound)
                    h = [
                        [sign * rng.randint(1, bound) if i == j else x for j, x in enumerate(row)]
                        for i, row in enumerate(q.second.rows)
                    ]
                    q = SemigroupPair(q.first, TropicalMatrix(h))
                    g = random_mat(rng, k, bound)  # the left factor's second component
                    expected = naive_apply(CIRC, SemigroupPair(m, g), q).first
                    assert product_first(CIRC, m, q) == expected


def test_attack_makes_no_packed_product(monkeypatch):
    """The eavesdropper's whole recovery stays on the plain kernel: its
    search, the timed region of the scaling gate, and its key derivation
    make no packed product at k = 5 or 10, and the key is the parties'."""
    calls = []
    packed = semidirect._min_plus_packed

    def recorded(x, tiles, packing):
        calls.append(packing.k)
        return packed(x, tiles, packing)

    for k in (5, 10):
        transcript, key = run_exchange(setup(k, 1000, 40, CIRC, Random(k)), Random(k))
        monkeypatch.setattr(semidirect, "_min_plus_packed", recorded)
        result = recover_key_targeting(transcript, "alice")
        monkeypatch.undo()
        assert result.recovered_key == key
        assert calls == []


def test_pair_dimension_mismatch():
    p, q = pair1(1, 2), random_pair(Random(1), 2)
    with pytest.raises(DimensionMismatchError):
        op_circ(p, q)
    with pytest.raises(DimensionMismatchError):
        op_star(p, q)
    with pytest.raises(DimensionMismatchError):
        SemigroupPair(m1(1), TropicalMatrix([[1, 2], [3, 4]]))


@given(st.data())
def test_circ_is_associative(data):
    k = data.draw(st.integers(1, 5))
    entry = st.integers(-50, 50)

    def one():
        return SemigroupPair(
            TropicalMatrix([[data.draw(entry) for _ in range(k)] for _ in range(k)]),
            TropicalMatrix([[data.draw(entry) for _ in range(k)] for _ in range(k)]),
        )

    p, q, r = one(), one(), one()
    assert apply(CIRC, apply(CIRC, p, q), r) == apply(CIRC, p, apply(CIRC, q, r))


def test_star_is_associative_for_1x1():
    rng = Random(23)
    for _ in range(300):
        p, q, r = (pair1(rng.randint(-50, 50), rng.randint(-50, 50)) for _ in range(3))
        assert apply(STAR, apply(STAR, p, q), r) == apply(STAR, p, apply(STAR, q, r))


def test_star_is_not_associative_pinned_counterexample():
    """star fails associativity for k >= 2: its first component acts on the
    transposed first component of the left operand, and composing two such
    actions re-transposes it.  This pins a concrete counterexample so the
    behavior stays visible and deliberate."""
    p = SemigroupPair(
        TropicalMatrix([[0, 3], [10, 10]]), TropicalMatrix([[15, -14], [-1, 19]])
    )
    q = SemigroupPair(
        TropicalMatrix([[-14, -4], [-18, -13]]), TropicalMatrix([[14, -17], [-17, 16]])
    )
    r = SemigroupPair(
        TropicalMatrix([[-16, 9], [0, 10]]), TropicalMatrix([[13, 1], [10, -2]])
    )
    left = apply(STAR, apply(STAR, p, q), r)
    right = apply(STAR, p, apply(STAR, q, r))
    assert left != right
    assert left.first == TropicalMatrix([[-16, -20], [-19, -16]])
    assert right.first == TropicalMatrix([[-16, -20], [-13, -16]])


def test_power_basics():
    base = pair1(10, -3)
    assert power(CIRC, base, 1) == base
    assert power(CIRC, pair1(0, 1), 2) == pair1(0, 1)
    # iterating circ by hand: firsts go 10, -3, -6, -9
    assert power(CIRC, base, 3).first == m1(-6)
    assert power(CIRC, base, 4).first == m1(-9)
    with pytest.raises(ValueError):
        power(CIRC, base, 0)
    with pytest.raises(ValueError):
        power(CIRC, base, -2)


def test_power_op_count_bound(monkeypatch):
    rng = Random(8)
    base = random_pair(rng, 3)
    applications = count_applications(monkeypatch)
    for e in range(1, 200):
        applications.count = 0
        power(CIRC, base, e)
        count = applications.count
        assert count <= 2 * (e.bit_length() - 1) if e > 1 else count == 0
        assert count <= 2 * e.bit_length()


def test_power_matches_both_folds_for_circ():
    rng = Random(17)
    for _ in range(10):
        base = random_pair(rng, 3, 30)
        for e in range(1, 33):
            expected = fold_right(CIRC, base, e)
            assert power(CIRC, base, e) == expected
            assert fold_left(CIRC, base, e) == expected


def test_power_addition_rule_for_circ():
    rng = Random(19)
    for _ in range(20):
        base = random_pair(rng, 3, 30)
        a, b = rng.randint(1, 40), rng.randint(1, 40)
        whole = power(CIRC, base, a + b)
        assert whole == apply(CIRC, power(CIRC, base, a), power(CIRC, base, b))
        assert whole == apply(CIRC, power(CIRC, base, b), power(CIRC, base, a))


def test_star_powers_are_bracketing_dependent():
    """Pinned consequence of star's non-associativity: the two folds (and
    ``power``, whose bracketing follows the exponent's bits) can disagree
    from exponent 3 on, for k >= 2."""
    rng = Random(42)
    diverged = False
    for _ in range(50):
        base = random_pair(rng, 3, 20)
        if fold_left(STAR, base, 3) != fold_right(STAR, base, 3):
            diverged = True
            break
    assert diverged


@pytest.mark.parametrize("op", [CIRC, STAR])
def test_monotone_chain(op):
    """First components of the chain fold are non-increasing; for star the
    chain is the left fold, the order its recursion is defined in."""
    rng = Random(29)
    for _ in range(40):
        k = rng.randint(1, 6)
        base = random_pair(rng, k, 50)
        previous = base
        for _ in range(2, 33):
            current = (
                naive_apply(op, previous, base)
                if op is CIRC
                else naive_apply(op, base, previous)
            )
            assert current.first.leq(previous.first)
            previous = current


def test_circ_chain_tail_recursion():
    # From the third element on, the bare M and H terms are already
    # absorbed, so each circ chain step reduces to M + (M * H_public).
    rng = Random(37)
    for _ in range(30):
        k = rng.randint(1, 5)
        base = random_pair(rng, k, 50)
        h = base.second
        chain = [base]
        for _ in range(2, 65):
            chain.append(apply(CIRC, chain[-1], base))
        for ell in range(2, 64):
            m_ell = chain[ell - 1].first
            m_next = chain[ell].first
            assert m_next == m_ell.oplus(m_ell.otimes(h))


def test_power_matches_ladder_oracle(monkeypatch):
    """Under both laws ``power`` combines the squares in ascending bit
    order, new factor on the right, and costs (bit_length - 1) +
    (popcount - 1) applications; under circ it also matches the fold."""
    rng = Random(41)
    applications = count_applications(monkeypatch)
    for op, k in ((CIRC, 3), (STAR, 2), (STAR, 3)):
        for _ in range(5):
            base = random_pair(rng, k, 30)
            for e in range(1, 1 << 7):
                applications.count = 0
                result = power(op, base, e)
                assert result == ladder_power(op, base, e)
                assert applications.count == (e.bit_length() - 1) + (bin(e).count("1") - 1)
                if op is CIRC:
                    assert result == fold_right(CIRC, base, e)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 4), bound=st.integers(0, 1000), seed=st.integers(0, 2**32 - 1))
def test_circ_powers_are_powers_of_b(k, bound, seed):
    """The identity ``periodic_powers`` rests on, with B = I oplus H: for
    2 < e <= 64, (M, H)^e == (X_2 otimes B^(e-2), G_2 otimes B^(e-2)),
    and B^e == I oplus G_e for every e, along chain_fold's right fold."""
    base = random_pair(Random(seed), k, bound)
    b = identity_oplus(base.second)
    b_powers = [None, b]  # B^j at index j; B^0 = I has no finite entries
    pair = base
    for e in range(1, 65):
        if e > 1:
            pair = naive_apply(CIRC, pair, base)  # one step of chain_fold's fold
            b_powers.append(naive_otimes(b_powers[-1], b))
        assert b_powers[e] == identity_oplus(pair.second)
        if e == 2:
            square = pair
        elif e > 2:
            w = b_powers[e - 2]
            assert pair == SemigroupPair(
                naive_otimes(square.first, w), naive_otimes(square.second, w)
            )
    assert pair == chain_fold(CIRC, base, 64)


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("diagonal", (1, 0, -1))
def test_circ_square_is_read_off_b(k, diagonal):
    """Y otimes B <= Y for any Y, as B = I oplus H has its diagonal at most
    0, so (M, H)^2 = ((M otimes B) oplus H, H otimes B): the square
    ``periodic_powers`` serves, at H diagonals above, at and below 0."""
    rng = Random(k)
    for bound in (0, 1000, 10**30):
        for _ in range(5):
            m, h = random_mat(rng, k, bound), random_mat(rng, k, bound)
            h = TropicalMatrix(
                [[diagonal * (abs(x) + 1) if i == j else x for j, x in enumerate(row)]
                 for i, row in enumerate(h.rows)]
            )
            base, b = SemigroupPair(m, h), identity_oplus(h)
            square = SemigroupPair(naive_oplus(naive_otimes(m, b), h), naive_otimes(h, b))
            assert naive_apply(CIRC, base, base) == square
            assert periodic_powers(base, (2,)) == (square,)


def test_periodic_powers_square_alone_is_plain(monkeypatch):
    """With no exponent above 2 there is no walk: no layout is built, and
    P_2 is two plain products, M * B with H as its floor and then H * B.
    Beside an exponent past 2^64, which does build the walk, P_2 is still
    the pass's."""
    layouts, plain = record_layouts_and_plain(monkeypatch)
    rng = Random(53)
    for k in range(1, 7):
        base = random_pair(rng, k, rng.choice((5, 1000, 10**30)))
        for exponents in ((2,), (1, 2), (2, 1, 2)):
            plain[:] = []
            result = periodic_powers(base, exponents)
            assert layouts == []
            assert plain == [(k, 1), (k, 0)]
            assert result == powers(CIRC, base, exponents)
        exponents = (2, rng.randint((1 << 64) + 1, 1 << 200))
        assert periodic_powers(base, exponents) == powers(CIRC, base, exponents)
        assert layouts == [k]
        layouts[:] = []


def _span(w):
    entries = [x for row in w.rows for x in row]
    return max(entries) - min(entries)


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 6),
    data=st.data(),
    bound=st.sampled_from((0, 3, 1000, 10**6, 10**30)),
)
def test_powers_of_b_span_at_most_twice_b(k, data, bound):
    """The width lemma the packed walk rests on: span(B^j) <= 2 span(B)
    for j >= 1, with B = I oplus H for any finite H."""
    entry = st.integers(-bound, bound)
    h = TropicalMatrix([[data.draw(entry) for _ in range(k)] for _ in range(k)])
    b = identity_oplus(h)
    w, limit = b, 2 * _span(b)
    for _ in range(40):
        assert _span(w) <= limit
        w = naive_otimes(w, b)


def test_packed_walk_matches_naive_powers():
    """The walk's representation over 300 steps W_{j+1} = W_j otimes B,
    each checked against the triple loop: W_j is its packed fields plus
    an offset, in fields of bitlen(8S) + 1 bits rounded up to a byte,
    S = span(B), and after each product every field is rebased by the
    [0][0] field, which then reads 2S, with all of them in [0, 4S]."""
    rng = Random(59)
    hs = [random_mat(rng, k, bound) for k in range(1, 7) for bound in (3, 1000, 10**30)]
    hs += [TropicalMatrix([[c] * k] * k) for k, c in ((1, 5), (3, -7), (4, 0), (6, 10**30))]
    hs.append(TropicalMatrix([[rng.randint(-10**30, -10**29) for _ in range(5)] for _ in range(5)]))
    for h in hs:
        b = identity_oplus(h)
        k, lift = b.k, 2 * _span(b)
        packing = _Packing(k, 4 * lift)
        offset = b.rows[0][0] - lift
        x = packing.pack([e - offset for row in b.rows for e in row])
        b_tiles, b_offset, power = packing.tiles(x), offset, b
        for _ in range(300):
            x, offset = _min_plus_packed(x, b_tiles, packing), offset + b_offset
            power = naive_otimes(power, b)
            assert packing.unpack(x, offset) == power
            shift = packing.fields(x)[0] - lift
            x, offset = x - shift * packing.ones, offset + shift
            assert packing.unpack(x, offset) == power
            fields = packing.fields(x)
            assert fields[0] == lift and max(fields) <= 2 * lift and x >= 0


def _b_period(base):
    return matrix_period(identity_oplus(base.second))


def test_periodic_powers_match_powers_and_fold(monkeypatch):
    """Read off the period of B's powers, every power equals the pass's and
    the fold's, at the cost the naive schedule oracle predicts.  The
    exponents 1 .. 127 include 3, whose B^1 lies below every segment, so
    the walk runs the pass; 128 exponents past 2^64 cover every residue."""
    products = count_products(monkeypatch)
    fallbacks = count_fallbacks(monkeypatch)
    rng = Random(61)
    for k in range(1, 5):
        for _ in range(4):
            base = random_pair(rng, k, 40)
            n, p = _b_period(base)
            assert n + p + 3 < 128  # the fold checks below reach past B's first repeat
            for exponents in (range(1 << 64, (1 << 64) + 128), range(1, 1 << 7)):
                products.count, fallbacks[:] = 0, []
                result = periodic_powers(base, exponents)
                assert products.count == periodic_cost(base, exponents)
                assert len(fallbacks) == (exponents[0] == 1)
                assert result == powers(CIRC, base, exponents)
            for e in {1, 2, 3, n + 2, n + p + 1, n + p + 2, n + p + 3, 127}:
                assert result[e - 1] == chain_fold(CIRC, base, e)
            for _ in range(8):
                two = (rng.randint(1, 1 << 64), rng.randint(1, 1 << 200))
                products.count = 0
                result = periodic_powers(base, two)
                assert products.count == periodic_cost(base, two)
                assert result == powers(CIRC, base, two)


def test_periodic_powers_stationary_chain(monkeypatch):
    # M in [0, N] and H all N: B = I oplus H squares to itself, so B's
    # powers repeat from j = 2 on, period 1 and shift c = 0, and every
    # power is the base.  The walk squares to B^8 (k = 4) and one step
    # shows the repeat: four products.  Serving makes four more, two for
    # P_2 and two for W_8, which both huge exponents share.  Exponent 3
    # needs B^1, below every segment, so with it the walk runs the pass.
    rng = Random(67)
    big = 1000
    m = TropicalMatrix([[rng.randint(0, big) for _ in range(4)] for _ in range(4)])
    base = SemigroupPair(m, TropicalMatrix([[big] * 4] * 4))
    assert _b_period(base) == (1, 1)
    products = count_products(monkeypatch)
    exponents = (1, 2, 1 << 200, (1 << 4096) - 1)
    assert periodic_powers(base, exponents) == (base,) * 4
    assert products.count == periodic_cost(base, exponents) == 8
    products.count = 0
    assert periodic_powers(base, (3, *exponents)) == (base,) * 5
    assert products.count == periodic_cost(base, (3, *exponents)) == pass_products((3, *exponents))


def packed_sums(monkeypatch):
    """Check every packed product from here on against the kernel's
    exactness condition, and record its widest sum and field width."""
    packed, sums = semidirect._min_plus_packed, []

    def checked(x, tiles, packing):
        # every field of x plus every field of the right factor, whose
        # rows the tiles repeat, stays below the guard bit
        widest = max(packing.fields(x)) + max(max(packing.fields(t)) for t in tiles)
        assert widest < 1 << (packing.w - 1)
        sums.append((widest, packing.w))
        return packed(x, tiles, packing)

    monkeypatch.setattr(semidirect, "_min_plus_packed", checked)
    return sums


def test_periodic_powers_fields_at_their_bound(monkeypatch):
    """Every packed product the walk and its serving make meets the
    kernel's exactness condition, on a base whose sums reach both width
    bounds.  B = [[-5000, 0], [0, 0]] spans S = 5000, and from B^2 on
    each power spans 2S with its least entry at [0][0], so its rebased
    fields reach 4S and squaring B^2 sums two fields to 8S = 40 000, past
    15 value bits.  X_2 = [[-5000, 0], [-20000, -15000]] spans 20 000
    with its largest entry in column 1, so serving sums 20 000 + 4S =
    40 000 too.  The walk's layout needs 24-bit fields."""
    sums = packed_sums(monkeypatch)
    m = TropicalMatrix([[0, 15000], [-15000, 15000]])
    base = SemigroupPair(m, TropicalMatrix([[-5000, 0], [0, 3000]]))
    assert apply(CIRC, base, base).first == TropicalMatrix([[-5000, 0], [-20000, -15000]])
    exponents = ((1 << 60) + 1, (1 << 61) + 3)
    result = periodic_powers(base, exponents)
    # B^2, B^4 and B^5 for the walk, which then repeats; X_2 and G_2 times
    # the one power of B both exponents share for serving
    walk, serving = [(30000, 24), (40000, 24), (35000, 24)], [(40000, 24), (30000, 24)]
    assert sums == walk + serving
    assert result == powers(CIRC, base, exponents)
    rng = Random(89)
    for trial in range(40):
        base = random_pair(rng, 1 + trial % 6, rng.choice((0, 5, 1000, 10**30)))
        exponents = (rng.randint(1 << 60, 1 << 64), rng.randint(3, 1 << 200))
        assert periodic_powers(base, exponents) == powers(CIRC, base, exponents)


def test_periodic_powers_serving_sets_the_width(monkeypatch):
    """The one layout holds the walk's sums, at most 8S, and serving's, at
    most R + 4S with R = max(H) - min(min M, min H) - min(B); here R
    decides w.  H = [[5, 5], [5, 5]] gives B = [[0, 5], [5, 0]], S = 5, so
    8S = 40 would fit 8-bit fields, but M = [[-1000, 1000], [0, 0]] gives
    R = 5 + 1000 + 0 = 1005, and 4S + R = 1025 needs 16 bits.  B is
    idempotent, so the walk squares B to B^2 and B^4, steps to B^5 and
    repeats (p = 1, c = 0): three products of rebased fields [[10, 15],
    [15, 10]], summing to 30.  X_2 = [[-1000, -995], [0, 0]] spans 1000
    and G_2 = H none, so serving sums 1000 + 15 = 1015 and 15, both below
    R + 4S."""
    sums = packed_sums(monkeypatch)
    m = TropicalMatrix([[-1000, 1000], [0, 0]])
    base = SemigroupPair(m, TropicalMatrix([[5, 5], [5, 5]]))
    assert apply(CIRC, base, base).first == TropicalMatrix([[-1000, -995], [0, 0]])
    exponents = ((1 << 60) + 1, (1 << 61) + 3)
    result = periodic_powers(base, exponents)
    walk, serving = [(30, 16)] * 3, [(1015, 16), (15, 16)]
    assert sums == walk + serving
    assert result == powers(CIRC, base, exponents)


def test_periodic_powers_before_the_certificate(monkeypatch):
    """Exponent 1 costs nothing, and exponents whose power of B lies below
    the segment where the period shows run the pass, after whatever the
    walk made, at most twice the pass's products."""
    rng = Random(71)
    base = random_pair(rng, 3)
    products = count_products(monkeypatch)
    fallbacks = count_fallbacks(monkeypatch)
    assert periodic_powers(base, (1,)) == (base,)
    assert products.count == 0
    # exponent 3 needs B itself: the budget of 4 only covers serving, so
    # the walk runs the pass at once
    result = periodic_powers(base, (1, 3))
    assert products.count == periodic_cost(base, (1, 3)) == 4
    assert fallbacks == [(1, 3)]
    assert result == powers(CIRC, base, (1, 3))
    # the long transient pinned below: the walk squares to B^2, and squaring
    # again would start a segment at B^4, past B^3 for exponent 5
    base = setup(2, 10**6, 200, CIRC, Random(1997)).base_pair
    exponents = (1, 5, 500, 1038)
    products.count = 0
    result = periodic_powers(base, exponents)
    assert products.count == periodic_cost(base, exponents) == 1 + pass_products(exponents) == 39
    assert result == powers(CIRC, base, exponents)
    assert periodic_powers(base, ()) == ()
    with pytest.raises(ValueError):
        periodic_powers(base, (3, 0))


def test_periodic_powers_long_transient_certifies_within_budget(monkeypatch):
    """A k = 2 instance with N = 10^6 whose B first repeats after 1 038
    products.  Squaring to B^4, then at the end of each segment of three
    powers, reaches B^2044 past the transient after 26 products, and one
    more step shows the period, 1: 31 products with serving (two for the
    square, two for the one residue both exponents share), within the 796
    the pass would spend on 200-bit exponents."""
    params = setup(2, 10**6, 200, CIRC, Random(1997))
    base = params.base_pair
    assert _b_period(base) == (1038, 1)
    exponents = ((1 << 200) - 1, 1 << 199)
    assert pass_products(exponents) == 796
    products = count_products(monkeypatch)
    result = periodic_powers(base, exponents)
    assert products.count == periodic_cost(base, exponents) == 31
    assert result == powers(CIRC, base, exponents)


def test_periodic_powers_small_with_huge_exponents(monkeypatch):
    """Small and huge exponents together on the long transient: the small
    ones lie below every segment, so the walk runs the pass, which gives
    the pass's pairs, the small ones equal to the fold's, within twice the
    pass's products."""
    base = setup(2, 10**6, 200, CIRC, Random(1997)).base_pair
    products = count_products(monkeypatch)
    fallbacks = count_fallbacks(monkeypatch)
    for exponents in (
        (1, 3, 40, 1038, 1 << 60, (1 << 200) - 1),
        (40, (1 << 200) - 1),
        (1038, 1 << 60),
    ):
        products.count, fallbacks[:] = 0, []
        result = periodic_powers(base, exponents)
        assert products.count == periodic_cost(base, exponents) <= 2 * pass_products(exponents)
        assert fallbacks == [exponents]
        assert result == powers(CIRC, base, exponents)
        for e, pair in zip(exponents, result):
            if e < 1 << 20:
                assert pair == chain_fold(CIRC, base, e)


def test_periodic_powers_counts_the_products_it_makes(monkeypatch):
    """The k^3 products a call makes, as counted on the kernels themselves,
    are what the schedule oracle predicts: P_2, the walk, and two per
    distinct power of B served, or the walk so far and the pass when it
    falls back.  Exponents that repeat or share a residue past the period
    serve no extra power; the powers are the pass's either way."""
    rng = Random(97)
    products = count_products(monkeypatch)
    fallbacks = count_fallbacks(monkeypatch)
    fell_back, compared = set(), 0
    for trial in range(40):
        base = random_pair(rng, 1 + trial % 4, rng.choice((5, 50, 1000)))
        n, p = _b_period(base)
        huge = rng.randint(1 << 60, 1 << 64)
        small = rng.randint(1, n + 2 * p + 2)
        shared = (huge, huge, huge + p * rng.randint(1, 99))
        costs = []
        for exponents in (shared, (huge,), (huge, small, huge, small, 3), (huge, small)):
            products.count, fallbacks[:] = 0, []
            result = periodic_powers(base, exponents)
            costs.append((products.count, bool(fallbacks)))
            assert products.count == periodic_cost(base, exponents)
            assert result == powers(CIRC, base, exponents)
            fell_back.add(bool(fallbacks))
        # the repeats and the residue the huge exponents share cost no product
        if not costs[0][1] and not costs[1][1]:
            assert costs[0][0] == costs[1][0]
            compared += 1
    assert fell_back == {True, False}
    assert compared > 30


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 4),
    bound=st.integers(5, 1000),
    seed=st.integers(0, 2**32 - 1),
    draws=st.lists(st.tuples(st.booleans(), st.integers(0, 2**200)), min_size=1, max_size=4),
)
def test_party_powers_mixed_exponents(k, bound, seed, draws):
    """Exponents below B's first repeat plus twice its period, mixed with
    exponents above 2^60: ``party_powers`` gives the pass's pairs, at the
    products the schedule oracle predicts, at most twice the pass's."""
    base = random_pair(Random(seed), k, bound)
    n, p = _b_period(base)
    exponents = tuple(
        1 + x % (n + 2 * p + 1) if small else (1 << 60) + 1 + x for small, x in draws
    )
    params = protocol.ProtocolParams(k, bound, 201, CIRC, base.first, base.second)
    with pytest.MonkeyPatch.context() as patch:
        products = count_products(patch)
        pairs = protocol.party_powers(params, exponents)
    assert pairs == powers(CIRC, base, exponents)
    assert products.count == periodic_cost(base, exponents) <= 2 * pass_products(exponents)


def test_periodic_powers_window_overflow(monkeypatch):
    """A k = 5 chain whose period, 6, exceeds k: H has two disjoint
    critical cycles, of lengths 2 and 3, so the critical graph is not
    strongly connected and the period is their lcm.  No segment of k + 1
    powers holds two powers six apart, so the walk never certifies: it
    spends its budget less the most serving can cost, or stops before a
    segment past the least needed power, and then runs the pass, at most
    twice the pass's products in all."""
    base = period_six_pair()
    assert _b_period(base) == (2, 6)
    products = count_products(monkeypatch)
    fallbacks = count_fallbacks(monkeypatch)
    exponents = (1 << 40, (1 << 40) + 5)
    result = periodic_powers(base, exponents)
    assert products.count == periodic_cost(base, exponents) == 78 + pass_products(exponents)
    assert result == powers(CIRC, base, exponents)
    params = protocol.ProtocolParams(5, 100, 41, CIRC, base.first, base.second)
    exponents = (191, 255)
    products.count, fallbacks[:] = 0, []
    pairs = protocol.party_powers(params, exponents)
    assert products.count == periodic_cost(base, exponents) == 21 + pass_products(exponents)
    assert products.count <= 2 * pass_products(exponents)
    assert fallbacks == [exponents]
    assert pairs == powers(CIRC, base, exponents)
    assert pairs == (chain_fold(CIRC, base, 191), chain_fold(CIRC, base, 255))


def _packed_b(h):
    """B = H oplus I packed as ``periodic_powers`` packs it, less 2S so
    that field [0][0] reads 2S, in fields that hold the walk's own sums,
    8S: (layout, fields, tiles, offset)."""
    entries = [e for row in identity_oplus(h).rows for e in row]
    lift = 2 * (max(entries) - min(entries))
    walk = _Packing(h.k, 4 * lift)
    offset = entries[0] - lift
    x = walk.pack([e - offset for e in entries])
    return walk, x, walk.tiles(x), offset


def _check_certificate(h, walk, certificate):
    """Every power the segment holds is the triple loop's B^j, and the
    certificate holds: W_{n+p} = W_n + c.  Returns (n, p)."""
    n, p, c, segment = certificate
    b = identity_oplus(h)
    power, j = b, 1
    for i in sorted(segment):
        while j < i:
            power, j = naive_otimes(power, b), j + 1
        assert walk.unpack(*segment[i]) == power
    w_n = walk.unpack(*segment[n]).rows
    assert walk.unpack(*segment[n + p]) == TropicalMatrix([[e + c for e in row] for row in w_n])
    return n, p


def test_certify_b_returns_the_certificate(monkeypatch):
    """The walk alone, with room to certify: its period is the oracle's,
    its n is at or past the oracle's first repeat, and the segment it
    returns holds B's powers.  On the long transient it certifies at
    n = 2044 past the oracle's 1038, after 27 products."""
    rng = Random(101)
    for k in range(1, 7):
        for bound in (5, 50, 1000):
            for _ in range(3):
                h = random_mat(rng, k, bound)
                first, period = matrix_period(identity_oplus(h))
                walk, x, tiles, offset = _packed_b(h)
                n, p = _check_certificate(h, walk, _certify_b(walk, x, tiles, offset, 10**6, 1 << 64))
                assert p == period and n >= first
    h = setup(2, 10**6, 200, CIRC, Random(1997)).H
    assert matrix_period(identity_oplus(h)) == (1038, 1)
    walk, x, tiles, offset = _packed_b(h)
    products = count_products(monkeypatch)
    certificate = _certify_b(walk, x, tiles, offset, 10**6, 1 << 64)
    assert products.count == 27
    assert _check_certificate(h, walk, certificate) == (2044, 1)
    assert certificate[2] == -536237


def test_certify_b_gives_up(monkeypatch):
    """The walk gives up at its allowance or before a segment past the
    least index it may serve.  On ``period_six_pair`` (p = 6 > k = 5) with
    the allowance ``periodic_powers`` leaves it for exponents 2^40 and
    2^40 + 5, 84 less 6 for serving, it gives up after exactly 78
    products.  On the long transient with least index 3 it squares to
    B^2, and gives up before squaring to B^4."""
    products = count_products(monkeypatch)
    h = period_six_pair().second
    assert _certify_b(*_packed_b(h), 78, (1 << 40) - 2) is None
    assert products.count == 78
    products.count = 0
    h = setup(2, 10**6, 200, CIRC, Random(1997)).H
    assert _certify_b(*_packed_b(h), 10**6, 3) is None
    assert products.count == 1


def test_star_never_reaches_the_walk(monkeypatch):
    def forbidden(*args):
        raise AssertionError("periodic_powers called under star")

    monkeypatch.setattr(protocol, "periodic_powers", forbidden)
    params = setup(3, 50, 16, STAR, Random(79))
    exponents = (40_000, 123)
    assert protocol.party_powers(params, exponents) == powers(STAR, params.base_pair, exponents)

