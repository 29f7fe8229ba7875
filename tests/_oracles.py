"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive (triple loops, step-by-step folds,
direct formula transcription) and shares no arithmetic code with the
implementation under test; ``count_products`` only wraps the library's
kernels to count their calls.
"""

from random import Random

from tropkex import OpCounter, SemigroupOpKind, SemigroupPair, TropicalMatrix, semidirect


def random_mat(rng: Random, k: int, bound: int = 50) -> TropicalMatrix:
    return TropicalMatrix(
        [[rng.randint(-bound, bound) for _ in range(k)] for _ in range(k)]
    )


def random_pair(rng: Random, k: int, bound: int = 50) -> SemigroupPair:
    return SemigroupPair(random_mat(rng, k, bound), random_mat(rng, k, bound))


def naive_oplus(a: TropicalMatrix, b: TropicalMatrix) -> TropicalMatrix:
    return TropicalMatrix(
        [[min(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)]
    )


def naive_otimes(a: TropicalMatrix, b: TropicalMatrix) -> TropicalMatrix:
    k, a_rows, b_rows = a.k, a.rows, b.rows  # ``rows`` builds a new view per read
    rows = []
    for i in range(k):
        row = []
        for j in range(k):
            best = None
            for l in range(k):
                value = a_rows[i][l] + b_rows[l][j]
                if best is None or value < best:
                    best = value
            row.append(best)
        rows.append(row)
    return TropicalMatrix(rows)


def naive_transpose(a: TropicalMatrix) -> TropicalMatrix:
    rows = a.rows
    return TropicalMatrix([[rows[j][i] for j in range(a.k)] for i in range(a.k)])


def naive_circ(p: SemigroupPair, q: SemigroupPair) -> SemigroupPair:
    m, g = p.first, p.second
    s, h = q.first, q.second
    first = naive_oplus(naive_oplus(m, s), naive_oplus(h, naive_otimes(m, h)))
    second = naive_oplus(g, naive_oplus(h, naive_otimes(g, h)))
    return SemigroupPair(first, second)


def naive_star(p: SemigroupPair, q: SemigroupPair) -> SemigroupPair:
    m, g = p.first, p.second
    s, h = q.first, q.second
    mt = naive_transpose(m)
    first = naive_oplus(
        naive_oplus(naive_otimes(h, mt), naive_otimes(mt, h)), s
    )
    second = naive_otimes(g, h)
    return SemigroupPair(first, second)


def naive_apply(op: SemigroupOpKind, p: SemigroupPair, q: SemigroupPair) -> SemigroupPair:
    if op is SemigroupOpKind.CIRC:
        return naive_circ(p, q)
    return naive_star(p, q)


def fold_right(op: SemigroupOpKind, base: SemigroupPair, e: int) -> SemigroupPair:
    """base combined e times, new factor on the right: ((b b) b) b ..."""
    acc = base
    for _ in range(e - 1):
        acc = naive_apply(op, acc, base)
    return acc


def fold_left(op: SemigroupOpKind, base: SemigroupPair, e: int) -> SemigroupPair:
    """base combined e times, new factor on the left: b (b (b b)) ..."""
    acc = base
    for _ in range(e - 1):
        acc = naive_apply(op, base, acc)
    return acc


def ladder_power(op: SemigroupOpKind, base: SemigroupPair, e: int) -> SemigroupPair:
    """base^e from the ladder of squares base^(2^i), combined in ascending
    bit order with the new factor on the right: the bracketing ``power``
    promises, which matters under star."""
    squares = [base]
    while len(squares) < e.bit_length():
        squares.append(naive_apply(op, squares[-1], squares[-1]))
    acc = None
    for i, square in enumerate(squares):
        if e >> i & 1:
            acc = square if acc is None else naive_apply(op, acc, square)
    return acc


def chain_fold(op: SemigroupOpKind, base: SemigroupPair, e: int) -> SemigroupPair:
    """The fold whose first components form the monotone chain.

    For circ that is the right fold (each step adds the previous first
    component into the minimum); for star it is the left fold.  For circ
    the distinction is cosmetic since circ is associative.
    """
    if op is SemigroupOpKind.CIRC:
        return fold_right(op, base, e)
    return fold_left(op, base, e)


def identity_oplus(h: TropicalMatrix) -> TropicalMatrix:
    """I oplus h, I the min-plus identity (0 on the diagonal, +inf off it):
    h with its diagonal clipped at 0."""
    return TropicalMatrix(
        [[min(x, 0) if i == j else x for j, x in enumerate(row)] for i, row in enumerate(h.rows)]
    )


def _relative(w: TropicalMatrix) -> tuple:
    # w written relative to its own (0, 0) entry: equal for scalar shifts of w
    rows = w.rows
    return tuple(tuple(x - rows[0][0] for x in row) for row in rows)


def matrix_period(b: TropicalMatrix) -> tuple[int, int]:
    """(n, p) of the first repeat up to a scalar shift among b, b^2, ...

    Multiplies by b with ``naive_otimes`` one step at a time, writes each
    power relative to its own (0, 0) entry, and stops at the first j whose
    power already occurred at some n; p = j - n.
    """
    first_index = {}
    acc, j = b, 1
    while True:
        state = _relative(acc)
        if state in first_index:
            return first_index[state], j - first_index[state]
        first_index[state] = j
        acc, j = naive_otimes(acc, b), j + 1


def pass_products(exponents) -> int:
    """k^3 products the least-bit-first pass ``powers`` spends on
    ``exponents``, two per application: the budget of ``periodic_powers``."""
    return 2 * (max(exponents).bit_length() - 1 + sum(bin(e).count("1") - 1 for e in exponents))


def periodic_cost(base: SemigroupPair, exponents) -> int:
    """k^3 products ``periodic_powers`` makes on ``exponents``, counting the
    pass it falls back to.

    Replays the walk's schedule over the powers W_j of B = I oplus H with
    ``naive_otimes``, one product per step.  From W_1 = B it squares while
    j < 2k, and whenever the segment of powers made since the last
    squaring holds k + 1 with no two equal up to a scalar shift; otherwise
    it multiplies by B.  It stops at a repeat W_j = W_n + c inside a
    segment; serving then makes two products for base^2 and two per
    distinct W_i it multiplies, where a needed index e - 2 at or past n is
    read as n + (index - n) mod (j - n).  It falls back, adding the pass's
    ``pass_products``, when the most serving can cost (two products for
    base^2 and two per exponent above 2) exceeds that budget, before a
    product that would leave less of the budget than that, and before a
    squaring to an index past the least needed one.  (The library has no
    check of its own for the first case: its check before the first
    product catches it.)
    """
    top, budget = max(exponents), pass_products(exponents)
    serving = 2 * (top > 1) + 2 * sum(e > 2 for e in exponents)
    if serving > budget:
        return budget
    needed = {e - 2 for e in exponents if e > 2}
    if not needed:
        return serving
    b = identity_oplus(base.second)
    segment = {}  # the powers made since the last squaring, by index
    w, j, spent = b, 1, 0
    while True:
        state = _relative(w)
        repeats = [n for n, seen in segment.items() if _relative(seen) == state]
        if repeats:
            n, p = repeats[0], j - repeats[0]
            served = {i if i < n else n + (i - n) % p for i in needed}
            return spent + 2 + 2 * len(served)
        segment[j] = w
        squaring = j < 2 * base.k or len(segment) == base.k + 1
        if spent + serving >= budget or (squaring and 2 * j > min(needed)):
            return spent + budget
        if squaring:
            w, j, segment = naive_otimes(w, w), 2 * j, {}
        else:
            w, j = naive_otimes(w, b), j + 1
        spent += 1


def period_six_pair() -> SemigroupPair:
    """A k = 5 base whose B has period 6 > k: H's critical graph is two
    disjoint cycles, of lengths 2 and 3, with B's first repeat at
    j = 8, n = 2."""
    k = 5
    m = TropicalMatrix([[0 if i == j else 100 for j in range(k)] for i in range(k)])
    h = [[100] * k for _ in range(k)]
    for i, j in ((0, 1), (1, 0), (2, 3), (3, 4), (4, 2)):
        h[i][j] = -1
    return SemigroupPair(m, TropicalMatrix(h))


def count_products(monkeypatch) -> OpCounter:
    """Count k^3 products from here on, by wrapping the library's own
    entry points: two per pair application (``op_circ``, which calls the
    plain product kernel directly), one per packed product
    (``_min_plus_packed``, looked up on ``semidirect``, which the walk
    over the powers of B, its serving step, P_2 and ``product_first``
    under circ call).  Nothing else on a circ path makes a product:
    ``TropicalMatrix.otimes`` serves only star."""
    tally = OpCounter()
    op_circ, packed = semidirect.op_circ, semidirect._min_plus_packed

    def counted_circ(p, q):
        tally.count += 2
        return op_circ(p, q)

    def counted_packed(x, tiles, packing):
        tally.count += 1
        return packed(x, tiles, packing)

    monkeypatch.setattr(semidirect, "op_circ", counted_circ)
    monkeypatch.setattr(semidirect, "_min_plus_packed", counted_packed)
    return tally


def count_fallbacks(monkeypatch) -> list:
    """Record from here on the exponents of every pass ``periodic_powers``
    falls back to, by wrapping ``semidirect.powers``, where it looks the
    pass up."""
    calls = []
    pass_ = semidirect.powers

    def recorded(op, base, exponents):
        calls.append(exponents)
        return pass_(op, base, exponents)

    monkeypatch.setattr(semidirect, "powers", recorded)
    return calls
