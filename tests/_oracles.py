"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive (triple loops, step-by-step folds,
direct formula transcription) and shares no arithmetic code with the
implementation under test.  The helpers compute on lists of rows and
build one checked ``TropicalMatrix`` per matrix they return.
``count_products`` and ``count_applications`` only wrap the library's
kernels to count their calls.
"""

from random import Random

from tropkex import SemigroupOpKind, SemigroupPair, TropicalMatrix, semidirect


def random_mat(rng: Random, k: int, bound: int = 50) -> TropicalMatrix:
    return TropicalMatrix(
        [[rng.randint(-bound, bound) for _ in range(k)] for _ in range(k)]
    )


def random_pair(rng: Random, k: int, bound: int = 50) -> SemigroupPair:
    return SemigroupPair(random_mat(rng, k, bound), random_mat(rng, k, bound))


# Matrices as lists of rows, pairs as (first, second) tuples of them.


def _oplus(a: list, b: list) -> list:
    return [[min(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _otimes(a: list, b: list) -> list:
    k = len(a)
    return [[min(a[i][l] + b[l][j] for l in range(k)) for j in range(k)] for i in range(k)]


def _transpose(a: list) -> list:
    return [list(column) for column in zip(*a)]


def _circ(p: tuple, q: tuple) -> tuple:
    (m, g), (s, h) = p, q
    first = _oplus(_oplus(m, s), _oplus(h, _otimes(m, h)))
    second = _oplus(g, _oplus(h, _otimes(g, h)))
    return first, second


def _star(p: tuple, q: tuple) -> tuple:
    (m, g), (s, h) = p, q
    mt = _transpose(m)
    return _oplus(_oplus(_otimes(h, mt), _otimes(mt, h)), s), _otimes(g, h)


def _law(op: SemigroupOpKind):
    return _circ if op is SemigroupOpKind.CIRC else _star


def _unpair(p: SemigroupPair) -> tuple:
    return p.first.rows, p.second.rows


def _pair(p: tuple) -> SemigroupPair:
    return SemigroupPair(TropicalMatrix(p[0]), TropicalMatrix(p[1]))


def naive_oplus(a: TropicalMatrix, b: TropicalMatrix) -> TropicalMatrix:
    return TropicalMatrix(_oplus(a.rows, b.rows))


def naive_otimes(a: TropicalMatrix, b: TropicalMatrix) -> TropicalMatrix:
    return TropicalMatrix(_otimes(a.rows, b.rows))


def naive_residual(y: TropicalMatrix, x: TropicalMatrix) -> TropicalMatrix:
    """The principal residual y \\ x, the least z with y otimes z >= x:
    z[l][j] = max over i of x[i][j] - y[i][l]."""
    y, x = y.rows, x.rows
    k = len(y)
    return TropicalMatrix(
        [[max(x[i][j] - y[i][l] for i in range(k)) for j in range(k)] for l in range(k)]
    )


def naive_in_column_space(y: TropicalMatrix, x: TropicalMatrix) -> bool:
    """Whether x == y otimes (y \\ x), i.e. x is y otimes z for some z."""
    return naive_otimes(y, naive_residual(y, x)) == x


def naive_apply(op: SemigroupOpKind, p: SemigroupPair, q: SemigroupPair) -> SemigroupPair:
    return _pair(_law(op)(_unpair(p), _unpair(q)))


def fold_right(op: SemigroupOpKind, base: SemigroupPair, e: int) -> SemigroupPair:
    """base combined e times, new factor on the right: ((b b) b) b ..."""
    combine, b = _law(op), _unpair(base)
    acc = b
    for _ in range(e - 1):
        acc = combine(acc, b)
    return _pair(acc)


def fold_left(op: SemigroupOpKind, base: SemigroupPair, e: int) -> SemigroupPair:
    """base combined e times, new factor on the left: b (b (b b)) ..."""
    combine, b = _law(op), _unpair(base)
    acc = b
    for _ in range(e - 1):
        acc = combine(b, acc)
    return _pair(acc)


def ladder_power(op: SemigroupOpKind, base: SemigroupPair, e: int) -> SemigroupPair:
    """base^e from the ladder of squares base^(2^i), combined in ascending
    bit order with the new factor on the right: the bracketing ``power``
    promises, which matters under star."""
    combine = _law(op)
    squares = [_unpair(base)]
    while len(squares) < e.bit_length():
        squares.append(combine(squares[-1], squares[-1]))
    acc = None
    for i, square in enumerate(squares):
        if e >> i & 1:
            acc = square if acc is None else combine(acc, square)
    return _pair(acc)


def chain_fold(op: SemigroupOpKind, base: SemigroupPair, e: int) -> SemigroupPair:
    """The fold whose first components form the monotone chain.

    For circ that is the right fold (each step adds the previous first
    component into the minimum); for star it is the left fold.  For circ
    the distinction is cosmetic since circ is associative.
    """
    if op is SemigroupOpKind.CIRC:
        return fold_right(op, base, e)
    return fold_left(op, base, e)


def _identity_oplus(h: list) -> list:
    return [[min(x, 0) if i == j else x for j, x in enumerate(row)] for i, row in enumerate(h)]


def identity_oplus(h: TropicalMatrix) -> TropicalMatrix:
    """I oplus h, I the min-plus identity (0 on the diagonal, +inf off it):
    h with its diagonal clipped at 0."""
    return TropicalMatrix(_identity_oplus(h.rows))


def _relative(w: list) -> tuple:
    # w written relative to its own (0, 0) entry: equal for scalar shifts of w
    return tuple(tuple(x - w[0][0] for x in row) for row in w)


def matrix_period(b: TropicalMatrix) -> tuple[int, int]:
    """(n, p) of the first repeat up to a scalar shift among b, b^2, ...

    Multiplies by b with a naive product one step at a time, writes each
    power relative to its own (0, 0) entry, and stops at the first j whose
    power already occurred at some n; p = j - n.
    """
    first_index = {}
    b = b.rows
    acc, j = b, 1
    while True:
        state = _relative(acc)
        if state in first_index:
            return first_index[state], j - first_index[state]
        first_index[state] = j
        acc, j = _otimes(acc, b), j + 1


def pass_products(exponents) -> int:
    """k^3 products the least-bit-first pass ``powers`` spends on
    ``exponents``, two per application: the budget of ``periodic_powers``."""
    return 2 * (max(exponents).bit_length() - 1 + sum(bin(e).count("1") - 1 for e in exponents))


def periodic_cost(base: SemigroupPair, exponents) -> int:
    """k^3 products ``periodic_powers`` makes on ``exponents``, counting the
    pass it falls back to.

    Replays the walk's schedule over the powers W_j of B = I oplus H with
    a naive product, one product per step.  From W_1 = B it squares while
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
    b = _identity_oplus(base.second.rows)
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
            w, j, segment = _otimes(w, w), 2 * j, {}
        else:
            w, j = _otimes(w, b), j + 1
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


class Tally:
    """A count the wrappers below raise as the library runs."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0


def count_products(monkeypatch) -> Tally:
    """Count k^3 products from here on, one per call of either kernel as
    ``semidirect`` looks it up: ``_min_plus``, the plain one (two per
    ``op_circ``, one per circ ``product_first``, two for P_2 in
    ``periodic_powers``), and ``_min_plus_packed`` (the walk over the
    powers of B and its serving).  Products made in ``tropical`` are not
    counted: ``TropicalMatrix.otimes``, which serves only star, and the
    two of the attack's ``in_column_space``."""
    tally = Tally()
    for name in ("_min_plus", "_min_plus_packed"):
        kernel = getattr(semidirect, name)

        def counted(*args, kernel=kernel):
            tally.count += 1
            return kernel(*args)

        monkeypatch.setattr(semidirect, name, counted)
    return tally


def count_applications(monkeypatch) -> Tally:
    """Count pair applications from here on, one per call of
    ``semidirect.op_circ`` or ``semidirect.op_star``, which ``apply`` looks
    up at call time."""
    tally = Tally()
    for name in ("op_circ", "op_star"):
        law = getattr(semidirect, name)

        def counted(p, q, law=law):
            tally.count += 1
            return law(p, q)

        monkeypatch.setattr(semidirect, name, counted)
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


def record_layouts_and_plain(monkeypatch) -> tuple[list, list]:
    """Record from here on the k of every ``_Packing`` that ``semidirect``
    builds, and (k, number of floors) for every plain-kernel call it
    makes, as two lists."""
    layouts, plain = [], []
    packing, min_plus = semidirect._Packing, semidirect._min_plus

    def built(k, largest):
        layouts.append(k)
        return packing(k, largest)

    def recorded(a, b, k, *floors):
        plain.append((k, len(floors)))
        return min_plus(a, b, k, *floors)

    monkeypatch.setattr(semidirect, "_Packing", built)
    monkeypatch.setattr(semidirect, "_min_plus", recorded)
    return layouts, plain
