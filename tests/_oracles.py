"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive (triple loops, step-by-step folds,
direct formula transcription) and shares no arithmetic code with the
implementation under test.
"""

from random import Random

from tropkex import SemigroupOpKind, SemigroupPair, TropicalMatrix


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
    k = a.k
    rows = []
    for i in range(k):
        row = []
        for j in range(k):
            best = None
            for l in range(k):
                value = a.rows[i][l] + b.rows[l][j]
                if best is None or value < best:
                    best = value
            row.append(best)
        rows.append(row)
    return TropicalMatrix(rows)


def naive_transpose(a: TropicalMatrix) -> TropicalMatrix:
    return TropicalMatrix(
        [[a.rows[j][i] for j in range(a.k)] for i in range(a.k)]
    )


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


def chain_period(base: SemigroupPair) -> tuple[int, int]:
    """(n, p) of the first repeat up to a scalar shift on the circ chain.

    Walks the states base^m of ``fold_right``, m = 2, 3, ..., each
    component written relative to its own (0, 0) entry, and stops at the
    first m whose state already occurred at some n >= 2; p = m - n.
    """
    def relative(mat):
        return tuple(tuple(x - mat.rows[0][0] for x in row) for row in mat.rows)

    first_index = {}
    acc, m = base, 1
    while True:
        acc, m = naive_apply(SemigroupOpKind.CIRC, acc, base), m + 1
        state = (relative(acc.first), relative(acc.second))
        if state in first_index:
            return first_index[state], m - first_index[state]
        first_index[state] = m


def periodic_cost(base: SemigroupPair, exponents, budget: int) -> tuple[int, bool]:
    """Applications ``periodic_powers`` spends on ``exponents`` with this
    budget, and whether it returns the powers (True) or gives up (False).

    The one walk reaches index i after i - 1 applications and never makes
    more than ``budget``.  It stops at the largest exponent if that comes
    no later than the first repeat at m = n + p, and otherwise at m, where
    it gives up if p >= k + 1: the period no longer fits in its window of
    the last k + 1 pairs.
    """
    top = max(exponents)
    n, p = chain_period(base)
    walked = min(top, n + p) - 1
    if walked > budget:
        return budget, False
    return walked, top <= n + p or p < base.k + 1
