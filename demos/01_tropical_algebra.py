#!/usr/bin/env python3
"""A walk through exact min-plus matrix arithmetic.

Scalars add by taking the minimum and multiply by ordinary addition.
Everything below is exact integer arithmetic; entries can grow to
hundreds of bits without losing a single bit.
"""

from tropkex import ChainOrdering, TropicalMatrix, chain_compare

print("=== scalars, as 1x1 matrices ===")
three, seven = TropicalMatrix([[3]]), TropicalMatrix([[7]])
print("3 (+) 7   =", three.oplus(seven).rows[0][0], "   (minimum)")
print("3 (x) 7   =", three.otimes(seven).rows[0][0], "  (ordinary addition)")
huge = TropicalMatrix([[-(2**200)]])
print("huge values stay exact: -2^200 (+) 0 =", huge.oplus(TropicalMatrix([[0]])).rows[0][0])
print()

print("=== matrices ===")
a = TropicalMatrix([[0, 1], [2, 3]])
b = TropicalMatrix([[4, 5], [6, 7]])
print("a          =", a.rows)
print("b          =", b.rows)
print("a (+) b    =", a.oplus(b).rows, "  entrywise minimum")
print("a (x) b    =", a.otimes(b).rows, "  c_ij = min_l(a_il + b_lj)")
print("a (+) a    =", a.oplus(a).rows, "  addition is idempotent")
print("a^T        =", a.transpose().rows)
print()

print("=== the induced partial order:  x <= y  iff  x (+) y == x ===")
low = TropicalMatrix([[1, 1], [1, 1]])
high = TropicalMatrix([[2, 3], [2, 3]])
print("low <= high ?", low.leq(high))
print("high <= low ?", high.leq(low))

mixed = TropicalMatrix([[0, 5], [0, 5]])
other = TropicalMatrix([[1, 2], [1, 2]])
print("mixed vs other:", chain_compare(mixed, other).value, " (neither direction holds)")
assert chain_compare(mixed, other) is ChainOrdering.INCOMPARABLE
print()
print("Incomparable pairs exist in general, but elements of one power chain")
print("are always comparable, which is what the key-recovery search exploits.")
