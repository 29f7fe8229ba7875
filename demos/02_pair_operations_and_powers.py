#!/usr/bin/env python3
"""The two pair operations, fast powering, and the monotone chain.

Pairs of matrices combine under circ or star; the first component of a
product never depends on the left operand's second component, which is
the fact the key exchange is built on.  Powers of a pair descend: the
first components form a non-increasing chain under the min-plus order.
"""

from random import Random

from tropkex import (
    SemigroupOpKind,
    SemigroupPair,
    TropicalMatrix,
    op_circ,
    op_star,
    power,
    powers,
    random_matrix,
)
from tropkex.semidirect import apply

rng = Random(7)

print("=== the two operations on 1x1 pairs ===")
p = SemigroupPair(TropicalMatrix([[2]]), TropicalMatrix([[5]]))
q = SemigroupPair(TropicalMatrix([[1]]), TropicalMatrix([[3]]))
r = op_circ(p, q)
print("circ: ([2],[5]) o ([1],[3]) =", (r.first.rows, r.second.rows))
r = op_star(p, q)
print("star: ([2],[5]) * ([1],[3]) =", (r.first.rows, r.second.rows))
print()

print("=== least-bit-first powering and its cost ===")


def cost(e):
    # applications for base^e: (bit_length(e) - 1) squarings, then
    # (popcount(e) - 1) products of the squares at the set bits
    return (e.bit_length() - 1) + (e.bit_count() - 1)


base = SemigroupPair(TropicalMatrix([[10]]), TropicalMatrix([[-3]]))
p13 = power(SemigroupOpKind.CIRC, base, 13)
print("base^13 first component:", p13.first.rows, " using", cost(13), "applications")
print("  13 = 0b1101: 3 squarings, then 2 products of the squares at the set bits")
print("base^11 alone: 11 = 0b1011, another", cost(11), "applications")

again13, p11 = powers(SemigroupOpKind.CIRC, base, (13, 11))
shared = cost(13) + (11).bit_count() - 1
print("base^13 and base^11 in one pass share the 3 squarings:", shared,
      "applications, not", cost(13), "+", cost(11))
assert again13 == p13
print()

print("=== the monotone chain ===")
k = 3
m = random_matrix(k, 10, rng)
h = random_matrix(k, 10, rng)
base = SemigroupPair(m, h)
chain = [base]
for _ in range(7):
    chain.append(apply(SemigroupOpKind.CIRC, chain[-1], base))
print("first components of (M,H)^l for l = 1..8 (each <= the previous):")
for ell, element in enumerate(chain, start=1):
    assert element.first.leq(chain[ell - 2].first) or ell == 1
    print(f"  l={ell}:", element.first.rows)
print()

print("=== a caveat about star ===")
print("circ is associative; star is not for k >= 2 (its first component")
print("acts on the TRANSPOSE of the left operand, and composing two such")
print("actions undoes the transpose).  Powers under star therefore depend")
print("on the multiplication order:")
base = SemigroupPair(random_matrix(2, 10, rng), random_matrix(2, 10, rng))
left = apply(SemigroupOpKind.STAR, base, apply(SemigroupOpKind.STAR, base, base))
right = apply(SemigroupOpKind.STAR, apply(SemigroupOpKind.STAR, base, base), base)
print("  b*(b*b) first:", left.first.rows)
print("  (b*b)*b first:", right.first.rows)
print("  equal?", left == right)
