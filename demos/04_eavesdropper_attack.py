#!/usr/bin/env python3
"""Recovering the shared key from the public transcript alone.

The chain of first components descends monotonically, so the hidden
exponent can be bracketed by repeated squaring and then pinned down by
descending the stored squares one bit at a time (binary lifting), which
finds the least index whose chain element equals the intercepted matrix.
Any such index works, even when the chain plateaus and it differs from
the true exponent.  The whole recovery stays within 2K pair operations.
Between the two phases an exact column-space test refuses most
off-chain targets, such as a tampered message, after the doubling alone.
"""

import time
from dataclasses import replace
from random import Random

from tropkex import SemigroupOpKind, recover_key_targeting, run_exchange, setup

print("=== a small instance, step by step ===")
rng = Random(5)
params = setup(k=3, N=50, K=10, op=SemigroupOpKind.CIRC, rng=rng)
transcript, shared_key = run_exchange(params, rng)
print("shared key (known to the parties):", shared_key.rows)

result = recover_key_targeting(transcript, "alice")
print("eavesdropper recovers           :", result.recovered_key.rows)
print(f"found exponent m' = {result.m_prime}, doubling bound t = {result.t}, "
      f"{result.op_count} pair operations (bound 2K = {2 * 10})")
assert result.recovered_key == shared_key
print()

print("=== a plateau: the recovered exponent differs, the key does not ===")
from tropkex import ProtocolParams, TropicalMatrix


class Queue:
    def __init__(self, *values):
        self.values = list(values)

    def randint(self, lo, hi):
        return self.values.pop(0)


flat = ProtocolParams(
    k=1, N=1000, K=8, op=SemigroupOpKind.CIRC,
    M=TropicalMatrix([[5]]), H=TropicalMatrix([[0]]),
)
transcript, key = run_exchange(flat, Queue(7, 5))
result = recover_key_targeting(transcript, "alice")
print(f"true m = 7, recovered m' = {result.m_prime}, "
      f"recovered key {result.recovered_key.rows} == shared key {key.rows}")
assert result.recovered_key == key
print()

print("=== a tampered message is refused after the doubling ===")
from tropkex import ChainViolationError, semidirect

rng = Random(1002)
params = setup(k=5, N=1000, K=200, op=SemigroupOpKind.CIRC, rng=rng)
transcript, _ = run_exchange(params, rng)
entries = [list(row) for row in transcript.alice_message.rows]
entries[0][0] += 1  # one entry moved by 1: off the chain
tampered = replace(transcript, alice_message=TropicalMatrix(entries))

calls = []  # pair operations, counted from outside
op_circ = semidirect.op_circ
semidirect.op_circ = lambda p, q: calls.append(1) or op_circ(p, q)
try:
    recover_key_targeting(tampered, "alice")
except ChainViolationError as error:
    print(f"refused after {len(calls)} pair operations and 2 products "
          f"(the search would have made up to {len(calls)} more):\n  {error}")
else:
    raise AssertionError("the tampered message was accepted")
finally:
    semidirect.op_circ = op_circ
print()

print("=== the suggested full-size parameters fall in seconds ===")
rng = Random(12345)
params = setup(k=10, N=1000, K=200, op=SemigroupOpKind.CIRC, rng=rng)
start = time.perf_counter()
transcript, shared_key = run_exchange(params, rng)
exchanged = time.perf_counter()
result = recover_key_targeting(transcript, "alice")
done = time.perf_counter()
assert result.recovered_key == shared_key
print(f"k=10, entries in [-1000, 1000], 200-bit exponents:")
print(f"  exchange took {exchanged - start:.2f}s, "
      f"attack took {done - exchanged:.2f}s, "
      f"op_count {result.op_count} <= {2 * 200}")
print("  growing K does not help the parties: a circ exchange pays O(k log T) + p")
print("  k^3 products (T the transient, p the period of B = H (+) I) whatever K is,")
print("  and the eavesdropper's at most 2K operations grow only linearly in K.")
