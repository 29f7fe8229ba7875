#!/usr/bin/env python3
"""One complete key exchange, small enough to read.

Both parties power the public pair (M, H) by a private exponent, publish
the first component only, and combine the partner's public matrix with
their own full pair.  The second components never travel, yet both sides
land on the same key.
"""

import json
from random import Random

from tropkex import (
    SemigroupOpKind,
    derive_shared_key,
    run_exchange,
    run_parties,
    setup,
    transcript_to_json,
)

rng = Random(2021)
params = setup(k=3, N=20, K=8, op=SemigroupOpKind.CIRC, rng=rng)
print("public matrix M:", params.M.rows)
print("public matrix H:", params.H.rows)
print("exponent bound : 2^8")
print()

# both private exponents, drawn uniformly from [1, 2^8 - 1], and both
# parties' powers from one call: a walk over the powers of B = H (+) I to
# their period (here 9 k^3 products, under the 26 of the 13 pair operations
# of the least-bit-first pass it replaces), or that pass when the walk
# could cost more or an exponent lies below the segment that shows the period
alice, bob, shared_key = run_parties(params, rng)
print(f"Alice draws private m = {alice.exponent}, sends A = {alice.public_message.rows}")
print(f"Bob   draws private n = {bob.exponent}, sends B = {bob.public_message.rows}")
print()

# each side needs only the partner's public matrix and its own pair
alice_key = derive_shared_key(params, alice.pair, bob.public_message)
bob_key = derive_shared_key(params, bob.pair, alice.public_message)
print("Alice derives:", alice_key.rows)
print("Bob   derives:", bob_key.rows)
assert alice_key == bob_key == shared_key
print("keys agree:", alice_key == bob_key)
print()

print("=== what the eavesdropper actually sees ===")
transcript, _ = run_exchange(params, Random(99))
print(json.dumps(transcript_to_json(transcript), indent=2)[:600], "...")
print()
print("No private exponent and no second component ever appears on the wire.")
