"""Kernel table: microseconds per call of the pair and matrix kernels.

Operands are the seeded ladder squares (M, H)^(2^i), i = 0..200, of the
K = 200 parameter set at each k, i.e. the matrices the attack's doubling
and search phases combine.  Each kernel is timed on 16 consecutive-square
pairs spread over the ladder, after one untimed pass (which also fills
the memoised column tuples, as repeated use in the attack does); the
figure is the median over five batches.
"""

from __future__ import annotations

import statistics
from random import Random
from time import perf_counter

TABLE_KS = (5, 10, 20, 30)
SPREAD_KS = (5, 10, 15, 20)  # the k grid of the acceptance suite's t/k^3 gate
LADDER_LEVELS = 201
OPERAND_PAIRS = 16
BATCHES = 5
MIN_BATCH_S = 0.02


def _us_per_call(fn, pairs) -> float:
    for p, q in pairs:
        fn(p, q)
    reps = 1
    while True:
        start = perf_counter()
        for _ in range(reps):
            for p, q in pairs:
                fn(p, q)
        first = perf_counter() - start
        if first >= MIN_BATCH_S:
            break
        reps *= 2
    samples = [first]
    for _ in range(BATCHES - 1):
        start = perf_counter()
        for _ in range(reps):
            for p, q in pairs:
                fn(p, q)
        samples.append(perf_counter() - start)
    return 1e6 * statistics.median(samples) / (reps * len(pairs))


def kernel_table(seed: int, protocol, semidirect, tropical) -> tuple[dict, list[str]]:
    """Returns ({metric: value}, missing kernel names)."""
    op_circ = getattr(semidirect, "op_circ", None)
    if op_circ is None:  # the ladder itself is built with op_circ
        return {}, ["semidirect.op_circ"]
    otimes = getattr(tropical.TropicalMatrix, "otimes", None)
    compare = getattr(tropical, "chain_compare", None)
    kernels = {
        "semidirect.op_circ": op_circ,
        "semidirect.op_star": getattr(semidirect, "op_star", None),
        "tropical.otimes": otimes and (lambda p, q: otimes(p.first, q.second)),
        "tropical.chain_compare": compare and (lambda p, q: compare(p.first, q.first)),
    }
    missing = [name for name, fn in kernels.items() if fn is None]
    metrics, circ_us = {}, {}
    for k in sorted(set(TABLE_KS) | set(SPREAD_KS)):
        rng = Random(f"kernel:{seed}:{k}")
        params = protocol.setup(k, 1000, LADDER_LEVELS - 1, semidirect.SemigroupOpKind.CIRC, rng)
        squares = [params.base_pair]
        for _ in range(LADDER_LEVELS - 1):
            squares.append(op_circ(squares[-1], squares[-1]))
        step = (LADDER_LEVELS - 1) // OPERAND_PAIRS
        pairs = [(squares[i], squares[i + 1]) for i in range(0, step * OPERAND_PAIRS, step)]
        for name, fn in kernels.items():
            if fn is None or (k not in TABLE_KS and name != "semidirect.op_circ"):
                continue
            us = _us_per_call(fn, pairs)
            if k in TABLE_KS:
                metrics[f"{name}.k{k}.us"] = us
            if name == "semidirect.op_circ":
                circ_us[k] = us
    per_k3 = [circ_us[k] / k**3 for k in SPREAD_KS]
    metrics["semidirect.op_circ.us_per_k3.spread"] = max(per_k3) / min(per_k3)
    return metrics, missing
