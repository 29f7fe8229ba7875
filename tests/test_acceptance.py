"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line (run with -s to see the lines for passing tests too).

Two legs fail by mathematical necessity rather than by implementation
defect, and they are kept failing on purpose:

  * AC1[star]: the star pair operation, implemented exactly as defined,
    is not associative for k >= 2, so the key exchange over star
    produces disagreeing keys in most k >= 2 instances and the chain
    search can step off the chain.  100 percent recovery is impossible.
  * AC6[star]: associativity of star fails outright for k >= 2; a
    pinned counterexample lives in test_semidirect.py.

Everything else, including every quantitative reproduction target, is
expected to pass.  Failure messages carry the measured statistics.
"""

import time
from random import Random

import pytest

from tropkex import (
    AttackError,
    KeyAgreementError,
    ProtocolParams,
    RunConfig,
    SemigroupOpKind,
    TropicalMatrix,
    average_key_size_bits,
    power,
    recover_key_targeting,
    run_exchange,
    run_experiment,
    setup,
)
from tropkex.semidirect import apply

from _oracles import fold_left, fold_right, naive_otimes, random_mat, random_pair

CIRC = SemigroupOpKind.CIRC
STAR = SemigroupOpKind.STAR


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


# --- 1. attack correctness over the randomized grid ------------------------

def _exchange_and_attack_sweep(op, count, seed_base):
    stats = {"succeeded": 0, "agreement_failures": 0, "attack_errors": 0, "wrong_keys": 0}
    for i in range(count):
        rng = Random(seed_base + i)
        k = 1 + i % 5
        n_bound = (0, 10, 100)[i % 3]
        exp_bits = 2 + i % 11
        params = setup(k, n_bound, exp_bits, op, rng)
        try:
            transcript, alice_key = run_exchange(params, rng)
        except KeyAgreementError:
            stats["agreement_failures"] += 1
            continue
        try:
            result = recover_key_targeting(transcript, "alice")
        except AttackError:
            stats["attack_errors"] += 1
            continue
        if result.recovered_key == alice_key:
            stats["succeeded"] += 1
        else:
            stats["wrong_keys"] += 1
    return stats


@pytest.mark.parametrize("op", [CIRC, STAR], ids=["circ", "star"])
def test_ac1_attack_correctness(op):
    count = 500  # 500 per operation, 1000 instances across the criterion
    stats = _exchange_and_attack_sweep(op, count, seed_base=1_000_000)
    ok = stats["succeeded"] == count
    report(
        f"AC1[{op.value}]",
        ok,
        f"{stats['succeeded']}/{count} recovered the shared key "
        f"(agreement failures {stats['agreement_failures']}, "
        f"attack errors {stats['attack_errors']}, wrong keys {stats['wrong_keys']})",
    )


# --- 2. operation-count bounds ---------------------------------------------

def test_ac2_operation_count_bounds():
    worst = []
    for exp_bits in (8, 16, 32, 64):
        for trial in range(5):
            rng = Random(7_000 + 100 * exp_bits + trial)
            params = setup(3, 100, exp_bits, CIRC, rng)
            transcript, alice_key = run_exchange(params, rng)
            cached = recover_key_targeting(transcript, "alice", cached=True)
            uncached = recover_key_targeting(transcript, "alice", cached=False)
            assert cached.recovered_key == uncached.recovered_key == alice_key
            assert cached.op_count <= exp_bits**2 + exp_bits, (
                f"cached count {cached.op_count} exceeds {exp_bits**2 + exp_bits}"
            )
            assert uncached.op_count <= 2 * exp_bits**2 + exp_bits, (
                f"uncached count {uncached.op_count} exceeds {2 * exp_bits**2 + exp_bits}"
            )
            worst.append(
                (exp_bits, cached.op_count, exp_bits**2 + exp_bits,
                 uncached.op_count, 2 * exp_bits**2 + exp_bits)
            )
    peak = max(worst, key=lambda w: w[1] / w[2])
    report(
        "AC2",
        True,
        f"all counters within bounds; tightest cached case K={peak[0]}: "
        f"{peak[1]} <= {peak[2]} (uncached {peak[3]} <= {peak[4]})",
    )


# --- 3. key-size reproduction ----------------------------------------------

@pytest.mark.slow
def test_ac3_key_size_reproduction():
    targets = {5: (5222, 0.05), 10: (20885, 0.05), 30: (180_000, 0.10)}
    alphas = average_key_size_bits(RunConfig(k_list=tuple(targets), trials=10, seed=2024))
    for k, (target, tolerance) in targets.items():
        assert abs(alphas[k] - target) <= tolerance * target, (
            f"k={k}: measured alpha {alphas[k]:.0f} outside {tolerance:.0%} of {target}"
        )
    detail = "; ".join(
        f"k={k}: {alphas[k]:.0f} bits vs {target} (within {tol:.0%})"
        for k, (target, tol) in targets.items()
    )
    report("AC3", True, detail)


# --- 4. scaling shape --------------------------------------------------------

@pytest.mark.slow
def test_ac4_scaling_shape():
    config = RunConfig(k_list=(5, 10, 15, 20), N=1000, K=200, op=CIRC, trials=10, seed=99)
    rows = run_experiment(config)  # every trial asserts key recovery internally
    ratios = {row.k: row.t_over_k3 for row in rows}
    spread = max(ratios.values()) / min(ratios.values())
    ok = spread <= 2.5
    report(
        "AC4",
        ok,
        "t/k^3 spread factor "
        f"{spread:.2f} (<= 2.5) across "
        + ", ".join(f"k={k}: {v:.3g}" for k, v in sorted(ratios.items())),
    )


# --- 5. monotone chain -------------------------------------------------------

def _chain_step(op, previous, base):
    # the recursion order under which the chain is defined: new factor on
    # the right for circ, on the left for star
    if op is CIRC:
        return apply(op, previous, base)
    return apply(op, base, previous)


def test_ac5_monotone_chain():
    rng = Random(555)
    checked = 0
    for i in range(200):
        k = 1 + i % 6
        base = random_pair(rng, k, 50)
        for op in (CIRC, STAR):
            previous = base
            chain = [base]
            for _ in range(2, 65):
                current = _chain_step(op, previous, base)
                assert current.first.leq(previous.first), (
                    f"chain increased at instance {i}, op {op.value}"
                )
                chain.append(current)
                previous = current
            if op is CIRC:
                h = base.second
                for ell in range(2, 64):
                    m_ell = chain[ell - 1].first
                    expected = m_ell.oplus(m_ell.otimes(h))
                    assert chain[ell].first == expected, (
                        f"circ tail recursion broke at l={ell}, instance {i}"
                    )
        checked += 1
    report(
        "AC5",
        checked == 200,
        f"{checked}/200 instances: powers 1..64 non-increasing for both "
        "operations, and the circ tail recursion holds exactly for l in [2, 64]",
    )


# --- 6. algebraic laws -------------------------------------------------------

def test_ac6_matrix_addition_laws():
    rng = Random(61)
    for _ in range(500):
        k = rng.randint(1, 5)
        x, y, z = (random_mat(rng, k, 50) for _ in range(3))
        assert x.oplus(y) == y.oplus(x)
        assert x.oplus(y).oplus(z) == x.oplus(y.oplus(z))
        assert x.oplus(x) == x
    report("AC6[oplus]", True, "500 instances: oplus associative, commutative, idempotent")


def test_ac6_distributivity():
    rng = Random(62)
    for _ in range(500):
        k = rng.randint(1, 5)
        x, y, z = (random_mat(rng, k, 50) for _ in range(3))
        assert x.otimes(y.oplus(z)) == x.otimes(y).oplus(x.otimes(z))
        assert y.oplus(z).otimes(x) == y.otimes(x).oplus(z.otimes(x))
    report("AC6[distributivity]", True, "500 instances: otimes distributes over oplus on both sides")


def test_ac6_order_compatibility():
    rng = Random(63)
    for _ in range(500):
        k = rng.randint(1, 5)
        x, y, z = (random_mat(rng, k, 50) for _ in range(3))
        lower = x.oplus(y)
        assert lower.oplus(z).leq(y.oplus(z))
        assert lower.otimes(z).leq(y.otimes(z))
        assert z.otimes(lower).leq(z.otimes(y))
    report("AC6[order]", True, "500 instances: the partial order respects oplus and otimes")


@pytest.mark.parametrize("op", [CIRC, STAR], ids=["circ", "star"])
def test_ac6_pair_operation_associativity(op):
    rng = Random(64)
    failures = 0
    first_example = None
    for i in range(500):
        k = rng.randint(1, 5)
        p, q, r = (random_pair(rng, k, 50) for _ in range(3))
        left = apply(op, apply(op, p, q), r)
        right = apply(op, p, apply(op, q, r))
        if left != right:
            failures += 1
            if first_example is None:
                first_example = (i, k)
    ok = failures == 0
    detail = f"{500 - failures}/500 associative triples"
    if not ok:
        detail += (
            f"; first counterexample at instance {first_example[0]} (k={first_example[1]});"
            " the operation is not associative for k >= 2"
        )
    report(f"AC6[{op.value}-assoc]", ok, detail)


# --- 7. oracle equivalence ---------------------------------------------------

def test_ac7_powering_oracle_equivalence():
    rng = Random(71)
    for _ in range(5):
        base = random_pair(rng, 3, 50)
        for e in range(1, 65):
            by_oracle = fold_right(CIRC, base, e)
            assert power(CIRC, base, e) == by_oracle
            assert fold_left(CIRC, base, e) == by_oracle
    report(
        "AC7[power]",
        True,
        "5 bases x exponents 1..64: power matches the step-by-step oracle "
        "(both fold directions)",
    )


def test_ac7_product_oracle_equivalence():
    rng = Random(72)
    for trial in range(300):
        k = 1 + trial % 6
        a, b = random_mat(rng, k, 100), random_mat(rng, k, 100)
        assert a.otimes(b) == naive_otimes(a, b)
    report("AC7[otimes]", True, "300 instances up to k=6 match the triple-loop oracle")


# --- 8. plateau robustness ---------------------------------------------------

def test_ac8_plateau_robustness():
    params = ProtocolParams(
        k=1, N=1000, K=8, op=CIRC,
        M=TropicalMatrix([[5]]), H=TropicalMatrix([[0]]),
    )

    class Queue:
        def __init__(self, *values):
            self.values = list(values)

        def randint(self, lo, hi):
            return self.values.pop(0)

    transcript, key = run_exchange(params, Queue(7, 5))
    result = recover_key_targeting(transcript, "alice")
    ok = result.m_prime != 7 and result.recovered_key == key
    # the other target plateaus the same way
    result_bob = recover_key_targeting(transcript, "bob")
    ok = ok and result_bob.m_prime != 5 and result_bob.recovered_key == key
    report(
        "AC8",
        ok,
        f"plateau chain: recovered m'={result.m_prime} (true m=7) and "
        f"n'={result_bob.m_prime} (true n=5), both yield the shared key",
    )


# --- 9. full-parameter smoke -------------------------------------------------

def test_ac9_full_parameter_smoke():
    start = time.perf_counter()
    rng = Random(424242)
    params = setup(10, 1000, 200, CIRC, rng)
    transcript, key = run_exchange(params, rng)
    result = recover_key_targeting(transcript, "alice")
    elapsed = time.perf_counter() - start
    ok = result.recovered_key == key and elapsed < 60.0
    report(
        "AC9",
        ok,
        f"k=10, N=1000, K=200 exchange plus attack in {elapsed:.2f}s (< 60s), "
        f"op_count={result.op_count} (bound {200**2 + 200})",
    )
