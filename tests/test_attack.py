import json
from random import Random

import pytest

from tropkex import (
    AttackError,
    ChainViolationError,
    DimensionMismatchError,
    ExponentNotFoundError,
    ProtocolParams,
    SemigroupOpKind,
    SemigroupPair,
    TropicalMatrix,
    apply,
    attack_result_to_json,
    doubling_phase,
    find_chain_exponent,
    matrix_from_json,
    power,
    recover_key_targeting,
    run_exchange,
    setup,
)
from tropkex.attack import _bisect_chain
from tropkex.protocol import MAX_EXPONENT_BITS

from _oracles import chain_fold, count_applications, naive_apply

CIRC = SemigroupOpKind.CIRC
STAR = SemigroupOpKind.STAR


def m1(x):
    return TropicalMatrix([[x]])


def params_of(m, h, K=8):
    # circ params over (m, h), with N the largest entry magnitude
    n_bound = max(abs(e) for mat in (m, h) for row in mat.rows for e in row)
    return ProtocolParams(k=m.k, N=n_bound, K=K, op=CIRC, M=m, H=h)


def params_1x1(m, h, K=8):
    return params_of(m1(m), m1(h), K)


def _bisect(squares, target):
    m_prime, _, _ = _bisect_chain(CIRC, squares, target, True)
    return m_prime


def test_doubling_phase_examples(monkeypatch):
    # chain firsts at powers of two: 10, -3, -9; stop once at or below -9
    applications = count_applications(monkeypatch)
    squares = doubling_phase(params_1x1(10, -3), m1(-9))
    assert applications.count == 2
    assert [s.first.rows[0][0] for s in squares] == [10, -3, -9]
    assert squares[0] == SemigroupPair(m1(10), m1(-3))
    applications.count = 0
    assert all(squares[i + 1] == apply(CIRC, squares[i], squares[i]) for i in range(len(squares) - 1))

    # a plateau instance: chain is 5, 0, 0, ... so level 1 already matches
    assert len(doubling_phase(params_1x1(5, 0), m1(0))) == 2  # t == 1

    # the target equal to M itself stops immediately
    applications.count = 0
    squares = doubling_phase(params_1x1(10, -3), m1(10))
    assert applications.count == 0
    assert squares == (SemigroupPair(m1(10), m1(-3)),)


def test_doubling_phase_unreachable_target(monkeypatch):
    # plateau chain 5, 0, 0, ... never descends to -10**9; the second
    # square equals the first, so doubling stops there
    applications = count_applications(monkeypatch)
    with pytest.raises(ExponentNotFoundError):
        doubling_phase(params_1x1(5, 0, K=6), m1(-(10**9)))
    assert applications.count == 2

    # strictly descending chain 10, -3, -6, ...: never stationary, so
    # the budget is consumed, never exceeded
    applications.count = 0
    with pytest.raises(ExponentNotFoundError):
        doubling_phase(params_1x1(10, -3, K=6), m1(-(10**9)))
    assert applications.count == 6


def test_doubling_phase_stationary_chain_exits_early(monkeypatch):
    # chain 1, 0, 0, ...: without the stationary exit doubling would run
    # all MAX_EXPONENT_BITS levels before giving up
    applications = count_applications(monkeypatch)
    with pytest.raises(ExponentNotFoundError):
        doubling_phase(params_1x1(1, 0, K=MAX_EXPONENT_BITS), m1(-1))
    assert applications.count <= 3


def test_doubling_phase_incomparable_target():
    m = TropicalMatrix([[0, 0], [0, 0]])
    h = TropicalMatrix([[1, 1], [1, 1]])
    off_chain = TropicalMatrix([[-1, 1], [0, 0]])
    with pytest.raises(ChainViolationError):
        doubling_phase(params_of(m, h), off_chain)


def test_doubling_phase_input_checks(monkeypatch):
    # a wrong-size target is refused before any application
    applications = count_applications(monkeypatch)
    with pytest.raises(DimensionMismatchError):
        doubling_phase(params_1x1(0, 0, K=4), TropicalMatrix([[0, 0], [0, 0]]))
    assert applications.count == 0


def test_binary_search_examples():
    params = params_1x1(10, -3)
    assert _bisect(doubling_phase(params, m1(-9)), m1(-9)) == 4

    # plateau: any index whose first equals the target is acceptable
    assert _bisect(doubling_phase(params_1x1(5, 0), m1(0)), m1(0)) == 2

    assert _bisect(doubling_phase(params, m1(10)), m1(10)) == 1


def _search_oracle_params():
    # N = 0 draws plateau from the first element on
    rng = Random(11)
    for k in range(1, 5):
        for n_bound in (0, 10):
            yield setup(k, n_bound, 8, CIRC, rng)
    # paths along the superdiagonal of H shorten the chain by one per step
    # until index 5, where it plateaus; a bisection over [1, 8] probes 4,
    # then 6, and would return 6
    h = TropicalMatrix([[-1 if j == i + 1 else 10 for j in range(5)] for i in range(5)])
    yield params_of(TropicalMatrix([[0] * 5 for _ in range(5)]), h)


@pytest.mark.parametrize("cached", [True, False], ids=["cached", "reference"])
def test_search_finds_least_matching_exponent(cached, monkeypatch):
    applications = count_applications(monkeypatch)
    for params in _search_oracle_params():
        base = params.base_pair
        # chain_fold's recursion, one step per exponent
        chain, pair = [], base
        for _ in range(1, 1 << 8):
            chain.append(pair.first)
            pair = naive_apply(CIRC, pair, base)
        assert chain[-1] == chain_fold(CIRC, base, len(chain)).first
        for target in set(chain):
            applications.count = 0
            m_prime, t, found, reported = find_chain_exponent(params, target, cached)
            assert m_prime == chain.index(target) + 1
            assert found.first == target
            assert reported == applications.count
            if cached:
                assert applications.count <= 2 * t


def test_binary_search_no_match():
    # -7 sits strictly between chain elements -6 and -9: never matched
    squares = doubling_phase(params_1x1(10, -3), m1(-7))
    assert len(squares) == 3  # t == 2
    with pytest.raises(ExponentNotFoundError):
        _bisect(squares, m1(-7))


def test_worst_case_at_the_exponent_cap(monkeypatch):
    """The most a recovery can cost at K = MAX_EXPONENT_BITS.  On the 1x1
    chain 10, -3, -6, ..., X_m = -3(m - 1) for m >= 2, so X_(2^l) =
    -3(2^l - 1): a target just below X_(2^4095), off the chain, needs all
    t = 4096 squarings and then all 4096 descent steps before it is
    rejected; a target below X_(2^4096) exhausts the doubling alone."""
    cases = {
        -3 * 2**4095 - 1: 2 * MAX_EXPONENT_BITS,
        -3 * 2**4096 - 10**6: MAX_EXPONENT_BITS,
    }
    params = params_1x1(10, -3, K=MAX_EXPONENT_BITS)
    applications = count_applications(monkeypatch)
    for target, expected in cases.items():
        applications.count = 0
        with pytest.raises(ExponentNotFoundError):
            find_chain_exponent(params, m1(target))
        assert applications.count == expected


def test_binary_search_incomparable_probe():
    # doubling passes (the target sits below the whole chain is false here);
    # force incomparability against a probe by handing the search a target
    # that is comparable with the squares it bisects from but not with an
    # intermediate probe
    m = TropicalMatrix([[0, 0], [0, 0]])
    h = TropicalMatrix([[-1, -1], [-1, -1]])
    base = SemigroupPair(m, h)
    squares = [base]
    for _ in range(3):
        squares.append(apply(CIRC, squares[-1], squares[-1]))
    target = TropicalMatrix([[-100, 100], [0, 0]])
    with pytest.raises((ChainViolationError, ExponentNotFoundError)):
        _bisect(tuple(squares), target)


def test_recover_key_pinned_instance():
    params = ProtocolParams(k=1, N=1000, K=8, op=CIRC, M=m1(10), H=m1(-3))

    class Queue:
        def __init__(self, *v):
            self.v = list(v)

        def randint(self, lo, hi):
            return self.v.pop(0)

    transcript, key = run_exchange(params, Queue(2, 3))
    assert key == m1(-12)
    result = recover_key_targeting(transcript, "alice")
    assert result.recovered_key == m1(-12)
    assert result.m_prime == 2  # chain is strictly decreasing here
    assert result.eve_pair.first == transcript.alice_message


def test_recover_key_random_circ_transcripts():
    rng = Random(7)
    plateau_seen = 0
    for trial in range(120):
        k = 1 + trial % 5
        n_bound = (0, 10, 100)[trial % 3]
        exp_bits = 2 + trial % 11
        params = setup(k, n_bound, exp_bits, CIRC, rng)
        alice_exp = rng.randint(1, 2**exp_bits - 1)
        bob_exp = rng.randint(1, 2**exp_bits - 1)
        alice_pair = power(CIRC, params.base_pair, alice_exp)
        bob_pair = power(CIRC, params.base_pair, bob_exp)
        from tropkex import Transcript, derive_shared_key

        transcript = Transcript(params, alice_pair.first, bob_pair.first)
        shared = derive_shared_key(params, alice_pair, bob_pair.first)

        result = recover_key_targeting(transcript, "alice")
        assert result.recovered_key == shared
        # recovered exponent really reproduces the intercepted message
        assert power(CIRC, params.base_pair, result.m_prime).first == transcript.alice_message
        assert result.op_count <= exp_bits**2 + exp_bits
        assert result.t <= exp_bits

        if result.m_prime != alice_exp:
            plateau_seen += 1
            # the shared key is insensitive to which matching index was found
            oracle_true = chain_fold(CIRC, params.base_pair, alice_exp + bob_exp)
            oracle_found = chain_fold(CIRC, params.base_pair, result.m_prime + bob_exp)
            assert oracle_true.first == oracle_found.first
    assert plateau_seen > 0  # the N=0 instances guarantee plateaus showed up


def test_reference_variant_counts():
    rng = Random(15)
    for exp_bits in (8, 16, 32):
        params = setup(3, 100, exp_bits, CIRC, rng)
        transcript, alice_key = run_exchange(params, rng)

        cached = recover_key_targeting(transcript, "alice", cached=True)
        uncached = recover_key_targeting(transcript, "alice", cached=False)
        assert cached.recovered_key == uncached.recovered_key == alice_key
        assert cached.m_prime == uncached.m_prime
        assert cached.op_count <= exp_bits**2 + exp_bits
        assert uncached.op_count <= 2 * exp_bits**2 + exp_bits
        assert cached.op_count <= uncached.op_count


def test_attack_determinism():
    rng = Random(21)
    params = setup(4, 100, 12, CIRC, rng)
    transcript, _ = run_exchange(params, rng)
    first = recover_key_targeting(transcript, "alice")
    second = recover_key_targeting(transcript, "alice")
    assert first == second  # includes m_prime, t, op_count, keys


def test_recover_key_targeting_bob():
    rng = Random(27)
    for trial in range(40):
        params = setup(1 + trial % 4, 100, 10, CIRC, rng)
        transcript, alice_key = run_exchange(params, rng)
        via_alice = recover_key_targeting(transcript, "alice")
        via_bob = recover_key_targeting(transcript, "bob")
        assert via_alice.recovered_key == via_bob.recovered_key == alice_key
        assert via_bob.eve_pair.first == transcript.bob_message
    assert recover_key_targeting(transcript, "alice") == recover_key_targeting(transcript, "alice")
    with pytest.raises(ValueError):
        recover_key_targeting(transcript, "carol")


def test_plateau_instance_both_targets():
    # 1x1 M=5, H=0 plateaus at 0 from the second chain element on
    params = ProtocolParams(k=1, N=1000, K=8, op=CIRC, M=m1(5), H=m1(0))

    class Queue:
        def __init__(self, *v):
            self.v = list(v)

        def randint(self, lo, hi):
            return self.v.pop(0)

    transcript, key = run_exchange(params, Queue(7, 5))
    assert key == m1(0)
    res_a = recover_key_targeting(transcript, "alice")
    res_b = recover_key_targeting(transcript, "bob")
    assert res_a.m_prime == 2 != 7  # found a smaller index with the same first
    assert res_b.m_prime == 2 != 5
    assert res_a.recovered_key == res_b.recovered_key == key


def test_star_attack_on_1x1_works():
    rng = Random(33)
    for _ in range(40):
        params = setup(1, 100, 10, STAR, rng)
        transcript, alice_key = run_exchange(params, rng)
        assert recover_key_targeting(transcript, "alice").recovered_key == alice_key


def test_star_attack_can_fail_off_chain_for_k_at_least_2():
    """Pinned behavior: star probes are bracketing-dependent for k >= 2, so
    the search can step off the chain even on an honestly generated
    transcript; with this frozen seed it raises instead of recovering."""
    rng = Random(4)
    params = setup(3, 30, 8, STAR, rng)
    transcript, _ = run_exchange(params, rng)
    with pytest.raises(AttackError):
        recover_key_targeting(transcript, "alice")


def test_find_chain_exponent_counter_totals(monkeypatch):
    rng = Random(39)
    params = setup(3, 50, 16, CIRC, rng)
    transcript, _ = run_exchange(params, rng)
    applications = count_applications(monkeypatch)
    m_prime, t, pair, reported = find_chain_exponent(params, transcript.alice_message)
    assert pair.first == transcript.alice_message
    assert reported == applications.count
    applications.count = 0
    result = recover_key_targeting(transcript, "alice")
    assert result.op_count == applications.count == reported
    assert (result.m_prime, result.t) == (m_prime, t)


def test_attack_result_json():
    rng = Random(45)
    params = setup(2, 50, 80, CIRC, rng)  # m' will not fit in 64 bits
    transcript, alice_key = run_exchange(params, rng)
    result = recover_key_targeting(transcript, "alice")
    obj = attack_result_to_json(result)
    assert set(obj) == {"m_prime", "t", "op_count", "recovered_key"}
    assert obj["m_prime"] == str(result.m_prime)
    assert int(obj["m_prime"]) > 2**64
    assert isinstance(obj["t"], int) and isinstance(obj["op_count"], int)
    assert matrix_from_json(json.loads(json.dumps(obj))["recovered_key"]) == alice_key
