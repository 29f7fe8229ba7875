import json
from random import Random

import pytest

from tropkex import (
    DimensionMismatchError,
    FormatError,
    KeyAgreementError,
    ProtocolParams,
    SemigroupOpKind,
    SemigroupPair,
    TropicalMatrix,
    derive_shared_key,
    draw_exponent,
    params_from_json,
    params_to_json,
    power,
    powers,
    run_exchange,
    run_parties,
    setup,
    transcript_from_json,
    transcript_to_json,
)
from tropkex import protocol, semidirect
from tropkex.protocol import MAX_EXPONENT_BITS, MAX_K

from _oracles import (
    chain_fold,
    count_fallbacks,
    count_products,
    naive_apply,
    pass_products,
    period_six_pair,
    periodic_cost,
    random_mat,
    random_pair,
)

CIRC = SemigroupOpKind.CIRC
STAR = SemigroupOpKind.STAR


class FixedExponents:
    """rng stand-in whose randint returns queued values; for pinning the
    private exponents of a test exchange."""

    def __init__(self, *values):
        self.values = list(values)

    def randint(self, lo, hi):
        value = self.values.pop(0)
        assert lo <= value <= hi
        return value


def params_1x1(m, h, op=CIRC, N=1000, K=8):
    return ProtocolParams(
        k=1, N=N, K=K, op=op, M=TropicalMatrix([[m]]), H=TropicalMatrix([[h]])
    )


def test_setup_contract():
    a = setup(3, 50, 12, CIRC, Random(6))
    b = setup(3, 50, 12, CIRC, Random(6))
    assert (a.M, a.H) == (b.M, b.H)
    assert a.k == 3 and a.N == 50 and a.K == 12 and a.op is CIRC
    assert all(-50 <= e <= 50 for mat in (a.M, a.H) for row in mat.rows for e in row)

    degenerate = setup(1, 0, 1, CIRC, Random(0))
    assert degenerate.M == TropicalMatrix([[0]])
    assert degenerate.H == TropicalMatrix([[0]])

    # the suggested full-size parameter set constructs fine
    big = setup(30, 1000, 200, CIRC, Random(1))
    assert big.M.k == 30


def test_params_validation():
    m = TropicalMatrix([[3]])
    with pytest.raises(ValueError):
        ProtocolParams(k=1, N=2, K=8, op=CIRC, M=m, H=m)  # entry 3 outside [-2, 2]
    with pytest.raises(ValueError):
        ProtocolParams(k=1, N=5, K=0, op=CIRC, M=m, H=m)
    with pytest.raises(DimensionMismatchError):
        ProtocolParams(k=2, N=5, K=8, op=CIRC, M=m, H=m)


def test_run_parties_k1_forces_exponent_one():
    params = params_1x1(7, -2, K=1)
    for party in run_parties(params, Random(123))[:2]:
        assert party.exponent == 1
        assert party.public_message == params.M
        assert party.pair == SemigroupPair(params.M, params.H)


def test_run_parties_pinned_exponents():
    params = params_1x1(10, -3)
    alice, bob, key = run_parties(params, FixedExponents(4, 2))
    assert (alice.exponent, bob.exponent) == (4, 2)
    # firsts of the circ chain go 10, -3, -6, -9, -12, -15
    assert alice.public_message == TropicalMatrix([[-9]])
    assert alice.pair == power(CIRC, params.base_pair, 4)
    assert bob.pair == power(CIRC, params.base_pair, 2)
    assert key == TropicalMatrix([[-15]])


def test_run_parties_exponent_range():
    params = setup(2, 10, 5, CIRC, Random(2))
    seen = set()
    rng = Random(99)
    for _ in range(150):
        for party in run_parties(params, rng)[:2]:
            assert 1 <= party.exponent < 2**5
            seen.add(party.exponent)
    assert len(seen) > 20  # draws actually spread over the range


def test_derive_shared_key_1x1_circ():
    # own pair (X, P) = (1, 3), partner message Y = 0:
    # key = min(Y, X, P, Y + P) = min(0, 1, 3, 3) = 0
    params = params_1x1(1, 3)
    assert derive_shared_key(params, params.base_pair, TropicalMatrix([[0]])) == TropicalMatrix([[0]])


def test_derive_shared_key_1x1_star():
    # star: key = min(P + Y, Y + P, X) with scalars
    params = params_1x1(1, 3, op=STAR)
    assert derive_shared_key(params, params.base_pair, TropicalMatrix([[0]])) == TropicalMatrix([[1]])


def test_derive_shared_key_matches_oracle():
    # the key is the first component of (partner message, anything) combined
    # with the own pair, whatever the partner's second component is
    rng = Random(107)
    for op in (CIRC, STAR):
        for k in range(1, 6):
            params = setup(k, 50, 4, op, rng)
            for _ in range(10):
                own = random_pair(rng, k)
                y, x = random_mat(rng, k), random_mat(rng, k)
                oracle = naive_apply(op, SemigroupPair(y, x), own).first
                assert derive_shared_key(params, own, y) == oracle


def test_derive_dimension_check():
    params = params_1x1(1, 3)
    with pytest.raises(DimensionMismatchError):
        derive_shared_key(params, params.base_pair, TropicalMatrix([[0, 1], [2, 3]]))


def test_exchange_agreement_and_oracle_circ():
    rng = Random(71)
    for trial in range(120):
        k = 1 + trial % 4
        params = setup(k, 100, 10, CIRC, rng)
        alice, bob, key = run_parties(params, rng)
        alice_key = derive_shared_key(params, alice.pair, bob.public_message)
        bob_key = derive_shared_key(params, bob.pair, alice.public_message)
        assert alice_key == bob_key == key
        # independent oracle: first component of base^(m+n), folded naively
        oracle = chain_fold(CIRC, params.base_pair, alice.exponent + bob.exponent)
        assert alice_key == oracle.first


def test_exchange_agreement_star_1x1():
    rng = Random(73)
    for _ in range(80):
        params = setup(1, 100, 10, STAR, rng)
        # run_exchange raises KeyAgreementError if the parties disagree
        transcript, _ = run_exchange(params, rng)
        assert transcript.params is params


def test_star_exchange_can_disagree_for_k_at_least_2():
    """Pinned behavior: star is not associative for k >= 2, and with this
    frozen seed the two parties derive different keys, which surfaces as
    KeyAgreementError rather than a silently wrong transcript."""
    rng = Random(0)
    params = setup(3, 30, 8, STAR, rng)
    with pytest.raises(KeyAgreementError):
        run_exchange(params, rng)


def test_run_exchange_pinned_key():
    # circ, 1x1, M=10, H=-3, m=2, n=3: chain firsts 10, -3, -6, -9, -12
    params = params_1x1(10, -3)
    transcript, key = run_exchange(params, FixedExponents(2, 3))
    assert key == TropicalMatrix([[-12]])
    assert transcript.alice_message == TropicalMatrix([[-3]])
    assert transcript.bob_message == TropicalMatrix([[-6]])


def test_run_exchange_shares_the_squarings(monkeypatch):
    """One ``party_powers`` call serves both parties: the messages and the
    key are the chain's first components at a, b and a + b.  Under circ
    the call walks the powers of B = I oplus H to their period with the
    pass's k^3 products as budget, 2 ((L - 1) + (popcount(a) - 1) +
    (popcount(b) - 1)), L the larger exponent's bit length, or falls back
    to the pass; either way it costs what the naive schedule oracle
    predicts, plus one packed product per party's key derivation."""
    products = count_products(monkeypatch)
    passes = count_fallbacks(monkeypatch)
    rng = Random(131)
    trials = []
    # small K gives small budgets and small exponents: six of these
    # exchanges fall back
    for trial in range(24):
        params = setup(1 + trial % 4, 100, rng.randint(1, 10), CIRC, rng)
        a, b = rng.randint(1, (1 << params.K) - 1), rng.randint(1, (1 << params.K) - 1)
        trials.append((params, a, b))
    paths = set()
    for params, a, b in trials:
        products.count, passes[:] = 0, []
        transcript, key = run_exchange(params, FixedExponents(a, b))
        assert products.count == periodic_cost(params.base_pair, (a, b)) + 2
        paths.add(bool(passes))
        base = params.base_pair
        assert transcript.alice_message == chain_fold(CIRC, base, a).first
        assert transcript.bob_message == chain_fold(CIRC, base, b).first
        assert key == chain_fold(CIRC, base, a + b).first
    assert paths == {True, False}


def test_party_powers_cost_bound(monkeypatch):
    """Counted in k^3 products on both paths, a walk that serves the powers
    spends at most what the least-bit-first pass would, and a walk given
    up on plus the pass at most twice that; both give the pass's pairs."""
    products = count_products(monkeypatch)
    passes = count_fallbacks(monkeypatch)
    rng = Random(137)
    small = setup(3, 100, 8, CIRC, rng)
    six = period_six_pair()
    cases = [
        # B first repeats after 1 038 products; squaring past that transient
        # certifies within this budget of 796
        (setup(2, 10**6, 200, CIRC, Random(1997)), ((1 << 200) - 1, 1 << 199)),
        # B's period 6 exceeds k = 5, so the walk never certifies and falls back
        *(
            (ProtocolParams(5, 100, 41, CIRC, six.first, six.second), exponents)
            for exponents in ((191, 255), (1 << 40, (1 << 40) + 5))
        ),
        # (4, 4, 4) falls back: its budget of 4 does not cover serving three
        # powers; (3, 3, 3) and (5, 250) need powers of B below every segment
        *((small, exponents) for exponents in ((1,), (2,), (3, 3, 3), (4, 4, 4), (5, 250))),
    ]
    for trial in range(40):
        params = setup(1 + trial % 6, rng.choice((1, 100, 10**4)), rng.randint(1, 64), CIRC, rng)
        exponents = tuple(rng.randint(1, (1 << params.K) - 1) for _ in range(1 + trial % 3))
        cases.append((params, exponents))
    fell_back = set()
    for params, exponents in cases:
        products.count, passes[:] = 0, []
        pairs = protocol.party_powers(params, exponents)
        assert products.count <= (2 if passes else 1) * pass_products(exponents)
        fell_back.add(bool(passes))
        assert pairs == powers(CIRC, params.base_pair, exponents)
    assert fell_back == {True, False}


def test_walk_tail_at_benchmark_size(monkeypatch):
    """The exchange workload's size, k = 10, N = 1000, K = 200, over 100
    seeds: no exchange falls back to the pass, and together they make
    exactly the k^3 products the naive schedule oracle predicts for the
    powering, plus one per key derivation, so a long transient of B costs
    O(k log T) products, not T.  The powering alone makes 1 411."""
    products = count_products(monkeypatch)
    passes = count_fallbacks(monkeypatch)
    expected = 0
    for seed in range(100):
        rng = Random(seed)
        params = setup(10, 1000, 200, CIRC, rng)
        exponents = (draw_exponent(params, rng), draw_exponent(params, rng))
        run_exchange(params, FixedExponents(*exponents))
        expected += periodic_cost(params.base_pair, exponents) + 2  # two derivations
    assert products.count == expected == 1411 + 2 * 100
    assert passes == []


@pytest.mark.parametrize("k", (3, 5))
def test_wide_entry_exchange_matches_the_pass(k, monkeypatch):
    """Entries up to 10^30 put the packed walk's fields past 64 bits: the
    exchange gives the transcript and key the least-bit-first pass gives,
    without falling back to it."""
    widths = []
    packed = semidirect._min_plus_packed

    def recorded(x, tiles, packing):
        widths.append(packing.w)
        return packed(x, tiles, packing)

    passes = count_fallbacks(monkeypatch)
    monkeypatch.setattr(semidirect, "_min_plus_packed", recorded)
    for seed in range(4):
        rng = Random(seed)
        walked = run_exchange(setup(k, 10**30, 200, CIRC, rng), rng)
        rng = Random(seed)
        params = setup(k, 10**30, 200, CIRC, rng)
        with monkeypatch.context() as patch:
            patch.setattr(protocol, "periodic_powers", lambda base, e: powers(CIRC, base, e))
            assert run_exchange(params, rng) == walked
    assert passes == [] and min(widths) > 64


def test_transcript_round_trip_and_privacy():
    rng = Random(83)
    params = setup(3, 1000, 16, CIRC, rng)
    transcript, _ = run_exchange(params, rng)
    obj = transcript_to_json(transcript)
    # bit-exact round trip through real JSON text
    again = transcript_from_json(json.loads(json.dumps(obj)))
    assert again == transcript
    # the wire object never mentions private exponents
    text = json.dumps(obj)
    assert "exponent" not in text
    assert set(obj) == {"params", "alice_message", "bob_message"}
    assert set(obj["params"]) == {"k", "N", "K", "op", "M", "H"}
    assert obj["params"]["op"] == "circ"


def test_params_json_round_trip():
    params = setup(2, 9, 6, STAR, Random(5))
    assert params_from_json(json.loads(json.dumps(params_to_json(params)))) == params
    # the loader's caps admit the largest sizes in use
    at_caps = setup(MAX_K, 1000, MAX_EXPONENT_BITS, CIRC, Random(5))
    assert params_from_json(params_to_json(at_caps)) == at_caps


def _resize(obj, k):
    # every matrix of the transcript replaced by a k-by-k zero matrix
    zero = {"k": k, "entries": [["0"] * k for _ in range(k)]}
    obj["params"].update(k=k, M=zero, H=zero)
    obj.update(alice_message=zero, bob_message=zero)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda obj: obj.pop("params"),
        lambda obj: obj.pop("alice_message"),
        lambda obj: obj["params"].pop("op"),
        lambda obj: obj["params"].update(op="plus"),
        lambda obj: obj["params"].update(K="many"),
        lambda obj: obj.update(bob_message={"k": 1, "entries": [["0"]]}),
        lambda obj: obj["params"]["M"]["entries"][0].__setitem__(0, "zero"),
        lambda obj: _resize(obj, MAX_K + 1),
        lambda obj: obj["params"].update(K=MAX_EXPONENT_BITS + 1),
    ],
)
def test_transcript_from_json_rejects_bad_input(mutate):
    rng = Random(89)
    params = setup(2, 5, 4, CIRC, rng)
    transcript, _ = run_exchange(params, rng)
    obj = transcript_to_json(transcript)
    mutate(obj)
    with pytest.raises(FormatError):
        transcript_from_json(obj)
