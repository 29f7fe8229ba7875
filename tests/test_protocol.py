import json
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from tropkex import (
    DimensionMismatchError,
    FormatError,
    KeyAgreementError,
    ProtocolParams,
    SemigroupOpKind,
    SemigroupPair,
    Transcript,
    TropicalMatrix,
    apply,
    chain_compare,
    derive_shared_key,
    draw_exponent,
    matrix_from_json,
    matrix_to_json,
    op_circ,
    op_star,
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
from tropkex.semidirect import product_first

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
    record_layouts_and_plain,
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


def test_records_refuse_fields_that_are_not_matrices():
    # a list where a matrix belongs is refused by name, not met later as
    # an AttributeError on its size
    params = setup(1, 1, 1, CIRC, Random(0))
    zero = TropicalMatrix([[0]])
    for call, name in (
        (lambda: ProtocolParams(k=1, N=1, K=1, op=CIRC, M=[[0]], H=[[0]]), "M"),
        (lambda: ProtocolParams(k=1, N=1, K=1, op=CIRC, M=zero, H=[[0]]), "H"),
        (lambda: Transcript(params, [[0]], [[0]]), "alice_message"),
        (lambda: Transcript(params, zero, [[0]]), "bob_message"),
        (lambda: SemigroupPair([[0]], [[0]]), "first"),
        (lambda: SemigroupPair(zero, [[0]]), "second"),
    ):
        with pytest.raises(TypeError, match=f"^'{name}' must be a TropicalMatrix, not list$"):
            call()
    # so are params that are not a ProtocolParams, before the messages' sizes are read
    pair = SemigroupPair(zero, zero)
    for bad in (None, "x", pair):
        with pytest.raises(TypeError, match=f"^'params' must be a ProtocolParams, not {type(bad).__name__}$"):
            Transcript(bad, zero, zero)


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


# Every public operation on two matrices or pairs, written (p, q) with p of
# one size and q of another; the key is derived from p's first component
# under params of p's size, so only the own pair q is the wrong size.
_TWO_OPERAND = {
    "op_circ": op_circ,
    "op_star": op_star,
    "apply-circ": lambda p, q: apply(CIRC, p, q),
    "apply-star": lambda p, q: apply(STAR, p, q),
    "product_first-circ": lambda p, q: product_first(CIRC, p.first, q),
    "product_first-star": lambda p, q: product_first(STAR, p.first, q),
    "derive_shared_key-circ": lambda p, q: derive_shared_key(
        setup(p.k, 50, 4, CIRC, Random(7)), q, p.first
    ),
    "derive_shared_key-star": lambda p, q: derive_shared_key(
        setup(p.k, 50, 4, STAR, Random(7)), q, p.first
    ),
    "chain_compare": lambda p, q: chain_compare(p.first, q.first),
    "oplus": lambda p, q: p.first.oplus(q.first),
    "otimes": lambda p, q: p.first.otimes(q.first),
    "leq": lambda p, q: p.first.leq(q.first),
}


@pytest.mark.parametrize("operation", _TWO_OPERAND.values(), ids=_TWO_OPERAND)
def test_two_operand_operations_check_sizes(operation):
    two, three = random_pair(Random(5), 2), random_pair(Random(6), 3)
    for p, q in ((two, three), (three, two)):
        with pytest.raises(DimensionMismatchError):
            operation(p, q)


def test_transcript_checks_message_sizes():
    params = setup(2, 5, 4, CIRC, Random(3))
    three = random_mat(Random(4), 3)
    for messages in ((three, params.M), (params.M, three)):
        with pytest.raises(DimensionMismatchError, match="is 3x3, expected 2"):
            Transcript(params, *messages)
    obj = transcript_to_json(Transcript(params, params.M, params.H))
    obj["bob_message"] = matrix_to_json(three)
    with pytest.raises(FormatError, match="^'bob_message' is 3x3, expected 2$"):
        transcript_from_json(obj)


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


def test_exchange_packs_once_and_derives_plain(monkeypatch):
    """An exchange at the benchmark's size packs on one layout, the walk's,
    makes P_2 and derives each party's key on the plain kernel: the only
    plain-kernel calls are P_2's two, M * B with H as its floor and then
    H * B, and the two derivations, each made as ``op_circ`` makes a first
    component, one product with S and H as its two floors."""
    layouts, plain = record_layouts_and_plain(monkeypatch)
    for seed in range(4):
        params = setup(10, 1000, 200, CIRC, Random(seed))
        layouts[:], plain[:] = [], []
        run_exchange(params, Random(seed))
        assert layouts == [10]
        assert plain == [(10, 1), (10, 0), (10, 2), (10, 2)]


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


@pytest.mark.parametrize("k", (5, 20))
def test_walk_certifies_around_benchmark_size(k, monkeypatch):
    """As at k = 10 above: an exchange drawn the way ``tropkex exchange``
    draws it, one ``Random(seed)`` for the params and both exponents,
    makes no fallback pass at k = 5 or 20 over 100 seeds."""
    passes = count_fallbacks(monkeypatch)
    for seed in range(100):
        rng = Random(seed)
        run_exchange(setup(k, 1000, 200, CIRC, rng), rng)
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


_ENTRIES = st.sampled_from((0, 1, -1)) | st.integers(-1000, 1000) | st.integers(-(10**30), 10**30)


@st.composite
def _matrices(draw, k):
    return TropicalMatrix([[draw(_ENTRIES) for _ in range(k)] for _ in range(k)])


@st.composite
def _transcripts(draw):
    k = draw(st.integers(1, 5))
    m, h = draw(_matrices(k)), draw(_matrices(k))
    params = ProtocolParams(
        k=k,
        N=max(abs(e) for mat in (m, h) for row in mat.rows for e in row) + draw(st.integers(0, 9)),
        K=draw(st.integers(1, MAX_EXPONENT_BITS)),
        op=draw(st.sampled_from(list(SemigroupOpKind))),
        M=m,
        H=h,
    )
    return Transcript(params, draw(_matrices(k)), draw(_matrices(k)))


def _through_text(obj):
    return json.loads(json.dumps(obj))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(_transcripts())
def test_wire_format_round_trips_what_the_constructors_accept(transcript):
    params = transcript.params
    for m in (params.M, params.H, transcript.alice_message, transcript.bob_message):
        assert matrix_from_json(_through_text(matrix_to_json(m))) == m
    assert params_from_json(_through_text(params_to_json(params))) == params
    assert transcript_from_json(_through_text(transcript_to_json(transcript))) == transcript


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_constructors_refuse_what_the_wire_format_refuses(data):
    """A bool entry, a k, N or K that is not an int (or is a bool) and an
    op that is not a ``SemigroupOpKind`` are refused where the value is
    built, as the parser refuses them in a file; ``setup`` refuses before
    it draws."""
    k = data.draw(st.integers(1, 4))
    rows = [[data.draw(_ENTRIES) for _ in range(k)] for _ in range(k)]
    i, j = data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, k - 1))
    rows[i][j] = data.draw(st.booleans())
    with pytest.raises(TypeError):
        TropicalMatrix(rows)

    zero = TropicalMatrix([[0] * k for _ in range(k)])
    good = {"k": k, "N": 50, "K": 4, "op": CIRC, "M": zero, "H": zero}
    name = data.draw(st.sampled_from(("k", "N", "K")))
    value = data.draw(st.booleans() | st.sampled_from((str(good[name]), None, float(good[name]))))
    with pytest.raises(ValueError, match=f"^'{name}' must be an integer$"):
        ProtocolParams(**{**good, name: value})
    obj = params_to_json(ProtocolParams(**good))
    obj[name] = value
    with pytest.raises(FormatError, match=f"'{name}' must be an integer"):
        params_from_json(_through_text(obj))

    op = data.draw(st.sampled_from([kind.value for kind in SemigroupOpKind]))
    with pytest.raises(ValueError, match="unknown operation kind"):
        ProtocolParams(**{**good, "op": op})
    with pytest.raises(ValueError, match="unknown operation kind"):
        setup(k, 50, 4, op, FixedExponents())  # would fail on its first draw
