import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr
from pathlib import Path
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tropkex import (
    AttackResult,
    ProtocolParams,
    SemigroupOpKind,
    SemigroupPair,
    Transcript,
    TropicalMatrix,
    attack_result_to_json,
    draw_exponent,
    matrix_from_json,
    matrix_to_json,
    params_from_json,
    params_to_json,
    powers,
    run_exchange,
    setup,
    transcript_from_json,
    transcript_to_json,
)
from tropkex import attack, cli, protocol, semidirect
from tropkex.cli import EXIT_ATTACK, EXIT_FORMAT, EXIT_IO, EXIT_OK, EXIT_USAGE, cli_main
from tropkex.protocol import MAX_EXPONENT_BITS, MAX_K
from tropkex.semidirect import product_first

from _oracles import count_products, periodic_cost


def run_cli(*argv):
    return cli_main(list(argv))


def test_gen_writes_params(tmp_path):
    out = tmp_path / "params.json"
    code = run_cli(
        "gen", "--k", "3", "--N", "20", "--K", "8", "--op", "circ",
        "--seed", "5", "--out", str(out),
    )
    assert code == EXIT_OK
    params = params_from_json(json.loads(out.read_text()))
    assert params.k == 3 and params.N == 20 and params.K == 8

    # same seed reproduces the same file
    out2 = tmp_path / "params2.json"
    run_cli("gen", "--k", "3", "--N", "20", "--K", "8", "--seed", "5", "--out", str(out2))
    assert out.read_text() == out2.read_text()


def test_gen_stdout_default(capsys):
    assert run_cli("gen", "--k", "2", "--N", "5", "--K", "4", "--seed", "1") == EXIT_OK
    params = params_from_json(json.loads(capsys.readouterr().out))
    assert params.k == 2


def test_exchange_and_attack_pipeline(tmp_path):
    transcript_path = tmp_path / "tr.json"
    keys_path = tmp_path / "keys.json"
    code = run_cli(
        "exchange", "--k", "3", "--N", "50", "--K", "10", "--op", "circ",
        "--seed", "9", "--out", str(transcript_path), "--keys-out", str(keys_path),
    )
    assert code == EXIT_OK
    transcript = transcript_from_json(json.loads(transcript_path.read_text()))
    keys = json.loads(keys_path.read_text())
    alice_key = matrix_from_json(keys["alice_key"])
    bob_key = matrix_from_json(keys["bob_key"])
    assert alice_key == bob_key

    result_path = tmp_path / "res.json"
    code = run_cli("attack", "--transcript", str(transcript_path), "--out", str(result_path))
    assert code == EXIT_OK
    result = json.loads(result_path.read_text())
    assert set(result) == {"m_prime", "t", "op_count", "recovered_key"}
    assert matrix_from_json(result["recovered_key"]) == alice_key
    assert result["op_count"] <= 10**2 + 10

    # attacking the other party's message recovers the same key
    bob_res = tmp_path / "res_bob.json"
    assert run_cli(
        "attack", "--transcript", str(transcript_path), "--target", "bob",
        "--out", str(bob_res),
    ) == EXIT_OK
    assert matrix_from_json(json.loads(bob_res.read_text())["recovered_key"]) == alice_key

    # the reference variant without the square cache agrees too
    nc_res = tmp_path / "res_nc.json"
    assert run_cli(
        "attack", "--transcript", str(transcript_path), "--no-cache",
        "--out", str(nc_res),
    ) == EXIT_OK
    nc = json.loads(nc_res.read_text())
    assert matrix_from_json(nc["recovered_key"]) == alice_key
    assert nc["op_count"] <= 2 * 10**2 + 10


def test_attack_counts_match_traced_op_circ_calls(tmp_path, monkeypatch):
    """The counts ``attack`` writes are the op_circ calls each phase makes,
    counted from outside the library: t those inside ``doubling_phase``,
    op_count those inside ``find_chain_exponent``, for both targets, with
    and without the square cache."""
    calls = {"doubling_phase": 0, "find_chain_exponent": 0}
    running = []  # the wrapped phases now on the stack

    def spanned(fn):
        def wrapper(*args, **kwargs):
            running.append(fn.__name__)
            try:
                return fn(*args, **kwargs)
            finally:
                running.pop()

        return wrapper

    op_circ = semidirect.op_circ

    def counted_circ(p, q):
        for name in running:
            calls[name] += 1
        return op_circ(p, q)

    monkeypatch.setattr(semidirect, "op_circ", counted_circ)
    for name in calls:
        monkeypatch.setattr(attack, name, spanned(getattr(attack, name)))
    transcript_path, result_path = tmp_path / "tr.json", tmp_path / "res.json"
    for k in range(2, 6):
        rng = Random(k)
        transcript, _ = run_exchange(setup(k, 100, 32, SemigroupOpKind.CIRC, rng), rng)
        transcript_path.write_text(json.dumps(transcript_to_json(transcript)))
        for target in ("alice", "bob"):
            for flags in ((), ("--no-cache",)):
                calls.update(dict.fromkeys(calls, 0))
                argv = ("attack", "--transcript", str(transcript_path), "--target", target)
                assert run_cli(*argv, *flags, "--out", str(result_path)) == EXIT_OK
                written = json.loads(result_path.read_text())
                assert written["t"] == calls["doubling_phase"] > 0
                assert written["op_count"] == calls["find_chain_exponent"] > written["t"]


def test_exchange_from_gen_params(tmp_path):
    params_path = tmp_path / "params.json"
    run_cli("gen", "--k", "2", "--N", "9", "--K", "6", "--seed", "3", "--out", str(params_path))
    transcript_path = tmp_path / "tr.json"
    keys_path = tmp_path / "keys.json"
    code = run_cli(
        "exchange", "--params", str(params_path), "--seed", "4",
        "--out", str(transcript_path), "--keys-out", str(keys_path),
    )
    assert code == EXIT_OK
    transcript = transcript_from_json(json.loads(transcript_path.read_text()))
    saved = params_from_json(json.loads(params_path.read_text()))
    assert transcript.params == saved


# sha256 of the transcript and keys files ``tropkex exchange --k k --N 1000
# --K 200 --op circ --seed S`` writes, keyed by (k, S), and of the result
# file of ``tropkex attack`` on that transcript, as they are when both
# parties power with the least-bit-first pass alone; every faster powering
# or search must reproduce them byte for byte.
PINNED_EXCHANGES = {
    (3, 1): ("5f2c263fb70142c736eaae464cdc84b835c002294dc044dde60a14330a396e91",
             "f522850c06b94dab1bf83794138c24485e21d4c0c00e550cb2045bbd07fe244e",
             "c6315ddb7fd019d5d56dbee318e9f9d7808c7ad270aa6df98e0ebbe06c785009"),
    (3, 2): ("70830639ab9d4af9947de1c1de25d50e0b5d11fb1354d7f8053ef9d4b8fe160d",
             "abe3a8cc883cf433292ca6a7651f4a146453a6842692458bfd53f1204384b191",
             "8818f2236a7875e2f0ccd8f34eb0c733ee4ea771eefcddeea1e4fed374a84e1d"),
    (3, 3): ("177885a58d124484f867c2603f95be1871b1df83a80f8a3ced6e41bc24766e0b",
             "cd3a5b1bf73b25fce7e4f3147a1226b02f5cdc63a9eb743d78c5471a7b4c8c73",
             "eb0fef5c08fa7ffb402ce27b36fe1f2585f01a3e884e55414081489bf05b6683"),
    (3, 4): ("566e62d40f603ae4fc28544059a144c560afccb205d9d45fa67a4ea8747707e8",
             "7d994077a6353a3c19b034f0080400caf1e944d3e5c189c4869dd94e98138b4c",
             "b1893c94c0269ddbeb111d0650608f871cbab7042d62f22ac4a23d6c30553720"),
    (3, 5): ("8408d174daeb3e5d2c1c73e49c35b914a3f442b0d21ee1da63cfdeacc156dbd3",
             "f656436e23c9ecd8c87f7bbc4f07abb69edc69f2382055d62073467a098ebaf8",
             "697bea73e373a8f99f5e87ba6a2256507027b1d332de102845d38e7f13db25a3"),
    (5, 1): ("c77483be7a1b7890961a1d27c866b576b231f93c65c71f031c4fd176d6f0eb8b",
             "722bee406a5501de1811195499d43cdce782ae3810233f2ff2c7e7667f3442ef",
             "a4f06eee8f236862a9381669bd6798342bbbefc195c6b3380c947cf7cd913ab5"),
    (5, 2): ("8ad2ead93eceabb2ecea7a3d23f62a925635c615c0974b7788b1da3c230e2905",
             "5f612e0bbfa4709715e2f833244ebedec5d2094dd13e4ba65bfb7f4dad26f762",
             "e324a17b5a4384e6ebee74208ad4815dc88d044d149cc830e0024f4cd1f69507"),
    (5, 3): ("87ec96e1b9fd608bec1c7a7ccb2605d077483f7969f7aabf8472952fef3a7799",
             "15ab4438c8c619e14fad56dc54011f4c381ca4efd53099735e99afcd722ae9a1",
             "a9f7fbd9c3166f722997a9fd8058d398402ec42a525341b660a51e719fc5cadc"),
    (5, 4): ("23bea6a96cc451f20e04a2bbe6c89a094fd20c1847debfbfb4dffde33e85e965",
             "addfdbe28ac30503d0b9fb141794948a02d9400684f69892beb09adc31b36bd4",
             "eef8cf437ee6d855a5a5966ad6cdfa565245d6d5d5590d30317bdb92587a3819"),
    (5, 5): ("c2447909b5db8f1c1e2e5994cf9016f6aa7e823a0840b9f50c41619a177a33ba",
             "1203ad28637a6c9f32306028ce62b4cdc834a9694d17b273de9f2c678743175f",
             "a1bda353118fcf7df6e55709d0e05595a9963c0caf0611b62155e3b8cc3721bd"),
    (10, 1): ("877caa6c807624e72894ad1db86ce87008854705ad90d84038d7a7fd75ba4fd6",
             "72cbc6cea7f3ec30103f93065303468bea5c1c8e8a93cc4a922e3e19463a1096",
             "74aa85445e4a9f9adb077527ca6cf328655f503ce72c94b89e4cdec3f60d11c6"),
    (10, 2): ("0067b8a16d5bd9430c9e47c052c9fa75d359a3c850f73c0087e935c80ffb33cc",
             "58611b4fd71ff01940909997b4be41b71da09624f3cfc950a26217eb98e094de",
             "d63767a235eadd0dce14a463edbaedee0e0bd8cd0a58987159de0bcc7f22f720"),
    (10, 3): ("f6fdb60097e57ba340d3ab7a6a590391278818559433f7045c8fcbd1e22ce5a2",
             "a6e76f5d67501914657a8e1a10f40ea5d02082cd448e6c39fc078a560f08a6ac",
             "745cc45817c70130f146051e6eebc3eda5b660da4a928b707ff46c6cebc778b3"),
    (10, 4): ("928771abae9c3ee05a06f2a7d1b65797d84d7871b99aef4599faf67ad72b20f9",
             "59563247c71191dc935e9daf29eada344506745215ee118b2266d1f7929e9be1",
             "7ddd81b36a75466018b3eb2e0be585e24e8f013296b8c966e54efc5ffd985c49"),
    (10, 5): ("dc68ddbb9ed526963a5ab6d177cb6f23ee0ecd6f9d96eeed84e5c34a0fc64175",
             "9d5b06a33dd801f8158a499f2d3d70ba41e4529dd92bd3f697d3a287dae95275",
             "55b10c5b8a8071a779b96e6b6b4f26af55ba2b075cfe5a39c251cdebc48b9419"),
}


# The same for the transcript and keys files alone at k = 20 and 30, where
# the walk squares up to B^64 before its first segment: powers of B the
# k <= 10 pins never reach.
PINNED_LARGE_EXCHANGES = {
    (20, 1): ("11778f477b67f58bc08f8b0b09c8f91816f6c06e6dd4a001b3b18638d71e7c80",
              "96e5d8252f56fc9fe66cfea20aca02c0fc1e4c1af0473fae0cd6b6b3a77ea055"),
    (20, 2): ("3556b2eadc827a96583e5bcd79c3b79682f19f8e992b0a68ebd47fc76bc47200",
              "3cd64339143389578c88c8e9fd08183dcf0785106ce4acf398ee5c866210e358"),
    (30, 1): ("78237eb75f884c9e0e4346e35401879794d13c2ef8606592c733ec8a9cb6365b",
              "3a29c210870c8a5cad559b27176d152fb7858396a14c52b59eb28b86433c68e2"),
    (30, 2): ("8932e760d67fbce89d8b9ee46e29f2aac7dce44ce4ffb22edfa0cfe71c9d6b9f",
              "b5ccc6a643326fa44775b3d7888bbc9e063af9eb7bc8d43b8f7afdf02f3ae3af"),
}


def _pinned_exchange(tmp_path, k, seed):
    # ``tropkex exchange`` at a pinned size; returns its transcript and keys paths
    transcript_path = tmp_path / f"tr{k}_{seed}.json"
    keys_path = tmp_path / f"keys{k}_{seed}.json"
    assert run_cli(
        "exchange", "--k", str(k), "--N", "1000", "--K", "200", "--op", "circ",
        "--seed", str(seed), "--out", str(transcript_path), "--keys-out", str(keys_path),
    ) == EXIT_OK
    return transcript_path, keys_path


def test_exchange_files_are_pinned(tmp_path):
    for (k, seed), expected in PINNED_EXCHANGES.items():
        transcript_path, keys_path = _pinned_exchange(tmp_path, k, seed)
        result_path = tmp_path / f"result{k}_{seed}.json"
        assert run_cli(
            "attack", "--transcript", str(transcript_path), "--out", str(result_path)
        ) == EXIT_OK
        digests = tuple(
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (transcript_path, keys_path, result_path)
        )
        assert digests == expected, (k, seed)


def test_large_exchange_files_are_pinned(tmp_path):
    for (k, seed), expected in PINNED_LARGE_EXCHANGES.items():
        digests = tuple(
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in _pinned_exchange(tmp_path, k, seed)
        )
        assert digests == expected, (k, seed)


# sha256 of the params file ``tropkex gen --k 5 --N 1000 --K 200 --op circ
# --seed 7`` writes, and of the transcript and keys files of ``tropkex
# exchange --k 1 --N 1000 --K 200 --op star --seed 5`` (star agrees at
# k = 1): the other two files the CLI writes, in the layout the pins above
# fix for circ.
PINNED_GEN = "fd0e8373daf8071d037c4453925fd5e6bbf99890859312bc96860f51c9d0d39d"
PINNED_STAR_EXCHANGE = (
    "e9473a1277ded7157f81ffaef87b18cec856cb43f46afae4be5caddf74f9a831",
    "0d7b0a9ca536905b51ede5700e552314b5d5c980e34d6fdb129a9eb0524c2f62",
)


def test_gen_and_star_exchange_files_are_pinned(tmp_path):
    params_path = tmp_path / "params.json"
    assert run_cli(
        "gen", "--k", "5", "--N", "1000", "--K", "200", "--op", "circ", "--seed", "7",
        "--out", str(params_path),
    ) == EXIT_OK
    assert hashlib.sha256(params_path.read_bytes()).hexdigest() == PINNED_GEN
    transcript_path, keys_path = tmp_path / "tr.json", tmp_path / "keys.json"
    assert run_cli(
        "exchange", "--k", "1", "--N", "1000", "--K", "200", "--op", "star", "--seed", "5",
        "--out", str(transcript_path), "--keys-out", str(keys_path),
    ) == EXIT_OK
    digests = tuple(
        hashlib.sha256(path.read_bytes()).hexdigest() for path in (transcript_path, keys_path)
    )
    assert digests == PINNED_STAR_EXCHANGE


@st.composite
def _matrices(draw, k):
    # k^2 entries from a small drawn pool of 0, +-1 and small ints, then up
    # to three cells set to 4 000-digit values (str of one costs ~0.3 ms)
    pool = draw(st.lists(st.sampled_from((0, 1, -1)) | st.integers(-(10**6), 10**6),
                         min_size=1, max_size=4))
    rng = Random(draw(st.integers(0, 2**16)))
    rows = [[rng.choice(pool) for _ in range(k)] for _ in range(k)]
    wide = st.integers(10**3999, 10**4000 - 1)
    for i, j, entry in draw(st.lists(
        st.tuples(st.integers(0, k - 1), st.integers(0, k - 1), wide | wide.map(int.__neg__)),
        max_size=3,
    )):
        rows[i][j] = entry
    return TropicalMatrix(rows)


@settings(
    max_examples=60,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.data())
def test_json_text_is_json_dumps_indent_2(data):
    """The CLI's writer gives exactly ``json.dumps(obj, indent=2)`` on all
    four dicts it writes: params, transcript, keys and attack result."""
    k = data.draw(st.sampled_from((1, MAX_K)) | st.integers(1, MAX_K), label="k")
    m, h, alice, bob = (data.draw(_matrices(k)) for _ in range(4))
    params = ProtocolParams(
        k=k,
        N=max(abs(e) for mat in (m, h) for row in mat.rows for e in row),
        K=data.draw(st.integers(1, 8)),
        op=data.draw(st.sampled_from(list(SemigroupOpKind))),
        M=m,
        H=h,
    )
    result = AttackResult(
        m_prime=data.draw(st.integers(1, 2**MAX_EXPONENT_BITS)),
        t=data.draw(st.integers(0, MAX_EXPONENT_BITS)),
        op_count=data.draw(st.integers(0, 2 * MAX_EXPONENT_BITS)),
        eve_pair=SemigroupPair(alice, h),
        recovered_key=bob,
    )
    key_json = matrix_to_json(bob)
    for obj in (
        params_to_json(params),
        transcript_to_json(Transcript(params, alice, bob)),
        {"alice_key": key_json, "bob_key": key_json},
        attack_result_to_json(result),
    ):
        assert cli._json_text(obj) == json.dumps(obj, indent=2)


def test_exchange_long_transient_params(tmp_path, monkeypatch):
    """Params whose B = I oplus H first repeats only after 1 038 products, at
    the largest K a params file may ask for: the exchange still succeeds,
    gives what the least-bit-first pass gives, and makes exactly 33 k^3
    products: 31 for the powering (``_oracles.periodic_cost``), 27 for the
    walk that squares its way past that transient, two for the square and
    two that serve both parties (B's period is 1, so their powers of B
    share a residue), and one for each party's key derivation."""
    params = setup(2, 10**6, MAX_EXPONENT_BITS, SemigroupOpKind.CIRC, Random(1997))
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps(params_to_json(params)))
    products = count_products(monkeypatch)
    transcript_path, keys_path = tmp_path / "tr.json", tmp_path / "keys.json"
    assert run_cli(
        "exchange", "--params", str(params_path), "--seed", "3",
        "--out", str(transcript_path), "--keys-out", str(keys_path),
    ) == EXIT_OK
    monkeypatch.undo()

    rng = Random(3)
    exponents = (draw_exponent(params, rng), draw_exponent(params, rng))
    alice, bob = powers(SemigroupOpKind.CIRC, params.base_pair, exponents)
    assert products.count == periodic_cost(params.base_pair, exponents) + 2 == 31 + 2
    transcript = transcript_from_json(json.loads(transcript_path.read_text()))
    assert (transcript.alice_message, transcript.bob_message) == (alice.first, bob.first)
    keys = json.loads(keys_path.read_text())
    key = product_first(SemigroupOpKind.CIRC, bob.first, alice)
    assert matrix_from_json(keys["alice_key"]) == matrix_from_json(keys["bob_key"]) == key


def test_bench_csv(tmp_path):
    csv_path = tmp_path / "t.csv"
    code = run_cli(
        "bench", "--k", "2,3", "--N", "10", "--K", "8", "--trials", "2",
        "--op", "circ", "--seed", "7", "--out", str(csv_path),
    )
    assert code == EXIT_OK
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == (
        "k,alpha_bits,time_mprime_s,time_full_s,t_over_k3,"
        "t_over_alpha15,trials,plateau_fraction"
    )
    assert len(lines) == 3
    assert lines[1].startswith("2,") and lines[2].startswith("3,")


def test_seed_env_var(tmp_path, monkeypatch):
    out_env = tmp_path / "env.json"
    out_flag = tmp_path / "flag.json"
    monkeypatch.setenv("TROPKEX_SEED", "42")
    run_cli("gen", "--k", "2", "--N", "5", "--K", "4", "--out", str(out_env))
    run_cli("gen", "--k", "2", "--N", "5", "--K", "4", "--seed", "42", "--out", str(out_flag))
    assert out_env.read_text() == out_flag.read_text()

    # explicit flag wins over the environment
    out_other = tmp_path / "other.json"
    run_cli("gen", "--k", "2", "--N", "5", "--K", "4", "--seed", "43", "--out", str(out_other))
    assert out_other.read_text() != out_env.read_text()

    monkeypatch.setenv("TROPKEX_SEED", "not-a-number")
    assert run_cli("gen", "--k", "2", "--N", "5", "--K", "4") == EXIT_FORMAT


def test_exchange_io_failure_leaves_no_file_it_created(tmp_path, capsys):
    """Whichever of exchange's two outputs cannot be written, it exits 3
    and leaves neither file behind; a file that was already there stays."""
    missing = tmp_path / "nodir"
    for out, keys_out in (
        (tmp_path / "tr.json", missing / "keys.json"),
        (missing / "tr.json", tmp_path / "keys.json"),
    ):
        assert run_cli(
            "exchange", "--k", "3", "--K", "10", "--out", str(out), "--keys-out", str(keys_out)
        ) == EXIT_IO
        assert capsys.readouterr().err.startswith("error:io:")
        assert sorted(tmp_path.iterdir()) == []
    old = tmp_path / "old.json"
    old.write_text("{}")
    assert run_cli(
        "exchange", "--k", "3", "--K", "10", "--out", str(old), "--keys-out", str(missing / "k")
    ) == EXIT_IO
    assert sorted(tmp_path.iterdir()) == [old]


def test_error_exit_codes(tmp_path, capsys, monkeypatch):
    # missing transcript file
    assert run_cli("attack", "--transcript", str(tmp_path / "nope.json")) == EXIT_IO
    assert capsys.readouterr().err.startswith("error:io:")

    # unparseable JSON
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert run_cli("attack", "--transcript", str(bad)) == EXIT_FORMAT
    assert capsys.readouterr().err.startswith("error:format:")

    # well-formed JSON that violates the transcript schema
    not_transcript = tmp_path / "nt.json"
    not_transcript.write_text(json.dumps({"params": {}}))
    assert run_cli("attack", "--transcript", str(not_transcript)) == EXIT_FORMAT

    # an entry past the interpreter's int-from-str digit limit is malformed
    # input, not a usage error
    transcript = tmp_path / "tr.json"
    assert run_cli(
        "exchange", "--k", "2", "--N", "5", "--K", "4", "--seed", "1",
        "--out", str(transcript), "--keys-out", str(tmp_path / "keys.json"),
    ) == EXIT_OK
    obj = json.loads(transcript.read_text())
    obj["alice_message"]["entries"][0][0] = "9" * 4301
    overlong = tmp_path / "overlong.json"
    overlong.write_text(json.dumps(obj))
    assert run_cli("attack", "--transcript", str(overlong)) == EXIT_FORMAT
    assert capsys.readouterr().err.startswith("error:format:")

    # files the JSON parser cannot read at all: bytes that are not UTF-8,
    # nesting past the recursion limit, an int literal past the digit limit
    unreadable = {
        "not_utf8.json": b"\xff\xfe",
        "deep.json": b"[" * 100_000 + b"]" * 100_000,
        "long_int.json": b'{"params": ' + b"9" * 4301 + b"}",
    }
    for name, content in unreadable.items():
        path = tmp_path / name
        path.write_bytes(content)
        assert run_cli("attack", "--transcript", str(path)) == EXIT_FORMAT, name
        assert capsys.readouterr().err.startswith("error:format:"), name
        assert run_cli("exchange", "--params", str(path)) == EXIT_FORMAT, name
        assert capsys.readouterr().err.startswith("error:format:"), name

    # a cap read from a file is malformed input
    over_cap = params_to_json(setup(2, 5, 4, SemigroupOpKind.CIRC, Random(0)))
    over_cap["K"] = MAX_EXPONENT_BITS + 1
    capped = tmp_path / "capped.json"
    capped.write_text(json.dumps(over_cap))
    assert run_cli("exchange", "--params", str(capped)) == EXIT_FORMAT
    assert capsys.readouterr().err.startswith("error:format:")

    # params above a cap are a usage error on every path that makes them, as
    # is a repeated k, refused before any matrix is drawn; nothing is written
    def no_draw(*args):
        raise AssertionError("matrix drawn for refused params")

    monkeypatch.setattr(protocol, "random_matrix", no_draw)
    for argv in (
        ("gen", "--k", str(MAX_K + 1)),
        ("gen", "--K", str(MAX_EXPONENT_BITS + 1)),
        ("exchange", "--K", str(MAX_EXPONENT_BITS + 1), "--keys-out", str(tmp_path / "k.json")),
        ("bench", "--k", str(MAX_K + 1), "--trials", "1"),
        ("bench", "--k", f"5,{MAX_K + 1}", "--trials", "1"),
        ("bench", "--k", "5,5", "--trials", "1"),
    ):
        out = tmp_path / "capped.out"
        assert run_cli(*argv, "--out", str(out)) == EXIT_USAGE, argv
        assert capsys.readouterr().err.startswith("error:usage:"), argv
        assert not out.exists() and not (tmp_path / "k.json").exists(), argv
    with pytest.raises(ValueError):
        setup(MAX_K + 1, 10, 4, SemigroupOpKind.CIRC, Random(0))
    monkeypatch.undo()

    # usage errors from argparse
    assert run_cli("no-such-command") == EXIT_USAGE
    assert run_cli("bench", "--k", "2,x", "--out", "t.csv") == EXIT_USAGE
    assert run_cli("bench") == EXIT_USAGE
    capsys.readouterr()


def test_usage_edges(capsys):
    """A subcommand's arguments go to its own parser, so an unknown flag
    after it is reported under the subcommand's name; the top-level
    parser still answers no command, --help and an unknown command."""
    assert run_cli("exchange", "--bogus") == EXIT_USAGE
    err = capsys.readouterr().err
    assert "tropkex exchange: error: unrecognized arguments: --bogus" in err, err
    for argv, code, stream, text in (
        ((), EXIT_USAGE, "err", "tropkex: error: the following arguments are required: command"),
        (("--help",), EXIT_OK, "out", "usage: tropkex [-h] {gen,exchange,attack,bench}"),
        (("nosuch",), EXIT_USAGE, "err", "tropkex: error: argument command: invalid choice: 'nosuch'"),
        (("exchange", "--help"), EXIT_OK, "out", "usage: tropkex exchange [-h]"),
    ):
        assert run_cli(*argv) == code, argv
        captured = capsys.readouterr()
        assert text in getattr(captured, stream), (argv, captured)


@pytest.fixture
def int_max_str_digits():
    """Sets the interpreter's int/str digit limit for one test, then restores it."""
    saved = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(saved)


def test_params_past_the_digit_limit_are_refused_first(
    tmp_path, capsys, monkeypatch, int_max_str_digits
):
    """Entries can reach 2^(K+1) * N in magnitude, and str() writes no more
    digits than the interpreter's limit: params whose bound has more are
    refused before any pair operation, from flags with exit 2 and from
    files with exit 4.  At N = 10^4000, K = 4096 seeds 2, 3 and 5 used to
    run the whole exchange and fail on writing; seed 4's entries happened
    to fit, and it is refused as well."""
    int_max_str_digits(4300)
    # a params and a transcript file asking for the same, made at K = 8
    transcript = transcript_to_json(
        run_exchange(setup(2, 10**4000, 8, SemigroupOpKind.CIRC, Random(2)), Random(2))[0]
    )
    transcript["params"]["K"] = 4096
    (tmp_path / "params.json").write_text(json.dumps(transcript["params"]))
    (tmp_path / "tr.json").write_text(json.dumps(transcript))

    def no_draw(*args):
        raise AssertionError("matrix drawn for refused params")

    monkeypatch.setattr(protocol, "random_matrix", no_draw)
    products = count_products(monkeypatch)
    wide, keys = str(10**4000), tmp_path / "keys.json"
    for code, argv in (
        *((EXIT_USAGE, ("exchange", "--k", "2", "--N", wide, "--K", "4096",
                        "--seed", str(seed), "--keys-out", str(keys))) for seed in (2, 3, 4, 5)),
        (EXIT_USAGE, ("gen", "--k", "2", "--N", wide, "--K", "4096")),
        (EXIT_USAGE, ("bench", "--k", "2", "--N", wide, "--K", "4096", "--trials", "1")),
        (EXIT_FORMAT, ("exchange", "--params", str(tmp_path / "params.json"))),
        (EXIT_FORMAT, ("attack", "--transcript", str(tmp_path / "tr.json"))),
    ):
        out = tmp_path / "refused.out"
        assert run_cli(*argv, "--out", str(out)) == code, argv[:8]
        err = capsys.readouterr().err
        category = "usage" if code == EXIT_USAGE else "format"
        assert err.startswith(f"error:{category}:"), err[:200]
        assert "4300 decimal digits" in err, err[:200]
        assert not out.exists() and not keys.exists()
    assert products.count == 0
    monkeypatch.undo()

    # the cap sits exactly where 2^(K+1) * N reaches 10^4300; 0 lifts it
    n_max = (10**4300 - 1) >> 9
    assert setup(1, n_max, 8, SemigroupOpKind.CIRC, Random(0)).N == n_max
    with pytest.raises(ValueError, match="4300 decimal digits"):
        setup(1, n_max + 1, 8, SemigroupOpKind.CIRC, Random(0))
    int_max_str_digits(0)
    assert setup(1, n_max + 1, 8, SemigroupOpKind.CIRC, Random(0)).N == n_max + 1


def test_exchange_refuses_param_flags_with_params(tmp_path, capsys):
    """``exchange --params`` takes k, N, K and op from the file, so each of
    those flags given with it is a usage error, even at its default value
    or the file's; --seed and the output paths still go with it."""
    params_path = tmp_path / "params.json"
    assert run_cli(
        "gen", "--k", "3", "--N", "20", "--K", "8", "--seed", "1", "--out", str(params_path)
    ) == EXIT_OK
    out, keys = tmp_path / "tr.json", tmp_path / "keys.json"
    for flags in (
        ("--k", "7", "--K", "300", "--op", "star"),
        ("--k", "3"),
        ("--N", "1000"),
        ("--K=8",),
        ("--op", "circ"),
    ):
        argv = ("exchange", "--params", str(params_path), *flags)
        assert run_cli(*argv, "--out", str(out), "--keys-out", str(keys)) == EXIT_USAGE, flags
        err = capsys.readouterr().err
        assert err.startswith("error:usage:"), err
        assert flags[0].split("=")[0] in err and "--params" in err, err
        assert not out.exists() and not keys.exists()
    assert run_cli(
        "exchange", "--params", str(params_path), "--seed", "2",
        "--out", str(out), "--keys-out", str(keys),
    ) == EXIT_OK
    assert transcript_from_json(json.loads(out.read_text())).params.K == 8


def test_back_to_back_calls_share_one_parser(tmp_path, capsys, monkeypatch):
    """``cli_main`` builds its parser once per process and reuses it: a
    usage error leaves nothing behind, so the next call sees the flag
    defaults, and an attack after it recovers the exchanged key."""
    monkeypatch.delenv("TROPKEX_SEED", raising=False)
    parser = cli._build_parser()
    assert run_cli("exchange", "--k", "3", "--N", "7", "--K", "x", "--seed", "8") == EXIT_USAGE
    capsys.readouterr()
    transcript_path, keys_path = tmp_path / "tr.json", tmp_path / "keys.json"
    assert run_cli(
        "exchange", "--K", "10", "--out", str(transcript_path), "--keys-out", str(keys_path),
    ) == EXIT_OK
    transcript = transcript_from_json(json.loads(transcript_path.read_text()))
    assert transcript.params == setup(10, 1000, 10, SemigroupOpKind.CIRC, Random(0))
    result_path = tmp_path / "res.json"
    assert run_cli("attack", "--transcript", str(transcript_path), "--out", str(result_path)) == EXIT_OK
    key = json.loads(keys_path.read_text())["alice_key"]
    assert json.loads(result_path.read_text())["recovered_key"] == key
    assert cli._build_parser() is parser
    assert cli._build_parser.cache_info().misses == 1


def test_star_exchange_failure_maps_to_attack_exit(tmp_path, capsys):
    # the frozen star instance whose parties disagree; the CLI reports it
    # as an attack-category failure instead of writing a bogus transcript
    code = run_cli(
        "exchange", "--k", "3", "--N", "30", "--K", "8", "--op", "star",
        "--seed", "0", "--out", str(tmp_path / "tr.json"),
    )
    assert code == EXIT_ATTACK
    assert capsys.readouterr().err.startswith("error:attack:")


def test_module_entry_point(tmp_path):
    out = tmp_path / "p.json"
    proc = subprocess.run(
        [sys.executable, "-m", "tropkex", "gen", "--k", "2", "--N", "3",
         "--K", "4", "--seed", "1", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert params_from_json(json.loads(out.read_text())).k == 2


def test_files_are_read_as_utf8_under_any_locale(tmp_path):
    """A transcript is read as UTF-8 whatever the locale's encoding: under
    the C locale with UTF-8 mode and locale coercion off (an ASCII
    encoding), a valid transcript with a non-ASCII key still exits 0, and
    bytes that are not UTF-8 still exit 4."""
    transcript = transcript_to_json(
        run_exchange(setup(2, 5, 4, SemigroupOpKind.CIRC, Random(3)), Random(3))[0]
    )
    transcript["\u00e9"] = 1
    valid, not_utf8 = tmp_path / "valid.json", tmp_path / "not_utf8.json"
    valid.write_bytes(json.dumps(transcript, ensure_ascii=False).encode("utf-8"))
    not_utf8.write_bytes(b"\xff\xfe")
    env = {**os.environ, "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}
    for path, code in ((valid, EXIT_OK), (not_utf8, EXIT_FORMAT)):
        proc = subprocess.run(
            [sys.executable, "-m", "tropkex", "attack", "--transcript", str(path)],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == code, proc.stderr


# --- attack on mutated transcripts -------------------------------------------

_MATRICES = (("params", "M"), ("params", "H"), ("alice_message",), ("bob_message",))
_CATEGORY = {EXIT_IO: "io", EXIT_FORMAT: "format", EXIT_ATTACK: "attack"}


@st.composite
def _honest_transcripts(draw):
    # A transcript as the exchange would write it; star's parties need not
    # agree for k >= 2, so both messages are powered without the check.
    op = draw(st.sampled_from(list(SemigroupOpKind)))
    rng = Random(draw(st.integers(0, 2**16)))
    params = setup(draw(st.integers(1, 3)), draw(st.sampled_from((0, 5, 1000))),
                   draw(st.integers(1, 8)), op, rng)
    exponents = (draw_exponent(params, rng), draw_exponent(params, rng))
    alice, bob = powers(op, params.base_pair, exponents)
    return {
        "params": params_to_json(params),
        "alice_message": matrix_to_json(alice.first),
        "bob_message": matrix_to_json(bob.first),
    }


def _node(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _paths(obj, path=()):
    yield path
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield from _paths(value, path + (key,))


def _mutate(draw, obj):
    kind = draw(st.sampled_from(
        ("type", "drop", "size", "digits", "off_chain", "op", "caps")
    ))
    if kind in ("type", "drop"):
        path = draw(st.sampled_from(list(_paths(obj))[1:]))
        parent = _node(obj, path[:-1])
        if kind == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(st.sampled_from(
                (None, True, 1.5, 0, -1, "x", "0", [], {}, [["0"]], {"k": 1})
            ))
        return
    if kind in ("op", "caps"):
        field = "op" if kind == "op" else draw(st.sampled_from(("k", "N", "K")))
        obj["params"][field] = draw(st.sampled_from(
            ("circ", "star", "plus", "CIRC", None, 1, [])
            if kind == "op"
            else (0, -1, 1, 2, 3, 30, 31, 4096, 4097, 10**30, True, "3")
        ))
        return
    matrix = _node(obj, draw(st.sampled_from(_MATRICES)))
    rows = matrix["entries"]
    i = draw(st.integers(0, len(rows) - 1))
    j = draw(st.integers(0, len(rows[i]) - 1))
    if kind == "size":
        action = draw(st.sampled_from(("k", "drop_row", "add_row", "drop_entry", "add_entry")))
        if action == "k":
            matrix["k"] = draw(st.integers(0, 4))
        elif action == "drop_row":
            rows.pop(i)
        elif action == "add_row":
            rows.append(list(rows[i]))
        elif action == "drop_entry":
            rows[i].pop(j)
        else:
            rows[i].append("0")
    elif kind == "digits":
        rows[i][j] = draw(st.sampled_from(
            ("-0", "01", "+1", " 1", "1e3", "", "\u0661", "0x10", "9" * 4301, "-" + "9" * 400)
        ) | st.from_regex(r"-?[0-9]{1,30}", fullmatch=True))
    else:  # off_chain: a valid entry moved off its place on the chain
        rows[i][j] = str(int(rows[i][j]) + draw(st.sampled_from((-3, -1, 1, 3, -(10**6)))))


@settings(
    max_examples=150,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.data())
def test_attack_on_mutated_transcripts(data):
    """Every hostile transcript ends in a documented exit class: 0 with a
    result, or 3/4/5 with its error line and no result file; never a usage
    error or an uncaught exception."""
    obj = data.draw(_honest_transcripts())
    for _ in range(data.draw(st.integers(1, 3))):
        try:
            _mutate(data.draw, obj)
        except (KeyError, IndexError, TypeError, ValueError):
            break  # an earlier mutation removed what this one needed
    with tempfile.TemporaryDirectory() as tmp:
        transcript, result = Path(tmp) / "tr.json", Path(tmp) / "res.json"
        transcript.write_text(json.dumps(obj))
        err = io.StringIO()
        with redirect_stderr(err):
            code = run_cli("attack", "--transcript", str(transcript), "--out", str(result))
        if code == EXIT_OK:
            written = json.loads(result.read_text())
            assert set(written) == {"m_prime", "t", "op_count", "recovered_key"}
        else:
            assert code in _CATEGORY, (code, err.getvalue())
            assert err.getvalue().startswith(f"error:{_CATEGORY[code]}:"), err.getvalue()
            assert not result.exists()
