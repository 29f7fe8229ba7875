import hashlib
import io
import json
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr
from pathlib import Path
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tropkex import (
    SemigroupOpKind,
    draw_exponent,
    matrix_from_json,
    matrix_to_json,
    params_from_json,
    params_to_json,
    powers,
    semidirect,
    setup,
    transcript_from_json,
)
from tropkex import cli, protocol
from tropkex.cli import EXIT_ATTACK, EXIT_FORMAT, EXIT_IO, EXIT_OK, EXIT_USAGE, cli_main
from tropkex.protocol import MAX_EXPONENT_BITS, MAX_K
from tropkex.semidirect import product_first


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


# sha256 of the transcript and keys files ``tropkex exchange --k 10 --N 1000
# --K 200 --op circ --seed S`` wrote when both parties powered with the
# least-bit-first pass alone; the period walk must reproduce them byte for
# byte.
PINNED_EXCHANGES = {
    1: ("877caa6c807624e72894ad1db86ce87008854705ad90d84038d7a7fd75ba4fd6",
        "72cbc6cea7f3ec30103f93065303468bea5c1c8e8a93cc4a922e3e19463a1096"),
    2: ("0067b8a16d5bd9430c9e47c052c9fa75d359a3c850f73c0087e935c80ffb33cc",
        "58611b4fd71ff01940909997b4be41b71da09624f3cfc950a26217eb98e094de"),
    3: ("f6fdb60097e57ba340d3ab7a6a590391278818559433f7045c8fcbd1e22ce5a2",
        "a6e76f5d67501914657a8e1a10f40ea5d02082cd448e6c39fc078a560f08a6ac"),
    4: ("928771abae9c3ee05a06f2a7d1b65797d84d7871b99aef4599faf67ad72b20f9",
        "59563247c71191dc935e9daf29eada344506745215ee118b2266d1f7929e9be1"),
    5: ("dc68ddbb9ed526963a5ab6d177cb6f23ee0ecd6f9d96eeed84e5c34a0fc64175",
        "9d5b06a33dd801f8158a499f2d3d70ba41e4529dd92bd3f697d3a287dae95275"),
}


def test_exchange_files_are_pinned(tmp_path):
    for seed, expected in PINNED_EXCHANGES.items():
        transcript_path, keys_path = tmp_path / f"tr{seed}.json", tmp_path / f"keys{seed}.json"
        assert run_cli(
            "exchange", "--k", "10", "--N", "1000", "--K", "200", "--op", "circ",
            "--seed", str(seed), "--out", str(transcript_path), "--keys-out", str(keys_path),
        ) == EXIT_OK
        digests = tuple(
            hashlib.sha256(path.read_bytes()).hexdigest() for path in (transcript_path, keys_path)
        )
        assert digests == expected, seed


def test_exchange_long_transient_params(tmp_path, monkeypatch):
    """Params whose circ chain first repeats only after 1 038 steps, at the
    largest K a params file may ask for: the exchange still succeeds, gives
    what the least-bit-first pass gives, and makes exactly the 1 038
    applications of the walk to that repeat."""
    params = setup(2, 10**6, MAX_EXPONENT_BITS, SemigroupOpKind.CIRC, Random(1997))
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps(params_to_json(params)))
    calls = 0
    op_circ = semidirect.op_circ

    def counted(p, q):
        nonlocal calls
        calls += 1
        return op_circ(p, q)

    monkeypatch.setattr(semidirect, "op_circ", counted)
    transcript_path, keys_path = tmp_path / "tr.json", tmp_path / "keys.json"
    assert run_cli(
        "exchange", "--params", str(params_path), "--seed", "3",
        "--out", str(transcript_path), "--keys-out", str(keys_path),
    ) == EXIT_OK
    monkeypatch.setattr(semidirect, "op_circ", op_circ)

    rng = Random(3)
    exponents = (draw_exponent(params, rng), draw_exponent(params, rng))
    alice, bob = powers(SemigroupOpKind.CIRC, params.base_pair, exponents)
    assert calls == 1038
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
