import json
import subprocess
import sys

from tropkex import matrix_from_json, params_from_json, transcript_from_json
from tropkex.cli import EXIT_ATTACK, EXIT_FORMAT, EXIT_IO, EXIT_OK, EXIT_USAGE, cli_main


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


def test_error_exit_codes(tmp_path, capsys):
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

    # usage errors from argparse
    assert run_cli("no-such-command") == EXIT_USAGE
    assert run_cli("bench", "--k", "2,x", "--out", "t.csv") == EXIT_USAGE
    assert run_cli("bench") == EXIT_USAGE
    capsys.readouterr()


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
