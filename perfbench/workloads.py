"""The three seeded workloads: their inputs, one operation, and its check.

Every operation is one in-process call of ``tropkex.cli.cli_main(argv)``
on files in the run's working directory, so the whole program is
measured from outside: argument parsing, JSON loading, the protocol and
attack layers, the pair kernels and the result writing.  Only the call
itself is timed; the check reads the files afterwards.

An operation ends in one of three states:

* ``ok``: it did what the workload asks of it.
* ``failed``: the program refused or crashed without producing a wrong
  answer (a non-zero exit where success was due, or the wrong exit class
  on hostile input).  Failures count in ``attempted`` and in the timings.
* ``incorrect``: the program produced a wrong answer (keys that disagree,
  a wrong recovered key, an op count over the bound, or a result written
  for hostile input).  Any incorrect operation makes the run incorrect.
"""

from __future__ import annotations

import copy
import io
import json
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from random import Random
from time import perf_counter

OK, FAILED, INCORRECT = "ok", "failed", "incorrect"

N_BOUND = 1000
K_BITS = 200


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run as specified (not a program failure)."""


@dataclass(frozen=True)
class Outcome:
    start: float  # perf_counter() when the call began
    seconds: float
    status: str
    kind: str
    detail: str
    result: dict | None = None  # the attack's result JSON, when it wrote one


@dataclass(frozen=True)
class Case:
    """One prepared operation: its kind, input file (if any), and the
    values the check needs."""

    kind: str
    path: str | None = None
    seed: int | None = None
    key: dict | None = None
    K: int | None = None  # exponent bit bound the attack is given


def invoke(cli, argv: list[str]) -> tuple[int | None, tuple[float, float], str]:
    """Call ``cli.cli_main(argv)`` with both streams captured.

    The function is looked up on the module at every call, so a traced
    run sees its wrapper.  Returns (exit code or None if it raised,
    (start, seconds) of the call, captured stderr).
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.cli_main(argv)
        except Exception:  # a crash is a failed operation, not a benchmark stop
            code = None
            err.write(traceback.format_exc())
        seconds = perf_counter() - start
    return code, (start, seconds), err.getvalue()


def _first_line(text: str) -> str:
    """The error line of captured stderr: the last line of a traceback,
    else the first line."""
    lines = text.strip().splitlines()
    if not lines:
        return ""
    return (lines[-1] if lines[0].startswith("Traceback") else lines[0])[:160]


def _load(path: Path):
    with open(path) as handle:
        return json.load(handle)


def _dump(obj, path: Path) -> str:
    path.write_text(json.dumps(obj, indent=2))
    return str(path)


def _exchange_argv(k: int, seed: int, transcript: Path, keys: Path) -> list[str]:
    return [
        "exchange", "--k", str(k), "--N", str(N_BOUND), "--K", str(K_BITS),
        "--op", "circ", "--seed", str(seed),
        "--out", str(transcript), "--keys-out", str(keys),
    ]


def _honest_transcript(cli, k: int, seed: int, workdir: Path, tag: str) -> tuple[Path, dict]:
    """Run one exchange for set-up; returns the transcript path and the key."""
    transcript, keys = workdir / f"transcript-{tag}.json", workdir / f"keys-{tag}.json"
    code, _, err = invoke(cli, _exchange_argv(k, seed, transcript, keys))
    if code != 0:
        raise BenchmarkError(f"set-up exchange {tag} exited {code}: {_first_line(err)}")
    pair = _load(keys)
    if pair["alice_key"] != pair["bob_key"]:
        raise BenchmarkError(f"set-up exchange {tag}: the parties' keys disagree")
    return transcript, pair["alice_key"]


class Exchange:
    """``tropkex exchange --k 10 --K 200`` with a fresh seed per operation."""

    name = "exchange"
    k = 10
    probe_kinds = ()
    trace_ops = 16
    pool = 4096  # seeds drawn up front; the loop cycles if a run needs more

    def setup(self, cli, seed: int, workdir: Path) -> list[Case]:
        rng = Random(f"exchange:{seed}")
        cases = [Case("honest", seed=rng.getrandbits(63)) for _ in range(self.pool)]
        # One untimed warm-up exchange, checked like any other, so that
        # lazy set-up in the program finishes before timing starts.
        warm = self.run(cli, Case("honest", seed=rng.getrandbits(63)), workdir)
        if warm.status != OK:
            raise BenchmarkError(f"warm-up exchange {warm.status}: {warm.detail}")
        return cases

    def run(self, cli, case: Case, workdir: Path) -> Outcome:
        transcript, keys = workdir / "transcript.json", workdir / "keys.json"
        for path in (transcript, keys):
            path.unlink(missing_ok=True)
        code, timing, err = invoke(cli, _exchange_argv(self.k, case.seed, transcript, keys))
        if code != 0:
            return Outcome(*timing, FAILED, case.kind, f"exit {code}: {_first_line(err)}")
        try:
            pair = _load(keys)
            params = _load(transcript)["params"]
        except (OSError, ValueError, KeyError) as exc:
            return Outcome(*timing, INCORRECT, case.kind, f"exit 0 without valid output: {exc}")
        if pair.get("alice_key") != pair.get("bob_key"):
            return Outcome(*timing, INCORRECT, case.kind, "alice_key != bob_key")
        if (params.get("k"), params.get("K"), params.get("op")) != (self.k, K_BITS, "circ"):
            return Outcome(*timing, INCORRECT, case.kind, f"transcript params {params}")
        return Outcome(*timing, OK, case.kind, "")


class Recover:
    """``tropkex attack`` on honest k=10, K=200 transcripts made in set-up."""

    name = "recover"
    k = 10
    probe_kinds = ()
    trace_ops = 3
    transcripts = 8

    def setup(self, cli, seed: int, workdir: Path) -> list[Case]:
        rng = Random(f"recover:{seed}")
        cases = []
        for i in range(self.transcripts):
            path, key = _honest_transcript(cli, self.k, rng.getrandbits(63), workdir, str(i))
            cases.append(Case("honest", path=str(path), key=key, K=K_BITS))
        return cases

    def run(self, cli, case: Case, workdir: Path) -> Outcome:
        out = workdir / "result.json"
        out.unlink(missing_ok=True)
        code, timing, err = invoke(cli, ["attack", "--transcript", case.path, "--out", str(out)])
        if code != 0:
            return Outcome(*timing, FAILED, case.kind, f"exit {code}: {_first_line(err)}")
        try:
            result = _load(out)
            op_count, t = result["op_count"], result["t"]
            recovered = result["recovered_key"]
        except (OSError, ValueError, KeyError) as exc:
            return Outcome(*timing, INCORRECT, case.kind, f"exit 0 without a valid result: {exc}")
        if recovered != case.key:
            detail = "recovered_key differs from the exchanged key"
            return Outcome(*timing, INCORRECT, case.kind, detail, result)
        bound = case.K * case.K + case.K
        if not (isinstance(op_count, int) and isinstance(t, int) and 1 <= op_count <= bound):
            detail = f"op_count {op_count!r} outside [1, K^2+K={bound}]"
            return Outcome(*timing, INCORRECT, case.kind, detail, result)
        return Outcome(*timing, OK, case.kind, "", result)


# Exit code and the stderr category that must accompany it on hostile input.
_REJECT_CLASSES = {4: "error:format:", 5: "error:attack:"}


def _malform(transcript: dict, rng: Random) -> str:
    """One seeded structural defect, returned as the file's text."""
    bad = copy.deepcopy(transcript)
    k = bad["params"]["k"]
    choice = rng.randrange(6)
    if choice == 0:
        del bad["bob_message"]
    elif choice == 1:
        bad["alice_message"]["entries"][rng.randrange(k)].pop()
    elif choice == 2:
        row = bad["alice_message"]["entries"][rng.randrange(k)]
        col = rng.randrange(k)
        row[col] = int(row[col])
    elif choice == 3:
        bad["params"]["op"] = "plus"
    elif choice == 4:
        bad["alice_message"]["k"] = k + 1
    else:
        text = json.dumps(bad, indent=2)
        return text[: rng.randrange(len(text) // 4, len(text) // 2)]
    return json.dumps(bad, indent=2)


class Reject:
    """``tropkex attack`` at k=5 on a fixed, seeded mix of hostile transcripts.

    Each cycle holds five tampered honest messages, one stationary chain
    and one malformed file.  With tampered cases the majority, the median
    operation is always a tampered one (the full search on hostile input)
    whatever partial cycle a run ends on.

    One transcript with an over-long entry is made as well and run once
    per benchmark run as an untimed probe, outside the loop: the program
    exits 2 on it rather than 4 (a known defect), and an operation that
    fails on every run does not belong in a timed loop, whose counts must
    agree between runs.  The probe's outcome is reported, not hidden.
    """

    name = "reject"
    k = 5
    cycles = 8
    tampered_per_cycle = 5
    stationary_K = 4096
    overlong_digits = (4301, 4400)  # just past CPython's int-from-str digit limit
    trace_ops = 16
    order = ("tampered", "stationary", "tampered", "tampered", "malformed", "tampered",
             "tampered")
    probe_kinds = ("overlong",)  # run once, untimed; see the class docstring

    def setup(self, cli, seed: int, workdir: Path) -> list[Case]:
        rng = Random(f"reject:{seed}")
        k = self.k
        cases = []
        for c in range(self.cycles):
            path, _ = _honest_transcript(cli, k, rng.getrandbits(63), workdir, f"honest-{c}")
            honest = _load(path)
            made = {"tampered": []}
            # An honest message with one entry moved by +-1: off the chain.
            for n, pick in enumerate(rng.sample(range(2 * k * k), self.tampered_per_cycle)):
                bad = copy.deepcopy(honest)
                entry, sign = divmod(pick, 2)
                row = bad["alice_message"]["entries"][entry // k]
                row[entry % k] = str(int(row[entry % k]) + (1 if sign else -1))
                path = _dump(bad, workdir / f"tampered-{c}-{n}.json")
                made["tampered"].append(Case("tampered", path, K=K_BITS))
            # A stationary chain: with entries of M in [0, N] and H all N,
            # (M, H) squares to itself, so a target one below M is never
            # reached and doubling runs all K levels.
            m = [[str(rng.randint(0, N_BOUND)) for _ in range(k)] for _ in range(k)]
            h = [[str(N_BOUND)] * k for _ in range(k)]
            target = [[str(int(x) - 1) for x in row] for row in m]
            stationary = {
                "params": {"k": k, "N": N_BOUND, "K": self.stationary_K, "op": "circ",
                           "M": {"k": k, "entries": m}, "H": {"k": k, "entries": h}},
                "alice_message": {"k": k, "entries": target},
                "bob_message": {"k": k, "entries": m},
            }
            path = _dump(stationary, workdir / f"stationary-{c}.json")
            made["stationary"] = [Case("stationary", path, K=self.stationary_K)]
            malformed = workdir / f"malformed-{c}.json"
            malformed.write_text(_malform(honest, rng))
            made["malformed"] = [Case("malformed", str(malformed))]
            cases.extend(made[kind].pop(0) for kind in self.order)
        # An entry too long for int(): the loader must reject it as format.
        long = copy.deepcopy(honest)
        digits = rng.randint(*self.overlong_digits)
        text = str(rng.randint(1, 9)) + "".join(str(rng.randint(0, 9)) for _ in range(digits - 1))
        long["alice_message"]["entries"][rng.randrange(k)][rng.randrange(k)] = text
        cases.append(Case("overlong", _dump(long, workdir / "overlong.json")))
        return cases

    def run(self, cli, case: Case, workdir: Path) -> Outcome:
        out = workdir / "result.json"
        out.unlink(missing_ok=True)
        code, timing, err = invoke(cli, ["attack", "--transcript", case.path, "--out", str(out)])
        if code == 0 or out.exists():
            detail = f"exit {code}, result written: {out.exists()}, on hostile input"
            return Outcome(*timing, INCORRECT, case.kind, detail)
        category = _REJECT_CLASSES.get(code)
        if category and any(line.startswith(category) for line in err.splitlines()):
            return Outcome(*timing, OK, case.kind, "")
        return Outcome(*timing, FAILED, case.kind, f"exit {code}: {_first_line(err)}")


WORKLOADS = {w.name: w for w in (Exchange, Recover, Reject)}
