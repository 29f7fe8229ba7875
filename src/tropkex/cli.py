"""Command-line front end.

Subcommands:

  gen       draw public parameters and write them as JSON
  exchange  run a key exchange, write the transcript and the shared key
  attack    read a transcript, recover the key, write the result as JSON
  bench     run the timing/key-size experiment grid, write CSV

gen, exchange and bench take --seed (attack draws nothing); when
absent, the TROPKEX_SEED environment variable is used, and failing
that, seed 0.  Exit codes are 0 on success, 2 for usage errors, 3 for
I/O errors, 4 for malformed input (a TROPKEX_SEED that is not an
integer, or a file that breaks the format, is not UTF-8, holds an int
literal past the digit limit or nests too deeply to parse), 5 for attack
failures; the category is printed to stderr as ``error:<category>: <message>``.
An I/O error leaves no output file behind that the command created.

Every set of params is capped at k <= 30 and K <= 4096
(``protocol.MAX_K`` and ``protocol.MAX_EXPONENT_BITS``), and at an entry
bound N whose 2^(K+1) * N, the largest magnitude any written entry can
reach, has at most ``sys.get_int_max_str_digits()`` decimal digits (no
cap when that is 0).  All three are checked before any pair operation: a
params or transcript file asking for more is malformed input and exits
4, flags asking for more exit 2.  ``exchange --params`` takes k, N, K
and op from the file, so giving any of those flags with it exits 2.

The arguments after a subcommand's name go straight to that
subcommand's parser; the top-level parser only runs when the first
argument names no subcommand (none given, ``--help``, an unknown name),
so a usage error after a subcommand is reported under its own name,
``tropkex exchange: error: ...``.

Every JSON file is written by ``_json_text``, byte for byte what
``json.dumps(obj, indent=2)`` writes: two-space indent, keys in the
builders' order, no trailing newline in a file (stdout gets one).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from random import Random

from .attack import AttackError, attack_result_to_json, recover_key_targeting
from .bench import RunConfig, rows_to_csv, run_experiment
from .protocol import (
    KeyAgreementError,
    params_from_json,
    params_to_json,
    run_exchange,
    setup,
    transcript_from_json,
    transcript_to_json,
)
from .semidirect import SemigroupOpKind
from .tropical import FormatError, matrix_to_json

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_FORMAT = 4
EXIT_ATTACK = 5


def _resolve_seed(flag_value: int | None) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get("TROPKEX_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise FormatError(f"TROPKEX_SEED must be an integer, got {env!r}")
    return 0


def _k_list_arg(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        )
    if not values:
        raise argparse.ArgumentTypeError("at least one matrix dimension is required")
    return values


def _emit(*outputs: tuple[str, str | None]) -> None:
    # Writes each (payload, path) in turn, to stdout for a path of None or
    # "-".  When one fails, the files this call created are removed before
    # the OSError goes on, so an error:io exit leaves none of them behind;
    # a file that was already there stays, overwritten or not.
    created = []
    try:
        for payload, path in outputs:
            if path is None or path == "-":
                sys.stdout.write(payload)
                if not payload.endswith("\n"):
                    sys.stdout.write("\n")
                continue
            new = not os.path.exists(path)
            with open(path, "w") as handle:
                if new:
                    created.append(path)
                handle.write(payload)
    except OSError:
        for path in created:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def _json_text(obj, indent: str = "\n") -> str:
    # json.dumps(obj, indent=2) without its pure-Python encoder, for the
    # dicts the *_to_json builders return: keys and string values (field
    # names, "circ"/"star", str(int) decimals) need no escaping, ints are
    # written with str, and the only lists are a matrix's k >= 1 rows of
    # decimal strings, each written with one join.
    inner = indent + "  "
    if isinstance(obj, dict):
        items = (f'"{key}": {_json_text(value, inner)}' for key, value in obj.items())
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(obj, list):
        cell = '",' + inner + '  "'  # between two entries of a row
        row = '"' + inner + "]," + inner + "[" + inner + '  "'  # between two rows
        body = row.join(map(cell.join, obj))
        return "[" + inner + "[" + inner + '  "' + body + '"' + inner + "]" + indent + "]"
    return f'"{obj}"' if isinstance(obj, str) else str(obj)


def _load_json(path: str):
    # Every ValueError of the parser (bad syntax, undecodable bytes, an int
    # literal past the digit limit) and nesting past the recursion limit
    # mean a malformed file, not a usage error.
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"{path}: {exc}") from exc


class _Given(argparse.Action):
    # Stores the value like the default action and also records the flag,
    # so exchange can refuse one given alongside --params.
    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = (*namespace.given, option_string)


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.set_defaults(given=())
    parser.add_argument(
        "--N", type=int, default=1000, action=_Given, help="entry bound for M and H"
    )
    parser.add_argument(
        "--K", type=int, default=200, action=_Given, help="private exponent bit bound"
    )
    parser.add_argument(
        "--op", choices=["circ", "star"], default="circ", action=_Given,
        help="semigroup operation",
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parsing leaves the parser unchanged, and
    # building its four subparsers costs several times a parse.  Each
    # subcommand's parser is kept by name as ``subcommands``, for
    # ``cli_main`` to call directly.
    parser = argparse.ArgumentParser(
        prog="tropkex",
        description="Min-plus matrix key exchange and the attack that breaks it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate public protocol parameters")
    p_ex = sub.add_parser("exchange", help="run one key exchange")
    for p in (p_gen, p_ex):
        p.add_argument("--k", type=int, default=10, action=_Given, help="matrix dimension")
        _add_param_flags(p)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--out", default=None, help="params JSON path (default stdout)")

    p_ex.add_argument("--params", default=None, help="reuse params from a 'gen' file")
    p_ex.add_argument("--seed", type=int, default=None)
    p_ex.add_argument("--out", default=None, help="transcript JSON path (default stdout)")
    p_ex.add_argument(
        "--keys-out",
        default=None,
        help="shared-key JSON path (default stdout)",
    )

    p_at = sub.add_parser("attack", help="recover the key from a transcript")
    p_at.add_argument("--transcript", required=True, help="transcript JSON path")
    p_at.add_argument("--out", default=None, help="result JSON path (default stdout)")
    p_at.add_argument(
        "--target",
        choices=["alice", "bob"],
        default="alice",
        help="whose public message to search for",
    )
    p_at.add_argument(
        "--no-cache",
        action="store_true",
        help="reference variant: power every candidate from scratch",
    )

    p_bench = sub.add_parser("bench", help="run the experiment grid")
    p_bench.add_argument(
        "--k",
        required=True,
        type=_k_list_arg,
        help="comma-separated matrix dimensions, e.g. 5,10",
    )
    _add_param_flags(p_bench)
    p_bench.add_argument("--trials", type=int, default=40)
    p_bench.add_argument("--seed", type=int, default=None)
    p_bench.add_argument("--out", default=None, help="CSV path (default stdout)")

    parser.subcommands = sub.choices
    return parser


def _cmd_gen(args) -> int:
    rng = Random(_resolve_seed(args.seed))
    params = setup(args.k, args.N, args.K, SemigroupOpKind(args.op), rng)
    _emit((_json_text(params_to_json(params)), args.out))
    return EXIT_OK


def _cmd_exchange(args) -> int:
    if args.params is not None and args.given:
        flags = ", ".join(args.given)
        raise ValueError(f"{flags} cannot be given with --params, which sets them")
    rng = Random(_resolve_seed(args.seed))
    if args.params is not None:
        params = params_from_json(_load_json(args.params))
    else:
        params = setup(args.k, args.N, args.K, SemigroupOpKind(args.op), rng)
    transcript, key = run_exchange(params, rng)
    # Both parties derived this key; the file names it once per party.
    key_json = matrix_to_json(key)
    _emit(
        (_json_text(transcript_to_json(transcript)), args.out),
        (_json_text({"alice_key": key_json, "bob_key": key_json}), args.keys_out),
    )
    return EXIT_OK


def _cmd_attack(args) -> int:
    transcript = transcript_from_json(_load_json(args.transcript))
    result = recover_key_targeting(
        transcript, args.target, cached=not args.no_cache
    )
    _emit((_json_text(attack_result_to_json(result)), args.out))
    return EXIT_OK


def _cmd_bench(args) -> int:
    config = RunConfig(
        k_list=args.k,
        N=args.N,
        K=args.K,
        op=SemigroupOpKind(args.op),
        trials=args.trials,
        seed=_resolve_seed(args.seed),
    )
    rows = run_experiment(config)
    _emit((rows_to_csv(rows), args.out))
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "exchange": _cmd_exchange,
    "attack": _cmd_attack,
    "bench": _cmd_bench,
}


def cli_main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        if argv and argv[0] in parser.subcommands:
            command, args = argv[0], parser.subcommands[argv[0]].parse_args(argv[1:])
        else:
            args = parser.parse_args(argv)
            command = args.command
    except SystemExit as exc:
        # argparse already printed usage; translate to a return code.
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _COMMANDS[command](args)
    except OSError as exc:
        print(f"error:io: {exc}", file=sys.stderr)
        return EXIT_IO
    except FormatError as exc:
        print(f"error:format: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (AttackError, KeyAgreementError) as exc:
        print(f"error:attack: {exc}", file=sys.stderr)
        return EXIT_ATTACK
    except ValueError as exc:
        print(f"error:usage: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
