"""The two-party key exchange over the pair semigroup.

Setup publishes matrices M, H with entries in [-N, N] and an exponent
bit bound K.  Each party picks a private exponent e < 2^K, computes
(M, H)^e = (P, Q), and sends P only.  Both sides then derive the first
component of (M, H)^(m+n), each composing the partner's public matrix
(as the left factor) with its own full pair; the second component of the
partner's pair is never needed, which is the whole point of the scheme.

A ``Transcript`` is exactly what a passive eavesdropper sees: the public
parameters plus the two exchanged matrices.  Private exponents are never
serialized.

Every honest powering goes through ``party_powers``: under circ
``semidirect.periodic_powers`` (its docstring has the walk, its cost and
its packed widths), under star the least-bit-first pass ``powers``.

Under circ the derived keys provably agree.  Under star they need not:
star is not associative for k >= 2 (see ``semidirect``), so the two
parties' powers are not powers of a common element in any usable sense,
and ``run_exchange`` raises ``KeyAgreementError`` when the derivations
differ.  Over 1x1 matrices star behaves, since transposition is trivial
there.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from random import Random
from typing import Sequence

from .semidirect import SemigroupOpKind, SemigroupPair, periodic_powers, powers, product_first
from .tropical import (
    DimensionMismatchError,
    FormatError,
    TropicalMatrix,
    _check_matrices,
    matrix_from_json,
    matrix_to_json,
    random_matrix,
)


# Rules on every ``ProtocolParams``, however made (``setup``, a params or
# transcript file, CLI flags), checked when it is made and so before any
# pair operation (``setup`` checks before it draws the matrices): k, N and
# K are ints, not bools, op a ``SemigroupOpKind``, k, K >= 1, N >= 0, and
# two caps, since a k-by-k operation costs ~k^3 and a recovery up to ~2K
# of them, so no input can request unbounded work.  The suggested sizes
# (k up to 30, K = 200) are within both.
#
# A third cap keeps every entry of a power or key writable with str(): it
# lies in [-2^(K+1)*N, N].  Under either law each component of p * q is an
# oplus of otimes products of a component of p with one of q (or with
# B = H oplus I, which is at least min(H, 0)), so entries of p at least -a*N
# and of q at least -b*N give entries of p * q at least -(a + b)*N: a
# product of e copies of (M, H), however bracketed, is at least -e*N.  Its
# first component is at most q's (an oplus term), so at most N.  A party's
# power has e < 2^K, an attack square or m' has e <= 2^K, and a key is the
# first component of the product of two of these.  So params are refused
# when 2^(K+1)*N has more decimal digits than ``sys.get_int_max_str_digits()``
# (0 means no limit).
MAX_K = 30
MAX_EXPONENT_BITS = 4096


def _check_scalars(k: int, N: int, K: int, op: SemigroupOpKind) -> None:
    # types first, so no comparison below meets a str or None
    for name, value in (("k", k), ("N", N), ("K", K)):
        if type(value) is not int:
            raise ValueError(f"'{name}' must be an integer")
    if not isinstance(op, SemigroupOpKind):
        raise ValueError(f"unknown operation kind: {op!r}")
    for name, value, least in (("k", k, 1), ("N", N, 0), ("K", K, 1)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}")
    for name, value, cap in (("k", k, MAX_K), ("K", K, MAX_EXPONENT_BITS)):
        if value > cap:
            raise ValueError(f"{name} is {value}, above the cap of {cap}")
    # 2^3 < 10, so a bound of at most 3 * limit bits has at most limit digits
    limit, bound = sys.get_int_max_str_digits(), N << (K + 1)
    if limit and bound.bit_length() > 3 * limit and bound >= 10**limit:
        raise ValueError(
            f"entries may reach 2^{K + 1} * N, more than {limit} decimal digits "
            f"(the interpreter's int-to-str limit) for this {N.bit_length()}-bit N"
        )


class KeyAgreementError(RuntimeError):
    """The two parties derived different keys; the exchange invariant broke."""


@dataclass(frozen=True, slots=True)
class ProtocolParams:
    """Public setup: dimension k, entry bound N, exponent bit bound K,
    the operation in use, and the shared matrices M and H."""

    k: int
    N: int
    K: int
    op: SemigroupOpKind
    M: TropicalMatrix
    H: TropicalMatrix

    def __post_init__(self):
        _check_scalars(self.k, self.N, self.K, self.op)
        _check_matrices(self, "M", "H")
        if self.M.k != self.k or self.H.k != self.k:
            raise DimensionMismatchError("M and H must be k-by-k")
        for mat in (self.M, self.H):
            for entry in mat.entries:
                if abs(entry) > self.N:
                    raise ValueError(f"entry {entry} outside [-{self.N}, {self.N}]")

    @property
    def base_pair(self) -> SemigroupPair:
        return SemigroupPair(self.M, self.H)


@dataclass(frozen=True, slots=True)
class PartyState:
    """One party's private exponent and full pair (M, H)^exponent.

    ``public_message`` is the only part that ever leaves the party.
    """

    exponent: int
    pair: SemigroupPair

    @property
    def public_message(self) -> TropicalMatrix:
        return self.pair.first


@dataclass(frozen=True, slots=True)
class Transcript:
    """What the public channel carries: params and both first components."""

    params: ProtocolParams
    alice_message: TropicalMatrix
    bob_message: TropicalMatrix

    def __post_init__(self):
        if not isinstance(self.params, ProtocolParams):
            raise TypeError(f"'params' must be a ProtocolParams, not {type(self.params).__name__}")
        _check_matrices(self, "alice_message", "bob_message")
        for name in ("alice_message", "bob_message"):
            if (n := getattr(self, name).k) != self.params.k:
                raise DimensionMismatchError(f"'{name}' is {n}x{n}, expected {self.params.k}")


def setup(k: int, N: int, K: int, op: SemigroupOpKind, rng: Random) -> ProtocolParams:
    """Draw public matrices M then H uniformly with entries in [-N, N]."""
    _check_scalars(k, N, K, op)
    m = random_matrix(k, N, rng)
    h = random_matrix(k, N, rng)
    return ProtocolParams(k=k, N=N, K=K, op=op, M=m, H=h)


def draw_exponent(params: ProtocolParams, rng: Random) -> int:
    """A private exponent, uniform over [1, 2^K - 1]: one ``rng.randint`` call."""
    return rng.randint(1, (1 << params.K) - 1)


def party_powers(params: ProtocolParams, exponents: Sequence[int]) -> tuple[SemigroupPair, ...]:
    """(M, H)^e for every e in ``exponents``: from ``periodic_powers`` under
    circ, which never costs more k^3 products than the pass ``powers`` and
    a fallback to it at most twice, and from ``powers`` under star."""
    if params.op is SemigroupOpKind.CIRC:
        return periodic_powers(params.base_pair, exponents)
    return powers(params.op, params.base_pair, exponents)


def derive_shared_key(
    params: ProtocolParams,
    own_pair: SemigroupPair,
    other_message: TropicalMatrix,
) -> TropicalMatrix:
    """First component of (partner_pair combined with ``own_pair``).

    The partner enters as the left factor, so only its public first
    component is needed (see ``semidirect``).  Powers of the shared base
    commute, so both parties land on the first component of (M, H)^(m+n).
    """
    if other_message.k != params.k:
        raise DimensionMismatchError(
            f"partner message is {other_message.k}x{other_message.k}, expected {params.k}"
        )
    return product_first(params.op, other_message, own_pair)


def run_parties(
    params: ProtocolParams, rng: Random
) -> tuple[PartyState, PartyState, TropicalMatrix]:
    """Alice, Bob and their shared key.

    Both exponents are drawn from ``rng`` with ``draw_exponent``, Alice's
    first; then one ``party_powers`` call serves both parties, so the
    walk to the chain's period (or the squarings of the fallback pass) is
    paid once.  Raises KeyAgreementError if the two derived keys differ.
    """
    exponents = (draw_exponent(params, rng), draw_exponent(params, rng))
    alice, bob = map(PartyState, exponents, party_powers(params, exponents))
    key = derive_shared_key(params, alice.pair, bob.public_message)
    if key != derive_shared_key(params, bob.pair, alice.public_message):
        raise KeyAgreementError(
            f"parties disagree on the shared key (k={params.k}, K={params.K})"
        )
    return alice, bob, key


def run_exchange(params: ProtocolParams, rng: Random) -> tuple[Transcript, TropicalMatrix]:
    """Run a full exchange (see ``run_parties``).

    Returns the eavesdropper-visible transcript and the shared key, which
    both parties derived.  Raises KeyAgreementError if their derivations
    differ, which under circ would mean the scheme itself is broken.
    """
    alice, bob, key = run_parties(params, rng)
    transcript = Transcript(
        params=params,
        alice_message=alice.public_message,
        bob_message=bob.public_message,
    )
    return transcript, key


def params_to_json(params: ProtocolParams) -> dict:
    return {
        "k": params.k,
        "N": params.N,
        "K": params.K,
        "op": params.op.value,
        "M": matrix_to_json(params.M),
        "H": matrix_to_json(params.H),
    }


def params_from_json(obj) -> ProtocolParams:
    if not isinstance(obj, dict):
        raise FormatError("params must be a JSON object")
    missing = {"k", "N", "K", "op", "M", "H"} - obj.keys()
    if missing:
        raise FormatError(f"params object missing {sorted(missing)}")
    try:
        return ProtocolParams(
            k=obj["k"],
            N=obj["N"],
            K=obj["K"],
            op=SemigroupOpKind(obj["op"]),
            M=matrix_from_json(obj["M"]),
            H=matrix_from_json(obj["H"]),
        )
    except (ValueError, DimensionMismatchError) as exc:
        raise FormatError(f"invalid protocol params: {exc}") from exc


def transcript_to_json(transcript: Transcript) -> dict:
    return {
        "params": params_to_json(transcript.params),
        "alice_message": matrix_to_json(transcript.alice_message),
        "bob_message": matrix_to_json(transcript.bob_message),
    }


def transcript_from_json(obj) -> Transcript:
    if not isinstance(obj, dict):
        raise FormatError("transcript must be a JSON object")
    missing = {"params", "alice_message", "bob_message"} - obj.keys()
    if missing:
        raise FormatError(f"transcript object missing {sorted(missing)}")
    params = params_from_json(obj["params"])
    alice_message = matrix_from_json(obj["alice_message"])
    bob_message = matrix_from_json(obj["bob_message"])
    try:
        return Transcript(params=params, alice_message=alice_message, bob_message=bob_message)
    except DimensionMismatchError as exc:
        raise FormatError(str(exc)) from exc
