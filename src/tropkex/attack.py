"""Passive key recovery from an intercepted transcript.

The first components M_1, M_2, M_3, ... of the powers (M, H)^l form a
non-increasing chain under the min-plus order.  An eavesdropper who sees
a public message A therefore:

  1. squares (M, H) repeatedly until the chain descends to A or below,
     which bounds the hidden exponent by 2^t (doubling phase), then
  2. bisects [1, 2^t], rebuilding each probe power from the stored
     squares, until some m' with M_{m'} == A is found, then
  3. derives the shared key from (A, P_E) = (M, H)^{m'} and the other
     party's public message, exactly as a legitimate party would.

The chain may plateau, in which case m' can differ from the true private
exponent; any index whose first component equals A yields the same key,
so the attack does not care.

With the square cache the whole recovery takes at most K^2 + K pair
applications; a reference variant that recomputes every probe power from
scratch stays within 2K^2 + K.  Both figures are enforced on the measured
counters, not estimated.

The recovery is reliable over circ.  Over star with k >= 2 the squares
and probe products are bracketing-dependent (star is not associative;
see ``semidirect``), so probes need not land on the monotone chain and
the search can raise ``ChainViolationError`` or ``ExponentNotFoundError``
even on honestly generated transcripts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .protocol import PartyState, Transcript, derive_shared_key
from .semidirect import (
    OpCounter,
    SemigroupOpKind,
    SemigroupPair,
    SquareCache,
    apply,
    power,
    power_from_cache,
)
from .tropical import (
    ChainOrdering,
    DimensionMismatchError,
    TropicalMatrix,
    chain_compare,
    matrix_to_json,
)


class AttackError(Exception):
    """Base class for recovery failures."""


class ChainViolationError(AttackError):
    """A probe was incomparable with the target: the intercepted matrix
    cannot lie on the power chain of (M, H)."""


class ExponentNotFoundError(AttackError):
    """No chain index matching the target exists within the stated bound."""


@dataclass(frozen=True, slots=True)
class AttackResult:
    """Recovered exponent m', doubling bound t, measured operation count,
    the full recovered pair (A, P_E), and the recovered shared key."""

    m_prime: int
    t: int
    op_count: int
    eve_pair: SemigroupPair
    recovered_key: TropicalMatrix


def doubling_phase(
    op: SemigroupOpKind,
    m: TropicalMatrix,
    h: TropicalMatrix,
    target: TropicalMatrix,
    max_levels: int,
    counter: OpCounter | None = None,
) -> tuple[int, SquareCache]:
    """Square (M, H) until the chain reaches the target or goes below it.

    Returns the least t with M_{2^t} <= target together with the ladder of
    squares up to level t.  Honest targets satisfy t <= K because the
    hidden exponent is below 2^K.  Costs at most ``max_levels``
    applications.
    """
    if max_levels < 1:
        raise ValueError("max_levels must be >= 1")
    if target.k != m.k:
        raise DimensionMismatchError(
            f"target is {target.k}x{target.k}, expected {m.k}"
        )
    base = SemigroupPair(m, h)
    squares = [base]
    for level in range(max_levels + 1):
        relation = chain_compare(squares[level].first, target)
        if relation is ChainOrdering.INCOMPARABLE:
            raise ChainViolationError(
                f"chain element at level {level} is incomparable with the target; "
                "the intercepted matrix was not generated from these parameters"
            )
        if relation in (ChainOrdering.LESS, ChainOrdering.EQUAL):
            return level, SquareCache(op, base, tuple(squares))
        if level == max_levels:
            raise ExponentNotFoundError(
                f"chain never descended to the target within 2^{max_levels}; "
                "the transcript is malformed or the bound is wrong"
            )
        squares.append(apply(op, squares[level], squares[level], counter))
    raise AssertionError("unreachable")


def _bisect_chain(
    op: SemigroupOpKind,
    cache: SquareCache,
    target: TropicalMatrix,
    t: int,
    counter: OpCounter | None,
    cached: bool,
) -> tuple[int, SemigroupPair]:
    """Bisect [1, 2^t] for an exponent whose first component equals the target.

    Probes compare against the target with ``chain_compare``; above means
    search right, below means search left.  With ``cached`` each probe is
    assembled from the square ladder (at most t - 1 applications each);
    otherwise each probe is powered from scratch (at most 2t each), which
    exists as the reference cost baseline.  Returns the matched exponent
    with the probe pair that hit it, so callers get (A, P_E) without
    re-running the powering.
    """
    lo, hi = 1, 1 << t
    while lo <= hi:
        mid = (lo + hi) // 2
        if cached:
            probe = power_from_cache(cache, mid, counter)
        else:
            probe = power(op, cache.base, mid, counter)
        relation = chain_compare(probe.first, target)
        if relation is ChainOrdering.EQUAL:
            return mid, probe
        if relation is ChainOrdering.GREATER:
            # Chain is decreasing: probe above target means mid is too early.
            lo = mid + 1
        elif relation is ChainOrdering.LESS:
            hi = mid - 1
        else:
            raise ChainViolationError(
                f"probe at exponent {mid} is incomparable with the target"
            )
    raise ExponentNotFoundError(
        "bisection exhausted without an exact match; "
        "the target is not a first component on this chain"
    )


def find_chain_exponent(
    op: SemigroupOpKind,
    m: TropicalMatrix,
    h: TropicalMatrix,
    target: TropicalMatrix,
    max_levels: int,
    counter: OpCounter | None = None,
    cached: bool = True,
) -> tuple[int, int, SemigroupPair]:
    """Both attack phases in sequence: returns (m', t, (M, H)^{m'})."""
    t, cache = doubling_phase(op, m, h, target, max_levels, counter)
    m_prime, pair = _bisect_chain(op, cache, target, t, counter, cached)
    return m_prime, t, pair


def recover_key_targeting(
    transcript: Transcript,
    target: Literal["alice", "bob"],
    cached: bool = True,
) -> AttackResult:
    """Recover the shared key by searching the chain for one party's message.

    The attack is symmetric in the two parties; both targets recover the
    same key even when the chain plateaus and the found exponents differ
    from the true ones.
    """
    params = transcript.params
    if target == "alice":
        searched, other = transcript.alice_message, transcript.bob_message
    elif target == "bob":
        searched, other = transcript.bob_message, transcript.alice_message
    else:
        raise ValueError(f"target must be 'alice' or 'bob', got {target!r}")
    counter = OpCounter()
    m_prime, t, eve_pair = find_chain_exponent(
        params.op, params.M, params.H, searched, params.K, counter, cached
    )
    eve = PartyState(exponent=m_prime, pair=eve_pair)
    key = derive_shared_key(params, eve, other)
    return AttackResult(
        m_prime=m_prime,
        t=t,
        op_count=counter.count,
        eve_pair=eve_pair,
        recovered_key=key,
    )


def attack_result_to_json(result: AttackResult) -> dict:
    # m' can exceed 64 bits at realistic K, hence the decimal string.
    return {
        "m_prime": str(result.m_prime),
        "t": result.t,
        "op_count": result.op_count,
        "recovered_key": matrix_to_json(result.recovered_key),
    }
