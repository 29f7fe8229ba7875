"""Passive key recovery from an intercepted transcript.

The first components M_1, M_2, M_3, ... of the powers (M, H)^l form a
non-increasing chain under the min-plus order.  An eavesdropper who sees
a public message A therefore:

  1. squares (M, H) repeatedly until the chain descends to A or below,
     which bounds the hidden exponent by 2^t (doubling phase), then,
     under circ with t >= 2, refuses A unless it lies in the column
     space of M_a, a = 2^(t-1) (off-chain test), then
  2. descends the stored squares from the top bit down (binary lifting),
     keeping each square whose product with the kept power still lies
     above A, which pins the least m' with M_{m'} == A, then
  3. derives the shared key from (A, P_E) = (M, H)^{m'} and the other
     party's public message, exactly as a legitimate party would.

The off-chain test is exact.  Under circ M_{m+1} = M_m otimes B from
m = 2 on, B = H oplus I, so M_m = M_a otimes B^(m-a) for m >= a >= 2;
and M_a lies strictly above A, so any m with M_m == A exceeds a.  A
target on the chain always passes it, so honest recoveries are
unchanged, and a target it refuses costs t applications plus two k^3
products instead of the search's further t.

The chain may plateau, in which case m' can differ from the true private
exponent; any index whose first component equals A yields the same key,
so the attack does not care.

Descending the stored squares, the whole recovery takes at most 2K pair
applications (t to double, t to descend) and the off-chain test's two
products; a reference variant that powers every candidate from scratch
stays within 2K^2 + K.  Each phase counts the applications it makes,
and the tests check those counts against the ones they take by wrapping
the pair laws.

The recovery is reliable over circ.  Over star with k >= 2 the squares
and candidate products are bracketing-dependent (star is not
associative; see ``semidirect``), so candidates need not land on the
monotone chain and the search can raise ``ChainViolationError`` or
``ExponentNotFoundError`` even on honestly generated transcripts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .protocol import ProtocolParams, Transcript, derive_shared_key
from .semidirect import SemigroupOpKind, SemigroupPair, _pass_cost, apply, power
from .tropical import (
    ChainOrdering,
    TropicalMatrix,
    chain_compare,
    in_column_space,
    matrix_to_json,
)


class AttackError(Exception):
    """Base class for recovery failures."""


class ChainViolationError(AttackError):
    """The intercepted matrix cannot lie on the power chain of (M, H): a
    probe was incomparable with it, or, under circ, it lies outside the
    column space of a chain element above it, which every later element
    lies in."""


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
    params: ProtocolParams, target: TropicalMatrix
) -> tuple[SemigroupPair, ...]:
    """Square (M, H) until the chain reaches the target or goes below it.

    Returns the ladder of squares up to the least t with M_{2^t} <= target:
    ``squares[i]`` is (M, H)^(2^i), so ``squares[0]`` is the base and t is
    ``len(squares) - 1``, which is also the number of applications made,
    one per square past the base.  Honest targets satisfy t <= K because
    the hidden exponent is below 2^K, so the phase costs at most K
    applications.  A target of the wrong size fails in ``chain_compare``
    at level 0, before any application.

    Under circ, M_{j+1} = M_j + M + H + (M_j * H) depends on M_j alone,
    so two equal consecutive squares M_{2^l} == M_{2^(l+1)} mean the
    chain is constant from index 2^l on.  Still above the target, it
    never reaches it, and the phase stops at once.
    """
    op, K = params.op, params.K
    square = params.base_pair
    squares = [square]
    stationary_exit = op is SemigroupOpKind.CIRC
    while (relation := chain_compare(square.first, target)) is ChainOrdering.GREATER:
        level = len(squares) - 1
        if level == K:
            raise ExponentNotFoundError(
                f"chain never descended to the target within 2^{K}; "
                "the transcript is malformed or the bound is wrong"
            )
        square = apply(op, square, square)
        if stationary_exit and square.first == squares[-1].first:
            raise ExponentNotFoundError(
                f"chain is constant from index 2^{level} on and still above "
                "the target; the transcript is malformed"
            )
        squares.append(square)
    if relation is ChainOrdering.INCOMPARABLE:
        raise ChainViolationError(
            f"chain element at level {len(squares) - 1} is incomparable with the target; "
            "the intercepted matrix was not generated from these parameters"
        )
    return tuple(squares)


def _bisect_chain(
    op: SemigroupOpKind,
    squares: tuple[SemigroupPair, ...],
    target: TropicalMatrix,
    cached: bool,
) -> tuple[int, SemigroupPair, int]:
    """Find the least exponent whose first component equals the target.

    Precondition, established by ``doubling_phase``, with t the top level
    of ``squares``: the first component of ``squares[t]`` lies at or below
    the target and, when t >= 1, that of ``squares[t - 1]`` lies strictly
    above it.  On the monotone chain the exponents strictly above the
    target form a prefix [1, m' - 1], so binary lifting finds its end e
    from the top bit down: start at e = 2^(t-1), and for i = t-2 ... 0
    keep e + 2^i if its first component is still above the target.  The
    answer is m' = e + 1.

    With ``cached`` each candidate is the kept power times ``squares[i]``
    (powers of one element commute under circ), one application per bit:
    at most t in all.  Otherwise every candidate is powered from scratch
    (at most 2t^2 in all), which exists as the reference cost baseline
    and returns the same m'.  Returns m' with its pair, so callers get
    (A, P_E) without re-running the powering, and the applications made:
    one per candidate and one for the final product when cached, else
    bit_length(e) + popcount(e) - 2 per exponent e powered (``power``'s
    cost).
    """
    base, t = squares[0], len(squares) - 1
    e = 1 << t >> 1  # 2^(t-1), or 0 when t == 0
    acc = squares[t - 1] if t else None
    applications = 0
    for i in range(t - 2, -1, -1):
        step = 1 << i
        if cached:
            candidate = apply(op, acc, squares[i])
            applications += 1
        else:
            candidate = power(op, base, e + step)
            applications += _pass_cost((e + step,))
        relation = chain_compare(candidate.first, target)
        if relation is ChainOrdering.GREATER:
            acc, e = candidate, e + step
        elif relation is ChainOrdering.INCOMPARABLE:
            raise ChainViolationError(
                f"candidate at exponent {e + step} is incomparable with the target"
            )
    m_prime = e + 1
    if not t:
        pair = base
    elif cached:
        pair = apply(op, acc, base)
        applications += 1
    else:
        pair = power(op, base, m_prime)
        applications += _pass_cost((m_prime,))
    if pair.first != target:
        raise ExponentNotFoundError(
            "no exponent up to the doubling bound has the target as first "
            "component; the target is not on this chain"
        )
    return m_prime, pair, applications


def find_chain_exponent(
    params: ProtocolParams, target: TropicalMatrix, cached: bool = True
) -> tuple[int, int, SemigroupPair, int]:
    """Both attack phases in sequence: returns (m', t, (M, H)^{m'}) and the
    applications made, t to double plus the search's.  Between the two,
    under circ with t >= 2, it runs the off-chain test (see the module
    docstring) against ``squares[t - 1]``, and raises
    ``ChainViolationError`` when the target fails it."""
    squares = doubling_phase(params, target)
    t = len(squares) - 1
    if (
        params.op is SemigroupOpKind.CIRC
        and t >= 2
        and not in_column_space(squares[t - 1].first, target)
    ):
        raise ChainViolationError(
            "the target is outside the column space of the chain element at "
            f"index 2^{t - 1}, which every later element lies in; it is not on "
            "this chain"
        )
    m_prime, pair, searched = _bisect_chain(params.op, squares, target, cached)
    return m_prime, t, pair, t + searched


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
    m_prime, t, eve_pair, applications = find_chain_exponent(params, searched, cached)
    return AttackResult(
        m_prime=m_prime,
        t=t,
        op_count=applications,
        eve_pair=eve_pair,
        recovered_key=derive_shared_key(params, eve_pair, other),
    )


def attack_result_to_json(result: AttackResult) -> dict:
    # m' can exceed 64 bits at realistic K, hence the decimal string.
    return {
        "m_prime": str(result.m_prime),
        "t": result.t,
        "op_count": result.op_count,
        "recovered_key": matrix_to_json(result.recovered_key),
    }
