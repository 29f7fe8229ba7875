"""Experiment harness: key sizes and attack timings over a grid of k.

Each trial draws fresh public matrices and private exponents, runs the
exchange, then times the eavesdropper's recovery.  A trial's timing is
recorded only after the recovered key has been checked against the
parties' shared key; a failed attack aborts the whole run, because a
single failure would falsify the break this package demonstrates.

Timing is wall clock from a monotonic high-resolution counter, taken on
the thread running the trial, with the cycle collector paused for the
timed region (the workload allocates no reference cycles, and ambient
collections would tax short runs disproportionately).  Two figures are
kept per trial: the time to find m' (doubling plus the binary-lifting
descent, about 2K pair operations), which is the one comparable across
machines via the t/k^3 and t/alpha^1.5 ratios, and the time including
the final key derivation.

Key size alpha counts, for every entry, the bit length of its magnitude
plus one sign bit.  Zero therefore counts as one bit.
"""

from __future__ import annotations

import csv
import gc
import io
import time
from dataclasses import dataclass, fields
from random import Random
from typing import Sequence

from .attack import AttackError, find_chain_exponent
from .protocol import (
    KeyAgreementError,
    _check_scalars,
    derive_shared_key,
    draw_exponent,
    party_powers,
    run_parties,
    setup,
)
from .semidirect import SemigroupOpKind
from .tropical import TropicalMatrix

@dataclass(frozen=True, slots=True)
class ExperimentRow:
    """Averages over the trials at one matrix dimension."""

    k: int
    alpha_bits: float
    time_mprime_s: float
    time_full_s: float
    t_over_k3: float
    t_over_alpha15: float
    trials: int
    plateau_fraction: float


CSV_HEADER = tuple(field.name for field in fields(ExperimentRow))


@dataclass(frozen=True, slots=True)
class RunConfig:
    """Benchmark grid; the defaults mirror the suggested parameter set
    (entries in [-1000, 1000], 200-bit exponents, 40 trials per k)."""

    k_list: tuple[int, ...]
    N: int = 1000
    K: int = 200
    op: SemigroupOpKind = SemigroupOpKind.CIRC
    trials: int = 40
    seed: int = 0

    def __post_init__(self):
        if not self.k_list:
            raise ValueError("k_list must not be empty")
        # here rather than in each trial's setup, so a bad k fails before
        # the trials of the k before it run
        for k in self.k_list:
            _check_scalars(k, self.N, self.K, self.op)
        if len(set(self.k_list)) != len(self.k_list):
            raise ValueError(f"k_list repeats a dimension: {self.k_list}")
        if type(self.trials) is not int or self.trials < 1:
            raise ValueError("trials must be an integer >= 1")
        if type(self.seed) is not int:
            raise ValueError("seed must be an integer")


def measure_alpha(a: TropicalMatrix) -> int:
    """Total bits to represent the matrix: per entry, magnitude bits + sign."""
    return sum(abs(e).bit_length() + 1 for e in a.entries)


def _draw(k: int, config: RunConfig, trial: int):
    # Per-trial seed = seed + trial, so a single trial can be replayed in
    # isolation and the same exponent stream recurs at every k.
    rng = Random(config.seed + trial)
    return setup(k, config.N, config.K, config.op, rng), rng


def _run_trial(k: int, config: RunConfig, trial: int):
    params, rng = _draw(k, config, trial)
    alice, bob, shared = run_parties(params, rng)

    # The recovery allocates pure object trees (no reference cycles), so the
    # cycle collector only adds ambient-heap jitter to the timed region;
    # start from a collected heap and keep it off while the clock runs.
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        m_prime, _, eve_pair, _ = find_chain_exponent(params, alice.public_message)
        found = time.perf_counter()
        recovered = derive_shared_key(params, eve_pair, bob.public_message)
        done = time.perf_counter()
    finally:
        if gc_was_enabled:
            gc.enable()

    if recovered != shared:
        raise AttackError(
            f"attack produced a wrong key, m={alice.exponent}, m_prime={m_prime}"
        )
    alpha = measure_alpha(alice.public_message)
    return alpha, found - start, done - start, m_prime != alice.exponent


def run_experiment(config: RunConfig) -> list[ExperimentRow]:
    """Run the grid and average per k; deterministic given the seed except
    for the wall-clock columns.

    Trials run in trial-major order (trial 0 at every k, then trial 1,
    and so on): each dimension then samples the same stretch of machine
    load, which keeps the cross-k timing ratios stable under background
    drift.  The per-trial work itself is identical either way.  A failed
    trial re-raises its exception with its k, trial and seed appended.
    """
    results = {k: [] for k in config.k_list}
    for trial in range(config.trials):
        for k in config.k_list:
            try:
                results[k].append(_run_trial(k, config, trial))
            except (AttackError, KeyAgreementError) as exc:
                where = f"(k={k}, trial={trial}, seed={config.seed + trial})"
                raise type(exc)(f"{exc} {where}") from exc
    rows = []
    for k in config.k_list:
        alpha_avg, mprime_avg, full_avg, plateau_avg = (
            sum(column) / config.trials for column in zip(*results[k])
        )
        rows.append(
            ExperimentRow(
                k=k,
                alpha_bits=alpha_avg,
                time_mprime_s=mprime_avg,
                time_full_s=full_avg,
                t_over_k3=mprime_avg / k**3,
                t_over_alpha15=mprime_avg / alpha_avg**1.5,
                trials=config.trials,
                plateau_fraction=plateau_avg,
            )
        )
    return rows


def average_key_size_bits(config: RunConfig) -> dict[int, float]:
    """Average alpha of Alice's public message at each k of the config, in
    order: the ``alpha_bits`` column of ``run_experiment`` on the same
    config, without the exchange or the attack (Alice's message alone costs
    one ``party_powers`` call and is not checked for agreement).
    """
    averages = {}
    for k in config.k_list:
        total = 0
        for trial in range(config.trials):
            params, rng = _draw(k, config, trial)
            total += measure_alpha(party_powers(params, (draw_exponent(params, rng),))[0].first)
        averages[k] = total / config.trials
    return averages


def _format_cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def rows_to_csv(rows: Sequence[ExperimentRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow(
            _format_cell(getattr(row, column)) for column in CSV_HEADER
        )
    return buf.getvalue()
