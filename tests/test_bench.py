import math
from fractions import Fraction
from itertools import combinations, permutations
from random import Random

import pytest

from tropkex import (
    CSV_HEADER,
    AttackError,
    ChainViolationError,
    ExperimentRow,
    ExponentNotFoundError,
    KeyAgreementError,
    RunConfig,
    SemigroupOpKind,
    TropicalMatrix,
    average_key_size_bits,
    measure_alpha,
    rows_to_csv,
    run_experiment,
)
from tropkex.protocol import MAX_K, draw_exponent, party_powers, setup

from _oracles import identity_oplus, min_cycle_mean, random_mat

STAR = SemigroupOpKind.STAR


def test_measure_alpha_counting_rule():
    # one sign bit per entry, plus the magnitude's bit length
    assert measure_alpha(TropicalMatrix([[0]])) == 1
    assert measure_alpha(TropicalMatrix([[-255]])) == 9
    assert measure_alpha(TropicalMatrix([[255]])) == 9
    assert measure_alpha(TropicalMatrix([[256]])) == 10
    # 2x2: (1) + (2+1) + (2+1) + (1) = 8
    assert measure_alpha(TropicalMatrix([[0, -2], [3, 0]])) == 8
    assert measure_alpha(TropicalMatrix([[-(2**200)]])) == 202


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(k_list=())
    with pytest.raises(ValueError):
        RunConfig(k_list=(0,))
    with pytest.raises(ValueError):
        RunConfig(k_list=(2,), trials=0)
    with pytest.raises(ValueError):
        RunConfig(k_list=(5, MAX_K + 1))
    with pytest.raises(ValueError):
        RunConfig(k_list=(3, 3))
    # every k, the trial count and the seed are ints, not floats, bools or strings
    for bad in ({"k_list": (3, 2.5)}, {"k_list": (2, True)}, {"k_list": (2,), "trials": True},
                {"k_list": (2,), "trials": 1.5}, {"k_list": (2,), "seed": "x"},
                {"k_list": (2,), "seed": True}, {"k_list": (2,), "seed": 1.5}):
        with pytest.raises(ValueError):
            RunConfig(**bad)


def test_run_experiment_degenerate_all_zero():
    config = RunConfig(k_list=(1,), N=0, K=2, trials=1, seed=3)
    (row,) = run_experiment(config)
    assert row.k == 1
    assert row.alpha_bits == 1.0  # the zero entry costs exactly one bit
    assert row.trials == 1
    assert 0.0 <= row.plateau_fraction <= 1.0


def test_run_experiment_small_grid():
    config = RunConfig(k_list=(2, 3), N=10, K=8, trials=3, seed=11)
    rows = run_experiment(config)
    assert [row.k for row in rows] == [2, 3]
    for row in rows:
        assert row.trials == 3
        assert row.alpha_bits > 0
        assert row.time_full_s >= row.time_mprime_s >= 0
        assert math.isclose(row.t_over_k3, row.time_mprime_s / row.k**3)
        assert math.isclose(row.t_over_alpha15, row.time_mprime_s / row.alpha_bits**1.5)
        assert 0.0 <= row.plateau_fraction <= 1.0

    # deterministic except wall clock
    again = run_experiment(config)
    for row, row2 in zip(rows, again):
        assert row.alpha_bits == row2.alpha_bits
        assert row.plateau_fraction == row2.plateau_fraction


def test_csv_format():
    rows = [
        ExperimentRow(
            k=5,
            alpha_bits=5222.15625,
            time_mprime_s=0.000123456789,
            time_full_s=0.000234567891,
            t_over_k3=9.87654321e-7,
            t_over_alpha15=3.21e-7,
            trials=40,
            plateau_fraction=0.0,
        )
    ]
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    assert lines[0] == (
        "k,alpha_bits,time_mprime_s,time_full_s,t_over_k3,"
        "t_over_alpha15,trials,plateau_fraction"
    )
    cells = lines[1].split(",")
    assert cells[0] == "5"
    assert cells[1] == "5222.16"  # six significant digits
    assert cells[2] == "0.000123457"
    assert cells[4] == "9.87654e-07"
    assert cells[6] == "40"
    assert cells[7] == "0"


@pytest.mark.parametrize(
    "seed, error, message",
    [
        (3, ExponentNotFoundError, "no exponent up to the doubling bound"),
        (38, ChainViolationError, "is incomparable with the target"),
        (0, KeyAgreementError, "parties disagree on the shared key"),
        (70, AttackError, "attack produced a wrong key, m=210, m_prime=209"),
    ],
)
def test_failed_trial_names_k_trial_and_seed(seed, error, message):
    # frozen star runs that fail in the search, in agreement and in the key
    config = RunConfig(k_list=(2,), N=10, K=8, op=STAR, trials=1, seed=seed)
    with pytest.raises(error) as excinfo:
        run_experiment(config)
    assert type(excinfo.value) is error
    text = str(excinfo.value)
    assert message in text
    assert text.endswith(f" (k=2, trial=0, seed={seed})")
    assert text.count("seed=") == 1


def test_average_key_size_deterministic():
    config = RunConfig(k_list=(2,), N=50, K=12, trials=4, seed=9)
    a = average_key_size_bits(config)
    assert a == average_key_size_bits(config)
    assert a[2] > 0


def test_average_key_size_is_the_alpha_column():
    # the same seeded draws as the grid, in the config's order of k
    config = RunConfig(k_list=(3, 1, 2), N=50, K=12, trials=3, seed=4)
    averages = average_key_size_bits(config)
    assert list(averages) == [3, 1, 2]
    assert averages == {row.k: row.alpha_bits for row in run_experiment(config)}


def test_key_size_scales_linearly_in_exponent_bits():
    # entries of a public message carry about K bits each, so alpha/K is
    # near-constant for fixed k; allow 10 percent spread
    ratios = []
    for exp_bits in (50, 100, 200):
        alpha = average_key_size_bits(RunConfig(k_list=(3,), K=exp_bits, trials=5, seed=2))[3]
        ratios.append(alpha / exp_bits)
    assert max(ratios) <= 1.10 * min(ratios)


def test_min_cycle_mean_is_the_least_mean_of_a_simple_cycle():
    # Karp's formula against every simple cycle, at k <= 5: a least cycle
    # mean is always reached on a simple one
    rng = Random(5)
    for k in range(1, 6):
        for _ in range(10):
            w = random_mat(rng, k)
            rows = w.rows
            least = min(
                Fraction(sum(rows[i][j] for i, j in zip(cycle, cycle[1:] + cycle[:1])), len(cycle))
                for size in range(1, k + 1)
                for nodes in combinations(range(k), size)
                for cycle in permutations(nodes)
                if cycle[0] == nodes[0]
            )
            assert min_cycle_mean(w) == least, k


@pytest.mark.parametrize("k", [5, 10])
def test_key_size_is_read_off_b(k):
    """On AC3's own draws, Alice's message has key size
    k^2 (bit_length(floor(|lambda| m)) + 1), lambda the minimum cycle mean
    of B = H oplus I and m her exponent: every entry of X_m is
    X_2 otimes B^(m-2), which drifts by (m - 2) lambda plus a bounded term,
    so at 200-bit exponents each entry has the bit length of |lambda| m."""
    config = RunConfig(k_list=(k,), trials=10, seed=2024)
    alphas = []
    for trial in range(config.trials):
        rng = Random(config.seed + trial)
        params = setup(k, config.N, config.K, config.op, rng)
        m = draw_exponent(params, rng)
        alpha = measure_alpha(party_powers(params, (m,))[0].first)
        drift = abs(min_cycle_mean(identity_oplus(params.H))) * m
        assert alpha == k * k * (math.floor(drift).bit_length() + 1), trial
        alphas.append(alpha)
    assert sum(alphas) / config.trials == average_key_size_bits(config)[k]  # the same draws
