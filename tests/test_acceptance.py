"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are fixed here, not calibrated at runtime.
"""

import time

import numpy as np
import pytest

from wfamin.aak import aak_approximate, hankel_singular_values
from wfamin.fock import (
    flipped_multiplier_matrix,
    free_group_counterexample,
    nc_rational_eval,
    nc_rational_series,
    series_bounds,
    verify_hankel_equation,
    verify_shift_inequalities,
)
from wfamin.hankel import DEFAULT_RANK_TOL, build_hankel, hankel_rank, spectral_recover
from wfamin.wfa import Wfa, evaluation_table, random_stable_wfa
from wfamin.words import WordIndex

from reference import check_hankel_property, error_circle_samples

RANK_FIXTURES = [
    ((i % 3) + 1, (i % 5) + 1, 7000 + i) for i in range(20)
]  # (alphabet size, states, seed)


def report(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number:2d}: {status} - {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def rank_fixture_wfas():
    return [
        (d, n, random_stable_wfa(d, n, seed=seed, radius_bound=0.8))
        for d, n, seed in RANK_FIXTURES
    ]


@pytest.fixture(scope="module")
def aak_cases():
    """10 random stable minimal one-letter automata with all their reductions.

    Returns (cases, build_seconds); the build time counts toward the runtime
    budget of the criterion that owns these computations.
    """
    start = time.perf_counter()
    cases = []
    for i in range(10):
        n = 2 + i % 4
        wfa = random_stable_wfa(1, n, seed=8100 + i, radius_bound=0.8)
        sigmas = hankel_singular_values(wfa)
        h64 = build_hankel(wfa, 63).entries
        results = {k: aak_approximate(wfa, k) for k in range(n)}
        cases.append((wfa, sigmas, h64, results))
    return cases, time.perf_counter() - start


def test_criterion_1_fliess_rank(rank_fixture_wfas):
    assert DEFAULT_RANK_TOL == 1e-9  # the criterion's relative cutoff
    start = time.perf_counter()
    failures = []
    for d, n, wfa in rank_fixture_wfas:
        rank = hankel_rank(build_hankel(wfa, n))
        if rank != n:
            failures.append((d, n, rank))
    elapsed = time.perf_counter() - start
    report(
        1,
        not failures and elapsed < 5.0,
        f"rank of the (n, n) block equals n for 20 random automata "
        f"(failures: {failures}, elapsed {elapsed:.2f}s < 5s)",
    )


def test_criterion_2_spectral_recovery(rank_fixture_wfas):
    worst = 0.0
    for d, n, wfa in rank_fixture_wfas:
        recovered = spectral_recover(wfa, n, n)
        original = evaluation_table(wfa, 2 * n)
        reproduced = evaluation_table(recovered, 2 * n)
        worst = max(worst, float(np.abs(original - reproduced).max()))
    report(
        2,
        worst <= 1e-8,
        f"full-rank recovery reproduces f on all words of length <= 2n "
        f"(max absolute deviation {worst:.3e} <= 1e-8)",
    )


def test_criterion_3_aak_optimality(aak_cases):
    cases, build_seconds = aak_cases
    start = time.perf_counter()
    e1 = Wfa([1.0], [[[0.5]]], [1.0])
    e1_error = aak_approximate(e1, 0).error
    e1_ok = abs(e1_error - 4.0 / 3.0) <= 1e-9
    hankel_ok = True
    rank_ok = True
    worst_norm_dev = 0.0
    for wfa, sigmas, h64, results in cases:
        for k, result in results.items():
            block = result.hankel_block(63)
            ok, _ = check_hankel_property(block, tol=0.0)
            hankel_ok = hankel_ok and ok
            singular = np.linalg.svd(block.entries, compute_uv=False)
            rank = int(np.count_nonzero(singular > 1e-9 * max(singular[0], sigmas[0])))
            rank_ok = rank_ok and rank == k
            deviation = abs(np.linalg.norm(h64 - block.entries, 2) - sigmas[k]) / sigmas[0]
            worst_norm_dev = max(worst_norm_dev, float(deviation))
    elapsed = build_seconds + time.perf_counter() - start
    report(
        3,
        e1_ok and hankel_ok and rank_ok and worst_norm_dev <= 1e-6 and elapsed < 30.0,
        f"one-state fixture error {e1_error!r} = 4/3; blocks exactly Hankel: {hankel_ok}; "
        f"rank(G64) = k: {rank_ok}; max ||H64-G64|| deviation {worst_norm_dev:.3e} <= 1e-6 "
        f"relative; elapsed {elapsed:.2f}s < 30s",
    )


def test_criterion_4_optimality_certificate(aak_cases):
    cases, _ = aak_cases
    rng = np.random.default_rng(977)
    never_beaten = True
    monotone = True
    for wfa, sigmas, h64, results in cases:
        block_sigmas = np.linalg.svd(h64, compute_uv=False)
        for k, result in results.items():
            achieved = np.linalg.norm(h64 - result.hankel_block(63).entries, 2)
            lower = block_sigmas[k]
            for _ in range(100):
                if k == 0:
                    candidate = np.zeros_like(h64)
                else:
                    candidate = rng.standard_normal((64, k)) @ rng.standard_normal((k, 64))
                if np.linalg.norm(h64 - candidate, 2) < lower - 1e-9:
                    never_beaten = False
            if achieved < lower - 1e-9:
                never_beaten = False
            norms = [
                np.linalg.norm(
                    build_hankel(wfa, size - 1).entries
                    - result.hankel_block(size - 1).entries,
                    2,
                )
                for size in (16, 32, 64)
            ]
            grows = all(norms[i] <= norms[i + 1] + 1e-12 for i in range(2))
            capped = norms[-1] <= sigmas[k] + 1e-9 * sigmas[0]
            monotone = monotone and grows and capped
    report(
        4,
        never_beaten and monotone,
        f"no rank-k matrix (100 random draws per case) beats the truncated "
        f"Eckart-Young bound: {never_beaten}; block errors grow monotonically "
        f"to sigma_k over sizes 16/32/64: {monotone}",
    )


def test_criterion_5_nc_hankel_equation(nilpotent_wfa):
    worst = 0.0
    for i in range(20):
        d = 2 + i % 2
        wfa = random_stable_wfa(d, 3, seed=9200 + i, radius_bound=0.9)
        rep = verify_hankel_equation(build_hankel(wfa, 5))
        worst = max(worst, rep.max_discrepancy)
    basis = WordIndex(2, 4)
    h = build_hankel(nilpotent_wfa, 4).entries
    cut = basis.first_index_of_length(4)
    lhs = h[:cut, basis.index_of((0, 1, 0))]
    rhs = h[[basis.index_of(w + (0,)) for w in WordIndex(2, 3).words()], basis.index_of((1, 0))]
    fixture_exact = np.array_equal(lhs, rhs)
    report(
        5,
        worst == 0.0 and fixture_exact,
        f"interior discrepancy of H S_i = R*_i H is exactly zero over 20 random "
        f"automata (max {worst!r}) and on the two-letter fixture columns: {fixture_exact}",
    )


def test_criterion_6_shift_inequalities():
    rep = verify_shift_inequalities(3, 4)
    report(
        6,
        rep.left_shift_collisions == rep.bilateral_collisions == 0,
        f"norm identities for left and bilateral shifts hold with equality at d=3, "
        f"degree 4: the prepend maps have {rep.left_shift_collisions} collisions, "
        f"the append maps {rep.bilateral_collisions}",
    )


def test_criterion_7_free_group_counterexample():
    rep = free_group_counterexample()
    report(
        7,
        rep.group_lhs == 4.0 and rep.group_rhs == 2.0 and rep.violation_exhibited,
        f"free-group probe gives ||R_1 h_1 + R_2 h_2||^2 = {rep.group_lhs} > "
        f"{rep.group_rhs} = ||h_1||^2 + ||h_2||^2, exactly",
    )


def test_criterion_8_nc_rational_evaluation():
    rng = np.random.default_rng(555)
    all_within_bound = True
    zero_exact = True
    for trial in range(20):
        d = 2 + trial % 2
        size = 1 + trial % 2
        wfa = random_stable_wfa(d, 3, seed=9600 + trial, radius_bound=0.8)
        arguments = [0.3 * rng.standard_normal((size, size)) for _ in range(d)]
        rho = series_bounds(wfa, arguments)[0]
        if rho >= 0.9:
            arguments = [0.5 * z for z in arguments]
        closed = nc_rational_eval(wfa, arguments)
        partial = nc_rational_series(wfa, arguments)
        bound = series_bounds(wfa, arguments)[2]
        if not np.linalg.norm(closed - partial, 2) <= bound:
            all_within_bound = False
        zeros = [np.zeros((size, size))] * d
        head = nc_rational_eval(wfa, zeros)
        expected = float(wfa.alpha @ wfa.beta) * np.eye(size)
        if not np.array_equal(head, expected):
            zero_exact = False
    report(
        8,
        all_within_bound and zero_exact,
        f"closed form agrees with the degree-8 series within the analytic tail "
        f"bound for 20 contractive substitutions: {all_within_bound}; zero "
        f"substitution returns the head coefficient exactly: {zero_exact}",
    )


def test_criterion_9_flipped_symbol(nilpotent_wfa, two_state_wfa, geometric_wfa):
    fixtures = [nilpotent_wfa, two_state_wfa, geometric_wfa] + [
        random_stable_wfa((i % 3) + 1, 3, seed=9900 + i, radius_bound=0.8) for i in range(6)
    ]
    column_exact = True
    one_letter_exact = True
    for wfa in fixtures:
        degree = 4 if wfa.alphabet_size > 1 else 8
        basis = WordIndex(wfa.alphabet_size, degree)
        # the multiplier's column at the empty word is the flipped symbol
        multiplier_column = flipped_multiplier_matrix(wfa, basis)[:, 0]
        series = multiplier_column[basis.reversal_permutation()]
        column = build_hankel(wfa, degree).entries[:, 0]
        column_exact = column_exact and np.array_equal(series, column)
        if wfa.alphabet_size == 1:
            # one letter: the flip is the identity, and the symbol's negative
            # coefficients are alpha^T A^m beta
            coeffs = evaluation_table(wfa, degree)
            one_letter_exact = one_letter_exact and np.array_equal(multiplier_column, coeffs)
    report(
        9,
        column_exact and one_letter_exact,
        f"flipped-symbol coefficients equal the Hankel first column exactly: "
        f"{column_exact}; one-letter case equals the symbol coefficients exactly: "
        f"{one_letter_exact}",
    )


def test_criterion_10_error_modulus(aak_cases):
    cases, _ = aak_cases
    worst = 0.0
    checked = 0
    for wfa, sigmas, h64, results in cases:
        for k, result in results.items():
            if k == 0:
                continue
            samples = error_circle_samples(result, 4096)
            worst = max(worst, float(abs(samples.max() / sigmas[k] - 1.0)))
            checked += 1
    report(
        10,
        worst <= 1e-4,
        f"sampled sup of the error symbol matches sigma_k within 1e-4 relative "
        f"over {checked} reductions (worst {worst:.3e})",
    )
