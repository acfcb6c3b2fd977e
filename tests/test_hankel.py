import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wfamin.errors import NumericalError, RankDeficiencyError
from wfamin.hankel import (
    DEFAULT_RANK_TOL,
    HankelBlock,
    _factored_svd,
    _state_factors,
    _svd_baseline,
    build_hankel,
    hankel_rank,
    is_minimal,
    minimize,
    spectral_recover,
)
from wfamin.io import load_document
from wfamin.wfa import Wfa, evaluation_table, random_stable_wfa
from wfamin.words import WordIndex

from reference import check_hankel_property, svd_truncate

FIXTURES = Path(__file__).parent / "fixtures"


def large_norm(d, weight):
    """A minimal two-state automaton with a weight of ``weight``: its first
    letter is [[0.5, weight], [0, 0.5]] (spectral radius 0.5), a second
    diag(0.25, 0.5), and alpha = beta = (1, 1)."""
    mats = [[[0.5, weight], [0.0, 0.5]], [[0.25, 0.0], [0.0, 0.5]]][:d]
    return Wfa([1.0, 1.0], mats, [1.0, 1.0])


def one_letter_block(first_column_generator, size):
    index = WordIndex(1, size - 1)
    entries = np.array([[first_column_generator(i + j) for j in range(size)] for i in range(size)])
    return HankelBlock(index, entries)


class TestBuildHankel:
    def test_geometric_block(self, geometric_wfa):
        block = build_hankel(geometric_wfa, 2)
        expected = [[1, 0.5, 0.25], [0.5, 0.25, 0.125], [0.25, 0.125, 0.0625]]
        np.testing.assert_allclose(block.entries, expected, rtol=1e-15)

    def test_zero_automaton(self):
        wfa = Wfa([1.0, 2.0], [np.eye(2) * 0.4], [0.0, 0.0])
        block = build_hankel(wfa, 3)
        np.testing.assert_array_equal(block.entries, np.zeros((4, 4)))

    def test_entries_match_evaluate(self, nilpotent_wfa):
        block = build_hankel(nilpotent_wfa, 2)
        for i, p in enumerate(block.words.words()):
            for j, s in enumerate(block.words.words()):
                assert block.entries[i, j] == nilpotent_wfa.evaluate(p + s)

    def test_first_column_graded_lex_layout(self, nilpotent_wfa):
        # first column walks f over epsilon, a, b, aa, ab, ba, ... in order
        block = build_hankel(nilpotent_wfa, 2)
        table = evaluation_table(nilpotent_wfa, 2)
        np.testing.assert_array_equal(block.entries[:, 0], table)

    def test_size_guard(self, nilpotent_wfa):
        with pytest.raises(ValueError, match="refusing"):
            build_hankel(nilpotent_wfa, 12)

    @pytest.mark.parametrize("length", [24, 62, 63, 40000])
    def test_oversized_word_sets_refused_before_any_index(self, nilpotent_wfa, monkeypatch,
                                                          length):
        # past 2**63 - 1 words, len(WordIndex) itself would overflow
        def unreachable(*args):
            raise AssertionError("WordIndex built past the guard")

        monkeypatch.setattr("wfamin.hankel.WordIndex", unreachable)
        for call in (
            lambda: build_hankel(nilpotent_wfa, length),
            lambda: spectral_recover(nilpotent_wfa, 1, length),
            lambda: _svd_baseline(nilpotent_wfa, length, 1),
        ):
            with pytest.raises(ValueError, match=rf"^refusing to build .* length {length} "):
                call()

    def test_table_levels_are_held_to_the_block_bound(self, monkeypatch):
        # the 63 x 63 block passes its own check, but its length-10 table
        # would hold a 1024 x 50 level of prefix states: it is refused
        # before any level is built
        monkeypatch.setattr("wfamin.words.MAX_BLOCK_ENTRIES", 10_000)
        wfa = random_stable_wfa(2, 50, seed=0, radius_bound=0.9)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=(
                r"^refusing to build a 1024 x 50 prefix-state level \(51200 entries > 10000\)$"
            )):
                build_hankel(wfa, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000 * 8
        # one letter: one state row per level, whatever the length
        one_letter = random_stable_wfa(1, 50, seed=0, radius_bound=0.9)
        assert evaluation_table(one_letter, 1000).shape == (1001,)

    @pytest.mark.parametrize("d,length,bound", [
        # the table (half a block) and the joined bands, which the block holds
        (2, 9, 1.6),
        # a one-letter table is 2L + 1 values beside the block
        (1, 1000, 1.1),
        # the table's own build reaches two blocks before any band is cut
        (3, 6, 2.1),
    ], ids=["d2-L9", "d1-L1000", "d3-L6"])
    def test_build_peak_in_blocks(self, d, length, bound):
        wfa = random_stable_wfa(d, 3, seed=0, radius_bound=0.9)
        n = len(WordIndex(d, length))
        tracemalloc.start()
        try:
            build_hankel(wfa, length)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * n * n * 8

    def test_one_letter_guard_keeps_the_exact_count(self, geometric_wfa):
        with pytest.raises(ValueError, match=r"^refusing to build a 40001 x 40001 block "):
            build_hankel(geometric_wfa, 40000)

    def test_entries_must_be_square_over_the_words(self):
        words = WordIndex(2, 1)
        with pytest.raises(ValueError, match=r"^entries have shape \(3, 2\), expected \(3, 3\)$"):
            HankelBlock(words, np.zeros((3, 2)))

    def test_built_entries_are_frozen(self, two_state_wfa):
        entries = build_hankel(two_state_wfa, 3).entries
        assert not entries.flags.writeable and entries.flags.owndata


class TestHankelBlockOwnership:
    """A frozen float array that owns its memory is held; anything else is copied."""

    words = WordIndex(2, 1)

    def test_writeable_input_is_copied_and_left_writeable(self):
        entries = np.arange(9.0).reshape(3, 3)
        block = HankelBlock(self.words, entries)
        assert block.entries is not entries and not block.entries.flags.writeable
        assert entries.flags.writeable
        np.testing.assert_array_equal(entries, np.arange(9.0).reshape(3, 3))
        entries[0, 0] = -1.0
        assert block.entries[0, 0] == 0.0

    def test_frozen_owning_float_array_is_held(self):
        entries = np.arange(9.0).reshape(3, 3).copy()
        entries.setflags(write=False)
        assert HankelBlock(self.words, entries).entries is entries

    def test_frozen_view_is_copied(self):
        base = np.arange(12.0)
        view = base[:9].reshape(3, 3)
        view.setflags(write=False)
        block = HankelBlock(self.words, view)
        assert block.entries is not view and block.entries.flags.owndata
        base[0] = -1.0
        assert block.entries[0, 0] == 0.0

    @pytest.mark.parametrize("entries", [
        [[0, 1, 2], [3, 4, 5], [6, 7, 8]],
        np.arange(9, dtype=np.int64).reshape(3, 3),
        np.arange(9, dtype=np.float32).reshape(3, 3),
    ], ids=["list", "int64", "float32"])
    def test_other_inputs_are_converted(self, entries):
        block = HankelBlock(self.words, entries)
        assert block.entries.dtype == np.float64 and not block.entries.flags.writeable
        np.testing.assert_array_equal(block.entries, np.arange(9.0).reshape(3, 3))

    def test_frozen_array_of_the_wrong_shape_is_refused(self):
        entries = np.zeros((3, 2))
        entries.setflags(write=False)
        with pytest.raises(ValueError, match=r"^entries have shape \(3, 2\), expected \(3, 3\)$"):
            HankelBlock(self.words, entries)

    def test_block_has_no_shape_alias(self):
        assert not hasattr(HankelBlock(self.words, np.zeros((3, 3))), "shape")


class TestHankelRank:
    @pytest.mark.parametrize("d,n,seed", [(1, 3, 0), (2, 3, 1), (3, 4, 2), (2, 5, 3)])
    def test_minimal_wfa_has_rank_n(self, d, n, seed):
        wfa = random_stable_wfa(d, n, seed=seed, radius_bound=0.8)
        assert hankel_rank(build_hankel(wfa, n)) == n

    def test_zero_block(self):
        block = one_letter_block(lambda k: 0.0, 4)
        assert hankel_rank(block) == 0

    def test_rank_one_block(self):
        block = HankelBlock(WordIndex(1, 1), [[1.0, 0.5], [0.5, 0.25]])
        assert hankel_rank(block) == 1

    def test_tol_is_not_a_parameter(self, geometric_wfa):
        # every rank decision uses the one cutoff DEFAULT_RANK_TOL
        block = build_hankel(geometric_wfa, 1)
        for tol in (0.0, 1e-9):
            with pytest.raises(TypeError):
                hankel_rank(block, tol=tol)


class TestSvdTruncate:
    def test_full_rank_reproduces(self, two_state_wfa):
        block = build_hankel(two_state_wfa, 4)
        approx, error = svd_truncate(block, hankel_rank(block))
        assert error == 0.0 or error < 1e-12
        np.testing.assert_allclose(approx, block.entries, atol=1e-12)

    def test_k_zero_gives_zero_matrix_and_norm(self, two_state_wfa):
        block = build_hankel(two_state_wfa, 3)
        approx, error = svd_truncate(block, 0)
        np.testing.assert_array_equal(approx, np.zeros(block.entries.shape))
        assert error == pytest.approx(np.linalg.norm(block.entries, 2))

    def test_rank_one_exact(self):
        block = HankelBlock(WordIndex(1, 1), [[1.0, 0.5], [0.5, 0.25]])
        approx, error = svd_truncate(block, 1)
        assert error < 1e-15
        np.testing.assert_allclose(approx, block.entries, atol=1e-15)

    def test_attains_eckart_young_bound(self, two_state_wfa):
        block = build_hankel(two_state_wfa, 5)
        s = np.linalg.svd(block.entries, compute_uv=False)
        for k in (0, 1, 2):
            approx, error = svd_truncate(block, k)
            achieved = np.linalg.norm(block.entries - approx, 2)
            assert achieved == pytest.approx(error, abs=1e-12)
            if k < len(s):
                assert error == pytest.approx(s[k], abs=1e-14)

    def test_random_rank_k_never_beats_sigma_k(self, two_state_wfa):
        block = build_hankel(two_state_wfa, 5)
        s = np.linalg.svd(block.entries, compute_uv=False)
        rng = np.random.default_rng(0)
        rows, cols = block.entries.shape
        for k in (1, 2):
            for _ in range(50):
                candidate = rng.normal(size=(rows, k)) @ rng.normal(size=(k, cols))
                assert np.linalg.norm(block.entries - candidate, 2) >= s[k] - 1e-10

    def test_k_out_of_range(self, geometric_wfa):
        block = build_hankel(geometric_wfa, 1)
        with pytest.raises(ValueError):
            svd_truncate(block, 3)


class TestCheckHankelProperty:
    def test_built_blocks_pass_exactly(self, nilpotent_wfa, two_state_wfa):
        for wfa, length in ((nilpotent_wfa, 2), (two_state_wfa, 4)):
            ok, witness = check_hankel_property(build_hankel(wfa, length), tol=0.0)
            assert ok and witness is None

    def test_svd_truncation_generically_not_hankel(self, two_state_wfa):
        block = build_hankel(two_state_wfa, 3)
        approx, _ = svd_truncate(block, 1)
        ok, witness = check_hankel_property(
            HankelBlock(block.words, approx), tol=1e-10
        )
        assert not ok
        p, s, p2, s2 = witness
        assert p + s == p2 + s2

    def test_perturbed_entry_detected(self, geometric_wfa):
        block = build_hankel(geometric_wfa, 2)
        tol = 1e-8
        entries = block.entries.copy()
        entries[0, 1] += 10 * tol
        ok, witness = check_hankel_property(
            HankelBlock(block.words, entries), tol=tol
        )
        assert not ok
        p, s, p2, s2 = witness
        assert p + s == p2 + s2 == (0,)

    def test_nan_cell_is_a_violation(self, nilpotent_wfa):
        block = build_hankel(nilpotent_wfa, 2)
        a, b = (0,), (1,)
        # the word ab has the cells (eps, ab), (a, b), (ab, eps); abbb only (ab, bb)
        for (p, s), witness in (
            ((a, b), ((), a + b, a, b)),
            (((), a + b), ((), a + b, a, b)),
            ((a + b, b + b), (a + b, b + b, a + b, b + b)),
        ):
            entries = block.entries.copy()
            entries[block.words.index_of(p), block.words.index_of(s)] = np.nan
            for tol in (0.0, 1.0, np.inf):
                assert check_hankel_property(
                    HankelBlock(block.words, entries), tol=tol
                ) == (False, witness)

    @given(d=st.integers(1, 3), length=st.integers(0, 3),
           seed=st.integers(0, 2**32 - 1), tol=st.sampled_from([0.0, 1e-10, 1e-7]),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_the_split_by_split_definition(self, d, length, seed, tol, data):
        wfa = random_stable_wfa(d, 3, seed=seed, radius_bound=0.9)
        block = build_hankel(wfa, length)
        entries = block.entries.copy()
        rng = np.random.default_rng(seed)
        for _ in range(data.draw(st.integers(0, 3))):
            cell = rng.integers(block.entries.shape[0]), rng.integers(block.entries.shape[1])
            entries[cell] += data.draw(st.sampled_from([1e-11, 1e-9, 1e-6, 1.0, np.nan]))
        # reference: the cells of each word, listed by prefix length
        cells = {}
        for i, p in enumerate(block.words.words()):
            for j, s in enumerate(block.words.words()):
                cells.setdefault(p + s, []).append((p, s, entries[i, j]))
        combined = WordIndex(d, 2 * length)
        expected = (True, None)
        for word in sorted(cells, key=combined.index_of):
            splits = cells[word]
            pairs = [(x, y) for i, x in enumerate(splits) for y in splits[i + 1:]]
            pairs += [(x, x) for x in splits if np.isnan(x[2])]
            bad = [(x, y) for x, y in pairs if not abs(x[2] - y[2]) <= tol]
            if bad:
                (p, s, _), (p2, s2, _) = bad[0]
                expected = (False, (p, s, p2, s2))
                break
        perturbed = HankelBlock(block.words, entries)
        assert check_hankel_property(perturbed, tol) == expected


class TestSpectralRecover:
    @pytest.mark.parametrize("d,n,seed", [(1, 4, 10), (2, 3, 11), (3, 3, 12)])
    def test_full_rank_recovery_matches_function(self, d, n, seed):
        wfa = random_stable_wfa(d, n, seed=seed, radius_bound=0.8)
        recovered = spectral_recover(wfa, n, n)
        assert recovered.num_states == n
        original = evaluation_table(wfa, 2 * n)
        again = evaluation_table(recovered, 2 * n)
        np.testing.assert_allclose(again, original, atol=1e-8)

    def test_k_zero_convention(self, two_state_wfa):
        zero = spectral_recover(two_state_wfa, 0, 2)
        assert zero.num_states == 1
        assert zero.evaluate((0, 0)) == 0.0

    def test_nilpotent_exact_recovery(self, nilpotent_wfa):
        recovered = spectral_recover(nilpotent_wfa, 2, 2)
        for word in WordIndex(2, 4).words():
            assert recovered.evaluate(word) == pytest.approx(
                nilpotent_wfa.evaluate(word), abs=1e-10
            )

    def test_rank_one_geometric(self, geometric_wfa):
        recovered = spectral_recover(geometric_wfa, 1, 2)
        assert recovered.evaluate((0,) * 5) == pytest.approx(0.5**5, rel=1e-10)

    def test_rank_deficient_request(self, geometric_wfa):
        with pytest.raises(RankDeficiencyError):
            spectral_recover(geometric_wfa, 2, 2)

    def test_k_too_large(self, geometric_wfa):
        with pytest.raises(ValueError):
            spectral_recover(geometric_wfa, 4, 2)

    def test_negative_k(self):
        # refused before any factor is built, as k above the block size is
        wfa = random_stable_wfa(2, 3, seed=1, radius_bound=0.9)
        message = r"^k must lie in \[0, 7\] for the 7 x 7 block, got -1$"
        with pytest.raises(ValueError, match=message):
            spectral_recover(wfa, -1, 2)

    def test_k_must_be_an_integer(self, two_state_wfa, monkeypatch):
        # refused before the block is factored
        def unreachable(*args):
            raise AssertionError("the block was factored")

        monkeypatch.setattr("wfamin.hankel._state_factors", unreachable)
        with pytest.raises(TypeError, match=r"^k must be an integer, got 1\.5$"):
            spectral_recover(two_state_wfa, 1.5, 3)

    def test_prefixes_must_have_a_letter(self, two_state_wfa):
        with pytest.raises(ValueError, match="prefixes of length >= 1"):
            spectral_recover(two_state_wfa, 1, 0)

    def test_state_factors_are_held_to_the_block_bound(self, nilpotent_wfa, monkeypatch):
        # the N x n factors are the largest arrays built; the block never is
        monkeypatch.setattr("wfamin.words.MAX_BLOCK_ENTRIES", len(WordIndex(2, 3)) * 2)
        spectral_recover(nilpotent_wfa, 2, 3)
        with pytest.raises(ValueError, match="refusing to build a 31 x 2 state factor"):
            spectral_recover(nilpotent_wfa, 2, 4)


class TestFliessBound:
    @pytest.mark.parametrize("seed", range(4))
    def test_rank_never_exceeds_states(self, seed):
        rng = np.random.default_rng(seed)
        d, n = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        wfa = random_stable_wfa(d, n, seed=seed + 100, radius_bound=0.8)
        for length in (1, 2, n):
            assert hankel_rank(build_hankel(wfa, length)) <= n

    def test_is_minimal(self, two_state_wfa, geometric_wfa):
        assert is_minimal(two_state_wfa)
        assert is_minimal(geometric_wfa)
        # duplicated state: same function as geometric_wfa but 2 states
        redundant = Wfa([0.5, 0.5], [np.diag([0.5, 0.5])], [1.0, 1.0])
        assert not is_minimal(redundant)
        # from a weight of 1e9 on, the tolerance 1e-9 max_a ||A_a||_2
        # reaches the normalized start's residual, 1, which counts all the same
        for d in (1, 2):
            for weight in (1e9, 1e12):
                assert is_minimal(large_norm(d, weight))


def hidden_redundancy(core: Wfa, extra: int, seed: int, unreachable: bool) -> Wfa:
    """``core`` plus ``extra`` states the series never uses, behind a rotation.

    Unreachable: A = [[A1, 0], [X, A2]] and alpha = [alpha1, 0], so
    alpha^T A_w never leaves the core.  Otherwise the transposed
    construction: the extra states never reach beta.
    """
    rng = np.random.default_rng(seed)
    n = core.num_states + extra
    mats = []
    for m in core.transitions:
        big = np.zeros((n, n))
        big[: core.num_states, : core.num_states] = m
        big[core.num_states:, :] = 0.3 * rng.standard_normal((extra, n)) / np.sqrt(n)
        mats.append(big)
    alpha = np.concatenate([core.alpha, np.zeros(extra)])
    beta = np.concatenate([core.beta, rng.standard_normal(extra)])
    if not unreachable:
        alpha, beta, mats = beta, alpha, [m.T for m in mats]
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Wfa(alpha @ q, [q.T @ m @ q for m in mats], q.T @ beta)


class TestMinimize:
    def test_duplicated_state_reduces_to_one(self, geometric_wfa):
        redundant = Wfa([0.5, 0.5], [np.diag([0.5, 0.5])], [1.0, 1.0])
        reduced = minimize(redundant)
        assert reduced.num_states == 1
        np.testing.assert_allclose(
            evaluation_table(reduced, 10), evaluation_table(geometric_wfa, 10), rtol=1e-14
        )

    def test_zero_series_has_dimension_zero(self):
        zero = Wfa([1.0, 2.0], [0.5 * np.eye(2), np.eye(2)], [0.0, 0.0])
        reduced = minimize(zero)
        assert reduced.num_states == 1 and reduced.alphabet_size == 2
        assert not reduced.alpha.any() and not reduced.beta.any()
        assert not is_minimal(zero)
        assert not is_minimal(reduced)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("weight", [1e6, 1e9, 1e12])
    def test_a_large_norm_keeps_the_start(self, d, weight):
        # the series is not read as zero, and the minimal input is not rotated
        wfa = large_norm(d, weight)
        reduced = minimize(wfa)
        assert reduced is wfa
        np.testing.assert_array_equal(evaluation_table(reduced, 6), evaluation_table(wfa, 6))

    @pytest.mark.parametrize("name", ["overflowing-gramian.wfa", "nan-discrepancy.wfa"])
    def test_an_overflowing_reduction_is_refused(self, name):
        # a weight of 1e200 overflows a residual's norm; no NaN column is kept
        wfa = load_document(FIXTURES / name).wfa
        for call in (is_minimal, minimize):
            with pytest.raises(NumericalError, match="^orthogonal reduction overflowed: "):
                call(wfa)

    @pytest.mark.parametrize("j", [-600, -300, 300, 600])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_scaling_alpha_or_beta_keeps_the_verdict(self, d, j):
        # the start's norm squares its entries: unscaled, it would read a
        # start at 2^-600 as zero and overflow at 2^600
        core = random_stable_wfa(d, 4, seed=d, radius_bound=0.9)
        for extra in (0, 1, 2):
            for unreachable in (True, False):
                wfa = hidden_redundancy(core, extra, seed=extra, unreachable=unreachable)
                for alpha, beta in ((wfa.alpha * 2.0**j, wfa.beta),
                                    (wfa.alpha, wfa.beta * 2.0**j)):
                    scaled = Wfa(alpha, wfa.transitions, beta)
                    assert is_minimal(scaled) == is_minimal(wfa) == (extra == 0)
                    assert minimize(scaled).num_states == minimize(wfa).num_states == 4

    def test_minimal_beyond_the_block_guard(self):
        # the (16, 16) Hankel block at d = 2 would have 131071 rows
        wfa = random_stable_wfa(2, 16, seed=5, radius_bound=0.9)
        assert is_minimal(wfa)

    @pytest.mark.parametrize("d, n, extra", [(1, 6, 2), (2, 9, 3), (3, 6, 2)])
    @pytest.mark.parametrize("unreachable", [True, False])
    def test_hidden_redundancy_detected(self, d, n, extra, unreachable):
        core = random_stable_wfa(d, n, seed=40 + d, radius_bound=0.8)
        wfa = hidden_redundancy(core, extra, seed=d, unreachable=unreachable)
        assert is_minimal(core)
        assert not is_minimal(wfa)
        assert minimize(wfa).num_states == n

    @given(
        d=st.integers(1, 3), n=st.integers(1, 5), extra=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1), unreachable=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_keeps_the_series_and_is_minimal(self, d, n, extra, seed, unreachable):
        core = random_stable_wfa(d, n, seed=seed, radius_bound=0.9)
        wfa = hidden_redundancy(core, extra, seed=seed, unreachable=unreachable)
        reduced = minimize(wfa)
        assert is_minimal(reduced) and minimize(reduced) is reduced
        assert reduced.num_states == n
        if extra == 0:
            assert reduced is wfa
        length = 6 if d == 1 else 4
        original, kept = evaluation_table(wfa, length), evaluation_table(reduced, length)
        assert np.abs(original - kept).max() <= 1e-10 * np.abs(original).max()


class TestStateFactors:
    @pytest.mark.parametrize("d,length", [(1, 6), (2, 4), (3, 3)])
    def test_suffix_rows_follow_the_reversed_words(self, d, length):
        wfa = random_stable_wfa(d, 4, seed=d, radius_bound=0.9)
        words = WordIndex(d, length)
        factors = _state_factors(wfa, length)
        assert factors.shape == (2, len(words), 4)
        prefix, suffix = factors
        for i, w in enumerate(words.words()):
            state = wfa.beta
            for symbol in w:  # A_{w reversed} beta
                state = wfa.transitions[symbol] @ state
            np.testing.assert_allclose(suffix[i], state, rtol=1e-13, atol=1e-15)
        # so P S^T is the block with its columns permuted by word reversal
        reversal = [words.index_of(w[::-1]) for w in words.words()]
        block = build_hankel(wfa, length).entries
        product = prefix @ suffix.T
        np.testing.assert_allclose(product[:, reversal], block, rtol=1e-12, atol=1e-15)


class TestFactoredSvd:
    """The svd baseline works on the state factors H = P S^T of the block;
    the dense SVD of the block is the reference."""

    @given(d=st.integers(1, 3), n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1),
           unreachable=st.booleans(), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_matches_the_dense_block(self, d, n, seed, unreachable, data):
        # N < n at short lengths; extra > 0 gives a non-minimal input
        extra = data.draw(st.integers(0, n - 1))
        length = data.draw(st.integers(1, {1: 24, 2: 6, 3: 4}[d]))
        core = random_stable_wfa(d, n - extra, seed=seed, radius_bound=0.9)
        wfa = hidden_redundancy(core, extra, seed=seed, unreachable=unreachable)
        block = build_hankel(wfa, length).entries
        dense = np.linalg.svd(block, compute_uv=False)
        factored = _factored_svd(_state_factors(wfa, length))[1]
        scale = dense[0]
        assert factored.size <= min(n, block.shape[0])
        assert np.abs(factored - dense[: factored.size]).max() <= 1e-12 * scale
        assert dense[factored.size:].max(initial=0.0) <= 1e-12 * scale
        rank = int(np.count_nonzero(factored > DEFAULT_RANK_TOL * factored[0]))
        k = data.draw(st.integers(0, min(rank, n - 1)))
        recovered, singular, achieved, size = _svd_baseline(wfa, length, k)
        np.testing.assert_array_equal(singular, factored)
        assert size == block.shape[0]
        approx = build_hankel(recovered, length).entries
        assert abs(achieved - np.linalg.norm(block - approx, 2)) <= 1e-12 * scale
