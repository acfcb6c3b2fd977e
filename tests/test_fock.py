import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wfamin import fock, words
from wfamin.errors import StabilityError
from wfamin.aak import aak_approximate
from wfamin.hankel import HankelBlock, build_hankel, hankel_rank
from wfamin.io import load_document
from wfamin.wfa import Wfa, evaluation_table, random_stable_wfa
from wfamin.words import WordIndex

from reference import (
    flip_matrix,
    left_shift_matrix,
    right_multiplication_matrix,
    right_shift_matrix,
    svd_truncate,
)

FIXTURES = Path(__file__).parent / "fixtures"


def substitutions(arguments):
    """The substitutions of one nc-rational call, one (d, m, m) array each."""
    arguments = np.asarray(arguments)
    return list(arguments.reshape(-1, *arguments.shape[-3:]))


def basis_vector(basis, word):
    out = np.zeros(len(basis))
    out[basis.index_of(word)] = 1.0
    return out


class TestShifts:
    def test_shifts_match_reference_matrices(self):
        # a scatter through the index maps is the dense matrices' action, and
        # read the other way round they are the adjoints' (the transposes')
        # on the interior
        basis = WordIndex(3, 3)
        rng = np.random.default_rng(1)
        cut = basis.first_index_of_length(basis.max_length)
        for i in range(3):
            u = np.zeros(len(basis))
            u[:cut] = rng.standard_normal(cut)
            v = rng.standard_normal(len(basis))
            for matrix, indices in (
                (left_shift_matrix(basis, i), basis.prepend_indices(i)),
                (right_shift_matrix(basis, i), basis.append_indices(i)),
            ):
                scattered = np.zeros(len(basis))
                scattered[indices] = u[:cut]
                np.testing.assert_array_equal(scattered, matrix @ u)
                np.testing.assert_array_equal((matrix.T @ v)[:cut], v[indices])
                np.testing.assert_array_equal((matrix.T @ v)[cut:], 0.0)

    def test_shifts_are_isometric_with_orthogonal_ranges(self):
        # S*_i S_j = delta_ij on the interior, exhaustively over basis vectors
        for d in (1, 2, 3):
            for degree in (2, 3, 4):
                basis = WordIndex(d, degree)
                cut = basis.first_index_of_length(degree)
                mats = [left_shift_matrix(basis, i) for i in range(d)]
                for i in range(d):
                    for j in range(d):
                        product = (mats[i].T @ mats[j])[:cut, :cut]
                        expected = np.eye(cut) if i == j else np.zeros((cut, cut))
                        np.testing.assert_array_equal(product, expected)


class TestFlip:
    def test_flip_conjugates_left_to_right_shift(self):
        basis = WordIndex(2, 4)
        u = flip_matrix(basis)
        cut = basis.first_index_of_length(basis.max_length)
        for i in range(2):
            left = left_shift_matrix(basis, i)
            right = right_shift_matrix(basis, i)
            conjugated = u.T @ left @ u
            np.testing.assert_array_equal(right[:, :cut], conjugated[:, :cut])


class TestIndexMaps:
    """The index maps against the dense reference definitions."""

    @pytest.mark.parametrize("d, degrees", [(1, (0, 1, 5)), (2, (0, 1, 2, 5)), (3, (0, 1, 3, 4))])
    def test_reversal_matches_index_of(self, d, degrees):
        for degree in degrees:
            basis = WordIndex(d, degree)
            expected = [basis.index_of(word[::-1]) for word in basis.words()]
            np.testing.assert_array_equal(basis.reversal_permutation(), expected)

    @given(d=st.integers(1, 4), degree=st.integers(0, 5))
    @settings(max_examples=30, deadline=None)
    def test_reversal_is_an_involution(self, d, degree):
        perm = WordIndex(d, degree).reversal_permutation()
        np.testing.assert_array_equal(perm[perm], np.arange(len(perm)))

    def test_right_multiplication_matches_word_loop(self):
        rng = np.random.default_rng(10)
        for d, degree in ((1, 4), (2, 3), (3, 2)):
            basis = WordIndex(d, degree)
            series = rng.standard_normal(len(basis))
            expected = np.zeros((len(basis), len(basis)))
            for j, w in enumerate(basis.words()):
                for k, u in enumerate(basis.words()):
                    if len(w) + len(u) <= degree:
                        expected[basis.index_of(w + u), j] = series[k]
            np.testing.assert_array_equal(right_multiplication_matrix(basis, series), expected)

    def test_flipped_multiplier_equals_dense_product(self):
        for d, degree in ((1, 5), (2, 4), (3, 3)):
            wfa = random_stable_wfa(d, 3, seed=d, radius_bound=0.9)
            basis = WordIndex(d, degree)
            dense = flip_matrix(basis) @ right_multiplication_matrix(
                basis, evaluation_table(wfa, degree)
            )
            np.testing.assert_array_equal(fock.flipped_multiplier_matrix(wfa, basis), dense)

    def test_intertwining_equals_dense_formula(self):
        rng = np.random.default_rng(11)
        for d, degree in ((1, 4), (2, 3), (3, 3)):
            basis = WordIndex(d, degree)
            op = rng.standard_normal((len(basis), len(basis)))
            u = flip_matrix(basis)
            cut = basis.first_index_of_length(degree)
            expected = []
            for i in range(d):
                s = left_shift_matrix(basis, i)
                expected.append(float(np.abs((u @ op @ s - s @ u @ op)[:cut, :cut]).max()))
            report = fock.verify_multiplier_intertwining(op, basis)
            assert report.per_symbol == tuple(expected)
            assert report.max_discrepancy > 0.0

    @given(
        d=st.integers(1, 3),
        degree=st.integers(1, 4),
        seed=st.integers(0, 2**16),
        gaussian=st.booleans(),
        change=st.sampled_from([None, 1e-9, np.nan, np.inf, -np.inf]),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_intertwining_equals_dense_formula_with_non_finite_cells(
        self, d, degree, seed, gaussian, change, data
    ):
        basis = WordIndex(d, degree)
        size = len(basis)
        if gaussian:
            op = np.random.default_rng(seed).standard_normal((size, size))
        else:
            wfa = random_stable_wfa(d, 3, seed=seed, radius_bound=0.9)
            op = fock.flipped_multiplier_matrix(wfa, basis)
        row = data.draw(st.integers(0, size - 1), label="row")
        column = data.draw(st.integers(0, size - 1), label="column")
        if change == 1e-9:
            op[row, column] += change
        elif change is not None:
            op[row, column] = change
        # U op S_i and S_i U op in full through the index maps: a matrix
        # product would turn inf * 0 into NaN
        cut = basis.first_index_of_length(degree)
        flipped = np.empty_like(op)
        flipped[basis.reversal_permutation()] = op  # U sends row w to reversed w
        expected = []
        for i in range(d):
            after = flipped[:cut, basis.prepend_indices(i)]  # U op S_i
            # S_i U op: the left shift's matrix drops the top degree
            before = np.zeros_like(flipped)
            before[basis.prepend_indices(i)] = flipped[:cut]
            expected.append(float(np.abs(after - before[:cut, :cut]).max()))
        report = fock.verify_multiplier_intertwining(op, basis)
        assert len(report.per_symbol) == d
        for got, want in zip(report.per_symbol, expected):
            assert got == want or (np.isnan(got) and np.isnan(want))


class TestNcHankelMatrix:
    """The degree-L Hankel matrix over the Fock basis is ``build_hankel(wfa, L).entries``."""

    def test_matches_hankel_block_exactly(self):
        # entry (row w, col u) is the word table's value at w u
        wfa = random_stable_wfa(2, 3, seed=6, radius_bound=0.9)
        matrix = build_hankel(wfa, 3).entries
        table = evaluation_table(wfa, 6)
        index = WordIndex(2, 6)
        for i, p in enumerate(WordIndex(2, 3).words()):
            for j, s in enumerate(WordIndex(2, 3).words()):
                assert matrix[i, j] == table[index.index_of(p + s)]

    def test_zero_automaton(self):
        wfa = Wfa([1.0], [np.zeros((1, 1)), np.zeros((1, 1))], [0.0])
        np.testing.assert_array_equal(build_hankel(wfa, 2).entries, np.zeros((7, 7)))

    def test_nilpotent_integer_exact(self, nilpotent_wfa):
        matrix = build_hankel(nilpotent_wfa, 2).entries
        for i, p in enumerate(WordIndex(2, 2).words()):
            for j, s in enumerate(WordIndex(2, 2).words()):
                assert matrix[i, j] == float(nilpotent_wfa.evaluate(p + s))

    def test_rank_agrees_with_fliess_rank(self):
        for seed in (0, 1, 2):
            wfa = random_stable_wfa(2, 3, seed=seed, radius_bound=0.9)
            block = build_hankel(wfa, 3)
            s = np.linalg.svd(block.entries, compute_uv=False)
            rank = int(np.count_nonzero(s > 1e-9 * s[0]))
            assert rank == hankel_rank(block)


class TestHankelEquation:
    def test_exactly_zero_for_random_wfas(self):
        for seed in range(6):
            d = 2 + seed % 2
            wfa = random_stable_wfa(d, 3, seed=seed, radius_bound=0.9)
            report = fock.verify_hankel_equation(build_hankel(wfa, 5))
            assert report.max_discrepancy == 0.0
            assert report.passed

    @given(
        d=st.integers(1, 3), n=st.integers(1, 4), degree=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1), radius=st.floats(0.1, 0.95),
    )
    @settings(max_examples=40, deadline=None)
    def test_exactly_zero_property(self, d, n, degree, seed, radius):
        wfa = random_stable_wfa(d, n, seed=seed, radius_bound=radius)
        degree = degree if d < 3 else min(degree, 4)
        report = fock.verify_hankel_equation(build_hankel(wfa, degree))
        assert report.max_discrepancy == 0.0

    def test_two_letter_fixture_columns(self, nilpotent_wfa):
        # H S_a e_{ba} and R*_a H e_{ba} both list f(., aba) over the rows
        degree = 4
        basis = WordIndex(2, degree)
        h = build_hankel(nilpotent_wfa, degree).entries
        cut = basis.first_index_of_length(degree)
        col_shift = h[:cut, basis.index_of((0, 1, 0))]
        rows_appended = [basis.index_of(w + (0,)) for w in WordIndex(2, degree - 1).words()]
        adj_col = h[rows_appended, basis.index_of((1, 0))]
        np.testing.assert_array_equal(col_shift, adj_col)
        expected = [nilpotent_wfa.evaluate(w + (0, 1, 0)) for w in WordIndex(2, degree - 1).words()]
        np.testing.assert_array_equal(col_shift, expected)

    def test_one_letter_specialization(self, two_state_wfa):
        report = fock.verify_hankel_equation(build_hankel(two_state_wfa, 5))
        assert report.max_discrepancy == 0.0

    def test_degree_validation(self, nilpotent_wfa):
        with pytest.raises(ValueError):
            fock.verify_hankel_equation(build_hankel(nilpotent_wfa, 1))

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("d, degree, k", [(2, 5, 2), (3, 4, 1)])
    def test_truncated_svd_fails(self, d, degree, k, n):
        # the rank-k truncation of an automaton's block is generally not
        # Hankel, so the cells of one word disagree
        for seed in range(5):
            block = build_hankel(random_stable_wfa(d, n, seed=seed, radius_bound=0.9), degree)
            exact = fock.verify_hankel_equation(block)
            assert exact.max_discrepancy == 0.0 and exact.passed
            truncated, _ = svd_truncate(block, k)
            report = fock.verify_hankel_equation(HankelBlock(block.words, truncated))
            assert report.max_discrepancy > 1e-2 * np.linalg.norm(block.entries, 2)
            assert not report.passed

    def test_one_perturbed_interior_cell_fails(self):
        block = build_hankel(random_stable_wfa(2, 3, seed=0, radius_bound=0.9), 4)
        entries = block.entries.copy()
        # the cell (empty word, a) is compared with (a, empty word) for letter a only
        entries[0, block.words.index_of((0,))] += 1e-9 * np.linalg.norm(entries, 2)
        report = fock.verify_hankel_equation(HankelBlock(block.words, entries))
        assert report.per_symbol[0] > 0.0
        assert report.per_symbol[1] == 0.0
        assert not report.passed

    def test_optimal_one_letter_sequence_passes(self, two_state_wfa):
        # the third operator: the AAK sequence and the recovered automaton
        result = aak_approximate(two_state_wfa, 1)
        for length in (2, 5, 63):
            for block in (result.hankel_block(length), build_hankel(result.wfa, length)):
                assert fock.verify_hankel_equation(block).max_discrepancy == 0.0


class TestShiftInequalities:
    def test_orthogonal_basis_example(self):
        basis = WordIndex(2, 2)
        y = basis_vector(basis, ())
        total = left_shift_matrix(basis, 0) @ y + left_shift_matrix(basis, 1) @ y
        assert total @ total == 2.0 == y @ y + y @ y

    def test_zero_vectors(self):
        report = fock.verify_shift_inequalities(2, 3)
        zero = np.zeros(len(WordIndex(2, 3)))
        total = left_shift_matrix(WordIndex(2, 3), 0) @ zero
        assert total @ total == 0.0
        assert (report.left_shift_collisions, report.bilateral_collisions) == (0, 0)

    def test_equality_over_random_trials(self):
        # no collision, so both sides of each identity sum the same squares:
        # summed exactly, random interior-supported vectors give equal sides
        d, degree = 3, 4
        report = fock.verify_shift_inequalities(d, degree)
        assert report.passed
        basis = WordIndex(d, degree)
        rng = np.random.default_rng(1)
        for shift in (left_shift_matrix, right_shift_matrix):
            matrices = [shift(basis, i) for i in range(d)]
            for _ in range(20):
                vectors = np.zeros((d, len(basis)))
                vectors[:, : basis.interior_size] = rng.standard_normal(
                    (d, basis.interior_size))
                total = sum(matrices[i] @ vectors[i] for i in range(d))
                assert math.fsum(np.square(total)) == math.fsum(np.square(vectors).ravel())

    @pytest.mark.parametrize("degree", [9, 10])
    def test_exact_at_high_degree(self, degree):
        report = fock.verify_shift_inequalities(2, degree)
        assert report.left_shift_collisions == 0
        assert report.bilateral_collisions == 0
        assert report.passed

    def test_any_deviation_fails(self):
        assert fock.ShiftInequalityReport(2, 3, 0, 0).passed
        for collisions in ((1, 0), (0, 1), (2, 2)):
            assert not fock.ShiftInequalityReport(2, 3, *collisions).passed

    def test_colliding_shift_fails(self, monkeypatch):
        # one interior word per letter sent where another is sent: d
        # collisions in the patched identity, none in the other
        for index_map, counts in (("prepend_indices", (2, 0)), ("append_indices", (0, 2))):
            correct = getattr(WordIndex, index_map)

            def colliding(basis, symbol, correct=correct):
                indices = correct(basis, symbol).copy()
                indices[2] = indices[1]
                return indices

            with monkeypatch.context() as patch:
                patch.setattr(WordIndex, index_map, colliding)
                report = fock.verify_shift_inequalities(2, 9)
            assert (report.left_shift_collisions, report.bilateral_collisions) == counts
            assert not report.passed

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 3), degree=st.integers(1, 5), data=st.data())
    def test_report_agrees_with_brute_force(self, d, degree, data):
        """The counts equal d * interior size minus the distinct targets of
        ``index_of((a,) + w)`` and ``index_of(w + (a,))``, optionally with one
        interior word of one map redirected to another's target."""
        basis = WordIndex(d, degree)
        interior = [w for w in basis.words() if len(w) < degree]
        targets = {
            "prepend_indices": [[basis.index_of((a,) + w) for w in interior] for a in range(d)],
            "append_indices": [[basis.index_of(w + (a,)) for w in interior] for a in range(d)],
        }
        name = data.draw(st.sampled_from([None, *targets]), label="redirected map")
        with pytest.MonkeyPatch.context() as patch:
            if name is not None:
                letter, source = (data.draw(st.integers(0, d - 1)) for _ in range(2))
                word, other = (data.draw(st.integers(0, len(interior) - 1)) for _ in range(2))
                targets[name][letter][word] = targets[name][source][other]
                correct = getattr(WordIndex, name)

                def redirected(basis, symbol):
                    indices = correct(basis, symbol).copy()
                    if symbol == letter:
                        indices[word] = correct(basis, source)[other]
                    return indices

                patch.setattr(WordIndex, name, redirected)
            report = fock.verify_shift_inequalities(d, degree)
        expected = tuple(d * len(interior) - len({t for row in maps for t in row})
                         for maps in targets.values())
        assert (report.left_shift_collisions, report.bilateral_collisions) == expected
        assert report.passed == (expected == (0, 0))

    @pytest.mark.parametrize("degree", [0, -1])
    def test_degree_validation(self, degree):
        # at degree 0 the interior is empty and nothing would be compared
        with pytest.raises(ValueError, match="degree must be >= 1"):
            fock.verify_shift_inequalities(2, degree)

    def test_one_trial_is_held_to_the_block_bound(self, monkeypatch):
        # the suite's only word-sized arrays are the mask over the N words
        # and the index maps; the WordIndex bound on N refuses the rest
        monkeypatch.setattr("wfamin.words.MAX_BLOCK_ENTRIES", len(WordIndex(2, 3)))
        assert fock.verify_shift_inequalities(2, 3).passed
        with pytest.raises(ValueError, match="^refusing to build .*word index"):
            fock.verify_shift_inequalities(2, 4)

    def test_peak_memory_stays_near_the_draws(self):
        # the mask takes one byte per word; the index maps are the largest
        # arrays, far below the 2 d vectors of N floats a sampled trial drew
        basis = WordIndex(2, 16)
        draws = 2 * 2 * len(basis) * 8
        tracemalloc.start()
        try:
            report = fock.verify_shift_inequalities(2, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < draws


class TestFreeGroup:
    def test_violation_exhibited(self):
        report = fock.free_group_counterexample()
        assert report.group_lhs == 4.0
        assert report.group_rhs == 2.0
        assert report.violation_exhibited

    def test_monoid_contrast_keeps_equality(self):
        report = fock.free_group_counterexample()
        assert report.monoid_lhs == report.monoid_rhs == 2.0

    def test_degenerate_case(self):
        report = fock.free_group_counterexample()
        assert report.degenerate_lhs == 1.0 <= report.degenerate_rhs
        assert report.passed

    def test_report_without_a_violation_says_so(self):
        # the probe always exhibits one; a report without one fails
        report = fock.FreeGroupReport(2.0, 2.0, 2.0, 2.0, 1.0, 1.0)
        assert not report.violation_exhibited and not report.passed
        assert next(report.lines()) == "free group: 2.0 <= 2.0 (no violation found)"


class TestNcRational:
    def test_zero_arguments_give_head_coefficient(self):
        wfa = random_stable_wfa(2, 3, seed=8, radius_bound=0.9)
        value = fock.nc_rational_eval(wfa, [np.zeros((1, 1)), np.zeros((1, 1))])
        assert value.shape == (1, 1)
        assert value[0, 0] == float(wfa.alpha @ wfa.beta)

    def test_one_letter_scalar_matches_resolvent_series(self, two_state_wfa):
        coeffs = evaluation_table(two_state_wfa, 59)
        z = 0.7
        value = fock.nc_rational_eval(two_state_wfa, [np.array([[z]])])[0, 0]
        series = float(sum(coeffs[m] * z**m for m in range(60)))
        assert value == pytest.approx(series, rel=1e-12)

    def test_matrix_substitution_within_tail_bound(self):
        rng = np.random.default_rng(5)
        for d, m in ((2, 2), (3, 2), (2, 1)):
            wfa = random_stable_wfa(d, 3, seed=int(rng.integers(1000)), radius_bound=0.9)
            zs = [rng.standard_normal((m, m)) * 0.25 for _ in range(d)]
            closed = fock.nc_rational_eval(wfa, zs)
            partial = fock.nc_rational_series(wfa, zs)
            bound = fock.series_bounds(wfa, zs)[2]
            assert np.isfinite(bound)
            assert np.linalg.norm(closed - partial, 2) <= bound

    def test_series_matches_word_loop(self):
        rng = np.random.default_rng(13)
        for d, m in ((1, 2), (2, 1), (3, 2)):
            wfa = random_stable_wfa(d, 3, seed=d + 20, radius_bound=0.9)
            zs = [rng.standard_normal((m, m)) * 0.25 for _ in range(d)]
            expected = np.zeros((m, m))
            for word in WordIndex(d, fock.NC_SERIES_DEGREE).words():
                product = np.eye(m)
                for symbol in word:
                    product = product @ zs[symbol]
                expected += wfa.evaluate(word) * product
            np.testing.assert_allclose(fock.nc_rational_series(wfa, zs), expected,
                                       rtol=1e-13, atol=1e-13)

    def test_pencil_equals_kronecker_sum(self):
        rng = np.random.default_rng(14)
        wfa = random_stable_wfa(3, 3, seed=5, radius_bound=0.9)
        zs = [rng.standard_normal((2, 2)) for _ in range(3)]
        expected = sum(np.kron(a, z) for a, z in zip(wfa.transitions, zs))
        np.testing.assert_allclose(fock._pencil(wfa, zs), expected, rtol=1e-15, atol=1e-15)

    def test_verify_nc_rational_report(self):
        wfa = random_stable_wfa(2, 3, seed=3, radius_bound=0.9)
        report = fock.verify_nc_rational(wfa, seed=3)
        assert report.head_exact and report.passed
        assert 0.0 < report.max_ratio <= 1.0
        assert report.max_spectral_radius < 0.95
        lines = list(report.lines())
        assert lines[0] == "zero substitution returns head coefficient exactly: True"
        assert lines[1] == "trials: 100 (matrix sizes 1 and 2, degree-8 series)"
        assert fock.verify_nc_rational(wfa, seed=3) == report

    @pytest.mark.parametrize("seed", [6, 13, 17, 29, 30, 31, 48, 51, 81, 111, 114, 115,
                                      117, 126, 142, 145, 150, 156])
    def test_every_trial_is_compared_against_a_finite_bound(self, seed, monkeypatch):
        """The CLI's default fixture at seeds whose draws include a pencil with
        ||K||_2 >= 1, where the tail bound is infinite: such a trial is halved,
        so the arguments each trial compares at have a finite bound."""
        compared = []
        exact = fock.nc_rational_eval

        def recording(wfa, arguments):
            compared.extend(substitutions(arguments))
            return exact(wfa, arguments)

        monkeypatch.setattr(fock, "nc_rational_eval", recording)
        wfa = random_stable_wfa(2, 3, seed=seed, radius_bound=0.9)
        report = fock.verify_nc_rational(wfa, seed=seed)
        assert report.passed
        assert len(compared) == 1 + fock.NC_TRIALS  # the zero substitution, then one per trial
        for arguments in compared[1:]:
            assert np.isfinite(sum(fock.series_bounds(wfa, arguments)[2:]))

    def test_a_trial_with_an_infinite_bound_is_not_evaluated(self, monkeypatch):
        # every pencil of this fixture has a spectral radius near 2e198, so no
        # trial's bound is finite: the report fails with ratio inf, and
        # neither side is evaluated, so no substitution raises
        evaluated, summed = [], []
        exact, exact_series = fock.nc_rational_eval, fock.nc_rational_series

        def recording(wfa, arguments):
            evaluated.extend(substitutions(arguments))
            return exact(wfa, arguments)

        def counting(wfa, arguments):
            summed.extend(substitutions(arguments))
            return exact_series(wfa, arguments)

        monkeypatch.setattr(fock, "nc_rational_eval", recording)
        monkeypatch.setattr(fock, "nc_rational_series", counting)
        wfa = load_document(FIXTURES / "nan-discrepancy.wfa").wfa
        report = fock.verify_nc_rational(wfa)
        assert report.max_ratio == math.inf and not report.passed
        assert len(evaluated) == 1  # the zero substitution only
        assert summed == []  # no partial sum
        assert all(np.array_equal(z, np.zeros((1, 1))) for z in evaluated[0])

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2])
    def test_a_stack_equals_its_substitutions_one_by_one(self, d, m):
        wfa = random_stable_wfa(d, 3, seed=d, radius_bound=0.9)
        stack = 0.3 * np.random.default_rng(10 * d + m).standard_normal((5, d, m, m))
        stack[4] *= 20  # ||K||_2 >= 1: infinite bounds
        bounds = fock.series_bounds(wfa, stack)
        closed = fock.nc_rational_eval(wfa, stack[:4])
        partial = fock.nc_rational_series(wfa, stack)
        assert all(b.shape == (5,) for b in bounds) and bounds[2][4] == math.inf
        for t, arguments in enumerate(list(z) for z in stack):
            one = fock.series_bounds(wfa, arguments)
            assert all(b.shape == () for b in one)
            assert [b.tobytes() for b in one] == [b[t].tobytes() for b in bounds]
            assert fock.nc_rational_series(wfa, arguments).tobytes() == partial[t].tobytes()
            if t < 4:
                assert fock.nc_rational_eval(wfa, arguments).tobytes() == closed[t].tobytes()

    def test_the_suite_builds_one_table_per_stack(self, monkeypatch):
        tables = []
        exact = fock.evaluation_table

        def counting(wfa, max_length):
            tables.append(max_length)
            return exact(wfa, max_length)

        monkeypatch.setattr(fock, "evaluation_table", counting)
        fock.verify_nc_rational(random_stable_wfa(3, 3, seed=4, radius_bound=0.9), seed=4)
        assert tables == [fock.NC_SERIES_DEGREE] * 2  # matrix sizes 1 and 2

    @pytest.mark.parametrize(("name", "bound", "largest"), [
        pytest.param(None, 1000, [(1800, 51200), (36, 1024)], id="1000"),
        pytest.param(None, 7 * 511 * 4, [(1800, 51200), (252, 7168)], id="14308"),
        pytest.param("four-letter.wfa", 10**6, [(1008, 7_340_032), (99, 720_896)],
                     id="four-letter"),
    ])
    def test_a_split_stack_gives_the_same_report(self, monkeypatch, name, bound, largest):
        # a trial holds its pencil, (3 m)^2 entries, and its argument
        # products, m^2 per word of the degree-8 table: 511 words at d = 2,
        # where 1000 takes one trial at a time and 14308 = 7 x 511 x 4 seven
        # at m = 2 (28 at m = 1); 87,381 at d = 4, where the default bound
        # takes the m = 2 stack 28 at a time and 10^6 takes 11 at m = 1 and
        # 2 at m = 2
        wfa = (random_stable_wfa(2, 3, seed=9, radius_bound=0.9) if name is None
               else load_document(FIXTURES / name).wfa)
        levels, pencils = [], []  # (entries, trials or the entries of one)
        exact, exact_pencil = fock._prefix_levels, fock._pencil

        def recording(start, matrices, max_length):
            for level in exact(start, matrices, max_length):
                levels.append((level.size, len(level)))
                yield level

        def recording_pencil(wfa, arguments):
            pencil = exact_pencil(wfa, arguments)
            pencils.append((pencil.size, pencil.shape[-1] ** 2))
            return pencil

        monkeypatch.setattr(fock, "_prefix_levels", recording)
        monkeypatch.setattr(fock, "_pencil", recording_pencil)
        reports, maxima = [], []  # the largest pencil stack and level per bound
        for limit in (words.MAX_BLOCK_ENTRIES, bound):
            levels.clear()
            pencils.clear()
            monkeypatch.setattr("wfamin.words.MAX_BLOCK_ENTRIES", limit)
            reports.append(fock.verify_nc_rational(wfa, seed=9))
            # a level or pencil stack over more than one substitution stays
            # within the bound in force
            assert all(size <= limit or trials == 1 for size, trials in levels)
            assert all(size <= max(limit, one) for size, one in pencils)
            maxima.append((max(pencils)[0], max(levels)[0]))
        assert reports[0] == reports[1]
        assert len(levels) > 2 * fock.NC_SERIES_DEGREE  # more than one part per stack
        assert maxima == largest

    def test_empty_arguments_refused(self):
        wfa = random_stable_wfa(2, 3, seed=8, radius_bound=0.9)
        empty = [np.zeros((0, 0))] * 2
        for call in (lambda: fock.nc_rational_eval(wfa, empty),
                     lambda: fock.series_bounds(wfa, empty),
                     lambda: fock.nc_rational_series(wfa, empty)):
            with pytest.raises(ValueError, match="^arguments must be nonempty square matrices"):
                call()

    def test_argument_count_must_match_the_alphabet(self):
        wfa = random_stable_wfa(2, 3, seed=8, radius_bound=0.9)
        with pytest.raises(ValueError, match="^expected 2 arguments, got 3$"):
            fock.nc_rational_eval(wfa, [0.1 * np.eye(2)] * 3)

    def test_float_degree_refused(self):
        # both read NC_SERIES_DEGREE, so no degree, float or int, is taken
        wfa = random_stable_wfa(2, 3, seed=8, radius_bound=0.9)
        arguments = [0.1 * np.eye(2)] * 2
        for call in (fock.series_bounds, fock.nc_rational_series):
            for degree in (8.0, fock.NC_SERIES_DEGREE):
                with pytest.raises(TypeError, match="positional argument"):
                    call(wfa, arguments, degree)

    def test_non_contractive_substitution_rejected(self):
        wfa = Wfa([1.0], [np.eye(1)], [1.0])
        with pytest.raises(StabilityError, match="spectral radius"):
            fock.nc_rational_eval(wfa, [np.array([[1.5]])])

    def test_contraction_margins(self, two_state_wfa):
        rho, norm_sum, _, _ = fock.series_bounds(two_state_wfa, [np.array([[0.5]])])
        assert rho < 1.0
        assert norm_sum == pytest.approx(0.25)

    def test_series_table_is_held_to_the_bound_before_the_products(self, monkeypatch):
        # the degree-8 table's widest level holds 256 x 2 prefix states
        def unreachable(*args):
            raise AssertionError("argument products built before the guard")

        monkeypatch.setattr("wfamin.words.MAX_BLOCK_ENTRIES", 500)
        monkeypatch.setattr("wfamin.fock._prefix_levels", unreachable)
        wfa = random_stable_wfa(2, 2, seed=8, radius_bound=0.9)
        with pytest.raises(ValueError, match=r"^refusing to build a 256 x 2 prefix-state level "):
            fock.nc_rational_series(wfa, [0.1 * np.eye(2)] * 2)


class TestFlippedSymbol:
    """The flipped symbol's coefficients are ``evaluation_table``."""

    def test_equals_first_hankel_column_exactly(self):
        for seed in (0, 1):
            wfa = random_stable_wfa(2, 3, seed=seed, radius_bound=0.9)
            series = evaluation_table(wfa, 4)
            column = build_hankel(wfa, 4).entries[:, 0]
            np.testing.assert_array_equal(series, column)

    def test_nilpotent_pattern(self, nilpotent_wfa):
        series = evaluation_table(nilpotent_wfa, 2)
        np.testing.assert_array_equal(series, [0, 1, 0, 0, 1, 0, 0])

    def test_basis_of_another_alphabet_is_refused(self, two_state_wfa):
        with pytest.raises(ValueError, match="^basis and automaton alphabet sizes differ$"):
            fock.flipped_multiplier_matrix(two_state_wfa, WordIndex(2, 3))

    def test_one_letter_equals_symbol_coefficients(self, two_state_wfa):
        # one letter: the flip is the identity, so the flipped multiplier's
        # column at the empty word is the symbol's coefficient sequence
        series = evaluation_table(two_state_wfa, 6)
        multiplier = fock.flipped_multiplier_matrix(two_state_wfa, WordIndex(1, 6))
        np.testing.assert_array_equal(multiplier[:, 0], series)


class TestMultiplier:
    def test_flipped_symbol_multiplier_commutes_on_interior(self, nilpotent_wfa):
        basis = WordIndex(2, 4)
        op = fock.flipped_multiplier_matrix(nilpotent_wfa, basis)
        report = fock.verify_multiplier_intertwining(op, basis)
        assert report.max_discrepancy == 0.0

    def test_random_wfa_multiplier_commutes_on_interior(self):
        wfa = random_stable_wfa(2, 3, seed=17, radius_bound=0.9)
        basis = WordIndex(2, 4)
        op = fock.flipped_multiplier_matrix(wfa, basis)
        report = fock.verify_multiplier_intertwining(op, basis)
        assert report.max_discrepancy < 1e-14

    def test_non_square_operator_is_refused(self):
        basis = WordIndex(2, 3)
        with pytest.raises(ValueError, match=r"^operator has shape \(15, 14\), expected square"):
            fock.verify_multiplier_intertwining(np.zeros((15, 14)), basis)

    def test_identity_is_not_a_multiplier(self):
        basis = WordIndex(2, 3)
        report = fock.verify_multiplier_intertwining(np.eye(len(basis)), basis)
        assert report.max_discrepancy > 0.0

    def test_peak_memory_below_one_interior_square(self):
        # the check reads op through views: its temporaries stay below one
        # cut x cut float matrix (2.09 MB at d = 2, degree 9, N = 1023)
        basis = WordIndex(2, 9)
        op = fock.flipped_multiplier_matrix(random_stable_wfa(2, 3, seed=5, radius_bound=0.9), basis)
        cut = basis.first_index_of_length(9)
        tracemalloc.start()
        try:
            report = fock.verify_multiplier_intertwining(op, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.max_discrepancy < 1e-14
        assert peak < cut * cut * 8

    def test_flipped_multiplier_is_held_to_the_block_bound(self, monkeypatch):
        wfa = random_stable_wfa(2, 3, seed=2, radius_bound=0.9)
        # N = 131,071 words: a 128 GiB matrix, refused before anything is built
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=(
                r"^refusing to build a 131071 x 131071 flipped multiplier "
                r"\(17179607041 entries > 10000000\)$"
            )):
                fock.flipped_multiplier_matrix(wfa, WordIndex(2, 16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        # the bound is the block bound: N x N entries
        monkeypatch.setattr("wfamin.words.MAX_BLOCK_ENTRIES", len(WordIndex(2, 3)) ** 2)
        fock.flipped_multiplier_matrix(wfa, WordIndex(2, 3))
        with pytest.raises(ValueError, match="refusing"):
            fock.flipped_multiplier_matrix(wfa, WordIndex(2, 4))

    def test_degree_zero_basis_rejected(self):
        basis = WordIndex(2, 0)
        with pytest.raises(ValueError, match="degree must be >= 1"):
            fock.verify_multiplier_intertwining(np.eye(1), basis)

    def test_zero_series_multiplier(self):
        basis = WordIndex(2, 3)
        op = flip_matrix(basis) @ right_multiplication_matrix(
            basis, np.zeros(len(basis))
        )
        report = fock.verify_multiplier_intertwining(op, basis)
        assert report.max_discrepancy == 0.0
