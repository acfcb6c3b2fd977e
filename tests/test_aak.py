import dataclasses
import inspect
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from wfamin.aak import (
    _bartels_stewart,
    _optimal_sequence,
    _schmidt_pair,
    _singular_data,
    _smith_doubling,
    _solve_stein,
    aak_approximate,
    gramians,
    hankel_norm,
    hankel_singular_values,
    schmidt_pair,
)
from wfamin.cli import main
from wfamin.errors import NumericalError, RankDeficiencyError, StabilityError
from wfamin.hankel import _factored_svd, _state_factors, build_hankel, is_minimal
from wfamin.io import load_document
from wfamin.wfa import Wfa, evaluation_table, random_stable_wfa, spectral_radius
from wfamin.words import WordIndex

from reference import (
    check_hankel_property,
    error_circle_samples,
    proportional_lift,
    proportional_pair,
    stein_kronecker,
    v_at,
    v_coefficients,
    w_at,
    w_coefficients,
)

FIXTURES = Path(__file__).parent / "fixtures"


class TestSymbolCoefficients:
    """The negative Fourier coefficients alpha^T A^m beta of a one-letter
    symbol are the automaton's values on a^m."""

    def test_geometric(self, geometric_wfa):
        np.testing.assert_allclose(evaluation_table(geometric_wfa, 3), [1, 0.5, 0.25, 0.125])

    def test_scalar_pole(self):
        # phi(z) = 1/(z - a) has negative coefficients a**m
        a = 0.7
        wfa = Wfa([1.0], [[[a]]], [1.0])
        np.testing.assert_allclose(evaluation_table(wfa, 5), a ** np.arange(6), rtol=1e-15)

    def test_zero_final_vector(self):
        wfa = Wfa([1.0, 2.0], [0.5 * np.eye(2)], [0.0, 0.0])
        np.testing.assert_array_equal(evaluation_table(wfa, 4), np.zeros(5))

    def test_count_must_be_positive(self, geometric_wfa):
        with pytest.raises(ValueError):
            evaluation_table(geometric_wfa, -1)


def _non_normal(n: int, rho: float, rng, strength: float = 0.5) -> np.ndarray:
    """A random n x n matrix of spectral radius rho, far from normal.

    Its Schur form has a uniform diagonal in (-1, 1) and strength times a
    Gaussian strictly upper triangle.
    """
    schur = np.diag(rng.uniform(-1, 1, n)) + strength * np.triu(rng.standard_normal((n, n)), 1)
    basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
    matrix = basis @ schur @ basis.T
    return rho * matrix / spectral_radius(matrix)


class TestSolveStein:
    @pytest.mark.parametrize("rho", [0.5, 0.9, 0.999])
    @pytest.mark.parametrize("rows, cols", [(6, 6), (3, 7), (7, 2)])
    def test_matches_kronecker_solve(self, rho, rows, cols):
        rng = np.random.default_rng(0)
        a, b = _non_normal(rows, rho, rng), _non_normal(cols, rho, rng)
        c = rng.standard_normal((rows, cols))
        expected = stein_kronecker(a, b, c)
        # the series converges more slowly, and loses more to rounding, as
        # rho(a) rho(b) approaches 1
        np.testing.assert_allclose(
            _solve_stein(a, b, c)[0], expected, rtol=0,
            atol=1e-14 / (1 - rho) ** 2 * np.linalg.norm(expected),
        )

    @pytest.mark.parametrize("rows, cols", [(8, 8), (3, 7), (7, 2)])
    def test_bartels_stewart_matches_kronecker_solve(self, rows, cols):
        # strongly non-normal, where doubling loses accuracy; both solves
        # are backward stable, so they agree to the condition number of
        # the Kronecker system times the unit roundoff
        rng = np.random.default_rng(1)
        a, b = _non_normal(rows, 0.99, rng, 2.0), _non_normal(cols, 0.99, rng, 2.0)
        c = rng.standard_normal((rows, cols))
        solution, expected = _bartels_stewart(a, b, c), stein_kronecker(a, b, c)
        residual = np.linalg.norm(solution - a @ solution @ b.T - c)
        assert residual <= 1e-15 * (
            np.linalg.norm(c) + np.linalg.norm(a) * np.linalg.norm(solution) * np.linalg.norm(b)
        )
        condition = np.linalg.cond(np.eye(rows * cols) - np.kron(a, b))
        np.testing.assert_allclose(
            solution, expected, rtol=0, atol=1e-16 * condition * np.linalg.norm(expected)
        )

    def test_inaccurate_doubling_is_not_kept(self):
        # the input's observability equation: the doubling's residual
        # exceeds STEIN_RTOL ||X||, and the solution kept is backward stable
        rng = np.random.default_rng(37)
        a = _non_normal(8, 0.99, rng, 2.0).T
        c = np.outer(*[rng.standard_normal(8)] * 2)

        def residual(x):
            return np.linalg.norm(x - a @ x @ a.T - c) / np.linalg.norm(x)

        assert residual(_smith_doubling(a, a, c)) > 1e-9
        assert residual(_solve_stein(a, a, c)[0]) < 1e-14

    @pytest.mark.parametrize("rho", [0.5, 0.9, 0.999])
    @pytest.mark.parametrize("rows, cols", [(6, 6), (3, 7), (7, 2)])
    def test_paired_members_match_kronecker_solve(self, rho, rows, cols):
        # one stacked solve of two equations; each member is held to the
        # tolerance of a solo solve
        rng = np.random.default_rng(2)
        a = np.stack([_non_normal(rows, rho, rng) for _ in range(2)])
        b = np.stack([_non_normal(cols, rho, rng) for _ in range(2)])
        c = rng.standard_normal((2, rows, cols))
        solution, _ = _solve_stein(a, b, c)
        for member in range(2):
            expected = stein_kronecker(a[member], b[member], c[member])
            np.testing.assert_allclose(
                solution[member], expected, rtol=0,
                atol=1e-14 / (1 - rho) ** 2 * np.linalg.norm(expected),
            )

    @staticmethod
    def _hard_and_easy():
        """The strongly non-normal equation of test_inaccurate_doubling_is_not_kept
        stacked with a normal one, as (sides, forcings)."""
        rng = np.random.default_rng(37)
        hard = _non_normal(8, 0.99, rng, 2.0).T
        c_hard = np.outer(*[rng.standard_normal(8)] * 2)
        easy = _non_normal(8, 0.9, rng, 0.0)
        c_easy = np.outer(*[rng.standard_normal(8)] * 2)
        return np.stack([hard, easy]), np.stack([c_hard, c_easy])

    def test_pair_falls_back_one_member_at_a_time(self, monkeypatch):
        # only the hard member goes to Bartels-Stewart, and the easy one
        # keeps the doubling a solo solve gives
        sides, forcings = self._hard_and_easy()
        fallbacks = []

        def recorded(a, b, c):
            fallbacks.append(a)
            return _bartels_stewart(a, b, c)

        monkeypatch.setattr("wfamin.aak._bartels_stewart", recorded)
        solution, _ = _solve_stein(sides, sides, forcings)
        assert len(fallbacks) == 1
        np.testing.assert_array_equal(fallbacks[0], sides[0])
        np.testing.assert_array_equal(
            solution[1], _smith_doubling(sides[1], sides[1], forcings[1])
        )
        residual = np.linalg.norm(solution[0] - sides[0] @ solution[0] @ sides[0].T - forcings[0])
        assert residual < 1e-14 * np.linalg.norm(solution[0])

    def test_residuals_are_those_of_the_returned_solutions(self):
        # the hard member's residual is measured again after its fallback;
        # the easy member's is the one its doubling was kept on
        sides, forcings = self._hard_and_easy()
        solution, residuals = _solve_stein(sides, sides, forcings)
        for x, side, c, residual in zip(solution, sides, forcings, residuals):
            assert residual == np.linalg.norm(x - side @ x @ side.T - c)

    def test_inaccurate_fallback_is_refused(self, monkeypatch):
        # a mixed (b != a) equation, as the extraction solves, with a planted
        # solution of norm 1.6 and off-diagonal weights 1e6: the doubling fails
        # its backward test, and the Bartels-Stewart solution, backward
        # stable at ||a|| ||b|| of about 1e12, misses STEIN_RTOL (1 + ||X||)
        rng = np.random.default_rng(0)
        a = np.triu(rng.uniform(-0.9, 0.9, (3, 3)))
        a[np.triu_indices(3, 1)] *= 1e6
        b = np.tril(rng.uniform(-0.9, 0.9, (2, 2)))
        b[1, 0] *= 1e6
        planted = rng.standard_normal((3, 2))
        fallbacks = []

        def recorded(*args):
            fallbacks.append(1)
            return _bartels_stewart(*args)

        monkeypatch.setattr("wfamin.aak._bartels_stewart", recorded)
        with pytest.raises(NumericalError, match="residuals"):
            _solve_stein(a, b, planted - a @ planted @ b.T)
        assert len(fallbacks) == 1

    def test_zero_rows(self):
        solution, residual = _solve_stein(np.zeros((0, 0)), 0.5 * np.eye(3), np.zeros((0, 3)))
        assert solution.shape == (0, 3)
        assert residual == 0.0

    def test_overflow_is_a_numerical_failure(self):
        # stable, but the solution's entries exceed the largest double; no
        # numpy warning escapes (tier-1 turns warnings into errors)
        a = np.array([[0.5, 1e200], [0.0, 0.5]])
        with pytest.raises(NumericalError, match="overflowed"):
            _solve_stein(a, a, np.ones((2, 2)))

    def test_overflowing_doubling_still_falls_back(self, monkeypatch):
        # A^2 overflows, so the doubling is not finite, yet the solution
        # (4/3) e_1 e_1^T is: a member whose doubling overflowed is not
        # refused at once but solved by Bartels-Stewart
        a = np.array([[0.5, 1e200, 0.0], [0.0, 0.5, 1e200], [0.0, 0.0, 0.5]])
        c = np.zeros((3, 3))
        c[0, 0] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(_smith_doubling(a, a, c)).any()
        solution, residual = _solve_stein(a, a, c)
        np.testing.assert_allclose(solution, 4.0 / 3.0 * c, rtol=1e-15, atol=0)
        assert residual == 0.0
        # (e_3, A, e_1) realizes 0: both Gramians fall back, and the input is
        # refused as not minimal (exit 2), not as a failed solve (exit 1)
        fallbacks = []

        def recorded(*args):
            fallbacks.append(1)
            return _bartels_stewart(*args)

        monkeypatch.setattr("wfamin.aak._bartels_stewart", recorded)
        with pytest.raises(RankDeficiencyError, match="not minimal"):
            aak_approximate(Wfa([0.0, 0.0, 1.0], [a], [1.0, 0.0, 0.0]), 1)
        assert len(fallbacks) == 2

    def test_no_fixed_point_is_a_numerical_failure(self):
        # X = X + I has no solution: every doubling doubles X, and the
        # Schur pencils share the eigenvalue 1
        with pytest.raises(NumericalError, match="singular"):
            _solve_stein(np.eye(2), np.eye(2), np.eye(2))


class TestGramians:
    def test_scalar_fixed_point(self, geometric_wfa):
        pair = gramians(geometric_wfa)
        np.testing.assert_allclose(pair.controllability, [[4.0 / 3.0]], rtol=1e-14)
        np.testing.assert_allclose(pair.observability, [[4.0 / 3.0]], rtol=1e-14)

    def test_zero_final_vector(self):
        wfa = Wfa([1.0, 1.0], [0.5 * np.eye(2)], [0.0, 0.0])
        pair = gramians(wfa)
        np.testing.assert_array_equal(pair.controllability, np.zeros((2, 2)))

    def test_diagonal_closed_form(self):
        # A = diag(a_1, a_2), beta = (1, 1): P_ij = sum_k (a_i a_j)**k
        a = np.array([0.6, -0.4])
        wfa = Wfa([1.0, 2.0], [np.diag(a)], [1.0, 1.0])
        pair = gramians(wfa)
        expected = 1.0 / (1.0 - np.outer(a, a))
        np.testing.assert_allclose(pair.controllability, expected, rtol=1e-13)

    def test_fixed_point_residuals(self, two_state_wfa):
        pair = gramians(two_state_wfa)
        a = two_state_wfa.transitions[0]
        p, q = pair.controllability, pair.observability
        assert np.linalg.norm(p - a @ p @ a.T - np.outer(two_state_wfa.beta, two_state_wfa.beta)) < 1e-12
        assert np.linalg.norm(q - a.T @ q @ a - np.outer(two_state_wfa.alpha, two_state_wfa.alpha)) < 1e-12

    def test_strongly_non_normal_input(self):
        # spectral radius 0.99, max_j ||A^j|| about 2300: the Gramians are
        # backward stable, and k = 0..6 are certified
        rng = np.random.default_rng(37)
        a = _non_normal(8, 0.99, rng, 2.0)
        wfa = Wfa(rng.standard_normal(8), [a], rng.standard_normal(8))
        pair = gramians(wfa)
        scale = np.linalg.norm(a) ** 2 * max(
            np.linalg.norm(pair.controllability), np.linalg.norm(pair.observability)
        )
        assert pair.controllability_residual <= 1e-14 * scale
        assert pair.observability_residual <= 1e-14 * scale
        for k in range(7):
            result = aak_approximate(wfa, k)
            assert abs(result.attained - result.error) <= 1e-6 * result.singular_values[0]

    def test_nan_observability_residual_is_refused(self, monkeypatch, two_state_wfa):
        # one paired solve gives (controllability, observability); when the
        # second member's doubling and its fallback both give NaN, the
        # solve's acceptance refuses it
        def poisoned_doubling(a, b, c):
            solution = _smith_doubling(a, b, c)
            solution[1] = np.nan
            return solution

        def poisoned_fallback(a, b, c):
            return np.full_like(c, np.nan)

        monkeypatch.setattr("wfamin.aak._smith_doubling", poisoned_doubling)
        monkeypatch.setattr("wfamin.aak._bartels_stewart", poisoned_fallback)
        with pytest.raises(NumericalError, match="residuals"):
            gramians(two_state_wfa)

    @pytest.mark.parametrize("weight", [1e200, 1e150])
    def test_overflow_is_a_numerical_failure(self, weight):
        # at 1e200 the Gramian itself overflows; at 1e150 it is finite but
        # its norm overflows, which must not pass the residual test
        wfa = Wfa([1.0, 1.0], [np.array([[0.5, weight], [0.0, 0.5]])], [1.0, 1.0])
        with pytest.raises(NumericalError, match="overflowed"):
            gramians(wfa)

    @given(n=st.integers(1, 8), rho=st.floats(0.1, 0.95), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_pair_matches_kronecker_solve(self, n, rho, seed):
        wfa = random_stable_wfa(1, n, seed=seed, radius_bound=rho)
        a = wfa.transitions[0]
        pair = gramians(wfa)
        tol = 1e-14 / (1 - spectral_radius(a)) ** 2
        for gramian, side, weight in ((pair.controllability, a, wfa.beta),
                                      (pair.observability, a.T, wfa.alpha)):
            expected = stein_kronecker(side, side, np.outer(weight, weight))
            np.testing.assert_allclose(
                gramian, expected, rtol=0, atol=tol * np.linalg.norm(expected)
            )

    def test_divergent_radius(self):
        wfa = Wfa([1.0], [[[1.2]]], [1.0])
        with pytest.raises(StabilityError, match="1.2"):
            gramians(wfa)

    def test_multi_letter_rejected(self, nilpotent_wfa):
        with pytest.raises(ValueError):
            gramians(nilpotent_wfa)


class TestHankelSingularValues:
    def test_rank_one_value(self, geometric_wfa):
        # H = v v^T with v = (1, .5, .25, ...), so sigma_0 = v.v = 4/3
        sigmas = hankel_singular_values(geometric_wfa)
        np.testing.assert_allclose(sigmas, [4.0 / 3.0], rtol=1e-14)

    def test_scaling_in_beta(self, two_state_wfa):
        base = hankel_singular_values(two_state_wfa)
        scaled = Wfa(two_state_wfa.alpha, two_state_wfa.transitions, 3.0 * two_state_wfa.beta)
        np.testing.assert_allclose(hankel_singular_values(scaled), 3.0 * base, rtol=1e-13)

    def test_matches_large_truncation_svd(self, two_state_wfa):
        sigmas = hankel_singular_values(two_state_wfa)
        block = build_hankel(two_state_wfa, 63)
        truncated = np.linalg.svd(block.entries, compute_uv=False)[:2]
        np.testing.assert_allclose(truncated, sigmas, atol=1e-8)

    def test_truncations_increase_to_operator_norm(self, two_state_wfa):
        sigmas = hankel_singular_values(two_state_wfa)
        norms = [
            np.linalg.norm(build_hankel(two_state_wfa, n - 1).entries, 2)
            for n in (8, 16, 32, 64)
        ]
        assert all(norms[i] <= norms[i + 1] + 1e-12 for i in range(len(norms) - 1))
        assert all(norm <= sigmas[0] + 1e-12 for norm in norms)
        assert norms[-1] == pytest.approx(sigmas[0], abs=1e-10)

    def test_non_minimal_rejected(self):
        redundant = Wfa([0.5, 0.5], [np.diag([0.5, 0.5])], [1.0, 1.0])
        with pytest.raises(RankDeficiencyError):
            hankel_singular_values(redundant)


class TestSchmidtPair:
    def test_defining_equations_on_truncation(self, two_state_wfa):
        for k in (0, 1):
            pair = schmidt_pair(two_state_wfa, k)
            n = 220
            block = build_hankel(two_state_wfa, n - 1).entries
            v = v_coefficients(pair, n)
            w = w_coefficients(pair, n)
            assert np.abs(block @ v - pair.sigma * w).max() < 1e-10
            assert np.abs(block.T @ w - pair.sigma * v).max() < 1e-10

    def test_function_values_match_series(self, two_state_wfa):
        pair = schmidt_pair(two_state_wfa, 1)
        z = np.exp(2j * np.pi * np.array([0.12, 0.48, 0.9]))
        v_series = sum(c * z**j for j, c in enumerate(v_coefficients(pair, 120)))
        w_series = sum(c * z ** (-m - 1.0) for m, c in enumerate(w_coefficients(pair, 120)))
        np.testing.assert_allclose(v_at(pair, z), v_series, atol=1e-13)
        np.testing.assert_allclose(w_at(pair, z), w_series, atol=1e-13)

    def test_k_is_read_as_an_integer(self, monkeypatch):
        # True is k = 1; a float or a numpy bool is refused before any solve
        wfa = load_document(FIXTURES / "e2.wfa").wfa
        expected, pair = schmidt_pair(wfa, 1), schmidt_pair(wfa, True)
        assert pair.sigma == expected.sigma
        np.testing.assert_array_equal(pair.direction, expected.direction)

        def unreachable(*args):
            raise AssertionError("a Gramian solve ran")

        monkeypatch.setattr("wfamin.aak._singular_data", unreachable)
        for k in (1.0, np.bool_(True)):
            with pytest.raises(TypeError, match=rf"^k must be an integer, got {k!r}$"):
                schmidt_pair(wfa, k)

    def test_k_out_of_range_is_refused(self, monkeypatch):
        # before any solve, as aak_approximate refuses it
        wfa = load_document(FIXTURES / "e2.wfa").wfa

        def unreachable(*args):
            raise AssertionError("a Gramian solve ran")

        monkeypatch.setattr("wfamin.aak._singular_data", unreachable)
        for k in (-1, 2):
            with pytest.raises(ValueError, match=rf"^k must lie in \[0, 2\), got {k}$"):
                schmidt_pair(wfa, k)

    def test_k_is_checked_before_stability(self):
        # an unstable one-state input: k = 1 is out of range, whatever the radius
        unstable = Wfa([1.0], [[[1.5]]], [1.0])
        for call in (schmidt_pair, aak_approximate):
            with pytest.raises(ValueError, match=r"^k must lie in \[0, 1\), got 1$"):
                call(unstable, 1)
            with pytest.raises(StabilityError):
                call(unstable, 0)

    @pytest.mark.parametrize("sigmas, warned", [
        ((1.0, 1.0, 0.5), [0]), ((2.0, 1.0, 1.0), [1]), ((2.0, 1.0, 0.5), []),
    ])
    def test_one_tie_group_for_the_pair_and_the_warnings(self, sigmas, warned):
        # k = 1 with planted singular values: sigma_1 ties sigma_0, sigma_2 or
        # neither; the pair is chosen and the warnings named inside one group
        wfa = random_stable_wfa(1, 3, seed=21, radius_bound=0.8)
        _, left, sqrt_obs, gramian_pair = _singular_data(wfa)
        sigmas = np.array(sigmas)
        pair, warnings = _schmidt_pair(wfa, 1, (sigmas, left, sqrt_obs, gramian_pair))
        assert warnings == tuple(
            f"singular values {i} and {i + 1} are nearly equal; the optimal "
            "approximation may not be unique" for i in warned
        )
        tied = [1] + [i for i in (0, 2) if sigmas[i] == sigmas[1]]
        heads = np.abs(left[:, tied].T @ (sqrt_obs @ wfa.beta))
        np.testing.assert_array_equal(pair.direction,
                                      sqrt_obs @ left[:, tied[np.argmax(heads)]] / sigmas[1])

    def test_vanishing_sigma_has_no_schmidt_pair(self):
        # stable and minimal, but sigma_1 / sigma_0 is about 1.5e-17
        wfa = load_document(FIXTURES / "vanishing-sigma.wfa").wfa
        assert is_minimal(wfa)
        with pytest.raises(NumericalError, match="sigma_1 is 0 at working precision"):
            aak_approximate(wfa, 1)
        with pytest.raises(NumericalError, match="sigma_1 is 0 at working precision"):
            schmidt_pair(wfa, 1)
        assert aak_approximate(wfa, 0).order == 0

    def test_vanishing_sigma_is_returned_as_approximate_prints_it(self, tmp_path, capsys):
        # hankel_singular_values refuses nothing of its own: it returns the
        # values `approximate ... 0` prints, 5.263157894736843 and 7.8e-17
        path = FIXTURES / "vanishing-sigma.wfa"
        sigmas = hankel_singular_values(load_document(path).wfa)
        assert main(["approximate", str(path), "0", "--no-timestamp",
                     "-o", str(tmp_path / "out.wfa")]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert "singular values: " + " ".join(map(repr, sigmas.tolist())) in printed
        assert sigmas[0] == pytest.approx(5.263157894736843, rel=1e-14)
        assert 0.0 < sigmas[1] <= np.finfo(float).eps * sigmas[0]


def circle_fourier_oracle(result, count, num_points=8192):
    """Independent extraction oracle: trapezoid Fourier integrals of the
    error symbol sampled on the unit circle (aliasing decays geometrically)."""
    z = np.exp(2j * np.pi * np.arange(num_points) / num_points)
    values = result.schmidt.sigma * w_at(result.schmidt, z) / v_at(result.schmidt, z)
    out = np.empty(count)
    for m in range(count):
        out[m] = np.real(np.mean(values * z ** (m + 1)))
    return out


class TestAakApproximate:
    def test_rank_zero_is_zero_sequence(self, geometric_wfa):
        result = aak_approximate(geometric_wfa, 0)
        assert result.error == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert np.abs(result.coefficients(40)).max() < 1e-12
        assert result.wfa.num_states == 1
        assert result.wfa.evaluate((0, 0)) == 0.0

    def test_coefficient_count_below_one_is_refused(self, geometric_wfa):
        result = aak_approximate(geometric_wfa, 0)
        with pytest.raises(ValueError, match="^count must be >= 1, got 0$"):
            result.coefficients(0)

    def test_k_is_read_as_an_integer(self, two_state_wfa, monkeypatch):
        # True is k = 1; a float or a numpy bool is refused before any solve
        expected = aak_approximate(two_state_wfa, 1)
        approx = aak_approximate(two_state_wfa, True)
        assert approx.order == 1 and type(approx.order) is int
        assert (approx.error, approx.attained) == (expected.error, expected.attained)

        def unreachable(*args):
            raise AssertionError("a Gramian solve ran")

        monkeypatch.setattr("wfamin.aak._singular_data", unreachable)
        for k in (1.0, np.bool_(True)):
            with pytest.raises(TypeError, match=rf"^k must be an integer, got {k!r}$"):
                aak_approximate(two_state_wfa, k)

    def test_two_gramian_solves(self, two_state_wfa, monkeypatch):
        # the input's Gramians, then the certificate's over the 2 + 1 states
        # of the difference automaton
        states = []

        def counted(wfa):
            states.append(wfa.num_states)
            return gramians(wfa)

        monkeypatch.setattr("wfamin.aak.gramians", counted)
        aak_approximate(two_state_wfa, 1)
        assert states == [2, 3]

    def test_two_state_drop_to_one(self, two_state_wfa):
        sigmas = hankel_singular_values(two_state_wfa)
        result = aak_approximate(two_state_wfa, 1)
        h64 = build_hankel(two_state_wfa, 63).entries
        g64 = result.hankel_block(63).entries
        achieved = np.linalg.norm(h64 - g64, 2)
        assert abs(achieved - sigmas[1]) <= 1e-6 * sigmas[0]
        assert result.wfa.num_states == 1
        ok, _ = check_hankel_property(result.hankel_block(63), tol=0.0)
        assert ok

    def test_blocks_exactly_hankel_and_rank_k(self):
        wfa = random_stable_wfa(1, 4, seed=77, radius_bound=0.8)
        sigmas = hankel_singular_values(wfa)
        for k in range(4):
            result = aak_approximate(wfa, k)
            block = result.hankel_block(63)
            ok, witness = check_hankel_property(block, tol=0.0)
            assert ok, witness
            s = np.linalg.svd(block.entries, compute_uv=False)
            rank = np.count_nonzero(s > 1e-9 * max(s[0], sigmas[0]))
            assert rank == k

    def test_recovered_wfa_realizes_sequence(self, two_state_wfa):
        result = aak_approximate(two_state_wfa, 1)
        seq = result.coefficients(80)
        realized = np.array([result.wfa.evaluate((0,) * m) for m in range(80)])
        np.testing.assert_allclose(realized, seq, atol=1e-11)

    def test_error_symbol_has_constant_modulus(self, two_state_wfa):
        result = aak_approximate(two_state_wfa, 1)
        samples = error_circle_samples(result, 4096)
        assert abs(samples.max() / result.error - 1.0) < 1e-4
        assert abs(samples.min() / result.error - 1.0) < 1e-4

    def test_spectral_norm_bounded_by_symbol_sup_norm(self, two_state_wfa):
        result = aak_approximate(two_state_wfa, 1)
        h = build_hankel(two_state_wfa, 63).entries
        g = result.hankel_block(63).entries
        sup = error_circle_samples(result, 4096).max()
        assert np.linalg.norm(h - g, 2) <= sup + 1e-8

    def test_extraction_matches_circle_fourier_oracle(self, two_state_wfa):
        result = aak_approximate(two_state_wfa, 1)
        count = 60
        expected_g = result.coefficients(count)
        f_values = np.array([two_state_wfa.evaluate((0,) * m) for m in range(count)])
        oracle_g = f_values - circle_fourier_oracle(result, count)
        np.testing.assert_allclose(expected_g, oracle_g, atol=1e-12)

    def test_extraction_matches_circle_fourier_oracle_ten_states(self):
        wfa = random_stable_wfa(1, 10, seed=8, radius_bound=0.8)
        sigmas = hankel_singular_values(wfa)
        f_values = np.array([wfa.evaluate((0,) * m) for m in range(60)])
        for k in (1, 4, 7, 9):
            result = aak_approximate(wfa, k)
            oracle_g = f_values - circle_fourier_oracle(result, 60)
            np.testing.assert_allclose(result.coefficients(60), oracle_g, atol=1e-11 * sigmas[0])

    def test_zeros_near_circle_certified(self):
        # a six-state document of the aak-one-letter benchmark (seed 1,
        # document r2-n6) whose Schmidt zeros lie close to the unit circle;
        # windowed least-squares extraction gave up on it
        alpha = [0.7175130525725216, -0.3020819717072703, 1.7401210242168366,
                 -1.0684928577656814, -1.3062961297182314, 0.5680705629324108]
        matrix = [
            [4.0757255879755164e-02, -2.9609435714567714e-02, -1.2371853464866401e-02,
             4.1285263673089552e-02, -2.5748776323449071e-02, -3.1822537051029401e-02],
            [-3.4975332912890000e-01, -2.4755600068816752e-01, 1.1270386471779228e-01,
             -1.2992468795025125e-01, 1.0057358300050272e-01, 2.2791006480410214e-01],
            [-6.5478939455474561e-02, 5.2200360725134946e-02, 3.8305439911152073e-01,
             1.2819705000774589e-01, 3.3977648750710110e-01, 2.8287261266153341e-01],
            [1.3897484676406752e-01, -2.0641408002962554e-02, -1.5532529994726466e-01,
             -2.0507856278870770e-01, 8.9714688617768171e-02, 8.6367318205983770e-02],
            [-3.2213129637594574e-02, 1.5651936735311942e-01, -1.1152093799791028e-01,
             2.0480574132070078e-01, 7.3802340429321468e-03, -6.7012822028347900e-03],
            [-5.0415987337751072e-05, -1.8187455169511198e-02, 4.5901824856961659e-01,
             -2.9728233169611668e-01, 3.2692822074946060e-02, 2.2950433631332617e-01],
        ]
        beta = [-1.454469801233026, -2.3779497529666154, 0.8828866377279997,
                0.7613503126204363, 0.7322868629434504, -0.4874711446841277]
        wfa = Wfa(alpha, [matrix], beta)
        result = aak_approximate(wfa, 1)
        sigmas = result.singular_values
        assert result.wfa.num_states == 1
        h200 = build_hankel(wfa, 199).entries
        g200 = build_hankel(result.wfa, 199).entries
        assert abs(np.linalg.norm(h200 - g200, 2) - sigmas[1]) <= 1e-12 * sigmas[0]
        h = build_hankel(wfa, 63).entries
        g = build_hankel(result.wfa, 63).entries
        assert abs(np.linalg.norm(h - g, 2) - sigmas[1]) <= 1e-12 * sigmas[0]

    def test_eckart_young_never_beaten(self, two_state_wfa):
        result = aak_approximate(two_state_wfa, 1)
        h = build_hankel(two_state_wfa, 63).entries
        sigma_k_trunc = np.linalg.svd(h, compute_uv=False)[1]
        achieved = np.linalg.norm(h - result.hankel_block(63).entries, 2)
        rng = np.random.default_rng(5)
        for _ in range(100):
            candidate = rng.normal(size=(64, 1)) @ rng.normal(size=(1, 64))
            assert np.linalg.norm(h - candidate, 2) >= sigma_k_trunc - 1e-10
        assert achieved >= sigma_k_trunc - 1e-10

    def test_entrywise_duality_with_hankel_block(self, two_state_wfa):
        coeffs = evaluation_table(two_state_wfa, 12)
        block = build_hankel(two_state_wfa, 6).entries
        for i in range(7):
            for j in range(7):
                assert block[i, j] == coeffs[i + j]

    def test_tie_warning_path(self):
        # f(a) = 1 and 0 elsewhere: H is the exchange matrix on its first two
        # rows and columns, so sigma_0 = sigma_1 = 1
        wfa = Wfa([1.0, 0.0], [[[0.0, 1.0], [0.0, 0.0]]], [0.0, 1.0])
        result = aak_approximate(wfa, 0)
        np.testing.assert_allclose(result.singular_values, [1.0, 1.0], rtol=1e-12)
        assert result.warnings == (
            "singular values 0 and 1 are nearly equal; the optimal approximation "
            "may not be unique",
        )

    def test_input_validation(self, two_state_wfa, nilpotent_wfa):
        with pytest.raises(ValueError):
            aak_approximate(two_state_wfa, 2)
        with pytest.raises(ValueError):
            aak_approximate(two_state_wfa, -1)
        with pytest.raises(ValueError):
            aak_approximate(nilpotent_wfa, 1)
        with pytest.raises(StabilityError):
            aak_approximate(Wfa([1.0, 0.0], [np.diag([1.1, 0.2])], [1.0, 1.0]), 1)
        redundant = Wfa([0.5, 0.5], [np.diag([0.5, 0.5])], [1.0, 1.0])
        with pytest.raises(RankDeficiencyError):
            aak_approximate(redundant, 1)

    def test_no_tolerance_keyword(self, two_state_wfa):
        # the certificate's bound is aak.CERTIFY_RTOL, which no caller passes
        assert list(inspect.signature(aak_approximate).parameters) == ["wfa", "k"]
        with pytest.raises(TypeError):
            aak_approximate(two_state_wfa, 1, certify_rtol=1e-3)

    def test_vanishing_trailing_singular_values_do_not_refuse(self):
        # at n = 32 the smallest Hankel singular values are 0 at working
        # precision for most seeds; only sigma_k enters the Schmidt pair
        for seed in range(10):
            wfa = random_stable_wfa(1, 32, seed=seed, radius_bound=0.9)
            result = aak_approximate(wfa, 16)
            sigmas = result.singular_values
            assert abs(result.attained - sigmas[16]) <= 1e-6 * sigmas[0]
        # the public values are the approximation's, vanishing ones included
        wfa = random_stable_wfa(1, 32, seed=0, radius_bound=0.9)
        np.testing.assert_array_equal(hankel_singular_values(wfa),
                                      aak_approximate(wfa, 16).singular_values)

    def test_extraction_memory_is_quadratic_in_n(self):
        # every Stein equation is solved on n x n matrices; a Kronecker
        # system on the n(n - k) unknowns of the extraction peaks at 372 MiB
        # here
        wfa = random_stable_wfa(1, 64, seed=3, radius_bound=0.9)
        tracemalloc.start()
        try:
            result = aak_approximate(wfa, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(result.attained - result.error) <= 1e-6 * result.singular_values[0]
        assert peak < 8 * 2**20

    def test_hundred_states_certified_within_budget(self):
        for seed in range(5):
            wfa = random_stable_wfa(1, 100, seed=seed, radius_bound=0.9)
            start = time.perf_counter()
            result = aak_approximate(wfa, 1)
            assert time.perf_counter() - start < 5.0
            assert abs(result.attained - result.error) <= 1e-6 * result.singular_values[0]

    def test_result_is_frozen(self, two_state_wfa):
        result = aak_approximate(two_state_wfa, 1)
        assert repr(result) == f"AakApproximation(order=1, error={result.error!r})"
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.error = 0.0

    def test_recovery_builds_no_block(self, monkeypatch):
        # the k-state automaton comes from the state factors of the sequence
        def refuse(*args):
            raise AssertionError("build_hankel called")

        monkeypatch.setattr("wfamin.aak.build_hankel", refuse)
        monkeypatch.setattr("wfamin.hankel.build_hankel", refuse)
        wfa = random_stable_wfa(1, 5, seed=24, radius_bound=0.8)
        for k in range(5):
            result = aak_approximate(wfa, k)
            sigmas = result.singular_values
            assert result.wfa.num_states == max(k, 1)
            assert abs(result.attained - sigmas[k]) <= 1e-6 * sigmas[0]

    def test_recovery_makes_one_qr_call(self, qr_calls):
        # the sequence's state factors [P, S] are factored by one stacked QR
        wfa = random_stable_wfa(1, 5, seed=24, radius_bound=0.8)
        for k in range(5):
            qr_calls.clear()
            aak_approximate(wfa, k)
            assert len(qr_calls) == 1

    def test_random_fixtures_attain_sigma_k(self):
        for seed, n in ((21, 3), (22, 4), (23, 5)):
            wfa = random_stable_wfa(1, n, seed=seed, radius_bound=0.8)
            sigmas = hankel_singular_values(wfa)
            h = build_hankel(wfa, 63).entries
            for k in range(n):
                result = aak_approximate(wfa, k)
                g = result.hankel_block(63).entries
                assert abs(np.linalg.norm(h - g, 2) - sigmas[k]) <= 1e-6 * sigmas[0]

    def test_small_gramian_gap_certified(self):
        # minimal, with sigma_6 / sigma_0 = 3.4e-8: a Gramian eigenvalue
        # cutoff at 1e-7 refused it as not minimal
        wfa = load_document(FIXTURES / "small-gramian-gap.wfa").wfa
        h = build_hankel(wfa, 199).entries
        for k in range(wfa.num_states):
            result = aak_approximate(wfa, k)
            sigmas = result.singular_values
            g = build_hankel(result.wfa, 199).entries
            assert abs(np.linalg.norm(h - g, 2) - sigmas[k]) <= 1e-6 * sigmas[0]

    @given(
        n=st.integers(2, 6), rho=st.floats(0.3, 0.9), data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_attained_is_sigma_k_and_the_block_norm(self, n, rho, data, seed):
        wfa = random_stable_wfa(1, n, seed=seed, radius_bound=rho)
        assume(is_minimal(wfa))
        k = data.draw(st.integers(0, n - 1))
        result = aak_approximate(wfa, k)
        sigmas = result.singular_values
        assert abs(result.attained - sigmas[k]) <= 1e-6 * sigmas[0]
        h = build_hankel(wfa, 199).entries
        g = build_hankel(result.wfa, 199).entries
        assert abs(np.linalg.norm(h - g, 2) - result.attained) <= 1e-6 * sigmas[0]

    def test_schmidt_denominator_zero_on_circle_rejected(self):
        # hand-built direction data with v(z) = 1 - z, vanishing at z = 1
        from wfamin.aak import SchmidtPair, _optimal_sequence

        pair = SchmidtPair(
            sigma=1.0,
            direction=np.array([1.0, 0.0]),
            wfa=Wfa([1.0, 0.0], [[[0.0, 1.0], [0.0, 0.0]]], [1.0, -1.0]),
            controllability=np.eye(2),
        )
        with pytest.raises(NumericalError, match="unit circle"):
            _optimal_sequence(pair, order=0)

    def test_schmidt_denominator_zero_count_and_origin_checked(self, two_state_wfa):
        from wfamin.aak import SchmidtPair, _optimal_sequence

        pair = schmidt_pair(two_state_wfa, 1)
        with pytest.raises(NumericalError, match="1 zeros inside the unit disk, expected 0"):
            _optimal_sequence(pair, order=0)
        # v(z) = z: the inverse system needs v(0) != 0
        pair = SchmidtPair(
            sigma=1.0,
            direction=np.array([1.0, 0.0]),
            wfa=Wfa([1.0, 0.0], [[[0.0, 1.0], [0.0, 0.0]]], [0.0, 1.0]),
            controllability=np.eye(2),
        )
        with pytest.raises(NumericalError, match="z = 0"):
            _optimal_sequence(pair, order=1)

    @pytest.mark.parametrize("info, message", [
        (1, r"^Schur form of the inverse system failed \(LAPACK info 1\)"),
        (4, "unit circle"),  # n + 2: the eigenvalues are computed, so the guard reads them
        (3, r"^ordered Schur form of the inverse system failed \(LAPACK info 3\)"),
    ])
    def test_schur_failure_is_checked_before_the_circle_guard(self, monkeypatch, info, message):
        # dgees reports failure with eigenvalues on the unit circle: after a
        # failed QR iteration (info <= n) they are unspecified and not read.
        # A failed reordering (n + 1) keeps them as computed, off the circle,
        # and is refused once the guard has read them
        from scipy.linalg import lapack

        real_dgees = lapack.dgees

        def failing(*args, **kwargs):
            schur, inside, real, imag, basis, work, _ = real_dgees(*args, **kwargs)
            if info != 3:
                real, imag = np.ones_like(real), np.zeros_like(imag)
            return schur, inside, real, imag, basis, work, info

        monkeypatch.setattr(lapack, "dgees", failing)
        wfa = load_document(FIXTURES / "e2.wfa").wfa
        assert wfa.num_states == 2
        with pytest.raises(NumericalError, match=message):
            _optimal_sequence(schmidt_pair(wfa, 1), order=1)

    @pytest.mark.parametrize("name", ["e2.wfa", "small-gramian-gap.wfa"])
    def test_split_at_both_ends(self, name):
        # k = 0 puts every inverse-system eigenvalue inside the circle (an
        # empty outside block, no Sylvester solve); at k = n - 1 only the
        # zero eigenvalue of A_x = A (1 - beta x^T / v(0)) is inside
        wfa = load_document(FIXTURES / name).wfa
        data = _singular_data(wfa)
        sigmas = data[0]
        for k in (0, wfa.num_states - 1):
            sequence = _optimal_sequence(_schmidt_pair(wfa, k, data)[0], k)
            assert sequence.num_states == wfa.num_states + k
            assert abs(hankel_norm(wfa, sequence) - sigmas[k]) <= 1e-6 * sigmas[0]

    def test_no_second_stein_solver(self, monkeypatch):
        # every Stein equation goes through _solve_stein: one paired solve
        # for the Gramians, one for the extraction and one paired solve for
        # the certificate's difference Gramians
        calls = []

        def counted(*args):
            calls.append(1)
            return _solve_stein(*args)

        monkeypatch.setattr("wfamin.aak._solve_stein", counted)
        for name in ("e2.wfa", "small-gramian-gap.wfa"):
            wfa = load_document(FIXTURES / name).wfa
            for k in range(wfa.num_states):
                calls.clear()
                result = aak_approximate(wfa, k)
                assert len(calls) == 3
                assert hankel_norm(wfa, result.wfa) == result.attained
                assert abs(result.attained - result.error) <= 1e-6 * result.singular_values[0]

    def test_failed_recovery_is_a_numerical_failure(self, monkeypatch):
        # the input is minimal, so a rank-deficient recovery block is lost
        # precision, not bad input (a 14-state input at k = 11 does this:
        # its recovery block's 11th singular value is 2e-10 of the first)
        def rank_deficient(*args):
            raise RankDeficiencyError("requested 1 states but the block has numerical rank 0")

        monkeypatch.setattr("wfamin.aak.spectral_recover", rank_deficient)
        wfa = load_document(FIXTURES / "e2.wfa").wfa
        with pytest.raises(NumericalError, match="recovery of the 1-state approximant failed"):
            aak_approximate(wfa, 1)


    def test_typical_inputs_keep_the_doubling(self, monkeypatch):
        # Gaussian transitions of radius 0.9, as the benchmark draws them:
        # every doubling solution is backward stable and kept
        def refuse(*args):
            raise AssertionError("Bartels-Stewart solve")

        monkeypatch.setattr("wfamin.aak._bartels_stewart", refuse)
        for n, seed in ((4, 0), (10, 1), (10, 2)):
            wfa = random_stable_wfa(1, n, seed=seed, radius_bound=0.9)
            for k in range(n):
                aak_approximate(wfa, k)


class TestHankelNorm:
    def test_geometric_against_zero(self, geometric_wfa):
        zero = Wfa([0.0], [[[0.0]]], [0.0])
        assert hankel_norm(geometric_wfa, zero) == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert hankel_norm(geometric_wfa, geometric_wfa) <= 1e-15

    def test_matches_truncated_block(self, two_state_wfa, geometric_wfa):
        h = build_hankel(two_state_wfa, 127).entries
        g = build_hankel(geometric_wfa, 127).entries
        assert hankel_norm(two_state_wfa, geometric_wfa) == pytest.approx(
            np.linalg.norm(h - g, 2), rel=1e-12
        )

    def test_unstable_approximant_is_a_numerical_failure(self, geometric_wfa):
        with pytest.raises(NumericalError, match="spectral radius"):
            hankel_norm(geometric_wfa, Wfa([1.0], [[[1.5]]], [1.0]))


class TestProportionalLift:
    """A_a = c_a A: the d-letter blocks of f and of f - g, for the lift g of
    the optimal one-letter approximant g' of f' = (alpha, sqrt(s) A, beta),
    rise from below to sigma_k(f'), the value both infinite operators take."""

    LENGTHS = (4, 6, 8, 9)

    @pytest.mark.parametrize("seed", range(8))
    def test_block_values_rise_to_the_one_letter_value(self, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.standard_normal((4, 4))
        coefficients = rng.standard_normal(2)
        # sqrt(s) rho(A) = 0.7, so f' is stable
        matrix *= 0.7 / (np.sqrt(coefficients @ coefficients) * spectral_radius(matrix))
        f, f_prime = proportional_pair(rng.standard_normal(4), matrix,
                                       rng.standard_normal(4), coefficients)
        sigmas = hankel_singular_values(f_prime)
        slack = 1e-12 * sigmas[0]  # rounding of the factored SVDs
        for k in (1, 2):
            g = proportional_lift(aak_approximate(f_prime, k).wfa, coefficients)
            block_sigma, block_error = [], []
            for length in self.LENGTHS:
                factors = _state_factors(f, length)
                block_sigma.append(_factored_svd(factors)[1][k])
                g_factors = _state_factors(g, length)
                np.negative(g_factors[1], out=g_factors[1])  # [P_f | P_g] [S_f | -S_g]^T
                difference = np.concatenate([factors, g_factors], axis=2)
                block_error.append(_factored_svd(difference)[1][0])
            for values in (block_sigma, block_error):
                assert max(values) <= sigmas[k] + slack
                assert all(b >= a - slack for a, b in zip(values, values[1:]))
                assert values[-1] == pytest.approx(sigmas[k], rel=1e-2)


def test_array_holding_results_compare_by_identity():
    # comparing the arrays field by field would raise "truth value of an
    # array is ambiguous"; a word index compares and hashes by its sizes
    wfa = load_document(FIXTURES / "e2.wfa").wfa
    for make in (
        lambda: build_hankel(wfa, 2),
        lambda: gramians(wfa),
        lambda: schmidt_pair(wfa, 1),
        lambda: aak_approximate(wfa, 1),
    ):
        result = make()
        assert result == result
        assert result != make()
        hash(result)
    assert WordIndex(2, 2) == WordIndex(2, 2) != WordIndex(2, 3)
    assert len({WordIndex(2, 2), WordIndex(2, 2), WordIndex(3, 2)}) == 2
