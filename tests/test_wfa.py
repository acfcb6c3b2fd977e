import dataclasses
from types import SimpleNamespace

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wfamin.errors import NumericalError
from wfamin.wfa import Wfa, _integer_k, evaluation_table, random_stable_wfa, spectral_radius
from wfamin.words import WordIndex


def brute_force_value(wfa, word):
    """Independent oracle: explicit matrix product."""
    m = np.eye(wfa.num_states)
    for a in word:
        m = m @ wfa.transitions[a]
    return float(wfa.alpha @ m @ wfa.beta)


class TestEvaluate:
    def test_scalar_power(self, geometric_wfa):
        assert geometric_wfa.evaluate((0, 0, 0)) == pytest.approx(0.125)

    def test_empty_word_is_alpha_beta(self):
        rng = np.random.default_rng(7)
        wfa = Wfa(rng.normal(size=3), [rng.normal(size=(3, 3))], rng.normal(size=3))
        assert wfa.evaluate(()) == pytest.approx(float(wfa.alpha @ wfa.beta))

    def test_nilpotent_values(self, nilpotent_wfa):
        expected = {(): 0.0, (0,): 1.0, (1,): 0.0, (0, 1): 1.0, (1, 0): 0.0}
        for word, value in expected.items():
            assert nilpotent_wfa.evaluate(word) == value
            assert brute_force_value(nilpotent_wfa, word) == value

    def test_nilpotent_all_words_up_to_five(self, nilpotent_wfa):
        for word in WordIndex(2, 5).words():
            got = nilpotent_wfa.evaluate(word)
            assert got == brute_force_value(nilpotent_wfa, word)
            if len(word) >= 2 and word[:2] == (1, 0):
                assert got == 0.0

    def test_symbol_out_of_range(self, nilpotent_wfa):
        with pytest.raises(ValueError):
            nilpotent_wfa.evaluate((0, 2))

    @pytest.mark.parametrize("read", ["evaluate", "index_of"])
    @pytest.mark.parametrize("symbol, error, message", [
        (0.5, TypeError, "^'float' object cannot be interpreted as an integer$"),
        (np.float64(1.0), TypeError, "cannot be interpreted as an integer$"),
        ("a", TypeError, "^'str' object cannot be interpreted as an integer$"),
        (-1, ValueError, r"^symbol -1 outside \[0, 2\)$"),
        (2, ValueError, r"^symbol 2 outside \[0, 2\)$"),
    ])
    def test_letters_are_read_as_word_index_reads_them(self, nilpotent_wfa, read, symbol,
                                                       error, message):
        # one letter rule: evaluate refuses each symbol as the word index does
        reader = nilpotent_wfa if read == "evaluate" else WordIndex(2, 3)
        with pytest.raises(error, match=message):
            getattr(reader, read)((0, symbol))

    def test_multiplicative_on_splits(self):
        wfa = random_stable_wfa(2, 3, seed=11, radius_bound=0.9)
        rng = np.random.default_rng(0)
        for _ in range(20):
            word = tuple(rng.integers(0, 2, size=rng.integers(0, 7)))
            for cut in range(len(word) + 1):
                left = np.copy(wfa.alpha)
                for a in word[:cut]:
                    left = left @ wfa.transitions[a]
                right = np.copy(wfa.beta)
                for a in reversed(word[cut:]):
                    right = wfa.transitions[a] @ right
                assert wfa.evaluate(word) == pytest.approx(float(left @ right), rel=1e-12)

    def test_linearity_in_weights(self):
        rng = np.random.default_rng(3)
        mats = [rng.normal(size=(3, 3)) for _ in range(2)]
        a1, a2, b = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
        word = (0, 1, 1, 0)
        combined = Wfa(2.0 * a1 + a2, mats, b).evaluate(word)
        parts = 2.0 * Wfa(a1, mats, b).evaluate(word) + Wfa(a2, mats, b).evaluate(word)
        assert combined == pytest.approx(parts, rel=1e-12)
        combined = Wfa(b, mats, 3.0 * a1 - a2).evaluate(word)
        parts = 3.0 * Wfa(b, mats, a1).evaluate(word) - Wfa(b, mats, a2).evaluate(word)
        assert combined == pytest.approx(parts, rel=1e-12)


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Wfa([1.0], [np.eye(2)], [1.0])
        with pytest.raises(ValueError):
            Wfa([1.0, 0.0], [np.eye(2)], [1.0])
        with pytest.raises(ValueError):
            Wfa([1.0], [], [1.0])

    def test_matrix_alpha_and_no_states_are_refused(self):
        with pytest.raises(ValueError, match="^alpha and beta must be vectors$"):
            Wfa([[1.0]], [[[0.5]]], [1.0])
        with pytest.raises(ValueError, match="^a WFA needs at least one state$"):
            Wfa([], [np.zeros((0, 0))], [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Wfa([bad], [[[0.5]]], [1.0])
        with pytest.raises(ValueError, match="finite"):
            Wfa([1.0], [[[bad]]], [1.0])
        with pytest.raises(ValueError, match="finite"):
            Wfa([1.0], [[[0.5]]], [bad])

    def test_immutable_arrays(self, geometric_wfa):
        with pytest.raises(ValueError):
            geometric_wfa.alpha[0] = 2.0

    def test_attributes_cannot_be_rebound(self):
        # a rebound alpha would pass no validation: two states, one NaN
        wfa = Wfa([1.0], [[[0.5]]], [1.0])
        for name, value in (("alpha", np.array([np.nan, 1.0])), ("beta", np.ones(1)),
                            ("transitions", ())):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(wfa, name, value)
        assert wfa.num_states == 1 and wfa.alpha.tolist() == [1.0]
        assert Wfa(alpha=[1.0], transitions=[[[0.5]]], beta=[1.0]).evaluate((0,)) == 0.5

    def test_repr_names_the_sizes_only(self, nilpotent_wfa):
        assert repr(nilpotent_wfa) == "Wfa(states=2, alphabet_size=2)"


class TestIntegerK:
    def test_numpy_bool_is_refused_by_type(self, monkeypatch):
        # numpy 1.x lets operator.index read a numpy bool as 0 or 1 (with a
        # DeprecationWarning); numpy 2 raises.  The refusal must not hang on it.
        monkeypatch.setattr("wfamin.wfa.operator", SimpleNamespace(index=int))
        for k in (np.bool_(True), np.bool_(False)):
            with pytest.raises(TypeError, match=rf"^k must be an integer, got {k!r}$"):
                _integer_k(k)
        assert _integer_k(2) == 2


class TestSpectralRadius:
    def test_scalar(self):
        assert spectral_radius([[0.5]]) == pytest.approx(0.5)

    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((4, 4))) == 0.0

    def test_nilpotent(self):
        assert spectral_radius([[0.0, 1.0], [0.0, 0.0]]) == 0.0

    def test_non_square(self):
        with pytest.raises(ValueError):
            spectral_radius(np.ones((2, 3)))

    def test_eigenvalue_failure_is_a_numerical_error(self, monkeypatch):
        def failing(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", failing)
        with pytest.raises(NumericalError, match="^eigenvalue computation failed: "
                                                 "Eigenvalues did not converge$"):
            spectral_radius([[0.5]])


class TestKronecker:
    """The block layout of ``np.kron`` that the nc-rational resolvent relies
    on: M(i,j)N(i',j') at (i d' + i', j e' + j')."""

    def test_scalar_identity(self):
        n = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(np.kron([[1.0]], n), n)

    def test_identity_product(self):
        np.testing.assert_array_equal(np.kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_hand_expansion(self):
        got = np.kron([[1.0, 2.0]], [[3.0], [4.0]])
        np.testing.assert_array_equal(got, [[3.0, 6.0], [4.0, 8.0]])


class TestRandomStableWfa:
    def test_one_letter_radius_bound(self):
        wfa = random_stable_wfa(1, 4, seed=5, radius_bound=0.5)
        assert spectral_radius(wfa.transitions[0]) <= 0.5 + 1e-12

    def test_deterministic(self):
        w1 = random_stable_wfa(2, 3, seed=42, radius_bound=0.9)
        w2 = random_stable_wfa(2, 3, seed=42, radius_bound=0.9)
        np.testing.assert_array_equal(w1.alpha, w2.alpha)
        np.testing.assert_array_equal(w1.beta, w2.beta)
        for m1, m2 in zip(w1.transitions, w2.transitions):
            np.testing.assert_array_equal(m1, m2)

    def test_multi_letter_norm_budget(self):
        wfa = random_stable_wfa(2, 3, seed=1, radius_bound=0.9)
        total = sum(np.linalg.norm(m, 2) ** 2 for m in wfa.transitions)
        assert total <= 0.9 + 1e-12

    def test_invalid_bound(self):
        with pytest.raises(ValueError):
            random_stable_wfa(1, 2, seed=0, radius_bound=1.0)
        with pytest.raises(ValueError):
            random_stable_wfa(1, 2, seed=0, radius_bound=0.0)


class TestEvaluationTable:
    @pytest.mark.parametrize("d,n,length", [(1, 3, 6), (2, 3, 4), (3, 2, 3)])
    def test_matches_evaluate(self, d, n, length):
        wfa = random_stable_wfa(d, n, seed=d * 10 + n, radius_bound=0.8)
        table = evaluation_table(wfa, length)
        index = WordIndex(d, length)
        assert table.shape == (len(index),)
        for i, word in enumerate(index.words()):
            assert table[i] == pytest.approx(wfa.evaluate(word), rel=1e-12, abs=1e-14)

    @given(data=st.data(), d=st.integers(1, 3), n=st.integers(1, 4), length=st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_every_entry_is_the_word_value(self, data, d, n, length):
        weights = st.floats(-1.0, 1.0, allow_nan=False)
        alpha = data.draw(hnp.arrays(float, n, elements=weights))
        mats = data.draw(hnp.arrays(float, (d, n, n), elements=weights))
        beta = data.draw(hnp.arrays(float, n, elements=weights))
        wfa = Wfa(alpha, mats, beta)
        table = evaluation_table(wfa, length)
        index = WordIndex(d, length)
        assert table.shape == (len(index),)
        # every weight lies in [-1, 1], so no partial product exceeds n**(|w| + 1)
        atol = 1e-13 * n ** (length + 1)
        for i in range(len(index)):
            assert table[i] == pytest.approx(wfa.evaluate(index.word_at(i)), rel=1e-12, abs=atol)
