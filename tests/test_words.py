import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wfamin.words import WordIndex


def test_empty_word_has_index_zero():
    for d in (1, 2, 3):
        assert WordIndex(d, 4).index_of(()) == 0


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("max_length", [0, 1, 3, 6])
def test_round_trip_exhaustive(d, max_length):
    index = WordIndex(d, max_length)
    for i in range(len(index)):
        assert index.index_of(index.word_at(i)) == i


def test_size_formula():
    assert len(WordIndex(1, 5)) == 6
    assert len(WordIndex(2, 5)) == 2**6 - 1
    assert len(WordIndex(3, 4)) == (3**5 - 1) // 2


def test_graded_lex_order():
    index = WordIndex(2, 2)
    listed = [index.word_at(i) for i in range(len(index))]
    assert listed == [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]
    assert listed == list(index.words())


def test_order_matches_length_then_lex():
    index = WordIndex(3, 4)
    words = list(index.words())
    assert words == sorted(words, key=lambda w: (len(w), w))


def test_rejects_out_of_range():
    index = WordIndex(2, 3)
    with pytest.raises(ValueError):
        index.index_of((0, 2))
    with pytest.raises(ValueError):
        index.index_of((0,) * 4)
    with pytest.raises(ValueError):
        index.word_at(len(index))
    with pytest.raises(ValueError):
        WordIndex(0, 3)
    with pytest.raises(ValueError):
        WordIndex(2, -1)


def test_concatenation_indices():
    for d, left, right, extra in ((2, 2, 3, 0), (1, 4, 2, 0), (3, 2, 1, 2), (4, 1, 2, 1)):
        prefixes = WordIndex(d, left)
        suffixes = WordIndex(d, right)
        combined = WordIndex(d, left + right + extra)
        table = prefixes.concatenation_indices(suffixes, combined)
        assert table.dtype == np.int64
        for i, p in enumerate(prefixes.words()):
            for j, s in enumerate(suffixes.words()):
                assert table[i, j] == combined.index_of(p + s)


words = st.lists(st.integers(0, 3), max_size=5)


@given(d=st.integers(1, 4), w=words, u=words)
@settings(max_examples=200, deadline=None)
def test_concatenation_index_identity(d, w, u):
    w = tuple(symbol % d for symbol in w)
    u = tuple(symbol % d for symbol in u)
    index = WordIndex(d, len(w) + len(u) + 1)
    assert index.index_of(w + u) == d ** len(u) * index.index_of(w) + index.index_of(u)
    # u of one letter a: the rows w a follow w at d * index_of(w) + 1 + a
    for a in range(d):
        assert index.index_of(w + (a,)) == d * index.index_of(w) + 1 + a


def test_lengths_and_values_arrays():
    index = WordIndex(2, 3)
    np.testing.assert_array_equal(index.lengths[:4], [0, 1, 1, 2])
