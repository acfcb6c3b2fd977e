import dataclasses
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wfamin.fock import flipped_multiplier_matrix
from wfamin.hankel import build_hankel, spectral_recover
from wfamin.wfa import evaluation_table, random_stable_wfa
from wfamin.words import WordIndex, _block_rows, _word_count


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


def test_first_index_of_length_refuses_lengths_outside_the_bound():
    index = WordIndex(2, 3)
    assert index.first_index_of_length(3) == 7
    for length in (-1, 4):
        with pytest.raises(ValueError, match=rf"^length {length} outside \[0, 3\]$"):
            index.first_index_of_length(length)


@pytest.mark.parametrize("d, length", [(1, 0), (1, 7), (2, 0), (2, 9), (3, 5), (4, 3)])
def test_word_count_is_the_index_size(d, length):
    index = WordIndex(d, length)
    assert _word_count(d, length) == len(index) == len(list(index.words()))


def test_word_count_needs_no_index():
    # the closed form of 12,000 digits, which no index of that size could hold
    assert _word_count(2, 40000) == 2**40001 - 1
    assert _word_count(1, 10**30) == 10**30 + 1
    with pytest.raises(ValueError, match="max_length must be >= 0"):
        _word_count(2, -1)
    with pytest.raises(ValueError, match="alphabet_size must be >= 1"):
        _word_count(0, 3)


def test_oversized_index_refused_before_anything_is_built():
    # a caller-built basis meets the bound of every word-indexed array: more
    # than 10^7 words are refused at once, not indexed or overflowed
    for d, length in ((2, 63), (2, 60000), (1, 10**7)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^refusing to build [^\n]*word index[^\n]*$"):
            WordIndex(d, length)
        assert time.perf_counter() - start < 0.1
    # up to the bound an index holds no per-length list: it costs no memory
    tracemalloc.start()
    try:
        built = [WordIndex(2, 22), WordIndex(1, 9_999_999)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(index) for index in built] == [8_388_607, 10_000_000]
    assert peak < 1 << 20


def test_numpy_integer_sizes_cannot_wrap_the_guard():
    # int64 arithmetic on these counts wraps; the sizes are read as Python
    # ints, so every count is exact and the guard refuses
    for call in (lambda: _block_rows(8, np.int64(23), None, "block"),
                 lambda: _block_rows(6, np.int64(23), None, "block"),
                 lambda: WordIndex(np.int64(16), 23)):
        with pytest.raises(ValueError, match=r"^refusing to build "):
            call()


def test_index_fields_cannot_be_assigned():
    index = WordIndex(2, 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        index.max_length = 9
    assert (len(index), index.interior_size) == (15, 7)
    assert index in {WordIndex(2, 3)}


def test_float_sizes_are_refused_when_built():
    for d, length in ((2.5, 2), (2, 3.0)):
        with pytest.raises(TypeError):
            WordIndex(d, length)


def test_float_letters_and_indices_are_refused():
    # a float letter or index was range-checked only, and gave float indices
    # or a word of float symbols
    index = WordIndex(2, 3)
    for call in (lambda: index.index_of((0.5,)), lambda: index.word_at(1.5),
                 lambda: index.prepend_indices(0.5), lambda: index.append_indices(0.5)):
        with pytest.raises(TypeError):
            call()
    one = np.int64(1)
    assert index.index_of((one, 0)) == index.index_of((1, 0)) == 5
    assert index.word_at(np.int64(5)) == (1, 0)
    assert type(index.word_at(np.int64(5))[0]) is int
    np.testing.assert_array_equal(index.prepend_indices(one), index.prepend_indices(1))
    np.testing.assert_array_equal(index.append_indices(one), index.append_indices(1))


def test_numpy_integer_sizes_give_the_same_index():
    index = WordIndex(np.int64(2), 3)
    assert index == WordIndex(2, 3)
    assert hash(index) == hash(WordIndex(2, 3))
    assert repr(index) == repr(WordIndex(2, 3)) == "WordIndex(alphabet_size=2, max_length=3)"


def test_one_bound_sizes_every_word_indexed_array(monkeypatch):
    wfa = random_stable_wfa(2, 3, seed=1, radius_bound=0.9)
    calls = {
        "word index": lambda: WordIndex(2, 3),
        "block": lambda: build_hankel(wfa, 2),
        "state factor": lambda: spectral_recover(wfa, 1, 2),
        "flipped multiplier": lambda: flipped_multiplier_matrix(wfa, WordIndex(2, 2)),
        "prefix-state level": lambda: evaluation_table(wfa, 3),
    }
    for call in calls.values():
        call()
    monkeypatch.setattr("wfamin.words.MAX_BLOCK_ENTRIES", 14)
    for what, call in calls.items():
        with pytest.raises(ValueError, match=rf"^refusing to build a \d+ x \d+ {what} "
                                             rf"\(\d+ entries > 14\)$"):
            call()


def test_hankel_cells_are_the_table_values_of_concatenations():
    # the column bands cut from the table put f(uv) at (u, v), cell by cell
    for d, length in ((1, 4), (2, 3), (3, 2), (4, 2)):
        wfa = random_stable_wfa(d, 3, seed=d, radius_bound=0.9)
        entries = build_hankel(wfa, length).entries
        index, combined = WordIndex(d, length), WordIndex(d, 2 * length)
        table = evaluation_table(wfa, 2 * length)
        for i, u in enumerate(index.words()):
            for j, v in enumerate(index.words()):
                assert entries[i, j] == table[combined.index_of(u + v)]


@pytest.mark.parametrize("d, degrees", [(1, 6), (2, 5), (3, 4), (4, 3)])
def test_every_index_map_is_its_per_word_definition(d, degrees):
    """Each map of ``WordIndex`` equals ``index_of`` applied word by word."""
    for degree in range(degrees + 1):
        index = WordIndex(d, degree)
        words = list(index.words())
        interior = [w for w in words if len(w) < degree]
        assert index.interior_size == len(interior)
        assert words[: len(interior)] == interior  # the interior words come first
        maps = [(index.reversal_permutation(), [index.index_of(w[::-1]) for w in words])]
        for a in range(d):
            maps.append((index.prepend_indices(a), [index.index_of((a,) + w) for w in interior]))
            maps.append((index.append_indices(a), [index.index_of(w + (a,)) for w in interior]))
        for computed, expected in maps:
            assert computed.dtype == np.int64
            assert computed.tolist() == expected


def test_prepend_map_peak_is_the_append_maps():
    # d**len(w) is built for the interior words alone, not from the lengths
    # of all N words: each map's traced peak is about 8 bytes per word at
    # d = 2, where the lengths took the left map to 12
    index = WordIndex(2, 16)
    peaks = []
    for letter_map in (index.prepend_indices, index.append_indices):
        tracemalloc.start()
        try:
            letter_map(1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1] + 4096


@pytest.mark.parametrize("d", [1, 2, 3])
def test_letter_maps_refuse_letters_outside_the_alphabet(d):
    # the maps refuse a letter with the message index_of gives
    index = WordIndex(d, 2)
    for symbol in (-1, d):
        for letter_map, argument in ((index.prepend_indices, symbol),
                                     (index.append_indices, symbol),
                                     (index.index_of, (symbol,))):
            with pytest.raises(ValueError, match=rf"^symbol {symbol} outside \[0, {d}\)$"):
                letter_map(argument)


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
