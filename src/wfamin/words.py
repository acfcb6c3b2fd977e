"""Word enumeration over a finite alphabet in graded lexicographic order.

Words are tuples of symbol indices in ``[0, alphabet_size)``.  Every letter
of the package, :meth:`Wfa.evaluate`'s included, is read by :func:`_letter`:
a float or string symbol is a ``TypeError``, one outside the alphabet a
``ValueError``.  The graded lexicographic order lists shorter words first
and breaks ties by comparing symbol sequences; the empty word always has
index 0.  :class:`WordIndex` owns this order and computes every index map
between words; a module that slices a word-indexed array relies on the
identities below.  A word's index is its value as a base-d numeral plus the
number of shorter words, so for words w, u over d letters and a letter a
(index 1 + a)

    index_of(w + u) = d**len(u) * index_of(w) + index_of(u),
    index_of((a,) + u) = (1 + a) * d**len(u) + index_of(u),
    index_of(w + (a,)) = d * index_of(w) + 1 + a,

and reversing a word reverses its digits within its length block.  By the
first identity the words w u, for the first N words w and all u of length
m, are the N d**m indices from ``first_index_of_length(m)`` on, w major:
the column band of the length-m words in a Hankel block is one slice of a
word table, read as an N x d**m array.  By the last, the rows w a of a
word-indexed matrix, for w up to some length, are one contiguous (words,
d) block.  The index does not depend on ``max_length``, so the identities
hold across indices of one alphabet.
This module also sizes every word-indexed array: it counts the words in
closed form and holds the array to ``MAX_BLOCK_ENTRIES`` before anything
is built, a :class:`WordIndex`, an evaluation table and its widest level
included.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import product
from typing import Iterator

import numpy as np

Word = tuple[int, ...]

#: Refuse to materialize word-indexed arrays with more entries than this.
MAX_BLOCK_ENTRIES = 10_000_000


def _word_count(alphabet_size: int, max_length: int) -> int:
    """Number of words of length <= max_length, in closed form: L + 1 over one
    letter, ``(d**(L+1) - 1) // (d - 1)`` over d > 1.  Both sizes are read
    through ``operator.index``, so the count is an exact Python int."""
    alphabet_size, max_length = operator.index(alphabet_size), operator.index(max_length)
    if alphabet_size < 1:
        raise ValueError(f"alphabet_size must be >= 1, got {alphabet_size}")
    if max_length < 0:
        raise ValueError(f"max_length must be >= 0, got {max_length}")
    if alphabet_size == 1:
        return max_length + 1
    return (alphabet_size ** (max_length + 1) - 1) // (alphabet_size - 1)


def _block_rows(alphabet_size: int, length: int, columns: int | None, what: str,
                level: bool = False) -> int:
    """The number N of words up to ``length`` (of exactly ``length`` for a
    ``level``), once an N x ``columns`` ``what`` (N x N for None) is held to
    ``MAX_BLOCK_ENTRIES``.  From its bit length on, the d**length >= 2**length
    longest words alone exceed it: no count is formed."""
    if alphabet_size > 1 and length >= MAX_BLOCK_ENTRIES.bit_length():
        raise ValueError(f"refusing to build a {what} over the words up to length {length} "
                         f"(more than {MAX_BLOCK_ENTRIES} entries)")
    rows = _word_count(alphabet_size, length)
    if level and length:
        rows -= _word_count(alphabet_size, length - 1)
    cols = rows if columns is None else operator.index(columns)
    if rows * cols > MAX_BLOCK_ENTRIES:
        raise ValueError(f"refusing to build a {rows} x {cols} {what} "
                         f"({rows * cols} entries > {MAX_BLOCK_ENTRIES})")
    return rows


def _letter(symbol: int, alphabet_size: int) -> int:
    """``symbol`` read through ``operator.index``, once it is a letter of an
    alphabet of ``alphabet_size`` symbols."""
    symbol = operator.index(symbol)
    if not 0 <= symbol < alphabet_size:
        raise ValueError(f"symbol {symbol} outside [0, {alphabet_size})")
    return symbol


@dataclass(frozen=True)
class WordIndex:
    """Bijection between words of length <= max_length and ``range(len(self))``,
    refused for more than ``MAX_BLOCK_ENTRIES`` words before anything is built."""

    alphabet_size: int
    max_length: int

    def __post_init__(self):
        object.__setattr__(self, "alphabet_size", operator.index(self.alphabet_size))
        object.__setattr__(self, "max_length", operator.index(self.max_length))
        _block_rows(self.alphabet_size, self.max_length, 1, "word index")

    def __len__(self) -> int:
        return _word_count(self.alphabet_size, self.max_length)

    def first_index_of_length(self, length: int) -> int:
        """Index of the first word of the given length: the number of shorter words."""
        if not 0 <= length <= self.max_length:
            raise ValueError(f"length {length} outside [0, {self.max_length}]")
        return _word_count(self.alphabet_size, length - 1) if length else 0

    def index_of(self, word) -> int:
        """Index of a word (any sequence of symbol indices)."""
        word = tuple(word)
        if len(word) > self.max_length:
            raise ValueError(f"word of length {len(word)} exceeds bound {self.max_length}")
        value = 0
        for symbol in word:
            value = value * self.alphabet_size + _letter(symbol, self.alphabet_size)
        return self.first_index_of_length(len(word)) + value

    def word_at(self, index: int) -> Word:
        """Word with the given index; inverse of :meth:`index_of`."""
        index = operator.index(index)
        if not 0 <= index < len(self):
            raise ValueError(f"index {index} outside [0, {len(self)})")
        symbols = []
        while index:  # index_of(w + (a,)) = d * index_of(w) + 1 + a peels the last letter
            index, symbol = divmod(index - 1, self.alphabet_size)
            symbols.append(symbol)
        return tuple(reversed(symbols))

    def words(self) -> Iterator[Word]:
        """All indexed words, in order."""
        for length in range(self.max_length + 1):
            yield from product(range(self.alphabet_size), repeat=length)

    @property
    def interior_size(self) -> int:
        """Number of interior words (length < max_length), which come first:
        the words whose one-letter extensions stay in the index."""
        return self.first_index_of_length(self.max_length)

    def prepend_indices(self, symbol: int) -> np.ndarray:
        """index_of((symbol,) + w) for every interior word w, in order."""
        letter = _letter(symbol, self.alphabet_size)
        powers = self.alphabet_size ** np.arange(self.max_length, dtype=np.int64)
        out = np.repeat(powers, powers)  # d**len(w): d**k interior words of length k
        out *= 1 + letter
        out += np.arange(len(out), dtype=np.int64)
        return out

    def append_indices(self, symbol: int) -> np.ndarray:
        """index_of(w + (symbol,)) for every interior word w, in order."""
        interior = np.arange(self.interior_size, dtype=np.int64)
        return self.alphabet_size * interior + 1 + _letter(symbol, self.alphabet_size)

    def reversal_permutation(self) -> np.ndarray:
        """index_of(reversed w) for every word w, in order; an involution."""
        d = self.alphabet_size
        blocks = []
        for length in range(self.max_length + 1):
            # axis k of the reshaped block is the k-th base-d digit of the value;
            # reversing the axes reverses the digits
            values = np.arange(d**length, dtype=np.int64).reshape((d,) * length)
            blocks.append(self.first_index_of_length(length) + values.transpose().ravel())
        return np.concatenate(blocks)
