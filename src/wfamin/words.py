"""Word enumeration over a finite alphabet in graded lexicographic order.

Words are tuples of symbol indices in ``[0, alphabet_size)``.  The graded
lexicographic order lists shorter words first and breaks ties by comparing
symbol sequences; the empty word always has index 0.  Every module that
indexes matrices or coefficient vectors by words goes through
:class:`WordIndex`, so there is a single canonical ordering.

Two identities of this order let callers work on index arithmetic, slices
and reshaped views instead of per-word lookups.  For words w and u over d
letters,

    index_of(w + u) = d**len(u) * index_of(w) + index_of(u),

and in particular, for one letter a, index_of(w + (a,)) = d * index_of(w)
+ 1 + a: the rows w a of a word-indexed matrix, for w up to some length,
are one contiguous (words, d) block.  The index does not depend on
``max_length``, so the identities hold across indices of one alphabet.
:meth:`WordIndex.concatenation_indices` and
:func:`wfamin.fock.verify_multiplier_intertwining` rely on them.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import product
from typing import Iterator

import numpy as np

Word = tuple[int, ...]

EMPTY_WORD: Word = ()


class WordIndex:
    """Bijection between words of length <= max_length and ``range(size)``.

    For alphabet size d > 1 the total size is ``(d**(L+1) - 1) // (d - 1)``;
    for d = 1 it is ``L + 1``.  Within each length block a word is ranked by
    its value as a base-d integer, which makes concatenation indices cheap
    to compute in bulk (see :meth:`concatenation_indices`).
    """

    def __init__(self, alphabet_size: int, max_length: int):
        if alphabet_size < 1:
            raise ValueError(f"alphabet_size must be >= 1, got {alphabet_size}")
        if max_length < 0:
            raise ValueError(f"max_length must be >= 0, got {max_length}")
        self.alphabet_size = int(alphabet_size)
        self.max_length = int(max_length)
        # offsets[k] = index of the first word of length k; offsets[L+1] = size
        offsets = [0]
        for k in range(max_length + 1):
            offsets.append(offsets[-1] + alphabet_size**k)
        self._offsets = offsets
        self._lengths: np.ndarray | None = None
        self._values: np.ndarray | None = None

    def __len__(self) -> int:
        return self._offsets[-1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WordIndex)
            and other.alphabet_size == self.alphabet_size
            and other.max_length == self.max_length
        )

    def __repr__(self) -> str:
        return f"WordIndex(alphabet_size={self.alphabet_size}, max_length={self.max_length})"

    @property
    def offsets(self) -> np.ndarray:
        """offsets[k] is the index of the first word of length k."""
        return np.asarray(self._offsets[:-1], dtype=np.int64)

    def first_index_of_length(self, length: int) -> int:
        """Index of the first word of the given length."""
        if not 0 <= length <= self.max_length:
            raise ValueError(f"length {length} outside [0, {self.max_length}]")
        return self._offsets[length]

    def index_of(self, word) -> int:
        """Index of a word (any sequence of symbol indices)."""
        word = tuple(word)
        if len(word) > self.max_length:
            raise ValueError(f"word of length {len(word)} exceeds bound {self.max_length}")
        value = 0
        for symbol in word:
            if not 0 <= symbol < self.alphabet_size:
                raise ValueError(f"symbol {symbol} outside [0, {self.alphabet_size})")
            value = value * self.alphabet_size + symbol
        return self._offsets[len(word)] + value

    def word_at(self, index: int) -> Word:
        """Word with the given index; inverse of :meth:`index_of`."""
        if not 0 <= index < len(self):
            raise ValueError(f"index {index} outside [0, {len(self)})")
        length = bisect_right(self._offsets, index) - 1
        value = index - self._offsets[length]
        symbols = []
        for _ in range(length):
            value, symbol = divmod(value, self.alphabet_size)
            symbols.append(symbol)
        return tuple(reversed(symbols))

    def words(self) -> Iterator[Word]:
        """All indexed words, in order."""
        for length in range(self.max_length + 1):
            yield from product(range(self.alphabet_size), repeat=length)

    @property
    def lengths(self) -> np.ndarray:
        """Array mapping index -> word length."""
        if self._lengths is None:
            counts = np.diff(self._offsets)  # words per length
            out = np.repeat(np.arange(self.max_length + 1, dtype=np.int64), counts)
            out.setflags(write=False)
            self._lengths = out
        return self._lengths

    @property
    def values(self) -> np.ndarray:
        """Array mapping index -> base-d value of the word within its length block."""
        if self._values is None:
            out = np.arange(len(self), dtype=np.int64) - self.offsets[self.lengths]
            out.setflags(write=False)
            self._values = out
        return self._values

    def concatenation_indices(self, other: "WordIndex", combined: "WordIndex") -> np.ndarray:
        """Index matrix C with C[i, j] = combined.index_of(word_i + word_j).

        ``self`` supplies the left factors, ``other`` the right ones;
        ``combined`` must cover length ``self.max_length + other.max_length``.
        """
        d = self.alphabet_size
        if other.alphabet_size != d or combined.alphabet_size != d:
            raise ValueError("alphabet sizes must match")
        if combined.max_length < self.max_length + other.max_length:
            raise ValueError("combined index too short for all concatenations")
        # index_of(w + u) = d**len(u) * index_of(w) + index_of(u), built in place
        out = np.multiply.outer(np.arange(len(self), dtype=np.int64), d**other.lengths)
        out += np.arange(len(other), dtype=np.int64)
        return out
