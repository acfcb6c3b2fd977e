"""Weighted finite automata with dense real parameters.

A WFA over an alphabet of d symbols is a triple (alpha, {A_a}, beta) of an
initial weight vector, one n-by-n transition matrix per symbol and a final
weight vector.  It computes

    f(x_1 ... x_t) = alpha^T A_{x_1} ... A_{x_t} beta,

with the empty word mapped to alpha^T beta.  All values are immutable after
construction (the arrays are marked read-only and the attributes cannot be
rebound), so instances are safe to share across threads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .words import _block_rows, _letter


@dataclass(frozen=True, eq=False, repr=False)
class Wfa:
    """A weighted finite automaton with real weights.

    Parameters
    ----------
    alpha : array_like, shape (n,)
        Initial weight vector.
    transitions : sequence of array_like, each of shape (n, n)
        One transition matrix per symbol, ordered by symbol index.
    beta : array_like, shape (n,)
        Final weight vector.

    Raises :class:`ValueError` on inconsistent shapes or a NaN or infinite
    weight.
    """

    alpha: np.ndarray
    transitions: tuple[np.ndarray, ...]
    beta: np.ndarray

    def __post_init__(self):
        alpha = np.array(self.alpha, dtype=float)
        beta = np.array(self.beta, dtype=float)
        mats = tuple(np.array(m, dtype=float) for m in self.transitions)
        if alpha.ndim != 1 or beta.ndim != 1:
            raise ValueError("alpha and beta must be vectors")
        n = alpha.shape[0]
        if n < 1:
            raise ValueError("a WFA needs at least one state")
        if beta.shape != (n,):
            raise ValueError(f"beta has shape {beta.shape}, expected ({n},)")
        if len(mats) < 1:
            raise ValueError("a WFA needs at least one transition matrix")
        for i, m in enumerate(mats):
            if m.shape != (n, n):
                raise ValueError(f"transition {i} has shape {m.shape}, expected ({n}, {n})")
        if not all(np.isfinite(arr).all() for arr in (alpha, beta, *mats)):
            raise ValueError("weights must be finite (no NaN or inf)")
        for arr in (alpha, beta, *mats):
            arr.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "transitions", mats)

    @property
    def num_states(self) -> int:
        return self.alpha.shape[0]

    @property
    def alphabet_size(self) -> int:
        return len(self.transitions)

    def __repr__(self) -> str:
        return f"Wfa(states={self.num_states}, alphabet_size={self.alphabet_size})"

    def evaluate(self, word) -> float:
        """Value of the realized function on a word of symbol indices, each
        read by :func:`words._letter`, as :class:`WordIndex` reads them."""
        u = self.alpha
        for symbol in word:
            u = u @ self.transitions[_letter(symbol, self.alphabet_size)]
        return float(u @ self.beta)


def _integer_k(k) -> int:
    """A state count k as a Python int, read through ``operator.index``:
    True is 1, and a float or a numpy bool is refused.  A numpy bool is
    refused by type, since numpy 1.x still lets ``operator.index`` read it
    (with a DeprecationWarning) where numpy 2 raises."""
    if isinstance(k, np.bool_):
        raise TypeError(f"k must be an integer, got {k!r}")
    try:
        return operator.index(k)
    except TypeError:
        raise TypeError(f"k must be an integer, got {k!r}") from None


def _checked_k(wfa: Wfa, k) -> int:
    """k read by :func:`_integer_k`, once it lies in [0, n) for the n states
    of ``wfa``: the one range of an approximation's size, in every mode."""
    k = _integer_k(k)
    if not 0 <= k < wfa.num_states:
        raise ValueError(
            f"k must lie in [0, {wfa.num_states}) for a {wfa.num_states}-state input, got {k}"
        )
    return k


def spectral_radius(matrix):
    """Largest modulus among the eigenvalues of a square matrix, or of each
    matrix of a (..., N, N) stack, from one batched eigensolve."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim < 2 or matrix.shape[-1] != matrix.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    try:
        eigenvalues = np.linalg.eigvals(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue computation failed: {exc}") from exc
    return np.max(np.abs(eigenvalues), axis=-1)


def random_stable_wfa(alphabet_size: int, num_states: int, seed, radius_bound: float) -> Wfa:
    """Draw a random WFA whose transition weights are contracted for convergence.

    For a one-letter alphabet the transition matrix is rescaled so its
    spectral radius does not exceed ``radius_bound``.  For larger alphabets
    the matrices are jointly rescaled so that the sum of their squared
    spectral norms does not exceed ``radius_bound``, which is sufficient for
    the power series of the automaton to converge under contractive
    substitutions.  The same seed always produces the same automaton.
    """
    if not 0.0 < radius_bound < 1.0:
        raise ValueError(f"radius_bound must lie in (0, 1), got {radius_bound}")
    rng = np.random.default_rng(seed)
    alpha = rng.standard_normal(num_states)
    beta = rng.standard_normal(num_states)
    mats = [rng.standard_normal((num_states, num_states)) for _ in range(alphabet_size)]
    if alphabet_size == 1:
        rho = spectral_radius(mats[0])
        if rho > radius_bound:
            mats[0] = mats[0] * (radius_bound / rho)
    else:
        total = sum(np.linalg.norm(m, 2) ** 2 for m in mats)
        if total > radius_bound:
            scale = np.sqrt(radius_bound / total)
            mats = [m * scale for m in mats]
    return Wfa(alpha, mats, beta)


def evaluation_table(wfa: Wfa, max_length: int) -> np.ndarray:
    """Values of the automaton on every word of length <= max_length.

    The result is ordered like ``WordIndex(wfa.alphabet_size, max_length)``:
    graded lexicographically, empty word first.  Hankel blocks, the Fock
    lab and the AAK sequence all take their values from here, so any two
    entries indexed by the same word are the same float.  The table is
    built one length level at a time, one matrix product per level, from
    the prefix states that Hankel factors share (:func:`_prefix_levels`).
    The widest level, d**max_length x n prefix states, is held to
    ``words.MAX_BLOCK_ENTRIES`` before any is built; one letter gives one
    state row per level.
    """
    _block_rows(wfa.alphabet_size, max_length, wfa.num_states, "prefix-state level", level=True)
    levels = [np.array([float(wfa.alpha @ wfa.beta)])]
    states = _prefix_levels(wfa.alpha, wfa.transitions, max_length)
    levels.extend(level @ wfa.beta for level in states)
    return np.concatenate(levels)


def _prefix_levels(start: np.ndarray, matrices, max_length: int):
    """Rows start^T M_w for the words w of length 1, ..., max_length.

    With (alpha, transitions) these are the prefix states alpha^T A_w.
    Yields one array per length, its rows in ``WordIndex`` order, from one
    matrix product per level; the matrices' leading stack axes carry over.
    """
    states = start[None, :]
    stacked = np.concatenate(matrices, axis=-1)  # [M_0 M_1 ... M_{d-1}]
    for _ in range(max_length):
        # row for word w + (a,) sits at position value(w) * d + a
        states = (states @ stacked).reshape(*stacked.shape[:-2], -1, start.size)
        yield states
