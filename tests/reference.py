"""Dense reference definitions that the tests compare the package against.

Nothing in the package calls these: the Fock lab reads its shifts and the
flip only as the index maps of ``WordIndex`` and has no function that
applies them to a vector, the Hankel identity is checked on the block it is
given, the AAK path realizes the error symbol exactly, and its Stein
equations are solved on n x n matrices (doubling, or Bartels-Stewart on
Schur forms).  Each definition here is the plain (dense or pointwise) form
of an object the package computes another way, so a test can hold the two
against each other.  The proportional-class lift is the oracle of a step the
package does not take yet: a d-letter input whose letters act by multiples
of one matrix, approximated through a one-letter one.
"""

from __future__ import annotations

import numpy as np

from wfamin.aak import AakApproximation, SchmidtPair
from wfamin.hankel import HankelBlock, _svd
from wfamin.wfa import Wfa, evaluation_table
from wfamin.words import WordIndex


# --- Fock space: dense shift, flip and multiplication matrices


def _word_map_matrix(basis: WordIndex, image) -> np.ndarray:
    """Matrix of e_w -> e_{image(w)}, word by word through ``index_of``; the
    column of w is zero where image(w) is longer than the basis degree."""
    out = np.zeros((len(basis), len(basis)))
    for column, word in enumerate(basis.words()):
        target = image(word)
        if len(target) <= basis.max_length:
            out[basis.index_of(target), column] = 1.0
    return out


def left_shift_matrix(basis: WordIndex, symbol: int) -> np.ndarray:
    """Matrix of the left shift e_w -> e_{symbol w}; columns at the top degree are zero."""
    return _word_map_matrix(basis, lambda word: (symbol,) + word)


def right_shift_matrix(basis: WordIndex, symbol: int) -> np.ndarray:
    """Matrix of the right shift e_w -> e_{w symbol}; columns at the top degree are zero."""
    return _word_map_matrix(basis, lambda word: word + (symbol,))


def flip_matrix(basis: WordIndex) -> np.ndarray:
    """Matrix of the word-reversal (flipping) operator e_w -> e_{reversed w}."""
    return _word_map_matrix(basis, lambda word: word[::-1])


def right_multiplication_matrix(basis: WordIndex, series) -> np.ndarray:
    """Matrix of right multiplication by a series: e_w -> sum_u theta_u e_{w u}.

    Coefficients that would exceed the basis degree are dropped (the matrix
    is the compression of the infinite operator to the truncation).
    """
    series = np.asarray(series, dtype=float)
    if series.shape != (len(basis),):
        raise ValueError(f"series has shape {series.shape}, expected ({len(basis)},)")
    d = basis.alphabet_size
    first = basis.first_index_of_length
    out = np.zeros((len(basis), len(basis)))
    for length in range(basis.max_length + 1):  # |u|: the suffix length
        # left factors w with |w| + |u| <= max_length, one per column
        cut = first(basis.max_length - length + 1) if length else len(basis)
        base = d**length * np.arange(cut, dtype=np.int64) + first(length)  # index of w + 0^|u|
        suffixes = np.arange(d**length)
        targets = base[:, None] + suffixes[None, :]
        out[targets, np.arange(cut)[:, None]] += series[first(length) + suffixes][None, :]
    return out


# --- Hankel blocks: the dense truncated SVD and the Hankel property


def svd_truncate(block: HankelBlock, k: int) -> tuple[np.ndarray, float]:
    """Best rank-k approximation of the block in the spectral norm.

    Returns the truncated-SVD matrix and the approximation error, which is
    the (k+1)-th singular value (0 when k is at least the rank).  The result
    is optimal among all rank-k matrices but is generally *not* Hankel.
    """
    if not 0 <= k <= min(block.entries.shape):
        raise ValueError(f"k must lie in [0, {min(block.entries.shape)}], got {k}")
    u, s, vt = _svd(block.entries, compute_uv=True)
    truncated = (u[:, :k] * s[:k]) @ vt[:k, :]
    error = float(s[k]) if k < s.size else 0.0
    return truncated, error


def check_hankel_property(block: HankelBlock, tol: float) -> tuple[bool, tuple | None]:
    """Whether all factorizations of each word agree within ``tol`` (absolute).

    A word violates when max - min over its cells is not at most ``tol``, so
    a NaN cell is a violation.  Returns ``(True, None)`` if the block is
    Hankel, otherwise ``(False, (p, s, p', s'))`` for the first violating
    word: its first pair of cells, by prefix length, whose entries differ
    by more than ``tol`` or are NaN ((p, s, p, s) if it has only one cell).
    """
    index = block.words
    combined = WordIndex(index.alphabet_size, 2 * index.max_length)
    # the index of each cell's word: index_of(u + v) = d**len(v) index_of(u) + index_of(v)
    rows = np.arange(len(index), dtype=np.int64)
    powers = np.array([index.alphabet_size ** len(v) for v in index.words()], dtype=np.int64)
    words = np.multiply.outer(rows, powers) + rows
    # every word up to twice the length has at least one cell
    low = np.full(len(combined), np.inf)
    high = np.full(len(combined), -np.inf)
    with np.errstate(invalid="ignore"):
        np.minimum.at(low, words.ravel(), block.entries.ravel())
        np.maximum.at(high, words.ravel(), block.entries.ravel())
        bad_words = np.flatnonzero(~(high - low <= tol))
    if bad_words.size == 0:
        return True, None
    rows, cols = np.nonzero(words == bad_words[0])  # one cell per prefix length
    values = block.entries[rows, cols].tolist()
    cells = [(index.word_at(r), index.word_at(c))
             for r, c in zip(rows.tolist(), cols.tolist())]
    for a in range(len(cells)):
        for b in range(a + 1, len(cells)):
            if not abs(values[a] - values[b]) <= tol:
                return False, (*cells[a], *cells[b])
    return False, (*cells[0], *cells[0])


# --- The proportional class: every letter acts by a multiple of one matrix


def proportional_pair(alpha, matrix, beta, coefficients) -> tuple[Wfa, Wfa]:
    """(f, f'): the d-letter f with A_a = c_a A, and the one-letter
    f' = (alpha, sqrt(s) A, beta), where s = sum_a c_a^2 (A and c are arrays).

    f(uv) = c(u) c(v) h(|u| + |v|), with c(w) the product of the c_{w_i}
    and h(m) = alpha^T A^m beta.  The vectors (c(u))_{|u| = m} are orthogonal
    across lengths m, with squared norm s^m, so on their span H_f is
    unitarily equivalent to H_{f'}, and it is zero on the complement.
    """
    root = np.sqrt(coefficients @ coefficients)
    return (Wfa(alpha, [c * matrix for c in coefficients], beta),
            Wfa(alpha, [root * matrix], beta))


def proportional_lift(g_prime: Wfa, coefficients) -> Wfa:
    """The d-letter g with A_{g,a} = (c_a / sqrt(s)) A_{g'} for a one-letter g'.

    H_g is unitarily equivalent to H_{g'} the way H_f is to H_{f'}
    (:func:`proportional_pair`), so ||H_f - H_g|| = ||H_{f'} - H_{g'}||, and
    the lift of the optimal one-letter approximant of f' attains sigma_k(H_f)
    with Hankel rank at most k.
    """
    root = np.sqrt(coefficients @ coefficients)
    (matrix,) = g_prime.transitions
    return Wfa(g_prime.alpha, [(c / root) * matrix for c in coefficients], g_prime.beta)


# --- Stein equations: the Kronecker system


def stein_kronecker(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """X = a X b^T + c as one dense solve on the m n unknowns of the m x n X.

    With row-major vectorization, vec(a X b^T) = (a kron b) vec(X).
    """
    m, n = c.shape
    return np.linalg.solve(np.eye(m * n) - np.kron(a, b), c.ravel()).reshape(m, n)


# --- AAK: Schmidt functions and the error symbol, pointwise


def v_coefficients(pair: SchmidtPair, count: int) -> np.ndarray:
    """Power-series coefficients v_j = x^T A^j beta, j < count."""
    return evaluation_table(Wfa(pair.direction, pair.wfa.transitions, pair.wfa.beta), count - 1)


def w_coefficients(pair: SchmidtPair, count: int) -> np.ndarray:
    """Negative-part coefficients w_m = sigma^{-1} alpha^T A^m P x, m < count."""
    forced = pair.controllability @ pair.direction / pair.sigma
    return evaluation_table(Wfa(pair.wfa.alpha, pair.wfa.transitions, forced), count - 1)


def v_at(pair: SchmidtPair, z) -> np.ndarray:
    """v as a function on the plane, vectorized over z."""
    z = np.atleast_1d(np.asarray(z))
    eye = np.eye(len(pair.direction))
    systems = eye - z[:, None, None] * pair.wfa.transitions[0].T
    rhs = np.broadcast_to(pair.direction.astype(complex), (z.size, len(pair.direction)))
    solved = np.linalg.solve(systems, rhs[..., None])
    return (pair.wfa.beta @ solved)[..., 0]


def w_at(pair: SchmidtPair, z) -> np.ndarray:
    """w as a function outside the spectrum, vectorized over z."""
    z = np.atleast_1d(np.asarray(z))
    eye = np.eye(len(pair.direction))
    forced = pair.controllability @ pair.direction
    systems = z[:, None, None] * eye - pair.wfa.transitions[0]
    rhs = np.broadcast_to(forced.astype(complex), (z.size, len(forced)))
    solved = np.linalg.solve(systems, rhs[..., None])
    return (pair.wfa.alpha @ solved)[..., 0] / pair.sigma


def error_circle_samples(result: AakApproximation, num_points: int = 4096) -> np.ndarray:
    """|error symbol| on uniformly spaced unit-circle points.

    The error symbol of the optimal approximation has constant modulus
    equal to ``error`` almost everywhere on the circle; these samples let
    a test check that instead of assuming it.
    """
    z = np.exp(2j * np.pi * np.arange(num_points) / num_points)
    pair = result.schmidt
    return np.abs(pair.sigma * w_at(pair, z) / v_at(pair, z))
