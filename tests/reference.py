"""Dense reference definitions that the tests compare the package against.

Nothing in the package calls these: the Fock lab applies its shifts and the
flip as index maps, the Hankel identity is checked on word values, and the
AAK path realizes the error symbol exactly.  Each definition here is the
plain (dense or pointwise) form of an object the package computes another
way, so a test can hold the two against each other.
"""

from __future__ import annotations

import numpy as np

from wfamin.aak import AakApproximation, SchmidtPair
from wfamin.fock import _append_indices, _interior_size, _prepend_indices, _reversal_permutation
from wfamin.hankel import HankelBlock, _svd
from wfamin.wfa import Wfa, evaluation_table
from wfamin.words import WordIndex


# --- Fock space: dense shift, flip and multiplication matrices


def left_shift_matrix(basis: WordIndex, symbol: int) -> np.ndarray:
    """Matrix of the left shift; columns at the top degree are zero."""
    out = np.zeros((len(basis), len(basis)))
    cut = _interior_size(basis)
    out[_prepend_indices(basis, symbol), np.arange(cut)] = 1.0
    return out


def right_shift_matrix(basis: WordIndex, symbol: int) -> np.ndarray:
    """Matrix of the right shift; columns at the top degree are zero."""
    out = np.zeros((len(basis), len(basis)))
    cut = _interior_size(basis)
    out[_append_indices(basis, symbol), np.arange(cut)] = 1.0
    return out


def flip_matrix(basis: WordIndex) -> np.ndarray:
    """Matrix of the word-reversal (flipping) operator."""
    out = np.zeros((len(basis), len(basis)))
    out[_reversal_permutation(basis), np.arange(len(basis))] = 1.0
    return out


def right_multiplication_matrix(basis: WordIndex, series) -> np.ndarray:
    """Matrix of right multiplication by a series: e_w -> sum_u theta_u e_{w u}.

    Coefficients that would exceed the basis degree are dropped (the matrix
    is the compression of the infinite operator to the truncation).
    """
    series = np.asarray(series, dtype=float)
    if series.shape != (len(basis),):
        raise ValueError(f"series has shape {series.shape}, expected ({len(basis)},)")
    d = basis.alphabet_size
    offsets = basis.offsets
    out = np.zeros((len(basis), len(basis)))
    for length in range(basis.max_length + 1):  # |u|: the suffix length
        # left factors w with |w| + |u| <= max_length, one per column
        cut = basis.first_index_of_length(basis.max_length - length + 1) if length else len(basis)
        first = d**length * np.arange(cut, dtype=np.int64) + offsets[length]  # index of w + 0^|u|
        suffixes = np.arange(d**length)
        targets = first[:, None] + suffixes[None, :]
        out[targets, np.arange(cut)[:, None]] += series[offsets[length] + suffixes][None, :]
    return out


# --- Hankel blocks: the dense truncated SVD and the Hankel property


def svd_truncate(block: HankelBlock, k: int) -> tuple[np.ndarray, float]:
    """Best rank-k approximation of the block in the spectral norm.

    Returns the truncated-SVD matrix and the approximation error, which is
    the (k+1)-th singular value (0 when k is at least the rank).  The result
    is optimal among all rank-k matrices but is generally *not* Hankel.
    """
    if not 0 <= k <= min(block.shape):
        raise ValueError(f"k must lie in [0, {min(block.shape)}], got {k}")
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
    combined = WordIndex(block.alphabet_size, block.prefixes.max_length + block.suffixes.max_length)
    words = block.prefixes.concatenation_indices(block.suffixes, combined)
    # every word up to the combined length has at least one cell
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
    cells = [(block.prefixes.word_at(r), block.suffixes.word_at(c))
             for r, c in zip(rows.tolist(), cols.tolist())]
    for a in range(len(cells)):
        for b in range(a + 1, len(cells)):
            if not abs(values[a] - values[b]) <= tol:
                return False, (*cells[a], *cells[b])
    return False, (*cells[0], *cells[0])


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
