"""Finite Hankel blocks of a WFA, rank checks and spectral reconstruction.

A Hankel block is a finite sub-matrix of the bi-infinite Hankel matrix of a
function f on words: rows are indexed by prefixes, columns by suffixes, and
the entry at (p, s) is f(ps).  The block therefore satisfies the Hankel
constraint that the entry only depends on the concatenation.  This module
builds such blocks from automata, measures their numerical rank, runs the
truncated-SVD baseline (whose rank-k optimum is generally not Hankel), and
reconstructs a WFA of a given size from a block via the spectral method.  Minimality is
decided without blocks, by an orthogonal reduction of the realization.

The block of an n-state automaton factors exactly as H = P S^T, with the
prefix states alpha^T A_p as the rows of P and the suffix states
(A_s beta)^T as the rows of S (the forward-backward factorization of
spectral learning).  Spectral recovery and the svd baseline work on these
N x n factors: two thin QRs and the SVD of an r x r core (r <= n) cost
O(N n^2) instead of the O(N^3) of a dense N x N SVD, and the block itself
supplies only the prefix and suffix sets.  S holds the prefix states of
the reversed automaton, so its rows follow the reversed words and P S^T is
H with its columns permuted, which changes no singular value.
``hankel_rank`` takes arbitrary blocks and stays dense.  The word order
lives in ``WordIndex`` alone: :func:`build_hankel` reads every cell from
one table of word values through the concatenation index map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, RankDeficiencyError
from .wfa import Wfa, _prefix_levels, evaluation_table
from .words import WordIndex

#: Refuse to materialize blocks with more entries than this.
MAX_BLOCK_ENTRIES = 10_000_000

#: Relative singular-value cutoff used for numerical rank decisions.
DEFAULT_RANK_TOL = 1e-9


@dataclass(frozen=True)
class HankelBlock:
    """A finite Hankel sub-matrix with explicit prefix/suffix index sets."""

    prefixes: WordIndex
    suffixes: WordIndex
    entries: np.ndarray

    def __post_init__(self):
        entries = np.array(self.entries, dtype=float)
        expected = (len(self.prefixes), len(self.suffixes))
        if entries.shape != expected:
            raise ValueError(f"entries have shape {entries.shape}, expected {expected}")
        if self.prefixes.alphabet_size != self.suffixes.alphabet_size:
            raise ValueError("prefix and suffix alphabets differ")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape

    @property
    def alphabet_size(self) -> int:
        return self.prefixes.alphabet_size


def _check_block_size(num_rows: int, num_cols: int, what: str):
    if num_rows * num_cols > MAX_BLOCK_ENTRIES:
        raise ValueError(
            f"refusing to build a {num_rows} x {num_cols} {what} "
            f"({num_rows * num_cols} entries > {MAX_BLOCK_ENTRIES})"
        )


def build_hankel(wfa: Wfa, prefix_length: int, suffix_length: int) -> HankelBlock:
    """Hankel block of a WFA over all prefixes/suffixes up to the given lengths.

    Every entry is pulled from a single table of word values, so two cells
    indexed by the same concatenated word hold the identical float.
    """
    d = wfa.alphabet_size
    prefixes = WordIndex(d, prefix_length)
    suffixes = WordIndex(d, suffix_length)
    _check_block_size(len(prefixes), len(suffixes), "block")
    combined = WordIndex(d, prefix_length + suffix_length)
    table = evaluation_table(wfa, combined.max_length)
    entries = table[prefixes.concatenation_indices(suffixes, combined)]
    return HankelBlock(prefixes, suffixes, entries)


def _svd(matrix: np.ndarray, compute_uv: bool):
    try:
        return np.linalg.svd(matrix, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed: {exc}") from exc


def _rank(singular_values: np.ndarray, tol: float) -> int:
    """Number of singular values above ``tol`` times the largest."""
    if singular_values.size == 0 or singular_values[0] == 0.0:
        return 0
    return int(np.count_nonzero(singular_values > tol * singular_values[0]))


def hankel_rank(block: HankelBlock, tol: float = DEFAULT_RANK_TOL) -> int:
    """Numerical rank: number of singular values above ``tol`` times the largest."""
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    return _rank(_svd(block.entries, compute_uv=False), tol)


def _prefix_states(wfa: Wfa, max_length: int) -> np.ndarray:
    """Rows alpha^T A_p for the prefixes p of length <= max_length, in
    ``WordIndex`` order: the left factor P of every block H = P S^T."""
    return np.concatenate([wfa.alpha[None, :], *_prefix_levels(wfa, max_length)])


def _suffix_states(wfa: Wfa, max_length: int) -> np.ndarray:
    """Rows (A_s beta)^T for the suffixes s of length <= max_length: the right
    factor S of every block H = P S^T, up to row order.

    They are the prefix states of the reversed automaton, so the row of w
    holds the state of w reversed and P S^T is H with its columns permuted
    by word reversal (the identity for one letter).  Only row 0, the empty
    word, is read by position.
    """
    return _prefix_states(Wfa(wfa.beta, [m.T for m in wfa.transitions], wfa.alpha), max_length)


def _factored_svd(left: np.ndarray, right: np.ndarray):
    """Thin SVD (U, s, V) of ``left @ right.T``, which is never formed.

    With thin QRs left = Q_l R_l and right = Q_r R_r the product is
    Q_l (R_l R_r^T) Q_r^T, so the SVD of the small core R_l R_r^T gives
    U = Q_l U_c and V = Q_r V_c.  For N x n factors that is O(N n^2), and
    s has at most n values.
    """
    q_left, r_left = np.linalg.qr(left)
    q_right, r_right = np.linalg.qr(right)
    u, s, vt = _svd(r_left @ r_right.T, compute_uv=True)
    return q_left @ u, s, q_right @ vt.T


def _factored_recover(prefixes: WordIndex, suffixes: WordIndex, k: int, wfa: Wfa):
    """:func:`spectral_recover` on the block of ``wfa`` over these index sets.

    Returns (recovered, P, S, s): the k-state automaton, the state factors
    of the block and its singular values.  S lists its rows by reversed word
    (:func:`_suffix_states`) and is read by position only at row 0.
    """
    if prefixes.max_length < 1:
        raise ValueError("spectral recovery needs prefixes of length >= 1")
    d = prefixes.alphabet_size
    if wfa.alphabet_size != d:
        raise ValueError("block and automaton alphabet sizes differ")
    shape = (len(prefixes), len(suffixes))
    if k > min(shape):
        raise ValueError(f"k={k} exceeds block dimensions {shape}")
    prefix = _prefix_states(wfa, prefixes.max_length)
    suffix = _suffix_states(wfa, suffixes.max_length)
    u, s, v = _factored_svd(prefix, suffix)
    if k == 0:
        zero = np.zeros((1, 1))
        return Wfa(np.zeros(1), [zero] * d, np.zeros(1)), prefix, suffix, s
    rank = _rank(s, DEFAULT_RANK_TOL)
    if k > rank:
        raise RankDeficiencyError(
            f"requested {k} states but the block has numerical rank {rank}"
        )
    root = np.sqrt(s[:k])
    left = (u[:, :k] / root).T @ prefix  # D_k^{-1/2} U_k^T P
    right = suffix.T @ (v[:, :k] / root)  # S^T V_k D_k^{-1/2}
    recovered = Wfa(root * u[0, :k], [left @ m @ right for m in wfa.transitions], root * v[0, :k])
    return recovered, prefix, suffix, s


def spectral_recover(block: HankelBlock, k: int, wfa: Wfa) -> Wfa:
    """Recover a k-state WFA from a Hankel block via the spectral method.

    The block holds the series f of ``wfa`` and supplies only its prefix and
    suffix sets: its values are H = P S^T for the prefix and suffix state
    factors of ``wfa``.  With the rank-k truncated SVD H = U_k D_k V_k^T,
    taken from those factors in O(N n^2), the transition matrices are
    D_k^{-1/2} U_k^T H_a V_k D_k^{-1/2}, where the shifted block
    H_a(p, s) = f(p a s) is P A_a S^T, and the initial/final vectors come
    from the empty-word row and column.  At k equal to the full rank the
    result interpolates f on every word covered by the block.
    """
    return _factored_recover(block.prefixes, block.suffixes, k, wfa)[0]


def _svd_baseline(wfa: Wfa, length: int, k: int):
    """The truncated-SVD baseline on the (length, length) block of ``wfa``.

    Returns (g, s, achieved, N): the k-state automaton g of
    :func:`spectral_recover`, the singular values of the N x N block H, and
    ||H - G||_2 for the block G of g.  One factored SVD serves all three:
    H - G = [P_f | P_g] [S_f | -S_g]^T has rank at most n + k, so its norm
    is the top singular value of that factored product; the reversed-word
    row order of both S permutes its columns only.  The entry guard counts
    the N x (n + k) factors, which is all that is built.
    """
    words = WordIndex(wfa.alphabet_size, length)
    _check_block_size(len(words), wfa.num_states + k, "state factor")
    recovered, prefix, suffix, singular = _factored_recover(words, words, k, wfa)
    _, difference, _ = _factored_svd(
        np.hstack([prefix, _prefix_states(recovered, length)]),
        np.hstack([suffix, -_suffix_states(recovered, length)]),
    )
    return recovered, singular, float(difference[0]), len(words)


def _orthonormal_span(start: np.ndarray, matrices, tol: float) -> np.ndarray:
    """Orthonormal columns spanning {M_w start : words w}.

    Breadth-first Gram-Schmidt, run twice per candidate; a candidate whose
    residual is at most ``tol`` is dropped.
    """
    basis = np.empty((start.size, 0))
    norm = np.linalg.norm(start)
    queue = [start / norm] if norm > 0.0 else []
    while queue and basis.shape[1] < start.size:
        vector = queue.pop(0)
        for _ in range(2):
            vector = vector - basis @ (basis.T @ vector)
        residual = np.linalg.norm(vector)
        if residual > tol:
            basis = np.column_stack([basis, vector / residual])
            queue.extend(m @ basis[:, -1] for m in matrices)
    return basis


def _reduced_weights(wfa: Wfa):
    """(alpha, transitions, beta) of a minimal realization, of size 0 for the
    zero series: the reachable part span{A_w beta}, then the observable part
    span{A_w^T alpha} of that."""
    tol = DEFAULT_RANK_TOL * max(1.0, max(np.linalg.norm(m, 2) for m in wfa.transitions))
    basis = _orthonormal_span(wfa.beta, wfa.transitions, tol)
    mats = [basis.T @ m @ basis for m in wfa.transitions]
    alpha, beta = basis.T @ wfa.alpha, basis.T @ wfa.beta
    basis = _orthonormal_span(alpha, [m.T for m in mats], tol)
    return basis.T @ alpha, [basis.T @ m @ basis for m in mats], basis.T @ beta


def minimize(wfa: Wfa) -> Wfa:
    """A minimal automaton with the same series, by orthogonal reduction.

    The forward-backward reduction of Kiefer, Murawski, Ouaknine, Wachter
    and Worrell, in O(d n^3) and without a Hankel block.  A direction counts
    when its residual exceeds ``DEFAULT_RANK_TOL`` times
    max(1, max_a ||A_a||_2).  The zero series comes back as one zero state.
    """
    alpha, mats, beta = _reduced_weights(wfa)
    if alpha.size == 0:
        return Wfa(np.zeros(1), [np.zeros((1, 1))] * wfa.alphabet_size, np.zeros(1))
    return Wfa(alpha, mats, beta)


def is_minimal(wfa: Wfa) -> bool:
    """Whether :func:`minimize` keeps all n states (never for the zero series)."""
    return _reduced_weights(wfa)[0].size == wfa.num_states
