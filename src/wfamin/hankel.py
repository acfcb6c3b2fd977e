"""Finite Hankel blocks of a WFA, rank checks and spectral reconstruction.

A Hankel block is the square truncation of the Hankel matrix of a function
f on words: rows and columns are both the words up to one length, and the
entry at (u, v) is f(uv), which only depends on the concatenation.  This
module builds such blocks from automata, measures their numerical rank, runs
the truncated-SVD baseline (whose rank-k optimum is generally not Hankel) and
reconstructs a WFA of a given size from a block via the spectral method.
Minimality is decided without blocks, by an orthogonal reduction that
returns a minimal input itself.

The block of an n-state automaton factors exactly as H = P S^T, with the
prefix states alpha^T A_p as the rows of P and the suffix states
(A_s beta)^T as the rows of S (the forward-backward factorization of
spectral learning).  Spectral recovery and the svd baseline take one
stacked QR of the N x n factors and the SVD of an r x r core (r <= n), in
O(N n^2) instead of the O(N^3) of a dense N x N SVD, and never build the
block; the rows of S follow the reversed words, which permutes the columns
of H and changes no singular value.  ``hankel_rank`` stays dense.

:mod:`wfamin.words` holds the word order and sizes every block and factor to
``words.MAX_BLOCK_ENTRIES`` before anything is built.  A block is one frozen
array, allocated once: :class:`HankelBlock` holds the join :func:`build_hankel` makes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, RankDeficiencyError
from .wfa import Wfa, _checked_k, _integer_k, _prefix_levels, evaluation_table
from .words import WordIndex, _block_rows

#: Relative singular-value cutoff of every numerical rank decision.
DEFAULT_RANK_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class HankelBlock:
    """A square block over one word set; ``build_hankel``'s blocks are Hankel.

    A read-only float ndarray that owns its memory is held as given; other
    ``entries`` (writeable, a view, a list, another dtype) are copied and frozen.
    """

    words: WordIndex
    entries: np.ndarray

    def __post_init__(self):
        entries = self.entries
        if not (type(entries) is np.ndarray and entries.dtype == float
                and entries.flags.owndata and not entries.flags.writeable):
            entries = np.array(entries, dtype=float)
            entries.setflags(write=False)
        expected = (len(self.words), len(self.words))
        if entries.shape != expected:
            raise ValueError(f"entries have shape {entries.shape}, expected {expected}")
        object.__setattr__(self, "entries", entries)


def build_hankel(wfa: Wfa, length: int) -> HankelBlock:
    """Hankel block of a WFA over the words up to ``length``, as rows and columns.

    The block is cut from one table of word values, so two cells of one
    concatenated word hold the identical float: the columns of the length-m
    words are one slice of the table, read as N x d**m (:mod:`wfamin.words`).
    Their join is held without a copy: past the table's own build, a build
    peaks at the table plus one N x N float array.
    """
    d = wfa.alphabet_size
    n = _block_rows(d, length, None, "block")
    words = WordIndex(d, length)
    first, table = words.first_index_of_length, evaluation_table(wfa, 2 * length)
    entries = np.concatenate([table[first(m):first(m) + n * d**m].reshape(n, d**m)
                              for m in range(length + 1)], axis=1)
    entries.setflags(write=False)
    return HankelBlock(words, entries)


def _svd(matrix: np.ndarray, compute_uv: bool):
    try:
        return np.linalg.svd(matrix, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed: {exc}") from exc


def _rank(singular_values: np.ndarray) -> int:
    """Number of singular values above ``DEFAULT_RANK_TOL`` times the largest."""
    if singular_values.size == 0 or singular_values[0] == 0.0:
        return 0
    return int(np.count_nonzero(singular_values > DEFAULT_RANK_TOL * singular_values[0]))


def hankel_rank(block: HankelBlock) -> int:
    """Numerical rank: singular values above ``DEFAULT_RANK_TOL`` times the largest."""
    return _rank(_svd(block.entries, compute_uv=False))


def _state_factors(wfa: Wfa, length: int) -> np.ndarray:
    """The factors of the (length, length) block H = P S^T, stacked as one
    (2, N, n) array [P, S].

    The rows of P are the prefix states alpha^T A_p in ``WordIndex`` order.
    The rows of S are the suffix states (A_s beta)^T, taken as the prefix
    states of the reversed automaton (beta, {A_a^T}): the row of w holds the
    state of w reversed, so P S^T is H with its columns permuted by word
    reversal (the identity for one letter).  Only row 0 of S, the empty
    word, is read by position.
    """
    starts = ((wfa.alpha, wfa.transitions), (wfa.beta, [m.T for m in wfa.transitions]))
    return np.stack([
        np.concatenate([start[None, :], *_prefix_levels(start, matrices, length)])
        for start, matrices in starts
    ])


def _factored_svd(factors: np.ndarray):
    """Thin SVD (U, s, V) of ``P @ S.T`` for the stack ``factors = [P, S]``,
    whose product is never formed.

    One stacked QR call gives P = Q_P R_P and S = Q_S R_S, so the product is
    Q_P (R_P R_S^T) Q_S^T and the SVD of the small core R_P R_S^T gives
    U = Q_P U_c and V = Q_S V_c.  For N x n factors that is O(N n^2), and
    s has at most n values.
    """
    q, r = np.linalg.qr(factors)
    u, s, vt = _svd(r[0] @ r[1].T, compute_uv=True)
    return q[0] @ u, s, q[1] @ vt.T


def _factor_rows(wfa: Wfa, length: int, columns: int) -> int:
    """:func:`~wfamin.words._block_rows` of N x ``columns`` state factors, for length >= 1."""
    if length < 1:
        raise ValueError("spectral recovery needs prefixes of length >= 1")
    return _block_rows(wfa.alphabet_size, length, columns, "state factor")


def _factored_recover(wfa: Wfa, k: int, length: int):
    """:func:`spectral_recover`, returning (recovered, factors, s): the k-state
    automaton, the block's stacked state factors [P, S] (:func:`_state_factors`)
    and its singular values."""
    k = _integer_k(k)
    size = _factor_rows(wfa, length, wfa.num_states)
    if not 0 <= k <= size:
        raise ValueError(f"k must lie in [0, {size}] for the {size} x {size} block, got {k}")
    factors = _state_factors(wfa, length)
    u, s, v = _factored_svd(factors)
    if k == 0:
        return Wfa(np.zeros(1), [np.zeros((1, 1))] * wfa.alphabet_size, np.zeros(1)), factors, s
    rank = _rank(s)
    if k > rank:
        raise RankDeficiencyError(f"requested {k} states but the block has numerical rank {rank}")
    root = np.sqrt(s[:k])
    left = (u[:, :k] / root).T @ factors[0]  # D_k^{-1/2} U_k^T P
    right = factors[1].T @ (v[:, :k] / root)  # S^T V_k D_k^{-1/2}
    recovered = Wfa(root * u[0, :k], [left @ m @ right for m in wfa.transitions], root * v[0, :k])
    return recovered, factors, s


def spectral_recover(wfa: Wfa, k: int, length: int) -> Wfa:
    """Recover a k-state WFA from the Hankel block of ``wfa`` via the spectral method.

    The block H of the series f of ``wfa`` over the words up to ``length``,
    as prefixes and as suffixes, is P S^T for the state factors of ``wfa``,
    and is never built.  With the rank-k truncated SVD H = U_k D_k V_k^T,
    taken from the stacked factors in O(N n^2), the transition matrices are
    D_k^{-1/2} U_k^T H_a V_k D_k^{-1/2}, where the shifted block
    H_a(p, s) = f(p a s) is P A_a S^T, and the initial/final vectors come
    from the empty-word row and column.  At k equal to the full rank the
    result interpolates f on every word covered by the block.  Each N x n
    factor is held to ``words.MAX_BLOCK_ENTRIES``.  A k that is not an
    integer (``operator.index``) raises ``TypeError`` before anything is built.
    """
    return _factored_recover(wfa, k, length)[0]


def _svd_baseline(wfa: Wfa, length: int, k: int):
    """The truncated-SVD baseline on the (length, length) block of ``wfa``.

    Returns (g, s, achieved, N): the k-state automaton g of
    :func:`spectral_recover`, the singular values of the N x N block H, and
    ||H - G||_2 for the block G of g.  One factored SVD serves all three:
    H - G = [P_f | P_g] [S_f | -S_g]^T has rank at most n + k, so its norm
    is the top singular value of that factored product, whose stack joins
    the stacks of f and g (S_g negated) along the state axis; the
    reversed-word row order of both S permutes its columns only.  The entry
    guard counts the N x (n + k) factors, which is all that is built; k is
    checked before it (:func:`~wfamin.wfa._checked_k`).
    """
    k = _checked_k(wfa, k)
    size = _factor_rows(wfa, length, wfa.num_states + k)
    recovered, factors, singular = _factored_recover(wfa, k, length)
    recovered_factors = _state_factors(recovered, length)
    np.negative(recovered_factors[1], out=recovered_factors[1])
    _, difference, _ = _factored_svd(np.concatenate([factors, recovered_factors], axis=2))
    return recovered, singular, float(difference[0]), size


def _orthonormal_span(start: np.ndarray, matrices, tol: float) -> np.ndarray:
    """Orthonormal columns spanning {M_w start : words w}.

    Breadth-first Gram-Schmidt, run twice per candidate; a candidate other
    than the normalized start whose residual is at most ``tol`` is dropped,
    and a norm that overflows raises :class:`NumericalError`.  The start is
    first scaled by the power of two that puts its largest entry in
    [0.5, 1), so its norm, which squares its entries, neither underflows nor
    overflows, and the normalized start keeps every bit.
    """
    start = np.ldexp(start, -np.frexp(np.abs(start).max(initial=0.0))[1])
    basis = np.empty((start.size, 0))
    norm = residual = np.linalg.norm(start)
    queue = [start / norm] if norm > 0.0 else []
    while queue and basis.shape[1] < start.size and residual < np.inf:  # not inf or NaN
        vector = queue.pop(0)
        for _ in range(2):
            vector = vector - basis @ (basis.T @ vector)
        residual = np.linalg.norm(vector)
        if residual > tol or not basis.size:
            basis = np.column_stack([basis, vector / residual])
            queue.extend(m @ basis[:, -1] for m in matrices)
    if not residual < np.inf:
        raise NumericalError(f"orthogonal reduction overflowed: a norm is {float(residual)!r}")
    return basis


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises in _orthonormal_span
def minimize(wfa: Wfa) -> Wfa:
    """A minimal automaton with the same series, by orthogonal reduction.

    The forward-backward reduction of Kiefer, Murawski, Ouaknine, Wachter
    and Worrell, in O(d n^3) and without a Hankel block: the reachable part
    span{A_w beta}, then the observable part span{A_w^T alpha} of what is
    kept.  A direction counts when its residual exceeds ``DEFAULT_RANK_TOL``
    times max(1, max_a ||A_a||_2), the start direction always; an overflow
    raises :class:`NumericalError`.  A side that keeps every direction
    changes no basis, so a minimal input comes back as itself.  The zero
    series comes back as one zero state.
    """
    tol = DEFAULT_RANK_TOL * max(1.0, max(np.linalg.norm(m, 2) for m in wfa.transitions))
    alpha, mats, beta = wfa.alpha, wfa.transitions, wfa.beta
    for reachable in (True, False):
        start, moves = (beta, mats) if reachable else (alpha, [m.T for m in mats])
        basis = _orthonormal_span(start, moves, tol)
        if basis.shape[1] < alpha.size:
            alpha, mats, beta = basis.T @ alpha, [basis.T @ m @ basis for m in mats], basis.T @ beta
    if alpha.size == 0:
        return Wfa(np.zeros(1), [np.zeros((1, 1))] * wfa.alphabet_size, np.zeros(1))
    return wfa if alpha.size == wfa.num_states else Wfa(alpha, mats, beta)


def is_minimal(wfa: Wfa) -> bool:
    """Whether :func:`minimize` returns its input: no side of the reduction
    drops a direction (never for the zero series)."""
    return minimize(wfa) is wfa
