"""Dense reference definitions that the tests compare the package against.

Nothing in the package calls these: the Fock lab reads its shifts and the
flip only as the index maps of ``WordIndex`` and has no function that
applies them to a vector, the Hankel identity is checked on the block it is
given, the AAK path realizes the error symbol exactly, and its Stein
equations are solved on n x n matrices (doubling, or Bartels-Stewart on
Schur forms).  Each definition here is the plain (dense or pointwise) form
of an object the package computes another way, so a test can hold the two
against each other.  The affine-class pair and lift are the oracle of a
step the package does not take yet: a d-letter input whose letters act by
p_a I + u_a B for one matrix B, approximated through a one-letter one, with
the d-letter Hankel singular values read from dense Kronecker solves.
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


# --- The affine class: every letter acts by p_a I + u_a B for one matrix B


def affine_pair(alpha, matrix, beta, p, u) -> tuple[Wfa, Wfa]:
    """(f, f~): the d-letter f with A_a = p_a I + u_a B, for B = ``matrix``,
    ||u|| = 1 and p orthogonal to u, and the one-letter
    f~ = (alpha / (1 - ||p||^2), B / s, beta) with s = sqrt(1 - ||p||^2).

    Why H_f is H_f~ seen through an isometry: take B diagonalizable with
    eigenvalues mu_i.  Then H_f = sum_i c_i xi_{lambda_i} xi_{lambda_i}^T,
    where lambda_i = p + mu_i u are the joint eigenvalues, xi_lambda(w) =
    lambda_{w_1} ... lambda_{w_m}, and <xi_lambda, xi_mu> = 1 / (1 -
    <lambda, mu>) is the Drury-Arveson kernel (Drury 1978; Arveson 1998).
    On the line p + zeta u that kernel is (1 - ||p||^2)^{-1} times the Szego
    kernel in z = zeta / s, so xi_{p + zeta u} -> (1 - ||p||^2)^{-1/2}
    (z^m)_m is an isometry onto l^2, and under it H_f is the one-letter
    Hankel operator of f~.  Non-diagonalizable B follows by continuity.  The
    series is stable exactly when rho(B)^2 + ||p||^2 < 1, that is when
    rho(B / s) < 1.  At p = 0 this is the proportional class A_a = u_a B,
    with f~ = (alpha, B, beta).
    """
    p, u = np.asarray(p, dtype=float), np.asarray(u, dtype=float)
    shrink = 1.0 - p @ p
    eye = np.eye(len(matrix))
    return (Wfa(alpha, [pa * eye + ua * matrix for pa, ua in zip(p, u)], beta),
            Wfa(np.asarray(alpha) / shrink, [matrix / np.sqrt(shrink)], beta))


def affine_lift(g_tilde: Wfa, p, u) -> Wfa:
    """The d-letter g = ((1 - ||p||^2) alpha', {p_a I + u_a s B'}, beta') of a
    one-letter g~ = (alpha', B', beta'), with s = sqrt(1 - ||p||^2).

    g is in the class of :func:`affine_pair` on the same line p + zeta u:
    each joint eigenvalue p + s nu_j u of g comes from an eigenvalue nu_j of
    B', and the factor 1 - ||p||^2 on alpha' undoes the kernel's, so the
    isometry that carries H_f to H_f~ carries H_g to H_g~.  Hence
    ||H_f - H_g|| = ||H_f~ - H_g~||, and the lift of the optimal k-state
    one-letter approximant of f~ is a k-state d-letter automaton that
    attains sigma_k(H_f), which by Eckart-Young no rank-k operator beats.
    """
    p, u = np.asarray(p, dtype=float), np.asarray(u, dtype=float)
    shrink = 1.0 - p @ p
    (matrix,) = g_tilde.transitions
    eye = np.eye(len(matrix))
    scaled = np.sqrt(shrink) * matrix
    return Wfa(shrink * g_tilde.alpha, [pa * eye + ua * scaled for pa, ua in zip(p, u)],
               g_tilde.beta)


# --- Stein equations and d-letter Hankel singular values: Kronecker systems


def stein_kronecker(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """X = a X b^T + c as one dense solve on the m n unknowns of the m x n X;
    for stacks a and b of d matrices, X = sum_j a_j X b_j^T + c.

    With row-major vectorization, vec(a X b^T) = (a kron b) vec(X).
    """
    m, n = c.shape
    terms = zip(np.reshape(a, (-1, m, m)), np.reshape(b, (-1, n, n)))
    system = np.eye(m * n) - sum(np.kron(a_j, b_j) for a_j, b_j in terms)
    return np.linalg.solve(system, c.ravel()).reshape(m, n)


def dense_hankel_singular_values(wfa: Wfa) -> np.ndarray:
    """Hankel singular values of a stable d-letter WFA, from dense solves.

    H_f = O R, with the rows alpha^T A_u of O and the columns A_v beta of R
    over all words, so its nonzero singular values are those of
    Q^{1/2} P^{1/2} for the Gramians P = R R^T and Q = O^T O.  They solve
    P = sum_a A_a P A_a^T + beta beta^T and Q = sum_a A_a^T Q A_a +
    alpha alpha^T, here as Kronecker systems on the n^2 unknowns; both
    square roots come from ``eigh``.
    """
    transitions, roots = np.array(wfa.transitions), []
    for sides, weight in ((transitions, wfa.beta), (transitions.swapaxes(-1, -2), wfa.alpha)):
        gramian = stein_kronecker(sides, sides, np.outer(weight, weight))
        values, vectors = np.linalg.eigh(0.5 * (gramian + gramian.T))
        roots.append((vectors * np.sqrt(np.clip(values, 0.0, None))) @ vectors.T)
    return np.linalg.svd(roots[1] @ roots[0], compute_uv=False)


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
