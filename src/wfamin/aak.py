"""Optimal spectral-norm Hankel approximation for one-letter WFAs.

For a one-letter alphabet the automaton's Hankel matrix H(i, j) = f(i + j)
is the matrix of a compact Hankel operator whose symbol is the rational
function with negative Fourier coefficients f(0), f(1), ...  The classical
Adamyan-Arov-Krein theory says the best rank-k approximation of that
operator *within the Hankel class* still achieves the unrestricted
Eckart-Young bound, the k-th singular value, and its proof is constructive:
the error symbol is sigma_k times the quotient of the two Schmidt functions
of the k-th singular triple.

This module computes the exact Hankel singular values through the
controllability/observability Gramians of the realization, materializes the
Schmidt functions in closed form, and realizes the negative part of the
error symbol exactly with n + k states: the inverse system of the Schmidt
denominator is split by an ordered Schur form into its parts inside and
outside the unit circle (the discrete-time form of Glover's all-optimal
Hankel-norm construction).  The Stein equations X = A X B^T + C are solved
by :func:`_solve_stein` in O(n^2) memory, three per approximation: the two
Gramians of the input as one :func:`gramians` solve, whose members share
one loop, each squaring its own matrix of [A, A^T], the extraction's mixed
equation, and the certificate's two difference Gramians as a second one.
Each member keeps its Smith doubling solution when the residual is backward
stable, and otherwise comes from the Bartels-Stewart method on the Schur
forms of A and B; every solution returned meets one acceptance,
:data:`STEIN_RTOL`.  The optimal rank-k Hankel sequence is the input minus
that negative part, itself an (n + k)-state WFA; it is returned together
with a k-state WFA recovered from it, whose attained error is certified
exactly, as the Hankel norm of the difference automaton read from its
Gramians (:func:`hankel_norm`), before returning; it must match sigma_k
within :data:`CERTIFY_RTOL` times sigma_0, a fixed constant.

Only two functions here need scipy: the extraction's ordered Schur split
(:func:`_optimal_sequence`: LAPACK ``dgees`` and ``dtrsyl``) and the
Bartels-Stewart fallback (:func:`_bartels_stewart`: ``scipy.linalg.schur``,
``qz`` and LAPACK ``dtgsyl``).  Each imports ``scipy.linalg`` when it first
runs, so importing this module, and with it ``wfamin``, costs numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, RankDeficiencyError, StabilityError
from .hankel import HankelBlock, build_hankel, is_minimal, spectral_recover
from .wfa import Wfa, _checked_k, evaluation_table, spectral_radius

#: Largest Stein residual ||X - a X b^T - c||_F accepted, relative to
#: 1 + ||X||_F, for every solution :func:`_solve_stein` returns.
STEIN_RTOL = 1e-9

#: Largest |attained - sigma_k| the certificate of :func:`aak_approximate`
#: accepts, relative to sigma_0.  No caller can change it.
CERTIFY_RTOL = 1e-6

#: Singular values closer than this share of sigma_0 count as tied: the
#: optimal approximation may then not be unique, and a warning says so.
TIE_RTOL = 1e-8

#: An inverse-system eigenvalue whose modulus lies this close to 1 puts a
#: zero of the Schmidt denominator on the unit circle, where the split of
#: :func:`_optimal_sequence` is undefined.
CIRCLE_GUARD = 1e-8

#: Largest residual of a Smith-doubling Stein solution kept, relative to
#: ||c|| + ||a|| ||X|| ||b||: a backward-stable solve attains a few units
#: of roundoff (2.2e-16).
_SMITH_BACKWARD_RTOL = 1e-15


def _require_one_letter(wfa: Wfa) -> np.ndarray:
    if wfa.alphabet_size != 1:
        raise ValueError(
            f"operation needs a one-letter alphabet, got {wfa.alphabet_size} symbols"
        )
    return wfa.transitions[0]


def _smith_doubling(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_i a^i c (b^T)^i by X <- X + a X b^T, then a <- a^2, b <- b^2.

    a, b and c may also be stacks (k, m, m), (k, n, n) and (k, m, n) of k
    equations that share the loop; b is squared only when it is not a.
    After j doublings X holds the first 2^j terms.  The iteration stops when
    a doubling leaves every X unchanged in floating point.  A member's X is
    NaN when it is not finite or has not settled after 64 doublings (a NaN
    never does).
    """
    b_is_a = b is a
    x = c
    for _ in range(64):
        update = x + a @ x @ b.swapaxes(-1, -2)
        unchanged = update == x
        if unchanged.all():
            break
        x = update
        a = a @ a
        b = a if b_is_a else b @ b
    kept = unchanged.all(axis=(-2, -1)) & np.isfinite(x).all(axis=(-2, -1))
    return np.where(kept[..., None, None], x, np.nan)


def _bartels_stewart(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """X = a X b^T + c from the real Schur form of a and the QZ form of (I, b^T).

    With a = U T U^T, I = Q P Z^T and b^T = Q E Z^T, X = U Y Q^T where
    Y P - T Y E = U^T c Z.  The pencils (T, I) and (P, E) are in generalized
    Schur form, so LAPACK's dtgsyl solves the pair T R - Y P = -U^T c Z,
    R - Y E = 0 for Y by back substitution.
    """
    import scipy.linalg  # loaded on first use: the rest of wfamin runs on numpy alone

    m, n = c.shape
    t, u = scipy.linalg.schur(a)
    p, e, q, z = scipy.linalg.qz(np.eye(n), b.T)
    _, y, scale, _, info = scipy.linalg.lapack.dtgsyl(
        t, p, -(u.T @ c @ z), np.eye(m), e, np.zeros((m, n))
    )
    if info != 0:
        raise NumericalError("Stein equation is singular: rho(a) rho(b) reaches 1")
    return u @ (y / scale) @ q.T


def _solve_stein(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(X, ||X - a X b^T - c||_F) for X = a X b^T + c, rho(a) rho(b) < 1, or
    for each member of stacks of such equations (see :func:`_smith_doubling`).

    Smith doubling costs three products per doubling, and one fewer when b
    is a.  Its squared powers lose accuracy when the powers of a or b grow
    before they decay (strongly non-normal matrices), so a member's X is
    kept only when its residual is a backward-stable one, within
    _SMITH_BACKWARD_RTOL of ||c|| + ||a|| ||X|| ||b||; otherwise that
    member alone comes from the Bartels-Stewart method
    (:func:`_bartels_stewart`) and is measured again.  Every member returned
    then needs a finite ||X|| and a residual within :data:`STEIN_RTOL`
    (1 + ||X||), or :class:`NumericalError` is raised.
    """
    def residual_of(x):
        return np.linalg.norm(x - a @ x @ b.swapaxes(-1, -2) - c, axis=(-2, -1))

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = _smith_doubling(a, b, c)
        residual = residual_of(x)
        norm_a = np.linalg.norm(a, axis=(-2, -1))
        norm_b = norm_a if b is a else np.linalg.norm(b, axis=(-2, -1))
        norm_x = np.linalg.norm(x, axis=(-2, -1))
        # a NaN residual, from a member that did not settle, fails the test
        failed = ~(residual <= _SMITH_BACKWARD_RTOL
                   * (np.linalg.norm(c, axis=(-2, -1)) + norm_a * norm_x * norm_b))
        if failed.any():
            for member in map(tuple, np.argwhere(failed)):
                x[member] = _bartels_stewart(a[member], b[member], c[member])
            residual, norm_x = residual_of(x), np.linalg.norm(x, axis=(-2, -1))
        # an infinite norm would pass any residual, and a NaN one fails
        if not (np.isfinite(norm_x) & (residual <= STEIN_RTOL * (1.0 + norm_x))).all():
            raise NumericalError(f"Stein solution overflowed or inaccurate: residuals {residual}"
                                 f" at norms {norm_x}, tolerance {STEIN_RTOL} (1 + norm)")
    return x, residual


def gramians(wfa: Wfa) -> np.ndarray:
    """Exact Gramians [P, Q] of a one-letter WFA, as one (2, n, n) array.

    P = A P A^T + beta beta^T and Q = A^T Q A + alpha alpha^T come from one
    paired Stein solve, whose acceptance (:func:`_solve_stein`) bounds their
    residuals, then are symmetrized.  Requires spectral radius below one,
    which makes both fixed-point equations uniquely solvable.
    """
    a = _require_one_letter(wfa)
    rho = spectral_radius(a)
    if rho >= 1.0:
        raise StabilityError(f"Gramians diverge: spectral radius {rho} >= 1")
    sides = np.stack([a, a.T])
    weights = np.stack([wfa.beta, wfa.alpha])
    pair, _ = _solve_stein(sides, sides, weights[:, :, None] * weights[:, None, :])
    return 0.5 * (pair + pair.swapaxes(-1, -2))


def _root_product(pair: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Q^{1/2}, Q^{1/2} P^{1/2}) of [P, Q]; the product's singular values are the Hankel ones.

    Both PSD square roots come from one stacked eigendecomposition.  Unlike
    square roots of the eigenvalues of P^{1/2} Q P^{1/2}, which are noise
    below ~1e-8 sigma_0, these keep small values accurate.
    """
    eigenvalues, vectors = np.linalg.eigh(pair)
    roots = vectors * np.sqrt(np.clip(eigenvalues, 0.0, None))[:, None, :]
    roots = roots @ vectors.swapaxes(-1, -2)
    return roots[1], roots[1] @ roots[0]


def _singular_data(wfa: Wfa):
    """Sorted Hankel singular values plus the data needed for Schmidt vectors."""
    pair = gramians(wfa)
    if not is_minimal(wfa):
        raise RankDeficiencyError(
            "input automaton is not minimal (fewer states realize the same "
            "series); reduce it with wfamin.minimize before approximating"
        )
    sqrt_obs, product = _root_product(pair)
    left, sigmas, _ = np.linalg.svd(product)
    sigmas.setflags(write=False)
    return sigmas, left, sqrt_obs, pair


def hankel_singular_values(wfa: Wfa) -> np.ndarray:
    """Singular values of the infinite Hankel operator of a one-letter WFA.

    Computed as the singular values of a product of Gramian square roots,
    which is exact at the size of the realization; no truncation enters.
    Every value is returned, even one that is 0 at working precision (only
    its Schmidt pair is refused).  Raises :class:`StabilityError` or
    :class:`RankDeficiencyError` for an unstable or a non-minimal input.
    """
    return _singular_data(wfa)[0]


def _balanced(wfa: Wfa) -> tuple[np.ndarray, np.ndarray]:
    """(alpha 2^j, beta 2^-j) for the j nearest half of log2(max|beta| /
    max|alpha|): the same series, its two sides at one scale, and no bit of
    either lost.  When alpha or beta is zero the series is, and both come
    back zero, so no side of it enters at a scale of its own."""
    top = np.abs(wfa.alpha).max(), np.abs(wfa.beta).max()
    if not min(top) > 0.0:
        return np.zeros_like(wfa.alpha), np.zeros_like(wfa.beta)
    j = round((math.log2(top[1]) - math.log2(top[0])) / 2)
    return np.ldexp(wfa.alpha, j), np.ldexp(wfa.beta, -j)


def hankel_norm(f: Wfa, g: Wfa) -> float:
    """Exact ||H_f - H_g|| for one-letter WFAs: the largest Hankel singular
    value of the difference automaton (alpha_f (+) alpha_g, A_f (+) A_g,
    beta_f (+) -beta_g).  Each of f and g enters with its alpha and beta
    rescaled by :func:`_balanced`, so the difference's Gramians do not join
    blocks of scales ||beta_f||^2 and ||beta_g||^2 that eigh cannot resolve
    together.  An unstable f or g raises :class:`NumericalError`: for an
    approximant that is a failed computation, not bad input.
    """
    a_f, a_g = _require_one_letter(f), _require_one_letter(g)
    (alpha_f, beta_f), (alpha_g, beta_g) = _balanced(f), _balanced(g)
    n = len(a_f)
    block = np.zeros((n + len(a_g),) * 2)
    block[:n, :n], block[n:, n:] = a_f, a_g
    try:
        pair = gramians(Wfa(np.concatenate([alpha_f, alpha_g]), [block],
                            np.concatenate([beta_f, -beta_g])))
    except StabilityError as exc:
        raise NumericalError(f"Hankel norm of the difference is undefined: {exc}") from exc
    return float(np.linalg.norm(_root_product(pair)[1], 2))


@dataclass(frozen=True, eq=False)
class SchmidtPair:
    """Schmidt functions of one Hankel singular triple, in closed form.

    ``direction`` is the eigenvector x of the Gramian-product pencil for
    sigma**2 of the one-letter automaton ``wfa`` = (alpha, A, beta); the
    right Schmidt function is v(z) = beta^T (1 - z A^T)^{-1} x (a power
    series) and the left one is w(z) = sigma^{-1} alpha^T (z - A)^{-1} P x
    (negative powers only).  H v = sigma w holds exactly.
    """

    sigma: float
    direction: np.ndarray
    wfa: Wfa = field(repr=False)
    controllability: np.ndarray = field(repr=False)


def _schmidt_pair(wfa: Wfa, k: int, singular_data) -> tuple[SchmidtPair, tuple[str, ...]]:
    """sigma_k's Schmidt pair, chosen within the tie group {i : |sigma_i -
    sigma_k| <= TIE_RTOL sigma_0}, and a warning for each of the index pairs
    (k - 1, k) and (k, k + 1) that lies inside that group."""
    sigmas, left, sqrt_obs, pair = singular_data
    if sigmas[k] <= np.finfo(float).eps * sigmas[0]:
        raise NumericalError(
            f"the Hankel singular value sigma_{k} is 0 at working precision "
            f"(singular values {sigmas}); its Schmidt pair is undefined"
        )
    # x = P^{-1/2} v = Q^{1/2} u / sigma for the singular vectors v, u of
    # Q^{1/2} P^{1/2}.  Among tied values take the one with the largest
    # v(0) = x^T beta, which the extraction divides by.
    tied = np.flatnonzero(np.abs(sigmas - sigmas[k]) <= TIE_RTOL * sigmas[0])
    u = left[:, tied[np.argmax(np.abs(left[:, tied].T @ (sqrt_obs @ wfa.beta)))]]
    direction = sqrt_obs @ u / sigmas[k]
    warnings = tuple(
        f"singular values {i} and {i + 1} are nearly equal; the optimal "
        "approximation may not be unique"
        for i in (k - 1, k) if i in tied and i + 1 in tied
    )
    return SchmidtPair(float(sigmas[k]), direction, wfa, pair[0]), warnings


def schmidt_pair(wfa: Wfa, k: int) -> SchmidtPair:
    """Schmidt pair for the k-th largest Hankel singular value (0-indexed).
    k is checked before any solve; a sigma_k that is 0 at working precision
    (at most eps * sigma_0) has none (:class:`NumericalError`)."""
    return _schmidt_pair(wfa, _checked_k(wfa, k), _singular_data(wfa))[0]


def _optimal_sequence(pair: SchmidtPair, order: int) -> Wfa:
    """The optimal rank-``order`` Hankel sequence g, as an (n + k)-state WFA.

    The error symbol is e = r / v with r(z) = alpha^T (z - A)^{-1} P x (that
    is sigma_k * w) and v(z) = x^T (1 - z A)^{-1} beta.  Since
    v(z) = v(0) + z x^T (1 - z A)^{-1} A beta, the power series of 1/v is
    that of the inverse system with state matrix
    A_x = A - (A beta) x^T / v(0); an eigenvalue lambda of A_x is a pole of
    1/v at z = 1 / lambda.  One LAPACK dgees call gives the eigenvalues, for
    the circle guard, and the real Schur form ordered by |lambda| <= 1.  One
    dtrsyl solve on its quasi-triangular blocks then splits A_x into T_s,
    its n - k eigenvalues inside the unit circle, and T_u, the k outside it
    (the inverse zeros of v inside the disk).  On
    the circle 1/v = (1/v)_+ + (1/v)_-: the T_s part is a power series, and
    the T_u part is re-expanded in negative powers of z through
    M_u = T_u^{-1}.  Then

        e_- = r (1/v)_- + alpha^T (z - A)^{-1} (1/v)_+(A) P x,

    the first term a cascade of two strictly proper systems and the second
    the projection of r (1/v)_+ onto the poles of A, whose matrix function
    comes from one Stein equation, X = T_s X A^T + C, solved directly by
    :func:`_solve_stein`.  Both T_s and A have their spectra inside the
    unit disk, so X is unique and the doubling converges at the rate
    rho(T_s) rho(A).  This gives a realization (c, M, b) with n + k
    states, e_{-m-1} = c^T M^m b, c = [alpha; 0] and M block upper
    triangular with A in its top-left block.  So f(m) = c^T M^m [beta; 0],
    and g = f - e_- is the automaton (c, M, [beta; 0] - b).
    """
    from scipy.linalg import lapack  # loaded on first use: the rest of wfamin runs on numpy alone

    a, beta, x = pair.wfa.transitions[0], pair.wfa.beta, pair.direction
    n = len(x)
    head = float(x @ beta)  # v(0)
    if abs(head) <= n * np.finfo(float).eps * np.linalg.norm(x) * np.linalg.norm(beta):
        raise NumericalError(
            "Schmidt denominator vanishes at z = 0; its inverse system is undefined"
        )
    a_beta = a @ beta
    inverse = a - np.outer(a_beta, x) / head
    # one ordered real Schur form, eigenvalues of modulus <= 1 first
    schur, inside, real, imag, basis, _, info = lapack.dgees(
        lambda re, im: re * re + im * im <= 1.0, inverse, sort_t=1
    )
    # info in 1..n: the QR iteration failed and left the eigenvalues
    # unspecified; n + 1 or n + 2: they are computed but the reordering failed
    if 0 < info <= n:
        raise NumericalError(
            f"Schur form of the inverse system failed (LAPACK info {info})"
        )
    distance = float(np.abs(np.hypot(real, imag) - 1.0).min())
    if distance <= CIRCLE_GUARD:
        raise NumericalError(
            "Schmidt denominator nearly vanishes on the unit circle (an "
            f"inverse-system eigenvalue lies {distance:.3e} from it); "
            "coefficient extraction would be unreliable"
        )
    if info != 0:
        raise NumericalError(
            f"ordered Schur form of the inverse system failed (LAPACK info {info})"
        )
    if n - inside != order:
        raise NumericalError(
            f"Schmidt denominator has {n - inside} zeros inside the unit disk, "
            f"expected {order}"
        )
    t_s, t_u = schur[:inside, :inside], schur[inside:, inside:]
    # A_x = V diag(T_s, T_u) V^{-1} with V = basis [[1, Y], [0, 1]], where
    # T_s Y - Y T_u = -S_su; dtrsyl takes no empty block (k = 0)
    coupling = np.zeros((inside, order))
    if 0 < inside < n:
        coupling, scale, _ = lapack.dtrsyl(t_s, t_u, -schur[:inside, inside:], isgn=-1)
        coupling /= scale
    row, col = x @ basis, basis.T @ a_beta
    row_s, row_u = row[:inside], row[inside:] + row[:inside] @ coupling
    col_s, col_u = col[:inside] - coupling @ col[inside:], col[inside:]
    m_u = np.linalg.inv(t_u)
    # (1/v)_- = row_u M_u (z - M_u)^{-1} M_u col_u / v(0)^2, and
    # (1/v)_+(z) = constant - z row_s (1 - z T_s)^{-1} col_s / v(0)^2
    constant = 1.0 / head + float(row_u @ m_u @ col_u) / head**2
    forced = pair.controllability @ x
    # X = T_s X A^T + col_s (A P x)^T gives sum_j (row_s T_s^j col_s) A^{j+1} P x
    mixed, _ = _solve_stein(t_s, a, np.outer(col_s, a @ forced))
    projected = constant * forced - mixed.T @ row_s / head**2
    matrix = np.zeros((n + order, n + order))
    matrix[:n, :n], matrix[n:, n:] = a, m_u
    matrix[:n, n:] = np.outer(forced, row_u @ m_u / head**2)
    return Wfa(
        np.concatenate([pair.wfa.alpha, np.zeros(order)]),
        [matrix],
        np.concatenate([beta - projected, -(m_u @ col_u)]),
    )


@dataclass(frozen=True, eq=False)
class AakApproximation:
    """Result of the optimal rank-k Hankel approximation of a one-letter WFA.

    ``error`` is the optimal spectral-norm distance, the k-th Hankel
    singular value.  ``sequence`` is the approximating sequence as an
    (n + k)-state automaton, exact by construction; ``wfa`` is a k-state
    automaton recovered from it.  ``attained`` is the certificate: the exact
    Hankel norm ||H_f - H_wfa|| (:func:`hankel_norm`), which matched
    ``error`` within :data:`CERTIFY_RTOL` times sigma_0.  ``coefficients`` and
    ``hankel_block`` expose the sequence and its (exactly Hankel) finite
    blocks.
    """

    wfa: Wfa
    error: float
    singular_values: np.ndarray
    schmidt: SchmidtPair
    order: int
    warnings: tuple[str, ...]
    attained: float
    sequence: Wfa

    def __repr__(self) -> str:
        return f"AakApproximation(order={self.order}, error={self.error!r})"

    def coefficients(self, count: int) -> np.ndarray:
        """First ``count`` coefficients g(0), g(1), ... of the approximation."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        return evaluation_table(self.sequence, count - 1)

    def hankel_block(self, length: int) -> HankelBlock:
        """Hankel block of the approximating sequence over the words up to ``length``."""
        return build_hankel(self.sequence, length)


def aak_approximate(wfa: Wfa, k: int) -> AakApproximation:
    """Best rank-k Hankel approximation of a minimal, stable one-letter WFA.

    The attained spectral-norm error equals the k-th Hankel singular value.
    Before returning, this is certified for the returned k-state automaton
    g once, exactly: |hankel_norm(wfa, g) - sigma_k| must be at most
    :data:`CERTIFY_RTOL` times sigma_0.  By Eckart-Young no rank-k matrix,
    Hankel or not, is closer than sigma_k, and g has Hankel rank at most k,
    so the certificate proves optimality.

    Raises
    ------
    TypeError
        If k is not an integer (``operator.index``; True counts as 1).
    ValueError
        If k is out of range or the alphabet is not one-letter.
    StabilityError
        If the transition matrix has spectral radius >= 1.
    RankDeficiencyError
        If the automaton is not minimal.
    NumericalError
        If sigma_k is 0 at working precision, coefficient extraction fails,
        the optimal sequence's block falls below rank k at working precision
        (so no k-state automaton is recovered), the recovered automaton is
        unstable or the certificate does not hold.  Smaller singular values,
        even vanishing ones, do not enter.
    """
    k = _checked_k(wfa, k)
    # one Gramian solve serves the singular values and the Schmidt pair;
    # StabilityError unless spectral radius < 1, then RankDeficiencyError
    # unless minimal
    singular_data = _singular_data(wfa)
    sigmas = singular_data[0]
    sigma_k = float(sigmas[k])
    pair, warnings = _schmidt_pair(wfa, k, singular_data)
    sequence = _optimal_sequence(pair, k)
    # the k-state realization of the sequence from its state factors, no
    # block (the one-state zero automaton at k = 0)
    try:
        recovered = spectral_recover(sequence, k, max(k, 1))
    except RankDeficiencyError as exc:
        # the input is minimal, so a rank-deficient block means the
        # computed sequence lost its rank at working precision
        raise NumericalError(f"recovery of the {k}-state approximant failed: {exc}") from exc
    attained = hankel_norm(wfa, recovered)
    if abs(attained - sigma_k) > CERTIFY_RTOL * sigmas[0]:
        raise NumericalError(
            f"attained error {attained!r} does not match the singular value "
            f"{sigma_k!r} within {CERTIFY_RTOL} relative"
        )
    return AakApproximation(
        wfa=recovered,
        error=sigma_k,
        singular_values=sigmas,
        schmidt=pair,
        order=k,
        warnings=warnings,
        attained=attained,
        sequence=sequence,
    )
