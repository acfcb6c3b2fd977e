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
Hankel-norm construction).  Every Stein equation here, X = A X B^T + C for
the Gramians, the certificate and the extraction, is one
:func:`_solve_stein` in O(n^2) memory: Smith's doubling iteration, three
n x n products per doubling, whose solution is kept when its residual is
backward stable, and otherwise the Bartels-Stewart method on the Schur
forms of A and B.  The optimal rank-k Hankel sequence is the input minus
that negative part, itself an (n + k)-state WFA; it is returned together
with a k-state WFA recovered from it, whose attained error is certified
exactly, as the Hankel norm of the difference automaton read from its
Gramians (:func:`hankel_norm`), before returning.

Only two functions here need scipy: the extraction's ordered Schur split
(:func:`_optimal_sequence`) and the Bartels-Stewart fallback
(:func:`_bartels_stewart`).  Each imports ``scipy.linalg`` when it first
runs, so importing this module, and with it ``wfamin``, costs numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, RankDeficiencyError, StabilityError
from .hankel import HankelBlock, _factored_recover, build_hankel, is_minimal
from .wfa import Wfa, evaluation_table, spectral_radius
from .words import WordIndex

#: Largest Gramian fixed-point residual accepted, relative to 1 + the
#: larger Gramian norm.
GRAMIAN_RTOL = 1e-9

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


@dataclass(frozen=True)
class GramianPair:
    """Controllability and observability Gramians of a one-letter realization.

    They satisfy P = A P A^T + beta beta^T and Q = A^T Q A + alpha alpha^T;
    the attained fixed-point residuals are kept for diagnostics.
    """

    controllability: np.ndarray
    observability: np.ndarray
    controllability_residual: float
    observability_residual: float


def _smith_doubling(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray | None:
    """sum_i a^i c (b^T)^i by X <- X + a X b^T, then a <- a^2, b <- b^2.

    After j doublings X holds the first 2^j terms.  The iteration stops when
    a doubling leaves X unchanged in floating point; None when that X is
    not finite or X has not settled after 64 doublings (a NaN never does).
    """
    x = c
    for _ in range(64):
        update = x + a @ x @ b.T
        if (update == x).all():
            return x if np.isfinite(x).all() else None
        x, a, b = update, a @ a, b @ b
    return None


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


def _solve_stein(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """X = a X b^T + c, for rho(a) rho(b) < 1.

    Smith doubling (:func:`_smith_doubling`) costs three products per
    doubling.  Its squared powers lose accuracy when the powers of a or b
    grow before they decay (strongly non-normal matrices), so its X is kept
    only when its residual is a backward-stable one, within
    _SMITH_BACKWARD_RTOL of ||c|| + ||a|| ||X|| ||b||; otherwise X comes
    from the Bartels-Stewart method (:func:`_bartels_stewart`).  An X that
    is not finite raises :class:`NumericalError`.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = _smith_doubling(a, b, c)
        if x is not None:
            residual = np.linalg.norm(x - a @ x @ b.T - c)
            norm_a, norm_b = np.linalg.norm(a), np.linalg.norm(b)
            scale = np.linalg.norm(c) + norm_a * np.linalg.norm(x) * norm_b
            if residual <= _SMITH_BACKWARD_RTOL * scale:
                return x
        x = _bartels_stewart(a, b, c)
        if not np.isfinite(x).all():
            raise NumericalError("Stein equation solution overflowed")
    return x


def gramians(wfa: Wfa) -> GramianPair:
    """Exact Gramians of a one-letter WFA, one Stein equation each.

    Requires the transition matrix to have spectral radius below one, which
    makes both fixed-point equations uniquely solvable.
    """
    a = _require_one_letter(wfa)
    rho = spectral_radius(a)
    if rho >= 1.0:
        raise StabilityError(f"Gramians diverge: spectral radius {rho} >= 1")
    ctrl = _solve_stein(a, a, np.outer(wfa.beta, wfa.beta))
    ctrl = 0.5 * (ctrl + ctrl.T)
    obs = _solve_stein(a.T, a.T, np.outer(wfa.alpha, wfa.alpha))
    obs = 0.5 * (obs + obs.T)
    # a finite Gramian can still overflow its residual or norm; an infinite
    # scale would pass any residual, so both must be finite
    with np.errstate(over="ignore", invalid="ignore"):
        ctrl_res = float(np.linalg.norm(ctrl - a @ ctrl @ a.T - np.outer(wfa.beta, wfa.beta)))
        obs_res = float(np.linalg.norm(obs - a.T @ obs @ a - np.outer(wfa.alpha, wfa.alpha)))
        scale = 1.0 + max(np.linalg.norm(ctrl), np.linalg.norm(obs))
    if not np.isfinite([ctrl_res, obs_res, scale]).all():
        raise NumericalError(
            f"Gramian residual check overflowed (residuals {ctrl_res:.3e}, "
            f"{obs_res:.3e}, scale {scale:.3e})"
        )
    if not (ctrl_res <= GRAMIAN_RTOL * scale and obs_res <= GRAMIAN_RTOL * scale):
        raise NumericalError(
            f"Gramian residuals {ctrl_res:.3e}, {obs_res:.3e} exceed tolerance"
        )
    return GramianPair(ctrl, obs, ctrl_res, obs_res)


def _psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    eigenvalues, vectors = np.linalg.eigh(matrix)
    return (vectors * np.sqrt(np.clip(eigenvalues, 0.0, None))) @ vectors.T


def _root_product(pair: GramianPair) -> tuple[np.ndarray, np.ndarray]:
    """(Q^{1/2}, Q^{1/2} P^{1/2}), whose singular values are the Hankel ones.

    Unlike square roots of the eigenvalues of P^{1/2} Q P^{1/2}, which are
    noise below ~1e-8 sigma_0, these keep small values accurate.
    """
    sqrt_obs = _psd_sqrt(pair.observability)
    return sqrt_obs, sqrt_obs @ _psd_sqrt(pair.controllability)


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


def _vanishes(sigmas: np.ndarray, k: int) -> bool:
    """Whether sigma_k is 0 at working precision (at most eps * sigma_0)."""
    return sigmas[k] <= np.finfo(float).eps * sigmas[0]


def hankel_singular_values(wfa: Wfa) -> np.ndarray:
    """Singular values of the infinite Hankel operator of a one-letter WFA.

    Computed as the singular values of a product of Gramian square roots,
    which is exact at the size of the realization; no truncation enters.
    Raises :class:`RankDeficiencyError` when the automaton is not minimal
    and :class:`NumericalError` when the smallest value is 0 at working
    precision.
    """
    sigmas = _singular_data(wfa)[0]
    if _vanishes(sigmas, -1):
        raise NumericalError(
            "the smallest Hankel singular value is 0 at working precision "
            f"(singular values {sigmas})"
        )
    return sigmas


def hankel_norm(f: Wfa, g: Wfa) -> float:
    """Exact ||H_f - H_g|| for one-letter WFAs: the largest Hankel singular
    value of the difference automaton (alpha_f (+) alpha_g, A_f (+) A_g,
    beta_f (+) -beta_g).  An unstable f or g raises :class:`NumericalError`:
    for an approximant that is a failed computation, not bad input.
    """
    a_f, a_g = _require_one_letter(f), _require_one_letter(g)
    block = np.block([[a_f, np.zeros((len(a_f), len(a_g)))],
                      [np.zeros((len(a_g), len(a_f))), a_g]])
    difference = Wfa(np.concatenate([f.alpha, g.alpha]), [block],
                     np.concatenate([f.beta, -g.beta]))
    try:
        pair = gramians(difference)
    except StabilityError as exc:
        raise NumericalError(f"Hankel norm of the difference is undefined: {exc}") from exc
    return float(np.linalg.norm(_root_product(pair)[1], 2))


@dataclass(frozen=True)
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


def _schmidt_pair(wfa: Wfa, k: int, singular_data) -> SchmidtPair:
    sigmas, left, sqrt_obs, pair = singular_data
    if not 0 <= k < len(sigmas):
        raise ValueError(f"k must lie in [0, {len(sigmas)}), got {k}")
    if _vanishes(sigmas, k):
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
    return SchmidtPair(float(sigmas[k]), direction, wfa, pair.controllability)


def schmidt_pair(wfa: Wfa, k: int) -> SchmidtPair:
    """Schmidt pair for the k-th largest Hankel singular value (0-indexed)."""
    return _schmidt_pair(wfa, k, _singular_data(wfa))


def _optimal_sequence(pair: SchmidtPair, order: int) -> Wfa:
    """The optimal rank-``order`` Hankel sequence g, as an (n + k)-state WFA.

    The error symbol is e = r / v with r(z) = alpha^T (z - A)^{-1} P x (that
    is sigma_k * w) and v(z) = x^T (1 - z A)^{-1} beta.  Since
    v(z) = v(0) + z x^T (1 - z A)^{-1} A beta, the power series of 1/v is
    that of the inverse system with state matrix
    A_x = A - (A beta) x^T / v(0); an eigenvalue lambda of A_x is a pole of
    1/v at z = 1 / lambda.  An ordered real Schur form and one Sylvester
    solve split A_x into T_s, its n - k eigenvalues inside the unit circle,
    and T_u, the k outside it (the inverse zeros of v inside the disk).  On
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
    import scipy.linalg  # loaded on first use: the rest of wfamin runs on numpy alone

    a, beta, x = pair.wfa.transitions[0], pair.wfa.beta, pair.direction
    n = len(x)
    head = float(x @ beta)  # v(0)
    if abs(head) <= n * np.finfo(float).eps * np.linalg.norm(x) * np.linalg.norm(beta):
        raise NumericalError(
            "Schmidt denominator vanishes at z = 0; its inverse system is undefined"
        )
    a_beta = a @ beta
    inverse = a - np.outer(a_beta, x) / head
    distance = float(np.abs(np.abs(np.linalg.eigvals(inverse)) - 1.0).min())
    if distance <= CIRCLE_GUARD:
        raise NumericalError(
            "Schmidt denominator nearly vanishes on the unit circle (an "
            f"inverse-system eigenvalue lies {distance:.3e} from it); "
            "coefficient extraction would be unreliable"
        )
    schur, basis, inside = scipy.linalg.schur(inverse, sort="iuc")
    if n - inside != order:
        raise NumericalError(
            f"Schmidt denominator has {n - inside} zeros inside the unit disk, "
            f"expected {order}"
        )
    t_s, t_u = schur[:inside, :inside], schur[inside:, inside:]
    # A_x = V diag(T_s, T_u) V^{-1} with V = basis [[1, Y], [0, 1]]
    coupling = scipy.linalg.solve_sylvester(t_s, -t_u, -schur[:inside, inside:])
    row, col = x @ basis, basis.T @ a_beta
    row_s, row_u = row[:inside], row[inside:] + row[:inside] @ coupling
    col_s, col_u = col[:inside] - coupling @ col[inside:], col[inside:]
    m_u = np.linalg.inv(t_u)
    # (1/v)_- = row_u M_u (z - M_u)^{-1} M_u col_u / v(0)^2, and
    # (1/v)_+(z) = constant - z row_s (1 - z T_s)^{-1} col_s / v(0)^2
    constant = 1.0 / head + float(row_u @ m_u @ col_u) / head**2
    forced = pair.controllability @ x
    # X = T_s X A^T + col_s (A P x)^T gives sum_j (row_s T_s^j col_s) A^{j+1} P x
    mixed = _solve_stein(t_s, a, np.outer(col_s, a @ forced))
    projected = constant * forced - mixed.T @ row_s / head**2
    matrix = np.block([
        [a, np.outer(forced, row_u @ m_u / head**2)],
        [np.zeros((order, n)), m_u],
    ])
    return Wfa(
        np.concatenate([pair.wfa.alpha, np.zeros(order)]),
        [matrix],
        np.concatenate([beta - projected, -(m_u @ col_u)]),
    )


@dataclass(frozen=True)
class AakApproximation:
    """Result of the optimal rank-k Hankel approximation of a one-letter WFA.

    ``error`` is the optimal spectral-norm distance, the k-th Hankel
    singular value.  ``sequence`` is the approximating sequence as an
    (n + k)-state automaton, exact by construction; ``wfa`` is a k-state
    automaton recovered from it.  ``attained`` is the certificate: the exact
    Hankel norm ||H_f - H_wfa|| (:func:`hankel_norm`), which matched
    ``error`` within the certification tolerance.  ``coefficients`` and
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

    def hankel_block(self, prefix_length: int, suffix_length: int) -> HankelBlock:
        """Finite Hankel block of the approximating sequence (Hankel by construction)."""
        return build_hankel(self.sequence, prefix_length, suffix_length)


def aak_approximate(wfa: Wfa, k: int, *, certify_rtol: float = 1e-6) -> AakApproximation:
    """Best rank-k Hankel approximation of a minimal, stable one-letter WFA.

    The attained spectral-norm error equals the k-th Hankel singular value.
    Before returning, this is certified for the returned k-state automaton
    g once, exactly: |hankel_norm(wfa, g) - sigma_k| must be at most
    ``certify_rtol`` times sigma_0.  By Eckart-Young no rank-k matrix,
    Hankel or not, is closer than sigma_k, and g has Hankel rank at most k,
    so the certificate proves optimality.

    Raises
    ------
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
    _require_one_letter(wfa)
    n = wfa.num_states
    if not 0 <= k < n:
        raise ValueError(f"k must lie in [0, {n}), got {k}")
    # one Gramian solve serves the singular values and the Schmidt pair;
    # StabilityError unless spectral radius < 1, then RankDeficiencyError
    # unless minimal
    singular_data = _singular_data(wfa)
    sigmas = singular_data[0]
    sigma_k = float(sigmas[k])
    warnings = tuple(
        f"singular values {i} and {i + 1} are nearly equal; the optimal "
        "approximation may not be unique"
        for i in (k - 1, k)
        if 0 <= i and i + 1 < n and sigmas[i] - sigmas[i + 1] <= TIE_RTOL * sigmas[0]
    )
    pair = _schmidt_pair(wfa, k, singular_data)
    sequence = _optimal_sequence(pair, k)
    # the k-state realization of the sequence from its state factors, no
    # block (the one-state zero automaton at k = 0)
    words = WordIndex(1, max(k, 1))
    try:
        recovered = _factored_recover(words, words, k, sequence)[0]
    except RankDeficiencyError as exc:
        # the input is minimal, so a rank-deficient block means the
        # computed sequence lost its rank at working precision
        raise NumericalError(f"recovery of the {k}-state approximant failed: {exc}") from exc
    attained = hankel_norm(wfa, recovered)
    if abs(attained - sigma_k) > certify_rtol * sigmas[0]:
        raise NumericalError(
            f"attained error {attained!r} does not match the singular value "
            f"{sigma_k!r} within {certify_rtol} relative"
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
