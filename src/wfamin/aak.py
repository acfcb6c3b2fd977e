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
Hankel-norm construction).  Every Stein equation here, the Gramians' and
the extraction's, is one :func:`scipy.linalg.solve_discrete_lyapunov`
solve.  The optimal rank-k Hankel sequence is the input minus that
negative part, itself an (n + k)-state WFA; it is returned together with a
k-state WFA recovered from it, whose attained error is certified exactly,
as the Hankel norm of the difference automaton read from its Gramians
(:func:`hankel_norm`), before returning.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

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


def gramians(wfa: Wfa) -> GramianPair:
    """Exact Gramians of a one-letter WFA, one Stein equation each.

    Requires the transition matrix to have spectral radius below one, which
    makes both fixed-point equations uniquely solvable.
    """
    a = _require_one_letter(wfa)
    rho = spectral_radius(a)
    if rho >= 1.0:
        raise StabilityError(f"Gramians diverge: spectral radius {rho} >= 1")
    ctrl = scipy.linalg.solve_discrete_lyapunov(a, np.outer(wfa.beta, wfa.beta))
    ctrl = 0.5 * (ctrl + ctrl.T)
    obs = scipy.linalg.solve_discrete_lyapunov(a.T, np.outer(wfa.alpha, wfa.alpha))
    obs = 0.5 * (obs + obs.T)
    ctrl_res = float(np.linalg.norm(ctrl - a @ ctrl @ a.T - np.outer(wfa.beta, wfa.beta)))
    obs_res = float(np.linalg.norm(obs - a.T @ obs @ a - np.outer(wfa.alpha, wfa.alpha)))
    scale = 1.0 + max(np.linalg.norm(ctrl), np.linalg.norm(obs))
    if max(ctrl_res, obs_res) > GRAMIAN_RTOL * scale:
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
    difference = Wfa(np.concatenate([f.alpha, g.alpha]), [scipy.linalg.block_diag(a_f, a_g)],
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
    comes from one Stein equation, X = T_s X A^T + C.  X is the off-diagonal
    block of the Lyapunov solution for diag(T_s, A), whose blocks decouple
    and whose spectrum lies inside the unit disk, so X is unique.  This
    gives a realization (c, M, b) with n + k states, e_{-m-1} = c^T M^m b,
    c = [alpha; 0] and M block upper triangular with A in its top-left
    block.  So f(m) = c^T M^m [beta; 0], and g = f - e_- is the automaton
    (c, M, [beta; 0] - b).
    """
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
    rhs, zeros = np.outer(col_s, a @ forced), np.zeros((inside, n))
    lyapunov = scipy.linalg.solve_discrete_lyapunov(
        np.block([[t_s, zeros], [zeros.T, a]]),
        np.block([[np.zeros((inside, inside)), rhs], [rhs.T, np.zeros((n, n))]]),
    )
    projected = constant * forced - lyapunov[:inside, inside:].T @ row_s / head**2
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
        the recovered automaton is unstable or the certificate does not
        hold.  Smaller singular values, even vanishing ones, do not enter.
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
    recovered = _factored_recover(words, words, k, sequence)[0]
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
