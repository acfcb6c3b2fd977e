"""Truncated Fock-space laboratory for noncommutative Hankel operators.

The Fock space over d generators has an orthonormal basis indexed by words;
its degree-D truncation is represented here by plain numpy vectors and
matrices over a :class:`~wfamin.words.WordIndex`, so a coefficient vector is
simultaneously the sequence and the power-series view of the same object.

The shifts act on the last axis, so a stack of vectors (leading batch
axes) is shifted in one call; shifts and the flip are applied as index
maps, and no dense shift or flip matrix is built (the tests keep those as
reference definitions in ``tests/reference.py``).  Their adjoints enter
only as the same index maps read the other way, as in
:func:`verify_hankel_equation`.  The bilateral shift of the two-sided space
is not modeled apart: both checks that use it draw from the positive
component, where it is the right shift.
The multiplier intertwining check applies no shift at all: it reads the
operator through slices and reshaped views, using the index identities of
:mod:`wfamin.words`.

Truncation discipline: a shift that would push support past the degree
cutoff raises :class:`TruncationError`, the flipped multiplier drops the
coefficients past it (the compression of the infinite operator), and the
verification routines only compare on the *interior* (degrees where no
truncation loss can occur).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StabilityError, TruncationError
from .hankel import build_hankel
from .wfa import Wfa, evaluation_table, spectral_radius
from .words import WordIndex

#: Largest number of floats drawn at once by :func:`verify_shift_inequalities`
#: (8 MiB), so its memory does not grow with the trial count.
_SHIFT_BATCH_ENTRIES = 1 << 20

#: Largest deviation from equality accepted in the shift norm identities.
SHIFT_TOLERANCE = 1e-12

#: Degree of the partial sum that :func:`verify_nc_rational` compares with
#: the closed form.
NC_SERIES_DEGREE = 8


def _interior_size(basis: WordIndex) -> int:
    """Number of basis words of degree <= max_length - 1."""
    return basis.first_index_of_length(basis.max_length)


def _check_interior_support(basis: WordIndex, vector: np.ndarray, what: str):
    if vector.shape[-1:] != (len(basis),):
        raise ValueError(
            f"vector has shape {vector.shape}, expected a last axis of length {len(basis)}"
        )
    if np.any(vector[..., _interior_size(basis):] != 0.0):
        raise TruncationError(
            f"{what} would push support past degree {basis.max_length}; "
            "the input must vanish on the top degree"
        )


def _prepend_indices(basis: WordIndex, symbol: int) -> np.ndarray:
    """index_of(symbol + w) = (1 + symbol) d^|w| + index_of(w), interior w."""
    cut = _interior_size(basis)
    return (1 + symbol) * basis.alphabet_size**basis.lengths[:cut] + np.arange(cut, dtype=np.int64)


def _append_indices(basis: WordIndex, symbol: int) -> np.ndarray:
    """index_of(w + symbol) = d index_of(w) + 1 + symbol, interior w."""
    return basis.alphabet_size * np.arange(_interior_size(basis), dtype=np.int64) + 1 + symbol


def left_shift(basis: WordIndex, symbol: int, vector) -> np.ndarray:
    """e_w -> e_{symbol w}; the input must vanish on the top degree."""
    vector = np.asarray(vector, dtype=float)
    _check_interior_support(basis, vector, "left shift")
    out = np.zeros(vector.shape)
    out[..., _prepend_indices(basis, symbol)] = vector[..., : _interior_size(basis)]
    return out


def right_shift(basis: WordIndex, symbol: int, vector) -> np.ndarray:
    """e_w -> e_{w symbol}; the input must vanish on the top degree."""
    vector = np.asarray(vector, dtype=float)
    _check_interior_support(basis, vector, "right shift")
    out = np.zeros(vector.shape)
    out[..., _append_indices(basis, symbol)] = vector[..., : _interior_size(basis)]
    return out


def _reversal_permutation(basis: WordIndex) -> np.ndarray:
    """index_of(reversed w) for every word w; an involution."""
    d = basis.alphabet_size
    blocks = []
    for length, offset in enumerate(basis.offsets):
        # axis k of the reshaped block is the k-th base-d digit of the value;
        # reversing the axes reverses the digits
        values = np.arange(d**length, dtype=np.int64).reshape((d,) * length)
        blocks.append(offset + values.transpose().ravel())
    return np.concatenate(blocks)


def flip(basis: WordIndex, vector) -> np.ndarray:
    """Word-reversal (flipping) operator; unitary, involutive, no truncation."""
    vector = np.asarray(vector, dtype=float)
    if vector.shape != (len(basis),):
        raise ValueError(f"vector has shape {vector.shape}, expected ({len(basis)},)")
    out = np.empty_like(vector)
    out[_reversal_permutation(basis)] = vector
    return out


@dataclass(frozen=True)
class HankelEquationReport:
    """Interior comparison of (H S_i) against (R_i^* H) for every symbol."""

    alphabet_size: int
    degree: int
    comparisons: int
    per_symbol: tuple[float, ...]
    max_discrepancy: float

    @property
    def passed(self) -> bool:
        # both sides are assembled from identical word evaluations, so any
        # discrepancy at all means the identity is violated
        return self.max_discrepancy == 0.0


def verify_hankel_equation(wfa: Wfa, degree: int) -> HankelEquationReport:
    """Check the noncommutative Hankel identity H S_i = R_i^* H on the interior.

    For every symbol i and interior column word u, the column of H at i u is
    compared against the right-shift-adjoint image of the column at u, row by
    interior row.  The expected discrepancy is exactly zero because both
    sides reduce to evaluations of the automaton on the same concatenated
    words.
    """
    if degree < 2:
        raise ValueError(f"degree must be >= 2, got {degree}")
    basis = WordIndex(wfa.alphabet_size, degree)
    h = build_hankel(wfa, degree, degree).entries
    cut = _interior_size(basis)
    per_symbol = []
    comparisons = 0
    for symbol in range(wfa.alphabet_size):
        lhs = h[:cut, _prepend_indices(basis, symbol)]  # columns i u
        rhs = h[_append_indices(basis, symbol), :cut]  # rows w i
        per_symbol.append(float(np.abs(lhs - rhs).max()))
        comparisons += lhs.size
    return HankelEquationReport(
        alphabet_size=wfa.alphabet_size,
        degree=degree,
        comparisons=comparisons,
        per_symbol=tuple(per_symbol),
        max_discrepancy=float(np.max(per_symbol)),  # NaN propagates
    )


@dataclass(frozen=True)
class ShiftInequalityReport:
    """Deviations from equality in the shift norm identities, over random trials.

    ``max_bilateral_deviation`` is identity (b)'s: the trials draw from the
    positive component of the two-sided space, where the bilateral shift
    is the right shift R_i.
    """

    alphabet_size: int
    degree: int
    trials: int
    max_left_shift_deviation: float
    max_bilateral_deviation: float

    @property
    def passed(self) -> bool:
        return (
            self.max_left_shift_deviation <= SHIFT_TOLERANCE
            and self.max_bilateral_deviation <= SHIFT_TOLERANCE
        )

    def lines(self):
        yield f"alphabet size: {self.alphabet_size}"
        yield f"degree: {self.degree}"
        yield f"trials: {self.trials}"
        yield f"max |deviation|, left shifts: {self.max_left_shift_deviation!r}"
        yield f"max |deviation|, bilateral shifts: {self.max_bilateral_deviation!r}"
        yield f"tolerance: {SHIFT_TOLERANCE!r}"


def _exact_squared_norms(vectors: np.ndarray) -> np.ndarray:
    """Squared norm of each trial (leading axis), summed exactly."""
    squares = (vectors * vectors).reshape(len(vectors), -1)
    return np.array([math.fsum(row.tolist()) for row in squares])


def verify_shift_inequalities(alphabet_size: int, degree: int, trials: int,
                              seed=0) -> ShiftInequalityReport:
    """Check the two norm identities behind the operator-tuple hypotheses.

    (a) The left shifts are isometries with pairwise orthogonal ranges, so
    ||sum_i S_i y_i||^2 equals sum_i ||y_i||^2 for any interior-supported
    y_i.  (b) The bilateral shifts restricted to their invariant positive
    component are again orthogonal-range isometries, so the same identity
    holds there; the trials draw the h_i from that component, which is where
    the contraction hypothesis is actually exercised by the framework.  On
    it the bilateral shift is the right shift, so (b) sums R_i h_i.

    Both sides sum the same squares in different orders; summed exactly,
    they deviate only if a shift maps two words to one.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    basis = WordIndex(alphabet_size, degree)
    cut = _interior_size(basis)
    # trials are drawn and shifted in batches of bounded size; drawing
    # (batch, 2, d, cut) normals continues the stream one trial at a time,
    # as y_0..y_{d-1} then h_0..h_{d-1}
    batch = max(1, _SHIFT_BATCH_ENTRIES // (2 * alphabet_size * len(basis)))
    max_left = 0.0
    max_bilateral = 0.0
    for start in range(0, trials, batch):
        count = min(batch, trials - start)
        draws = np.zeros((count, 2, alphabet_size, len(basis)))
        draws[..., :cut] = rng.standard_normal((count, 2, alphabet_size, cut))
        ys, hs = draws[:, 0], draws[:, 1]

        total = sum(left_shift(basis, i, ys[:, i]) for i in range(alphabet_size))
        deviation = _exact_squared_norms(total) - _exact_squared_norms(ys)
        max_left = float(np.maximum(max_left, np.abs(deviation).max()))

        total = sum(right_shift(basis, i, hs[:, i]) for i in range(alphabet_size))
        deviation = _exact_squared_norms(total) - _exact_squared_norms(hs)
        max_bilateral = float(np.maximum(max_bilateral, np.abs(deviation).max()))
    return ShiftInequalityReport(
        alphabet_size=alphabet_size,
        degree=degree,
        trials=trials,
        max_left_shift_deviation=max_left,
        max_bilateral_deviation=max_bilateral,
    )


@dataclass(frozen=True)
class FreeGroupReport:
    """Contrast of the bilateral-shift contraction on group- vs monoid-indexed spaces.

    The monoid probe lies in the positive component, where the bilateral
    shift is the right shift R_i.
    """

    group_lhs: float
    group_rhs: float
    monoid_lhs: float
    monoid_rhs: float
    degenerate_lhs: float
    degenerate_rhs: float

    @property
    def violation_exhibited(self) -> bool:
        return self.group_lhs > self.group_rhs

    @property
    def passed(self) -> bool:
        return (
            self.violation_exhibited
            and self.monoid_lhs == self.monoid_rhs
            and self.degenerate_lhs <= self.degenerate_rhs
        )

    def lines(self):
        yield (
            "free group: ||R_1 h_1 + R_2 h_2||^2 = "
            f"{self.group_lhs!r} > {self.group_rhs!r} = ||h_1||^2 + ||h_2||^2"
            if self.violation_exhibited
            else f"free group: {self.group_lhs!r} <= {self.group_rhs!r} (no violation found)"
        )
        yield f"free monoid contrast: {self.monoid_lhs!r} = {self.monoid_rhs!r}"
        yield f"degenerate h_1 = 0: {self.degenerate_lhs!r} <= {self.degenerate_rhs!r}"


def free_group_counterexample() -> FreeGroupReport:
    """Exhibit the failure of the contraction property over the free group.

    On sequences indexed by the free group on two generators, appending a
    generator cancels against its inverse, so the two bilateral shifts no
    longer have orthogonal ranges: applied to the inverse-generator basis
    vectors they both land on the empty word and the norms add coherently
    (4 > 2).  On the free monoid the same probe stays orthogonal and the
    identity holds with equality.
    """
    # length <= 1 truncation over generators and inverses: e, g1, g2, g1^-1, g2^-1
    labels = [(), (1,), (2,), (-1,), (-2,)]
    position = {word: i for i, word in enumerate(labels)}

    def append_generator(word, generator):
        if word and word[-1] == -generator:
            return word[:-1]
        return word + (generator,)

    def shift_apply(generator, vector):
        out = np.zeros(len(labels))
        for word, i in position.items():
            if vector[i] == 0.0:
                continue
            image = append_generator(word, generator)
            if image not in position:
                raise TruncationError(f"image {image} leaves the length-1 truncation")
            out[position[image]] += vector[i]
        return out

    h1 = np.zeros(len(labels))
    h1[position[(-1,)]] = 1.0
    h2 = np.zeros(len(labels))
    h2[position[(-2,)]] = 1.0
    combined = shift_apply(1, h1) + shift_apply(2, h2)
    group_lhs = float(combined @ combined)
    group_rhs = float(h1 @ h1 + h2 @ h2)

    # same probe on the free monoid: h_i = e_{g_i}, where the bilateral
    # shift is the right shift and appending never cancels
    basis = WordIndex(2, 2)
    m1, m2 = np.eye(len(basis))[[basis.index_of((0,)), basis.index_of((1,))]]
    summed = right_shift(basis, 0, m1) + right_shift(basis, 1, m2)
    monoid_lhs = float(summed @ summed)
    monoid_rhs = float(m1 @ m1 + m2 @ m2)

    degenerate = shift_apply(2, h2)
    return FreeGroupReport(
        group_lhs=group_lhs,
        group_rhs=group_rhs,
        monoid_lhs=monoid_lhs,
        monoid_rhs=monoid_rhs,
        degenerate_lhs=float(degenerate @ degenerate),
        degenerate_rhs=float(h2 @ h2),
    )


def _coerce_arguments(wfa: Wfa, arguments):
    arguments = [np.atleast_2d(np.asarray(z, dtype=float)) for z in arguments]
    if len(arguments) != wfa.alphabet_size:
        raise ValueError(
            f"expected {wfa.alphabet_size} arguments, got {len(arguments)}"
        )
    size = arguments[0].shape[0]
    for z in arguments:
        if z.shape != (size, size):
            raise ValueError("arguments must be square matrices of one common size")
    return arguments, size


def _pencil(wfa: Wfa, arguments) -> np.ndarray:
    """The substituted pencil K = sum_j A_j (x) z_j, as one einsum over j.

    ``arguments`` must have passed :func:`_coerce_arguments`.
    """
    n, size = wfa.num_states, arguments[0].shape[0]
    return np.einsum("jab,jcd->acbd", wfa.transitions, arguments).reshape(
        n * size, n * size
    )


def _contraction_margins(pencil: np.ndarray, arguments) -> tuple[float, float]:
    rho = spectral_radius(pencil)
    norm_sum = float(sum(np.linalg.norm(z, 2) ** 2 for z in arguments))
    return rho, norm_sum


def contraction_margins(wfa: Wfa, arguments) -> tuple[float, float]:
    """(spectral radius of sum A_j (x) z_j, sum_j ||z_j z_j^T||).

    The first number below one is what evaluation needs; the second below
    one is the classical sufficient condition for convergence of the series
    under the substitution.
    """
    arguments, _ = _coerce_arguments(wfa, arguments)
    return _contraction_margins(_pencil(wfa, arguments), arguments)


def nc_rational_eval(wfa: Wfa, arguments) -> np.ndarray:
    """Evaluate the automaton's rational series on square-matrix arguments.

    Computes (alpha^T (x) 1_m)(1_{nm} - sum_j A_j (x) z_j)^{-1}(beta (x) 1_m),
    an m-by-m matrix equal to the sum of the series coefficients weighted by
    the corresponding argument products.
    """
    arguments, size = _coerce_arguments(wfa, arguments)
    pencil = _pencil(wfa, arguments)
    rho = spectral_radius(pencil)
    if rho >= 1.0:
        _, norm_sum = _contraction_margins(pencil, arguments)
        raise StabilityError(
            f"substitution is not contractive: spectral radius {rho} >= 1 "
            f"(sum of ||z_j z_j^T|| is {norm_sum})"
        )
    eye = np.eye(pencil.shape[0])
    solved = np.linalg.solve(eye - pencil, np.kron(wfa.beta[:, None], np.eye(size)))
    return np.kron(wfa.alpha[None, :], np.eye(size)) @ solved


def nc_rational_series(wfa: Wfa, arguments, max_degree: int) -> np.ndarray:
    """Partial sum of the series up to words of length ``max_degree``.

    Independent of :func:`nc_rational_eval`: the word coefficients
    alpha^T A_w beta come from :func:`~wfamin.wfa.evaluation_table` and the
    argument products z_w are built level by level; no power of the
    Kronecker sum K is formed.  The tail beyond ``max_degree`` is bounded by
    ||alpha|| ||beta|| ||K||^(max_degree+1) / (1 - ||K||) when ||K|| < 1
    (the first number of :func:`series_bounds`).
    """
    arguments, size = _coerce_arguments(wfa, arguments)
    d = wfa.alphabet_size
    coefficients = evaluation_table(wfa, max_degree)
    stacked = np.concatenate(arguments, axis=1)  # [z_0 z_1 ... z_{d-1}]
    total = coefficients[0] * np.eye(size)
    products = np.eye(size)[None, :, :]  # z_w for the words w of the current length
    start = 1
    for _ in range(max_degree):
        count = products.shape[0]
        # block (w, a) of the product is z_w z_a, the word w a at value(w) * d + a
        products = (products.reshape(-1, size) @ stacked).reshape(count, size, d, size)
        products = products.transpose(0, 2, 1, 3).reshape(count * d, size, size)
        level = coefficients[start : start + count * d]
        total = total + (level @ products.reshape(count * d, size * size)).reshape(size, size)
        start += count * d
    return total


def series_bounds(wfa: Wfa, arguments, max_degree: int) -> tuple[float, float]:
    """(tail, rounding): how far the closed form and the degree-``max_degree``
    partial sum can lie apart, in exact arithmetic and through rounding.

    For K the Kronecker sum with g = ||K|| < 1, the degree-j part of the
    series is at most ||alpha|| ||beta|| g^j.  The tail beyond
    ``max_degree`` is therefore at most
    ||alpha|| ||beta|| g^(max_degree+1) / (1 - g), and the results of both
    computations are at most ||alpha|| ||beta|| / (1 - g).  The
    rounding term is a first-order estimate: each rounded step errs by at
    most eps relative to that magnitude, the partial sum adds one term per
    word of length <= ``max_degree``, and the linear solve has N = order of
    K unknowns and amplifies its backward error by
    ||(1 - K)^{-1}|| <= 1 / (1 - g).
    """
    arguments, _ = _coerce_arguments(wfa, arguments)
    return _series_bounds(wfa, _pencil(wfa, arguments), max_degree)


def _series_bounds(wfa: Wfa, pencil: np.ndarray, max_degree: int) -> tuple[float, float]:
    gain = float(np.linalg.norm(pencil, 2))
    if gain >= 1.0:
        return np.inf, np.inf
    scale = float(np.linalg.norm(wfa.alpha) * np.linalg.norm(wfa.beta))
    words = sum(wfa.alphabet_size**j for j in range(max_degree + 1))
    steps = pencil.shape[0] / (1.0 - gain) + words
    rounding = float(np.finfo(float).eps) * steps * scale / (1.0 - gain)
    return scale * gain ** (max_degree + 1) / (1.0 - gain), rounding


@dataclass(frozen=True)
class NcRationalReport:
    """Closed form against partial sums of a rational series, over random trials."""

    trials: int
    head_exact: bool
    max_ratio: float
    max_spectral_radius: float
    max_norm_sum: float

    @property
    def passed(self) -> bool:
        return self.head_exact and self.max_ratio <= 1.0

    def lines(self):
        yield f"zero substitution returns head coefficient exactly: {self.head_exact}"
        yield f"trials: {self.trials} (matrix sizes 1 and 2, degree-{NC_SERIES_DEGREE} series)"
        yield f"max |closed - series| / (tail bound + rounding bound): {self.max_ratio!r}"
        yield f"max spectral radius of the substituted pencil: {self.max_spectral_radius!r}"
        yield f"max sum of ||z_j z_j^T||: {self.max_norm_sum!r}"


def verify_nc_rational(wfa: Wfa, trials: int, seed=0) -> NcRationalReport:
    """Check :func:`nc_rational_eval` against :func:`nc_rational_series`.

    The zero substitution must return the head coefficient alpha^T beta
    exactly.
    Each trial then draws one argument per letter, 0.3 times a standard
    normal matrix of size 1 or 2 (alternating), halved once when the
    substituted pencil's spectral radius reaches 0.95.  The gap between the
    closed form and the degree-``NC_SERIES_DEGREE`` partial sum must not
    exceed the tail bound plus the rounding bound of :func:`series_bounds`.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    d = wfa.alphabet_size
    head = nc_rational_eval(wfa, [np.zeros((1, 1))] * d)[0, 0]
    head_exact = bool(head == float(wfa.alpha @ wfa.beta))
    worst_ratio = 0.0
    worst_rho = 0.0
    worst_norm_sum = 0.0
    for trial in range(trials):
        size = 1 + trial % 2
        arguments = [0.3 * rng.standard_normal((size, size)) for _ in range(d)]
        # one pencil per trial serves the margins and the bounds; the closed
        # form under test builds its own
        pencil = _pencil(wfa, arguments)
        rho, norm_sum = _contraction_margins(pencil, arguments)
        if rho >= 0.95:
            arguments = [0.5 * z for z in arguments]
            pencil = _pencil(wfa, arguments)
            rho, norm_sum = _contraction_margins(pencil, arguments)
        closed = nc_rational_eval(wfa, arguments)
        partial = nc_rational_series(wfa, arguments, NC_SERIES_DEGREE)
        # the tail bound holds in exact arithmetic; the computed gap also
        # carries the rounding of both sides
        bound = sum(_series_bounds(wfa, pencil, NC_SERIES_DEGREE))
        gap = float(np.linalg.norm(closed - partial, 2))
        # np.maximum keeps a NaN; a NaN bound gives a NaN ratio
        ratio = gap / bound if not bound <= 0 else float(gap > 0)
        worst_ratio = float(np.maximum(worst_ratio, ratio))
        worst_rho = float(np.maximum(worst_rho, rho))
        worst_norm_sum = float(np.maximum(worst_norm_sum, norm_sum))
    return NcRationalReport(
        trials=trials,
        head_exact=head_exact,
        max_ratio=worst_ratio,
        max_spectral_radius=worst_rho,
        max_norm_sum=worst_norm_sum,
    )


def flipped_multiplier_matrix(wfa: Wfa, basis: WordIndex) -> np.ndarray:
    """The multiplier associated with the automaton's flipped symbol.

    The flipped symbol's coefficient at a word w is f(w), the first Hankel
    column (:func:`~wfamin.wfa.evaluation_table`); its component in the
    positive space is not determined by the automaton and is not modeled.
    Composing the multiplier with the flipping operator gives right
    multiplication by that column, which commutes with every left shift; that is
    the intertwining property checked by
    :func:`verify_multiplier_intertwining`.  The result is the flip times
    the matrix of right multiplication by the column, e_w -> sum_u f(u) e_{w u}
    with the coefficients past the degree dropped; each row w u is written
    straight to its flipped position.
    """
    if basis.alphabet_size != wfa.alphabet_size:
        raise ValueError("basis and automaton alphabet sizes differ")
    series = evaluation_table(wfa, basis.max_length)
    reversal = _reversal_permutation(basis)
    d, offsets = basis.alphabet_size, basis.offsets
    out = np.zeros((len(basis), len(basis)))
    for length in range(basis.max_length + 1):  # |u|: the suffix length
        # left factors w with |w| + |u| <= max_length, one per column
        cut = basis.first_index_of_length(basis.max_length - length + 1) if length else len(basis)
        first = d**length * np.arange(cut, dtype=np.int64) + offsets[length]  # index of w + 0^|u|
        suffixes = np.arange(d**length)
        targets = reversal[first[:, None] + suffixes[None, :]]  # flipped rows of w u
        out[targets, np.arange(cut)[:, None]] += series[offsets[length] + suffixes][None, :]
    return out


@dataclass(frozen=True)
class MultiplierReport:
    """Interior discrepancy of U op S_i - S_i U op per symbol."""

    degree: int
    per_symbol: tuple[float, ...]
    max_discrepancy: float


def verify_multiplier_intertwining(op: np.ndarray, basis: WordIndex) -> MultiplierReport:
    """Measure how far U op fails to commute with the left shifts.

    Operators commuting with every left shift are exactly the right
    multiplications, so for ``op`` built by :func:`flipped_multiplier_matrix`
    the interior discrepancy vanishes; for a generic operator it does not.
    Only rows and columns of degree < max_length are compared, where the
    truncation cannot corrupt either side.

    ``op`` is read only through slices and reshaped views: neither U op nor
    a shifted matrix is built, and ``_reversal_permutation`` is not read.
    Row x of ``op`` is row reversed(x) of U op, so the interior entries of
    U op S_i - S_i U op at column c are op[0, i c] on the empty word's row,
    op[x a, i c] for a != i, and op[x i, i c] - op[x, c].  The interior rows
    x a of ``op`` form one (inner, d, N) view, and for every length m the
    columns i c with |c| = m form one slice, so the largest temporary is one
    length block of that view.
    """
    op = np.asarray(op, dtype=float)
    if op.shape != (len(basis), len(basis)):
        raise ValueError(f"operator has shape {op.shape}, expected square over the basis")
    if basis.max_length < 1:
        raise ValueError(f"basis degree must be >= 1, got {basis.max_length}")
    d, offsets = basis.alphabet_size, basis.offsets
    inner = basis.first_index_of_length(basis.max_length - 1)  # words x with x a interior
    # index_of(x + (a,)) = d * index_of(x) + 1 + a: row 1 + d x + a is x a
    tails = op[1 : 1 + d * inner].reshape(inner, d, len(basis))
    per_symbol = []
    for symbol in range(d):
        parts = []
        for length in range(basis.max_length):  # |c|
            size = d**length
            start = offsets[length + 1] + symbol * size
            columns = slice(start, start + size)  # the words i c
            rows = tails[:, :, columns]
            parts.append(np.abs(op[0, columns]).max())
            parts.append(np.abs(rows[:, :symbol]).max(initial=0.0))
            parts.append(np.abs(rows[:, symbol + 1 :]).max(initial=0.0))
            plain = op[:inner, offsets[length] : offsets[length] + size]  # the words c
            parts.append(np.abs(rows[:, symbol] - plain).max(initial=0.0))
        per_symbol.append(float(np.max(parts)))  # NaN propagates
    return MultiplierReport(
        degree=basis.max_length,
        per_symbol=tuple(per_symbol),
        max_discrepancy=float(np.max(per_symbol)),  # NaN propagates
    )
