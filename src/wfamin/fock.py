"""Truncated Fock-space laboratory for noncommutative Hankel operators.

The Fock space over d generators has an orthonormal basis indexed by words;
its degree-D truncation is represented here by plain numpy vectors and
matrices over a :class:`~wfamin.words.WordIndex`, so a coefficient vector is
simultaneously the sequence and the power-series view of the same object.

The shifts and the flip are never applied as operators of their own: every
check reads them as index maps (prepend, append, reversal) of
:class:`~wfamin.words.WordIndex`, whose identities are documented once,
in :mod:`wfamin.words`, and no dense shift or flip matrix is built (the
tests keep those as reference definitions in ``tests/reference.py``).
:func:`flipped_multiplier_matrix` and :func:`verify_multiplier_intertwining`
slice word-indexed arrays by the append and prepend identities.  The
shifts' adjoints enter only as the same index maps read the other way, as
in :func:`verify_hankel_equation`, which checks the square block it is
given and builds none.  The bilateral shift of the two-sided space is not
modeled apart: both checks that use it work on the positive component,
where it is the right shift.  The multiplier intertwining check applies no
shift at all: it reads the operator through slices and reshaped views.

Truncation discipline: the flipped multiplier drops the coefficients past
the degree cutoff (the compression of the infinite operator), and the
verification routines only compare on the *interior* (degrees where no
truncation loss can occur).  The nc-rational functions build the one
substitution or stack they are given, a stack's partial sums from one
:func:`~wfamin.wfa.evaluation_table` and its prefix recursion, batched;
only :func:`verify_nc_rational` splits a stack, into parts it sizes to
``words.MAX_BLOCK_ENTRIES`` by the larger of a trial's pencil and products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import words
from .errors import StabilityError
from .hankel import HankelBlock
from .wfa import Wfa, _prefix_levels, evaluation_table, spectral_radius
from .words import WordIndex, _block_rows, _word_count

#: Degree of the partial sum that :func:`verify_nc_rational` compares with
#: the closed form.
NC_SERIES_DEGREE = 8
#: Number of random substitutions :func:`verify_nc_rational` compares.
NC_TRIALS = 100


@dataclass(frozen=True)
class HankelEquationReport:
    """Interior comparison of (H S_i) against (R_i^* H) for every symbol."""

    degree: int
    comparisons: int
    per_symbol: tuple[float, ...]
    max_discrepancy: float

    @property
    def passed(self) -> bool:
        # an automaton's block compares identical floats, so any discrepancy
        # at all means the block violates the identity
        return self.max_discrepancy == 0.0

    def lines(self):
        yield f"degree: {self.degree}, comparisons: {self.comparisons}"
        yield f"max discrepancy: {self.max_discrepancy!r}"


def verify_hankel_equation(block: HankelBlock) -> HankelEquationReport:
    """Check the noncommutative Hankel identity H S_i = R_i^* H on the interior
    of a square block of degree ``block.words.max_length``.

    For every symbol i and interior column word u, the column of H at i u is
    compared against the right-shift-adjoint image of the column at u, row by
    interior row.  An automaton's block, read from one table of word values,
    gives exactly zero; any other block passes only on exact agreement.
    """
    h, basis = block.entries, block.words
    if basis.max_length < 2:
        raise ValueError(f"degree must be >= 2, got {basis.max_length}")
    cut = basis.interior_size
    per_symbol = []
    comparisons = 0
    for symbol in range(basis.alphabet_size):
        lhs = h[:cut, basis.prepend_indices(symbol)]  # columns i u
        rhs = h[basis.append_indices(symbol), :cut]  # rows w i
        per_symbol.append(float(np.abs(lhs - rhs).max()))
        comparisons += lhs.size
    return HankelEquationReport(
        degree=basis.max_length,
        comparisons=comparisons,
        per_symbol=tuple(per_symbol),
        max_discrepancy=float(np.max(per_symbol)),  # NaN propagates
    )


@dataclass(frozen=True)
class ShiftInequalityReport:
    """Collisions of the shift index maps behind the two norm identities:
    interior words sent where another is sent too, by the same letter or
    another.  ``bilateral_collisions`` is identity (b)'s, whose bilateral
    shift is R_i.  The report passes only when both counts are 0."""

    alphabet_size: int
    degree: int
    left_shift_collisions: int
    bilateral_collisions: int

    @property
    def passed(self) -> bool:
        return self.left_shift_collisions == 0 and self.bilateral_collisions == 0

    def lines(self):
        yield f"alphabet size: {self.alphabet_size}"
        yield f"degree: {self.degree}"
        yield f"collisions, left shifts: {self.left_shift_collisions}"
        yield f"collisions, bilateral shifts: {self.bilateral_collisions}"


def verify_shift_inequalities(alphabet_size: int, degree: int) -> ShiftInequalityReport:
    """Decide the two norm identities behind the operator-tuple hypotheses.

    (a) The left shifts are isometries with pairwise orthogonal ranges, so
    ||sum_i S_i y_i||^2 equals sum_i ||y_i||^2 for any interior-supported
    y_i.  (b) The bilateral shifts restricted to their invariant positive
    component, where the framework's contraction hypothesis is exercised,
    are again orthogonal-range isometries; there they are the right shifts,
    so (b) is the same identity for R_i h_i.

    Each shift scatters the interior through a ``WordIndex`` map.  When the
    d maps are injective with disjoint images, both sides sum the same
    squares, so summed exactly (``math.fsum``) they agree for every
    interior-supported vector; when two words land on one, some vector
    tells them apart.  So the d maps' targets are marked in one mask over
    the words, and an identity holds on the truncation exactly when its
    count, d times the interior size minus the marked words, is 0.
    ``degree`` must be at least 1 (degree 0 has no interior); the words are
    held to the ``WordIndex`` bound (d = 2: degree <= 22), and the mask
    costs one byte per word.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    basis = WordIndex(alphabet_size, degree)
    counts = []
    for index_map in (basis.prepend_indices, basis.append_indices):
        hit = np.zeros(len(basis), dtype=bool)
        for symbol in range(basis.alphabet_size):
            hit[index_map(symbol)] = True
        counts.append(basis.alphabet_size * basis.interior_size - int(np.count_nonzero(hit)))
    return ShiftInequalityReport(alphabet_size, degree, *counts)


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
            if vector[i] != 0.0:
                out[position[append_generator(word, generator)]] += vector[i]
        return out

    h1 = np.zeros(len(labels))
    h1[position[(-1,)]] = 1.0
    h2 = np.zeros(len(labels))
    h2[position[(-2,)]] = 1.0
    combined = shift_apply(1, h1) + shift_apply(2, h2)
    group_lhs = float(combined @ combined)
    group_rhs = float(h1 @ h1 + h2 @ h2)

    # same probe on the free monoid: h_i = e_{g_i}, where the bilateral
    # shift is the right shift and appending never cancels; R_i scatters
    # the interior through the append map
    basis = WordIndex(2, 2)
    m1, m2 = np.eye(len(basis))[[basis.index_of((0,)), basis.index_of((1,))]]
    summed = np.zeros(len(basis))
    for symbol, probe in enumerate((m1, m2)):
        summed[basis.append_indices(symbol)] += probe[: basis.interior_size]
    monoid_lhs = float(summed @ summed)
    monoid_rhs = float(m1 @ m1 + m2 @ m2)

    degenerate = shift_apply(2, h2)
    return FreeGroupReport(group_lhs, group_rhs, monoid_lhs, monoid_rhs,
                           float(degenerate @ degenerate), float(h2 @ h2))


def _coerce_arguments(wfa: Wfa, arguments) -> np.ndarray:
    """``arguments`` as one float array of shape (..., d, m, m): a list of d
    square matrices is one substitution, a (T, d, m, m) array T of them."""
    arguments = np.asarray(arguments, dtype=float)
    if arguments.ndim < 3 or arguments.shape[-1] != arguments.shape[-2] or not arguments.shape[-1]:
        raise ValueError("arguments must be nonempty square matrices of one common size")
    if arguments.shape[-3] != wfa.alphabet_size:
        raise ValueError(f"expected {wfa.alphabet_size} arguments, got {arguments.shape[-3]}")
    return arguments


def _pencil(wfa: Wfa, arguments) -> np.ndarray:
    """The pencil K = sum_j A_j (x) z_j of each substitution, one einsum over j."""
    pencil = np.einsum("jab,...jcd->...acbd", wfa.transitions, arguments)
    *stack, n, size, _, _ = pencil.shape
    return pencil.reshape(*stack, n * size, n * size)


def nc_rational_eval(wfa: Wfa, arguments) -> np.ndarray:
    """Evaluate the automaton's rational series on square-matrix arguments.

    Computes (alpha^T (x) 1_m)(1_{nm} - sum_j A_j (x) z_j)^{-1}(beta (x) 1_m),
    an m-by-m matrix equal to the sum of the series coefficients weighted by
    the corresponding argument products; a stack of substitutions gives one
    per substitution, from one batched eigensolve and one batched solve.
    """
    arguments = _coerce_arguments(wfa, arguments)
    pencil = _pencil(wfa, arguments)
    rho = spectral_radius(pencil)
    if np.any(rho >= 1.0):
        raise StabilityError(f"substitution is not contractive: spectral radius {np.max(rho)} >= 1")
    eye = np.eye(arguments.shape[-1])
    # b as a full stack: numpy 1.x reads a b of ndim a.ndim - 1 as vectors
    rhs = np.broadcast_to(np.kron(wfa.beta[:, None], eye), (*pencil.shape[:-1], len(eye)))
    solved = np.linalg.solve(np.eye(pencil.shape[-1]) - pencil, rhs)
    return np.kron(wfa.alpha[None, :], eye) @ solved


def nc_rational_series(wfa: Wfa, arguments) -> np.ndarray:
    """Partial sum of the series up to words of length ``NC_SERIES_DEGREE``.

    Independent of :func:`nc_rational_eval`: the word coefficients
    alpha^T A_w beta come from :func:`~wfamin.wfa.evaluation_table`, and the
    rows vec(z_w) from its prefix recursion started at vec(1_m) with the
    matrices 1_m (x) z_a; the sum is one product of the two, and no power
    of the Kronecker sum K is formed.  A stack shares one table, and its
    rows, table.size x m^2 entries per substitution, are built whole.  The
    third array of :func:`series_bounds` bounds the tail beyond the degree.
    """
    arguments = _coerce_arguments(wfa, arguments)
    table = evaluation_table(wfa, NC_SERIES_DEGREE)  # held to the bound before the products
    *stack, d, size, _ = arguments.shape
    eye, substitutions = np.eye(size), arguments.reshape(-1, d, size, size)
    # row-major, vec(z_w) (1 (x) z_a) = vec(z_w z_a)
    levels = _prefix_levels(eye.ravel(), np.kron(eye, substitutions.swapaxes(0, 1)),
                            NC_SERIES_DEGREE)
    heads = np.broadcast_to(eye.ravel(), (len(substitutions), 1, size * size))
    return (table @ np.concatenate([heads, *levels], axis=-2)).reshape(*stack, size, size)


def series_bounds(wfa: Wfa, arguments):
    """(spectral_radius, norm_sum, tail, rounding) of each substitution, four
    arrays of the stack's shape (shape () for one substitution), all read
    from its pencil K = sum_j A_j (x) z_j.

    The contraction margins come first: the spectral radius of K, which
    evaluation needs below one, and sum_j ||z_j z_j^T||, whose being below
    one is the classical sufficient condition for convergence of the series
    under the substitution.  Then how far the closed form and the partial
    sum of :func:`nc_rational_series`, of degree D = ``NC_SERIES_DEGREE``,
    can lie apart, in exact arithmetic and through rounding.  With
    g = ||K||_2 < 1, the degree-j part of the series is at most
    ||alpha|| ||beta|| g^j.  The tail beyond D is therefore at most
    ||alpha|| ||beta|| g^(D+1) / (1 - g), and the results of both
    computations are at most ||alpha|| ||beta|| / (1 - g).  The rounding
    term is a first-order estimate: each rounded step errs by at most eps
    relative to that magnitude, the partial sum adds one term per word of
    length <= D, and the linear solve has N = order of K unknowns and
    amplifies its backward error by ||(1 - K)^{-1}|| <= 1 / (1 - g).  Both
    bounds are infinite when g >= 1, and g alone decides: rho(K) <= g.
    """
    arguments = _coerce_arguments(wfa, arguments)
    pencil = _pencil(wfa, arguments)
    rho = np.asarray(spectral_radius(pencil))
    # ||z_j z_j^T|| = ||z_j||^2; this power and g^(D+1) are taken on Python
    # floats, as an array power may round differently
    norms = np.linalg.norm(arguments, 2, axis=(-2, -1)).reshape(-1, wfa.alphabet_size)
    norm_sum = np.reshape([sum(norm**2 for norm in row) for row in norms.tolist()], rho.shape)
    gain = np.linalg.norm(pencil, 2, axis=(-2, -1))
    finite = gain < 1.0
    g = gain[finite]
    tail, rounding = np.full(rho.shape, math.inf), np.full(rho.shape, math.inf)
    scale = float(np.linalg.norm(wfa.alpha) * np.linalg.norm(wfa.beta))
    steps = pencil.shape[-1] / (1.0 - g) + _word_count(wfa.alphabet_size, NC_SERIES_DEGREE)
    rounding[finite] = float(np.finfo(float).eps) * steps * scale / (1.0 - g)
    tail[finite] = scale * np.array([x ** (NC_SERIES_DEGREE + 1) for x in g.tolist()]) / (1.0 - g)
    return rho, norm_sum, tail, rounding


@dataclass(frozen=True)
class NcRationalReport:
    """Closed form against partial sums of a rational series, over ``NC_TRIALS`` draws."""

    head_exact: bool
    max_ratio: float
    max_spectral_radius: float
    max_norm_sum: float

    @property
    def passed(self) -> bool:
        return self.head_exact and self.max_ratio <= 1.0

    def lines(self):
        yield f"zero substitution returns head coefficient exactly: {self.head_exact}"
        yield f"trials: {NC_TRIALS} (matrix sizes 1 and 2, degree-{NC_SERIES_DEGREE} series)"
        yield f"max |closed - series| / (tail bound + rounding bound): {self.max_ratio!r}"
        yield f"max spectral radius of the substituted pencil: {self.max_spectral_radius!r}"
        yield f"max sum of ||z_j z_j^T||: {self.max_norm_sum!r}"


def verify_nc_rational(wfa: Wfa, seed=0) -> NcRationalReport:
    """Check :func:`nc_rational_eval` against :func:`nc_rational_series`.

    The zero substitution must return the head coefficient alpha^T beta
    exactly.
    Each of ``NC_TRIALS`` trials then draws one argument per letter, 0.3
    times a standard normal matrix of size 1 or 2 (alternating), halved once
    when the substituted pencil's spectral radius reaches 0.95 or its tail
    bound is infinite (||K||_2 >= 1).  The gap between the closed form and the
    degree-``NC_SERIES_DEGREE`` partial sum must not exceed the tail bound
    plus the rounding bound of :func:`series_bounds`; a bound still infinite
    after the halving fails the trial (ratio inf) with neither side
    evaluated, so no substitution raises :class:`StabilityError`.  The
    trials of each matrix size m form one stack, taken by each call at once
    in parts within ``words.MAX_BLOCK_ENTRIES`` (one trial at least), of
    m^2 max(n^2, W) entries per trial for the W words of the degree-8 table:
    a trial's pencil holds (n m)^2 and its argument products m^2 per word
    (its letter blocks, d m^4 <= m^2 W, never decide).
    """
    rng = np.random.default_rng(seed)
    d = wfa.alphabet_size
    head_exact = bool(nc_rational_eval(wfa, np.zeros((d, 1, 1)))[0, 0] == wfa.alpha @ wfa.beta)
    draws = [0.3 * rng.standard_normal((d, 1 + t % 2, 1 + t % 2)) for t in range(NC_TRIALS)]
    per_trial = max(wfa.num_states**2, _word_count(d, NC_SERIES_DEGREE))
    parts = []
    for size in (1, 2):
        stack = np.stack(draws[size - 1::2])
        per_part = max(1, words.MAX_BLOCK_ENTRIES // (size**2 * per_trial))
        parts += np.split(stack, range(per_part, len(stack), per_part))
    worst = np.zeros(3)  # ratio, spectral radius, norm sum; np.maximum keeps a NaN
    for drawn in parts:
        # the tail bound holds in exact arithmetic, the rounding bound for both sides
        rho, norm_sum, tail, rounding = series_bounds(wfa, drawn)
        bound = np.where(rho < 0.95, tail + rounding, math.inf)
        halved = bound == math.inf  # only these trials are bounded again
        arguments = np.where(halved[:, None, None, None], 0.5 * drawn, drawn)
        rho[halved], norm_sum[halved], tail, rounding = series_bounds(wfa, arguments[halved])
        bound[halved] = tail + rounding
        ratio = np.full(len(drawn), math.inf)  # a bound still infinite fails its trial
        compared = bound != math.inf
        if compared.any():
            closed = nc_rational_eval(wfa, arguments[compared])
            partial = nc_rational_series(wfa, arguments[compared])
            gap = np.linalg.norm(closed - partial, 2, axis=(-2, -1))
            # a NaN bound gives a NaN ratio, and a zero bound 0 or 1
            ratio[compared] = np.divide(gap, bound[compared], out=(gap > 0).astype(float),
                                        where=~(bound[compared] <= 0))
        worst = np.maximum(worst, [np.max(ratio), np.max(rho), np.max(norm_sum)])
    return NcRationalReport(head_exact, *worst.tolist())


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
    with the coefficients past the degree dropped; for each suffix length
    one scatter writes every row w u, index_of(w u) = d**|u| index_of(w) +
    index_of(u), straight to its flipped position, each cell once.  Like a
    Hankel block, the N x N result is held to ``words.MAX_BLOCK_ENTRIES``
    (N <= 3,162) before it is allocated; a ``WordIndex`` refuses more words
    than that bound itself.
    """
    if basis.alphabet_size != wfa.alphabet_size:
        raise ValueError("basis and automaton alphabet sizes differ")
    d = basis.alphabet_size
    _block_rows(d, basis.max_length, None, "flipped multiplier")
    series = evaluation_table(wfa, basis.max_length)
    reversal = basis.reversal_permutation()
    out = np.zeros((len(basis), len(basis)))
    for length in range(basis.max_length + 1):  # |u|: the suffix length
        # the left factors w with |w| + |u| <= max_length, and the suffixes u
        left = np.arange(_word_count(d, basis.max_length - length))[:, None]
        start = basis.first_index_of_length(length)
        suffixes = np.arange(start, start + d**length)
        out[reversal[d**length * left + suffixes], left] = series[suffixes]
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
    a shifted matrix is built, and the reversal permutation is not read.
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
    d, first = basis.alphabet_size, basis.first_index_of_length
    inner = first(basis.max_length - 1)  # words x with x a interior
    # index_of(x + (a,)) = d * index_of(x) + 1 + a: row 1 + d x + a is x a
    tails = op[1 : 1 + d * inner].reshape(inner, d, len(basis))
    per_symbol = []
    for symbol in range(d):
        parts = []
        for length in range(basis.max_length):  # |c|
            size = d**length
            start = first(length + 1) + symbol * size
            columns = slice(start, start + size)  # the words i c
            rows = tails[:, :, columns]
            parts.append(np.abs(op[0, columns]).max())
            parts.append(np.abs(rows[:, :symbol]).max(initial=0.0))
            parts.append(np.abs(rows[:, symbol + 1 :]).max(initial=0.0))
            plain = op[:inner, first(length) : first(length) + size]  # the words c
            parts.append(np.abs(rows[:, symbol] - plain).max(initial=0.0))
        per_symbol.append(float(np.max(parts)))  # NaN propagates
    return MultiplierReport(
        degree=basis.max_length,
        per_symbol=tuple(per_symbol),
        max_discrepancy=float(np.max(per_symbol)),  # NaN propagates
    )
