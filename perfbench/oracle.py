"""Output oracle that uses numpy only and never imports wfamin.

Every check recomputes what the program claims from the input document
with an independent construction: Hankel blocks are built as the product
of a prefix-state matrix and a suffix-state matrix, not by indexing a
table of word values, and singular values come from numpy's own SVD.
Each check returns ``None`` when the output is accepted, otherwise a short
reason.
"""

from __future__ import annotations

import re

import numpy as np

#: Size of the one-letter blocks the aak check compares.  The generator
#: keeps the spectral radius at or below 0.9, so the tail beyond 2 * 200
#: coefficients is below 1e-18 of the leading one.
AAK_BLOCK = 200
#: Attained error must equal the block's k-th singular value to this share
#: of the largest one, the tolerance the program certifies.
AAK_RTOL = 1e-6
#: Reported and recomputed spectral-norm errors agree to this share of the
#: largest singular value (both evaluate the same words).
REPORT_RTOL = 1e-9
#: The svd output's block equals the block of the oracle's own spectral
#: recovery to this share of the largest singular value (observed: 5e-15).
RECOVER_RTOL = 1e-8
#: The Fock intertwining identity is exact up to roundoff.
INTERTWINING_TOL = 1e-14
VERIFY_SUITES = 4


class Automaton:
    """Initial vector, transition matrices and final vector of a document."""

    def __init__(self, alpha, mats, beta):
        self.alpha = np.asarray(alpha, dtype=float)
        self.mats = [np.asarray(m, dtype=float) for m in mats]
        self.beta = np.asarray(beta, dtype=float)

    @property
    def states(self) -> int:
        return self.alpha.size

    @property
    def letters(self) -> int:
        return len(self.mats)


def format_document(auto: Automaton, name: str) -> str:
    def row(values) -> str:
        return " ".join(f"{float(v):.17g}" for v in values)

    labels = "abcdefghij"[: auto.letters]
    lines = [f"name: {name}", f"alphabet: {' '.join(labels)}", f"states: {auto.states}",
             f"alpha: {row(auto.alpha)}", f"beta: {row(auto.beta)}"]
    for label, mat in zip(labels, auto.mats):
        lines.append(f"transition {label}:")
        lines.extend(row(r) for r in mat)
    return "\n".join(lines) + "\n"


def parse_document(text: str) -> Automaton:
    fields, mats, lines = {}, [], [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    i = 0
    while i < len(lines):
        if lines[i].startswith("transition"):
            size = int(fields["states"])
            mats.append([[float(x) for x in lines[i + 1 + r].split()] for r in range(size)])
            i += 1 + size
            continue
        key, _, value = lines[i].partition(":")
        fields[key.strip()] = value.strip()
        i += 1
    alpha = [float(x) for x in fields["alpha"].split()]
    beta = [float(x) for x in fields["beta"].split()]
    return Automaton(alpha, mats, beta)


def _state_rows(auto: Automaton, max_length: int, from_left: bool) -> np.ndarray:
    """alpha^T A_w (rows) or (A_w beta)^T over words of length <= max_length.

    Words are in graded lexicographic order: by length, then by the word
    read as a base-d number with the first letter most significant.
    """
    level = (auto.alpha if from_left else auto.beta)[None, :]
    levels = [level]
    for _ in range(max_length):
        if from_left:  # word w + a: row(w) @ A_a, at position value(w) * d + a
            level = np.stack([level @ m for m in auto.mats], axis=1)
        else:  # word a + w: A_a @ col(w), at position a * d^len + value(w)
            level = np.stack([level @ m.T for m in auto.mats], axis=0)
        level = level.reshape(-1, auto.states)
        levels.append(level)
    return np.concatenate(levels)


def hankel_block(auto: Automaton, prefix_length: int, suffix_length: int) -> np.ndarray:
    return _state_rows(auto, prefix_length, True) @ _state_rows(auto, suffix_length, False).T


def word_values(auto: Automaton, max_length: int) -> np.ndarray:
    return _state_rows(auto, max_length, True) @ auto.beta


def _output_states_ok(out: Automaton, k: int) -> bool:
    if k == 0:  # the zero sequence is written as one all-zero state
        return out.states == 1 and not any(np.any(a) for a in (out.alpha, out.beta, *out.mats))
    return out.states == k


def _reported(stdout: str, label: str) -> float | None:
    match = re.search(rf"^{re.escape(label)}: (\S+)$", stdout, re.MULTILINE)
    return float(match.group(1)) if match else None


def check_aak(doc_text: str, k: int, out_text: str) -> str | None:
    """Optimal one-letter approximation: k states, and the attained error on
    the block equals the block's own k-th singular value."""
    out = parse_document(out_text)
    if not _output_states_ok(out, k):
        return f"output has {out.states} states, expected {k}"
    block = hankel_block(parse_document(doc_text), AAK_BLOCK - 1, AAK_BLOCK - 1)
    sigmas = np.linalg.svd(block, compute_uv=False)
    attained = float(np.linalg.norm(block - hankel_block(out, AAK_BLOCK - 1, AAK_BLOCK - 1), 2))
    if not abs(attained - sigmas[k]) <= AAK_RTOL * sigmas[0]:
        return f"attained error {attained!r} is not sigma_{k} = {sigmas[k]!r}"
    return None


def spectral_recover(auto: Automaton, k: int, length: int) -> Automaton:
    """Rank-k spectral realization from the (length, length) block: with the
    truncated SVD H = U_k D_k V_k^T, A_a = D_k^-1/2 U_k^T H_a V_k D_k^-1/2,
    where H_a is the block shifted by letter a, and alpha, beta come from the
    empty-word row and column."""
    prefix = _state_rows(auto, length, True)
    suffix = _state_rows(auto, length, False)
    u, s, vt = np.linalg.svd(prefix @ suffix.T, full_matrices=False)
    u_k, root, v_k = u[:, :k], np.sqrt(s[:k]), vt[:k].T
    left, right = (u_k / root).T @ prefix, suffix.T @ (v_k / root)
    return Automaton(root * u_k[0], [left @ m @ right for m in auto.mats], root * v_k[0])


def check_svd(doc_text: str, k: int, length: int, out_text: str, stdout: str) -> str | None:
    """Truncated-SVD baseline: k states, the same block as the oracle's own
    spectral recovery, and the reported achieved error is the one the output
    attains."""
    auto, out = parse_document(doc_text), parse_document(out_text)
    if not _output_states_ok(out, k):
        return f"output has {out.states} states, expected {k}"
    block = hankel_block(auto, length, length)
    scale = float(np.linalg.norm(block, 2))
    approx = hankel_block(out, length, length)
    expected = hankel_block(spectral_recover(auto, k, length), length, length)
    distance = float(np.linalg.norm(approx - expected, 2))
    if not distance <= RECOVER_RTOL * scale:
        return f"block differs from the spectral recovery by {distance!r}"
    achieved = float(np.linalg.norm(block - approx, 2))
    reported = _reported(stdout, "achieved spectral-norm error")
    if reported is None or not abs(reported - achieved) <= REPORT_RTOL * scale:
        return f"reported error {reported!r} differs from the attained {achieved!r}"
    return None


def check_verify(stdout: str) -> str | None:
    results = re.findall(r"^result: (\S+)$", stdout, re.MULTILINE)
    if results != ["pass"] * VERIFY_SUITES:
        return f"suite results {results}"
    return None


def _reversed_values(values: np.ndarray, length: int, d: int) -> np.ndarray:
    out = np.zeros_like(values)
    rest = values.copy()
    for _ in range(length):
        out = out * d + rest % d
        rest //= d
    return out


def expected_flipped_multiplier(auto: Automaton, degree: int) -> np.ndarray:
    """Flip composed with right multiplication by f: e_w -> sum_u f(u) e_rev(wu)."""
    d = auto.letters
    offsets = np.cumsum([0] + [d**l for l in range(degree + 1)])
    values = word_values(auto, degree)
    out = np.zeros((offsets[-1], offsets[-1]))
    for lw in range(degree + 1):
        for lu in range(degree + 1 - lw):
            w = np.arange(d**lw)[:, None]
            u = np.arange(d**lu)[None, :]
            target = offsets[lw + lu] + _reversed_values(w * d**lu + u, lw + lu, d)
            out[target, np.broadcast_to(offsets[lw] + w, target.shape)] = values[offsets[lu] + u]
    return out


def check_intertwining(doc_text: str, degree: int, matrix: np.ndarray,
                       discrepancy: float) -> str | None:
    if not discrepancy < INTERTWINING_TOL:
        return f"intertwining discrepancy {discrepancy!r}"
    expected = expected_flipped_multiplier(parse_document(doc_text), degree)
    if matrix.shape != expected.shape:
        return f"multiplier has shape {matrix.shape}, expected {expected.shape}"
    scale = float(np.abs(expected).max())
    if not float(np.abs(matrix - expected).max()) <= 1e-12 * scale:
        return "multiplier entries differ from f(u) at (rev(wu), w)"
    return None
