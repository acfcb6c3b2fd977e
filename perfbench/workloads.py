"""Seeded input generators for the three workloads (numpy only).

A workload is a list of rounds.  Each round is a stratified set of
operations, shuffled, so that every round has the same mix of sizes.  The
same seed always gives the same documents and operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from oracle import Automaton

#: State counts of the one-letter documents; over the rounds every k is used.
AAK_STATES = range(2, 11)
#: (alphabet size, state count) grid of the multi-letter workload.  The
#: (n, n) minimality blocks have 63 to 2047 rows.
HANKEL_GRID = [(2, n) for n in range(5, 11)] + [(3, n) for n in range(3, 7)]
#: --length of the svd evaluation block, per alphabet size.
HANKEL_LENGTHS = {2: (5, 6, 7), 3: (3, 4, 5)}
HANKEL_NON_MINIMAL = 3
#: Degrees of `verify --suite all`; 6 is the largest the block guard allows
#: for the three-letter fixtures.
VERIFY_DEGREES = range(2, 7)
#: (alphabet size, degree) of the intertwining checks: bases of 121 to 1093 words.
INTERTWINING_BASES = [(2, 6), (2, 8), (2, 9), (3, 4), (3, 5), (3, 6)]


@dataclass(frozen=True)
class Op:
    """One closed-loop operation and what the oracle needs to judge it."""

    kind: str  # aak | svd | is_minimal | verify | intertwining
    doc: str | None = None
    k: int = 0
    length: int = 0  # svd --length or Fock degree
    seed: int = 0  # verify --seed
    expect_refusal: bool = False
    minimal: bool = True  # ground truth for is_minimal
    states: int = 0  # 0: the operation has no input document
    letters: int = 0


def _scaled_one_letter(rng, n: int, radius: float) -> Automaton:
    a = rng.standard_normal((n, n))
    a *= radius / np.abs(np.linalg.eigvals(a)).max()
    return Automaton(rng.standard_normal(n), [a], rng.standard_normal(n))


def _scaled_multi_letter(rng, d: int, n: int, bound: float = 0.9) -> Automaton:
    """Gaussian automaton with sum_a ||A_a||_2^2 = bound, so its series converges."""
    mats = [rng.standard_normal((n, n)) for _ in range(d)]
    scale = np.sqrt(bound / sum(np.linalg.norm(m, 2) ** 2 for m in mats))
    return Automaton(rng.standard_normal(n), [m * scale for m in mats], rng.standard_normal(n))


def _rotate(rng, auto: Automaton) -> Automaton:
    """Orthogonal change of basis: same function, structure hidden."""
    q, _ = np.linalg.qr(rng.standard_normal((auto.states, auto.states)))
    return Automaton(auto.alpha @ q, [q.T @ m @ q for m in auto.mats], q.T @ auto.beta)


def _non_minimal(rng, core: Automaton, extra: int) -> Automaton:
    """Add ``extra`` states that no word reaches: A = [[A1, 0], [X, A2]] and
    alpha = [alpha1, 0], so alpha^T A_w = [alpha1^T A1_w, 0] and the Hankel
    rank stays that of the core."""
    n = core.states + extra
    mats = []
    for m in core.mats:
        big = np.zeros((n, n))
        big[: core.states, : core.states] = m
        big[core.states:, :] = 0.3 * rng.standard_normal((extra, n)) / np.sqrt(n)
        mats.append(big)
    alpha = np.concatenate([core.alpha, np.zeros(extra)])
    beta = np.concatenate([core.beta, rng.standard_normal(extra)])
    return _rotate(rng, Automaton(alpha, mats, beta))


def aak_round(rng, r: int, ks: dict):
    """One fresh document per state count, so that a single document that
    trips a defect costs one operation, not a whole k-sweep; ``ks`` cycles
    each state count through every k.  Every round adds one document that
    must be refused: a non-minimal one or an unstable one, alternately."""
    docs, ops = {}, []
    for n in AAK_STATES:
        if not ks.get(n):
            ks[n] = rng.permutation(n).tolist()
        name = f"r{r}-n{n}"
        docs[name] = _scaled_one_letter(rng, n, rng.uniform(0.5, 0.9))
        ops.append(Op("aak", name, k=ks[n].pop(), states=n, letters=1))
    n = int(rng.integers(3, 11))
    name = f"r{r}-refuse"
    if r % 2 == 0:
        docs[name] = _non_minimal(rng, _scaled_one_letter(rng, n - 1, rng.uniform(0.5, 0.9)), 1)
    else:
        docs[name] = _scaled_one_letter(rng, n, rng.uniform(1.05, 1.5))
    ops.append(Op("aak", name, k=int(rng.integers(0, n)), expect_refusal=True,
                  minimal=r % 2 == 1, states=n, letters=1))
    return docs, ops


def hankel_round(rng, r: int, state: dict):
    docs, ops = {}, []
    non_minimal = set(rng.choice(len(HANKEL_GRID), HANKEL_NON_MINIMAL, replace=False).tolist())
    for i, (d, n) in enumerate(HANKEL_GRID):
        name = f"r{r}-d{d}n{n}"
        minimal = i not in non_minimal
        if minimal:
            auto, rank = _scaled_multi_letter(rng, d, n), n
        else:
            rank = max(2, n - int(rng.integers(1, 3)))
            auto = _non_minimal(rng, _scaled_multi_letter(rng, d, rank), n - rank)
        docs[name] = auto
        ops.append(Op("is_minimal", name, minimal=minimal, states=n, letters=d))
        for length in HANKEL_LENGTHS[d]:
            k = int(rng.integers(1, rank))
            ops.append(Op("svd", name, k=k, length=length, states=n, letters=d))
    return docs, ops


def fock_round(rng, r: int, state: dict):
    docs, ops = {}, []
    for degree in VERIFY_DEGREES:
        ops.append(Op("verify", length=degree, seed=int(rng.integers(0, 2**31))))
    for d, degree in INTERTWINING_BASES:
        name = f"r{r}-d{d}deg{degree}"
        docs[name] = _scaled_multi_letter(rng, d, 3)
        ops.append(Op("intertwining", name, length=degree, states=3, letters=d))
    return docs, ops


ROUNDS = {"aak-one-letter": aak_round, "hankel-multi-letter": hankel_round,
          "fock-verify": fock_round}
#: Operation seconds of one round of the initial code (median over seeds 1-10
#: on a 2-core x86-64 machine, one BLAS thread).  A run of S seconds runs
#: round(S / ROUND_SECONDS) rounds, a number that does not depend on how fast
#: the program under test is, so that every run of a seed judges the same
#: operations.
ROUND_SECONDS = {"aak-one-letter": 2.05, "hankel-multi-letter": 5.3, "fock-verify": 2.45}


def round_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def generate(workload: str, seed: int, rounds: int):
    """Documents (name -> Automaton) and rounds of shuffled operations."""
    rng = np.random.default_rng(seed)
    docs, schedule, state = {}, [], {}
    for r in range(rounds):
        round_docs, ops = ROUNDS[workload](rng, r, state)
        docs.update(round_docs)
        schedule.append([ops[i] for i in rng.permutation(len(ops))])
    return docs, schedule
