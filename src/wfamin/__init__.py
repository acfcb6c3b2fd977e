"""Approximate minimization of weighted finite automata in the spectral norm.

The package has four layers: automata and small linear-algebra primitives
(:mod:`wfamin.wfa`, :mod:`wfamin.words`), finite Hankel blocks with rank
checks and spectral reconstruction (:mod:`wfamin.hankel`), the optimal
one-letter Hankel approximation pipeline (:mod:`wfamin.aak`), and a
truncated Fock-space laboratory for the noncommutative Hankel framework
(:mod:`wfamin.fock`).  :mod:`wfamin.cli` exposes the ``wfamin`` command.

Everything runs on numpy alone except the one-letter AAK construction,
whose ordered Schur split and Bartels-Stewart fallback load
``scipy.linalg`` on first use; importing the package does not.

The names below are the entry points; everything else stays reachable as
``wfamin.<module>.<name>``.
"""

from .aak import AakApproximation, aak_approximate, hankel_singular_values
from .errors import NumericalError, RankDeficiencyError, StabilityError
from .fock import (
    flipped_multiplier_matrix,
    free_group_counterexample,
    verify_hankel_equation,
    verify_multiplier_intertwining,
    verify_nc_rational,
    verify_shift_inequalities,
)
from .hankel import HankelBlock, build_hankel, hankel_rank, is_minimal, minimize, spectral_recover
from .io import WfaDocument, load_document, save_document
from .wfa import Wfa, evaluation_table
from .words import WordIndex

__version__ = "0.1.0"

__all__ = [
    "AakApproximation",
    "HankelBlock",
    "NumericalError",
    "RankDeficiencyError",
    "StabilityError",
    "Wfa",
    "WfaDocument",
    "WordIndex",
    "aak_approximate",
    "build_hankel",
    "evaluation_table",
    "flipped_multiplier_matrix",
    "free_group_counterexample",
    "hankel_rank",
    "hankel_singular_values",
    "is_minimal",
    "load_document",
    "minimize",
    "save_document",
    "spectral_recover",
    "verify_hankel_equation",
    "verify_multiplier_intertwining",
    "verify_nc_rational",
    "verify_shift_inequalities",
]
