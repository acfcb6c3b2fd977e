"""Command-line interface: evaluation, approximation and verification suites.

Exit codes follow a scripting contract: 0 on success, 1 when a verification
or certified approximation fails its assertions, 2 for usage, parse or
invalid-input errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import aak, fock
from .errors import NumericalError
from .hankel import _svd_baseline, build_hankel
from .io import WfaDocument, load_document, parse_word, save_document
from .wfa import random_stable_wfa


def _timestamp_lines(args):
    if not args.no_timestamp:
        yield f"# generated: {datetime.now(timezone.utc).isoformat()}"


def cmd_eval(args) -> int:
    doc = load_document(args.file)
    word = parse_word(args.word, doc)
    value = doc.wfa.evaluate(word)
    if not math.isfinite(value):
        raise NumericalError(f"the value on {args.word!r} is {value!r}: the evaluation overflowed")
    print(repr(value))
    return 0


def _default_output(path: Path, mode: str, k: int) -> Path:
    return path.with_name(f"{path.stem}-{mode}{k}{path.suffix or '.wfa'}")


def _approximate_aak(args, doc: WfaDocument):
    wfa = doc.wfa
    if wfa.alphabet_size != 1:
        raise ValueError(
            "aak mode needs a one-letter alphabet; no constructive optimal "
            "approximation is available for larger alphabets (use --mode svd "
            "for the truncated-SVD baseline)"
        )
    # refuses k outside [0, n), then unstable, then non-minimal input
    # (ValueError subclasses, exit 2)
    result = aak.aak_approximate(wfa, args.k)
    sigmas = result.singular_values
    deviation = float(abs(result.attained - result.error) / sigmas[0])
    lines = [
        "singular values: " + " ".join(repr(float(s)) for s in sigmas),
        f"error: {result.error!r}",
        f"achieved spectral-norm error: {result.attained!r}",
        f"certificate: attained sigma_{args.k} within {deviation!r} relative "
        f"(tolerance {aak.CERTIFY_RTOL!r})",
    ]
    lines.extend(f"warning: {warning}" for warning in result.warnings)
    return result.wfa, lines


def _approximate_svd(args, doc: WfaDocument):
    wfa = doc.wfa
    length = args.length if args.length is not None else (63 if wfa.alphabet_size == 1 else 5)
    # refuses k outside [0, n), then above the block's numerical rank (exit 2);
    # overflowing states reach the SVD, which fails with NumericalError (exit 1)
    recovered, singular, achieved, size = _svd_baseline(wfa, length, args.k)
    error = float(singular[args.k]) if args.k < singular.size else 0.0
    lines = [
        "singular values: " + " ".join(repr(float(s)) for s in singular[: min(10, singular.size)]),
        f"truncated-block error (optimal, generally non-Hankel): {error!r}",
        f"evaluation block: {size} x {size}",
        f"achieved spectral-norm error: {achieved!r}",
    ]
    return recovered, lines


def cmd_approximate(args) -> int:
    if args.mode == "aak" and args.length is not None:
        raise ValueError("--length sets the svd evaluation block; aak mode "
                         "certifies the exact Hankel norm (use --mode svd)")
    doc = load_document(args.file)
    if args.mode == "aak":
        approx_wfa, lines = _approximate_aak(args, doc)
    else:
        approx_wfa, lines = _approximate_svd(args, doc)
    out_path = Path(args.output) if args.output else _default_output(Path(args.file), args.mode, args.k)
    out_doc = WfaDocument(
        labels=doc.labels,
        wfa=approx_wfa,
        name=f"{doc.name or Path(args.file).stem}-{args.mode}{args.k}",
        comment=f"rank-{args.k} {args.mode} approximation",
    )
    report = "\n".join([
        *_timestamp_lines(args), f"mode: {args.mode}",
        f"input: {args.file} ({doc.wfa.num_states} states, alphabet {' '.join(doc.labels)})",
        f"target states: {args.k}", *lines, f"output: {out_path}",
    ])
    encoding = getattr(sys.stdout, "encoding", None)
    if encoding:  # a report stdout cannot encode is refused (exit 2) before the save
        report.encode(encoding, getattr(sys.stdout, "errors", None) or "strict")
    save_document(out_doc, out_path)
    print(report)
    return 0


def _suite_hankel_eq(args, wfa):
    lines = ["suite: hankel-eq"]
    if wfa is not None:
        fixtures = [(f"file {args.file}", wfa)]
    else:
        seeds = [(d, args.seed + offset + i) for i in range(5) for d, offset in ((2, 0), (3, 100))]
        fixtures = [(f"random (d={d}, n=3, seed={seed})",
                     random_stable_wfa(d, 3, seed=seed, radius_bound=0.9)) for d, seed in seeds]
    worst = 0.0
    passed = True
    for label, wfa in fixtures:
        report = fock.verify_hankel_equation(build_hankel(wfa, args.degree))
        worst = float(np.maximum(worst, report.max_discrepancy))  # NaN propagates
        passed = passed and report.passed
        lines.append(f"fixture: {label}")
        lines.extend("  " + line for line in report.lines())
    lines.append(f"max discrepancy over fixtures: {worst!r}")
    return lines, passed


def _suite_shifts(args, wfa):
    lines = ["suite: shifts"]
    passed = True
    for d, degree in ((2, args.degree), (3, min(args.degree, 4))):
        report = fock.verify_shift_inequalities(d, degree)
        lines.extend("  " + line for line in report.lines())
        passed = passed and report.passed
    return lines, passed


def _suite_free_group(args, wfa):
    report = fock.free_group_counterexample()
    lines = ["suite: free-group"]
    lines.extend("  " + line for line in report.lines())
    return lines, report.passed


def _suite_nc_rational(args, wfa):
    if wfa is not None:
        label = f"file {args.file}"
    else:
        wfa = random_stable_wfa(2, 3, seed=args.seed, radius_bound=0.9)
        label = f"random (d=2, n=3, seed={args.seed})"
    report = fock.verify_nc_rational(wfa, args.seed)
    return ["suite: nc-rational", f"realization: {label}", *report.lines()], report.passed


SUITES = {
    "hankel-eq": _suite_hankel_eq,
    "shifts": _suite_shifts,
    "free-group": _suite_free_group,
    "nc-rational": _suite_nc_rational,
}


def cmd_verify(args) -> int:
    selected = list(SUITES) if args.suite == "all" else [args.suite]
    # the file is parsed once, and every suite runs before anything prints,
    # so a refused input leaves stdout empty
    wfa = load_document(args.file).wfa if args.file else None
    lines = list(_timestamp_lines(args))
    all_passed = True
    for name in selected:
        suite_lines, passed = SUITES[name](args, wfa)
        lines.extend([*suite_lines, f"result: {'pass' if passed else 'fail'}"])
        all_passed = all_passed and passed
    print("\n".join(lines))
    return 0 if all_passed else 1


def _nonnegative_int(text: str) -> int:
    """Argument type: an int of at least 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="wfamin",
        description="Approximate minimization of weighted finite automata "
        "in the spectral norm.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate an automaton on a word")
    p_eval.add_argument("file", help="automaton document")
    p_eval.add_argument("word", help="word over the document's alphabet ('' for the empty word)")
    p_eval.set_defaults(func=cmd_eval)

    p_approx = sub.add_parser("approximate", help="compute a k-state approximation")
    p_approx.add_argument("file", help="automaton document")
    p_approx.add_argument("k", type=int, help="number of states of the approximation")
    p_approx.add_argument("--mode", choices=("aak", "svd"), default="aak",
                          help="aak: optimal Hankel approximation (one-letter only); "
                          "svd: truncated-SVD baseline (any alphabet)")
    p_approx.add_argument("--length", type=int, default=None,
                          help="word length of the square evaluation block (svd mode)")
    p_approx.add_argument("--output", "-o", default=None, help="output document path")
    p_approx.add_argument("--no-timestamp", action="store_true",
                          help="omit the timestamp line; the report and the document are then "
                          "byte-reproducible for the same input, numpy/BLAS build and "
                          "BLAS thread count")
    p_approx.set_defaults(func=cmd_approximate)

    p_verify = sub.add_parser("verify", help="run numerical verification suites")
    p_verify.add_argument("file", nargs="?", default=None,
                          help="optional automaton document used as the fixture")
    p_verify.add_argument("--suite", choices=(*SUITES, "all"), default="all")
    p_verify.add_argument("--degree", type=_nonnegative_int, default=5,
                          help="Fock-space truncation degree")
    p_verify.add_argument("--seed", type=_nonnegative_int, default=0)
    p_verify.add_argument("--no-timestamp", action="store_true",
                          help="omit the timestamp line; the report is then byte-reproducible "
                          "for the same input, seed, numpy/BLAS build and BLAS thread count")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        # one policy for every command: explicit checks catch overflow and NaN
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
