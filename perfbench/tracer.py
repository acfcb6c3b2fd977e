"""Span tracer that wraps wfamin's public functions from outside the package.

Each span replaces a function at every wfamin module namespace that holds
it (``wfamin.hankel.build_hankel``, ``wfamin.aak.build_hankel``,
``wfamin.build_hankel``, ...), so calls between modules and inside a module
both pass through the wrapper.  Self time is the span's duration minus the
time covered by the spans it calls.  A span whose function no longer exists
is recorded as absent and its metrics stay at zero.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

SPANS = (
    "cli.main",
    "io.load_document", "io.save_document",
    "wfa.evaluation_table", "wfa.spectral_radius",
    "hankel.build_hankel", "hankel.hankel_rank", "hankel.is_minimal", "hankel.spectral_recover",
    "aak.aak_approximate", "aak.gramians", "aak.hankel_singular_values", "aak.schmidt_pair",
    "aak.AakApproximation.coefficients", "aak.AakApproximation.hankel_block",
    "fock.verify_hankel_equation", "fock.verify_shift_inequalities",
    "fock.free_group_counterexample", "fock.nc_rational_eval", "fock.nc_rational_series",
    "fock.flipped_multiplier_matrix", "fock.verify_multiplier_intertwining",
)
LAYERS = ("cli", "io", "wfa", "hankel", "aak", "fock")
#: Counters summed over operations, then reported per operation.
SUMMED = ("hankel.block_entries", "aak.cert_rounds")
#: Counters reported as their largest value.
MAXED = ("aak.cert_block_max", "fock.basis_max")


def _basis_size(d: int, degree: int) -> int:
    return sum(d**length for length in range(degree + 1))


def _count_cli(tracer, args, kwargs, result):
    if result != 0:
        tracer.errors["cli"][f"exit{result}"] += 1


def _count_block(tracer, args, kwargs, result):
    tracer.summed["hankel.block_entries"] += result.entries.size


def _count_certificate(tracer, args, kwargs, result):
    tracer.summed["aak.cert_rounds"] += len(result.block_norms)
    tracer.maximum("aak.cert_block_max", max(size for size, _ in result.block_norms))


def _count_basis_of_arg(tracer, args, kwargs, result):
    tracer.maximum("fock.basis_max", len(args[1]))


def _count_basis_of_wfa(tracer, args, kwargs, result):
    tracer.maximum("fock.basis_max", _basis_size(args[0].alphabet_size, args[1]))


def _count_basis_of_sizes(tracer, args, kwargs, result):
    tracer.maximum("fock.basis_max", _basis_size(args[0], args[1]))


HOOKS = {
    "cli.main": _count_cli,
    "hankel.build_hankel": _count_block,
    "aak.aak_approximate": _count_certificate,
    "fock.flipped_multiplier_matrix": _count_basis_of_arg,
    "fock.verify_multiplier_intertwining": _count_basis_of_arg,
    "fock.verify_hankel_equation": _count_basis_of_wfa,
    "fock.verify_shift_inequalities": _count_basis_of_sizes,
}


class Tracer:
    """Installs wrappers around the spans of an imported wfamin package."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.total_s = Counter()
        self.summed = Counter()
        self.maxima = Counter()
        self.errors = {layer: Counter() for layer in LAYERS}
        self.absent: list[str] = []
        self.hook_failures = Counter()
        self._stack: list[list[float]] = []
        self._raised: list[BaseException] = []
        self._patches = []  # (owner, attribute, original, wrapper)
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "wfamin" or name.startswith("wfamin."))]
        for span in SPANS:
            module_name, *path = span.split(".")
            owner = sys.modules.get(f"wfamin.{module_name}")
            for attribute in path[:-1]:
                owner = getattr(owner, attribute, None)
            original = getattr(owner, path[-1], None)
            if owner is None or original is None:
                self.absent.append(span)
                continue
            wrapper = self._wrap(span, original, HOOKS.get(span))
            if isinstance(owner, type):
                self._patches.append((owner, path[-1], original, wrapper))
                continue
            for module in modules:
                for attribute, value in vars(module).items():
                    if value is original:
                        self._patches.append((module, attribute, original, wrapper))

    def install(self):
        for owner, attribute, _, wrapper in self._patches:
            setattr(owner, attribute, wrapper)

    def uninstall(self):
        for owner, attribute, original, _ in self._patches:
            setattr(owner, attribute, original)
        self._raised.clear()

    def maximum(self, name: str, value):
        self.maxima[name] = max(self.maxima[name], value)

    def _wrap(self, span: str, function, hook):
        layer = span.split(".")[0]

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            frame = [0.0]  # time covered by child spans
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            except Exception as exc:
                # count each exception once, in the innermost span it left
                if not any(exc is seen for seen in self._raised):
                    self._raised.append(exc)
                    self.errors[layer][type(exc).__name__] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                self.calls[span] += 1
                self.self_s[span] += elapsed - frame[0]
                self.total_s[span] += elapsed
            if hook is not None:
                try:
                    hook(self, args, kwargs, result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    self.hook_failures[span] += 1
            return result

        return wrapper
