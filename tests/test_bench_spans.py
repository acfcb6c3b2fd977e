"""The benchmark's tracer finds every span it wraps, and the top-level names
its runner calls exist.  A span the tracer cannot find reads as zero in the
per-layer metrics instead of failing, so a renamed or deleted function would
otherwise go unnoticed."""

import importlib.util
from pathlib import Path

import wfamin
import wfamin.cli  # noqa: F401  (the tracer wraps spans in every loaded wfamin module)

BENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: the names ``perfbench/run.py`` calls as ``wfamin.<name>``
RUNNER_NAMES = (
    "is_minimal",
    "load_document",
    "WordIndex",
    "flipped_multiplier_matrix",
    "verify_multiplier_intertwining",
)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_is_present():
    tracer = load_tracer().Tracer()
    assert tracer.absent == []


def test_runner_entry_points_exist():
    for name in RUNNER_NAMES:
        assert name in wfamin.__all__
        assert callable(getattr(wfamin, name))
    assert callable(wfamin.cli.main)
