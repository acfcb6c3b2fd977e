"""wfamin benchmark: closed-loop workloads timed end to end, or traced per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload aak-one-letter --seed 1 --seconds 25 --trace 0

One caller runs the workload's operations back to back (a closed loop), in
this process, with BLAS fixed to one thread.  The number of rounds follows
from ``--seconds`` and a fixed round time of the initial code, so a run
takes about ``--seconds`` of operation time there and always judges the same
operations for a seed.  Every output is checked by a
numpy-only oracle right after its operation returns, outside the timed
interval.  Times are reported in milliseconds and in reference units, the
time of a fixed kernel run just before each operation.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs each operation once
untraced and once traced and reports the per-layer metrics.  The last line
of standard output is one JSON object; the lines before it are a table of
every metric and a JSON detail record (environment, input mix, failures by
kind).  See README.md in this directory.
"""

from __future__ import annotations

import os

#: BLAS threads, fixed before numpy loads so that timings do not depend on
#: what else runs on the machine.  Must not exceed the available cores.
BLAS_THREADS = 1
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, MAXED, SPANS, SUMMED, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
#: Set-up is repeated this many times and the fastest reported: noise from
#: other work on the machine only adds time.
SETUP_REPEATS = 7
#: Doubles in the block freed before the loop: two pages under glibc's 32 MiB
#: ceiling of the dynamic mmap threshold, so that no later free raises it.
ALLOCATOR_PROBE = 2**22 - 1024
#: A run that takes longer than this stops after the current operation, so
#: that a much slower program still exits within the time limit.
DEADLINE_S = 150.0
#: Operations beyond the tail percentile.
TAIL_BEYOND = 10
IMPORT_PROBE = ("import time; t = time.perf_counter(); import wfamin, wfamin.cli; "
                "print(time.perf_counter() - t)")

END_TO_END_UNITS = {"op_p50_ms": "ms", "op_tail_ms": "ms", "solved_per_s": "1/s",
                    "fail_share": "ratio", "setup_s": "s", "peak_rss_mb": "MB",
                    "op_p50_ref": "ref", "op_tail_ref": "ref", "solved_per_ref": "1/ref"}


@dataclass
class Outcome:
    code: int | None = None
    stdout: str = ""
    stderr: str = ""
    value: object = None
    error: str | None = None  # exception that escaped the program
    output: str | None = None  # document the operation wrote


@dataclass
class Record:
    op: workloads.Op
    round: int
    seconds: float
    reference: float  # seconds of the reference kernel run just before
    status: str  # solved | failed | wrong
    kind: str | None = None


@dataclass
class Run:
    records: list = field(default_factory=list)
    last_solved: dict = field(default_factory=dict)  # op kind -> (op, outcome)
    truncated: bool = False  # stopped at the deadline


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def setup_once(workload: str, seed: int, rounds: int, work: Path):
    """Import the program in a fresh interpreter, then generate and write inputs.

    Returns the elapsed seconds, the documents (name -> text) and the rounds.
    """
    env = dict(os.environ, PYTHONPATH=str(SOURCE))
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=120, check=False)
    if probe.returncode != 0:
        fail(f"cannot import wfamin from {SOURCE}: {probe.stderr.strip()[-300:]}")
    start = perf_counter()
    automata, schedule = workloads.generate(workload, seed, rounds)
    docs = {name: oracle.format_document(auto, name) for name, auto in automata.items()}
    shutil.rmtree(work / "docs", ignore_errors=True)
    (work / "docs").mkdir(parents=True)
    for name, text in docs.items():
        (work / "docs" / f"{name}.wfa").write_text(text, encoding="utf-8")
    return float(probe.stdout) + perf_counter() - start, docs, schedule


def run_cli(wfamin, argv) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = wfamin.cli.main(argv)
    return Outcome(code=code, stdout=out.getvalue(), stderr=err.getvalue())


def execute(wfamin, op: workloads.Op, work: Path, out_path: Path) -> Outcome:
    """One operation, as the CLI or a public library call would run it."""
    doc = str(work / "docs" / f"{op.doc}.wfa") if op.doc else None
    if op.kind == "aak":
        return run_cli(wfamin, ["approximate", doc, str(op.k), "--no-timestamp",
                                "-o", str(out_path)])
    if op.kind == "svd":
        return run_cli(wfamin, ["approximate", doc, str(op.k), "--mode", "svd",
                                "--length", str(op.length), "--no-timestamp",
                                "-o", str(out_path)])
    if op.kind == "verify":
        return run_cli(wfamin, ["verify", "--suite", "all", "--degree", str(op.length),
                                "--seed", str(op.seed), "--no-timestamp"])
    if op.kind == "is_minimal":
        return Outcome(value=wfamin.is_minimal(wfamin.load_document(doc).wfa))
    if op.kind == "intertwining":
        automaton = wfamin.load_document(doc).wfa
        basis = wfamin.WordIndex(automaton.alphabet_size, op.length)
        matrix = wfamin.flipped_multiplier_matrix(automaton, basis)
        report = wfamin.verify_multiplier_intertwining(matrix, basis)
        return Outcome(value=(matrix, report.max_discrepancy))
    raise ValueError(f"unknown operation kind {op.kind!r}")


def timed(wfamin, op, work: Path, out_path: Path):
    out_path.unlink(missing_ok=True)
    start = perf_counter()
    try:
        outcome = execute(wfamin, op, work, out_path)
    except Exception as exc:  # the benchmark keeps running; the op counts as failed
        outcome = Outcome(error=f"{type(exc).__name__}: {exc}")
    elapsed = perf_counter() - start
    if outcome.code == 0 and out_path.exists():
        outcome.output = out_path.read_text(encoding="utf-8")
    return elapsed, outcome


def refusal_kind(outcome: Outcome) -> str:
    """Failure label from the exit code and the error message, numbers masked."""
    if outcome.error is not None:
        return "raised " + outcome.error.split(":")[0]
    message = outcome.stderr.strip().removeprefix("error: ")
    message = re.split(r"[;(]", message)[0].strip()
    message = re.sub(r"[-+]?\d[\w.+-]*", "#", message)[:70]
    if not message:  # the command ran, and its own check failed
        suites = re.findall(r"^suite: (\S+)$(?:\n(?!suite: ).*)*?\nresult: fail$", outcome.stdout,
                            re.MULTILINE)
        message = f"suite {' '.join(suites)} failed" if suites else "certificate failed"
    return f"exit {outcome.code}: {message}"


def judge(op, outcome: Outcome, docs) -> tuple[str, str | None]:
    """(status, kind): solved, failed (error or refusal of a valid input) or
    wrong (an output the oracle rejects, or a missed refusal)."""
    if outcome.error is not None:
        return "failed", refusal_kind(outcome)
    doc = docs.get(op.doc)
    if op.kind in ("aak", "svd"):
        if op.expect_refusal:
            if outcome.code == 2:
                return "solved", None
            return ("wrong", "missed refusal") if outcome.code == 0 else (
                "failed", refusal_kind(outcome))
        if outcome.code != 0:
            return "failed", refusal_kind(outcome)
        if outcome.output is None:
            return "wrong", "no output document"
        reason = (oracle.check_aak(doc, op.k, outcome.output) if op.kind == "aak"
                  else oracle.check_svd(doc, op.k, op.length, outcome.output, outcome.stdout))
    elif op.kind == "is_minimal":
        if outcome.value == op.minimal:
            return "solved", None
        if op.minimal:
            return "failed", "is_minimal False on a minimal input"
        return "wrong", "is_minimal True on a non-minimal input"
    elif op.kind == "verify":
        if outcome.code != 0:
            return "failed", refusal_kind(outcome)
        reason = oracle.check_verify(outcome.stdout)
    else:
        matrix, discrepancy = outcome.value
        reason = oracle.check_intertwining(doc, op.length, matrix, discrepancy)
    return ("solved", None) if reason is None else ("wrong", f"oracle: {reason}")


def perturbed(op, outcome: Outcome, docs) -> Outcome:
    """The same outcome with a corrupted answer, which the oracle must reject.

    The svd control writes another k-state automaton and reports the error
    that automaton really attains, so only the comparison with the oracle's
    own recovery can catch it.
    """
    if op.kind in ("aak", "svd"):
        auto = oracle.parse_document(outcome.output)
        auto.alpha = auto.alpha * (1.0 + 1e-3)
        stdout = outcome.stdout
        if op.kind == "svd":
            block = oracle.hankel_block(oracle.parse_document(docs[op.doc]), op.length, op.length)
            achieved = np.linalg.norm(block - oracle.hankel_block(auto, op.length, op.length), 2)
            stdout = re.sub(r"^(achieved spectral-norm error: ).*$",
                            lambda m: f"{m.group(1)}{float(achieved)!r}", stdout, flags=re.MULTILINE)
        return Outcome(code=0, stdout=stdout, output=oracle.format_document(auto, "perturbed"))
    if op.kind == "is_minimal":
        return Outcome(value=not outcome.value)
    if op.kind == "verify":
        return Outcome(code=0, stdout=outcome.stdout.replace("result: pass", "result: fail", 1))
    matrix, discrepancy = outcome.value
    matrix = matrix.copy()
    i, j = np.unravel_index(np.argmax(np.abs(matrix)), matrix.shape)
    matrix[i, j] *= 1.0 + 1e-9
    return Outcome(value=(matrix, discrepancy))


def negative_controls(run: Run, docs) -> dict:
    return {kind: judge(op, perturbed(op, outcome, docs), docs)[0] != "solved"
            for kind, (op, outcome) in sorted(run.last_solved.items())}


def reference_kernel() -> float:
    """Seconds for a fixed task made of LAPACK, many small numpy calls and
    interpreted Python in about equal parts, the three kinds of work the
    operations do."""
    matrix = np.random.default_rng(0).standard_normal((110, 110))
    vector, eye = np.arange(8.0), np.eye(8)
    start = perf_counter()
    np.linalg.svd(matrix)
    for _ in range(300):
        vector = vector @ eye * 0.5 + 1.0
    total = 0.0
    for i in range(20000):
        total += i * 0.5
    return perf_counter() - start


def closed_loop(wfamin, schedule, docs, work: Path, deadline: float, tracer=None):
    """Run the rounds back to back; stop early only past ``deadline``.

    With a tracer, every operation runs twice, untraced and traced in
    alternating order, and the traced run is the one judged.
    """
    run = Run()
    out_path, spare_path = work / "out.wfa", work / "spare.wfa"
    untraced_s = 0.0
    for round_number, ops in enumerate(schedule):
        for op in ops:
            if perf_counter() > deadline:
                run.truncated = True
                return run, untraced_s, negative_controls(run, docs)
            reference = reference_kernel()
            if tracer is None:
                elapsed, outcome = timed(wfamin, op, work, out_path)
            else:
                if len(run.records) % 2:
                    plain, _ = timed(wfamin, op, work, spare_path)
                tracer.install()
                try:
                    elapsed, outcome = timed(wfamin, op, work, out_path)
                finally:
                    tracer.uninstall()
                if len(run.records) % 2 == 0:
                    plain, _ = timed(wfamin, op, work, spare_path)
                untraced_s += plain
            status, kind = judge(op, outcome, docs)
            run.records.append(Record(op, round_number, elapsed, reference, status, kind))
            # a zero approximant or a refusal cannot be perturbed into a wrong answer
            if status == "solved" and not (op.kind == "aak" and (op.expect_refusal or op.k == 0)):
                run.last_solved[op.kind] = (op, outcome)
    return run, untraced_s, negative_controls(run, docs)


def latency_metrics(times, solved_mask) -> tuple[float, float, float, bool, int]:
    """(p50, tail, solved per unit time, tail on a failure, tail rank).

    The tail is the time at the highest rank with TAIL_BEYOND operations
    beyond it, failed operations ranking slower than every success.  When
    that rank falls on a failure it has no finite time; the slowest success
    is reported instead, flagged as a lower bound.
    """
    solved = sorted(t for t, ok in zip(times, solved_mask) if ok)
    tail_rank = max(len(times) - 1 - TAIL_BEYOND, 0)
    on_failure = tail_rank >= len(solved)
    if not solved:
        tail = max(times)
    else:
        tail = solved[-1] if on_failure else solved[tail_rank]
    return statistics.median(times), tail, len(solved) / sum(times), on_failure, tail_rank


def end_to_end(run: Run, setup_s: float, peak_rss_mb: float) -> tuple[dict, dict]:
    ok = [r.status == "solved" for r in run.records]
    raw = [r.seconds for r in run.records]
    # each operation in units of the reference kernel timed next to it, which
    # removes most of the drift in machine speed between runs
    relative = [r.seconds / r.reference for r in run.records]
    p50, tail, rate, on_failure, tail_rank = latency_metrics(raw, ok)
    p50_ref, tail_ref, rate_ref, _, _ = latency_metrics(relative, ok)
    n = len(raw)
    metrics = {
        "op_p50_ms": 1000.0 * p50,
        "op_tail_ms": 1000.0 * tail,
        "solved_per_s": rate,
        "fail_share": (n - sum(ok)) / n,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "op_p50_ref": p50_ref,
        "op_tail_ref": tail_ref,
        "solved_per_ref": rate_ref,
    }
    detail = {
        "samples": n,
        "rounds": len({r.round for r in run.records}),
        "reference_ms": 1000.0 * statistics.median(r.reference for r in run.records),
        "op_tail_rank": tail_rank + 1,
        "op_tail_percentile": 100.0 * (tail_rank + 1) / n,
        "op_tail_lower_bound": on_failure,
    }
    return metrics, detail


def per_layer(tracer, run: Run, untraced_s: float) -> dict:
    ops = len(run.records)
    traced_s = sum(r.seconds for r in run.records)
    metrics = {}
    for span in SPANS:
        metrics[f"{span}.calls"] = (tracer.calls[span] / ops, "calls/op")
        metrics[f"{span}.self_ms"] = (1000.0 * tracer.self_s[span] / ops, "ms/op")
    for name in SUMMED:
        metrics[name] = (tracer.summed[name] / ops, "count/op")
    for name in MAXED:
        metrics[name] = (tracer.maxima[name], "count")
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = (sum(tracer.errors[layer].values()) / ops, "errors/op")
    metrics["trace.overhead_share"] = (traced_s / untraced_s - 1.0, "ratio")
    metrics["aak.coefficients_op_share"] = (
        tracer.total_s["aak.AakApproximation.coefficients"] / traced_s, "ratio")
    return metrics


def histogram(values) -> dict:
    return {str(k): v for k, v in sorted(Counter(values).items())}


def input_mix(run: Run) -> dict:
    ops = [r.op for r in run.records]
    return {
        "kinds": histogram(op.kind for op in ops),
        "n": histogram(op.states for op in ops if op.states),
        "d": histogram(op.letters for op in ops if op.letters),
        "degree": histogram(op.length for op in ops if op.kind in ("verify", "intertwining")),
        "svd_length": histogram(op.length for op in ops if op.kind == "svd"),
        "expected_refusal_share": sum(op.expect_refusal for op in ops) / len(ops),
        "non_minimal_share": sum(not op.minimal for op in ops) / len(ops),
    }


def environment() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        commit = head.read_text().strip()
        if commit.startswith("ref: "):
            ref = ROOT / ".git" / commit[5:]
            commit = ref.read_text().strip() if ref.is_file() else commit
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "wfamin" / "__init__.py").is_file():
        fail(f"no wfamin sources under {SOURCE}; run from the root of a checkout")
    env = environment()
    if BLAS_THREADS > env["nproc"]:
        fail(f"BLAS_THREADS={BLAS_THREADS} exceeds the {env['nproc']} available cores")
    sys.path.insert(0, str(SOURCE))
    import wfamin
    import wfamin.cli

    deadline = perf_counter() + DEADLINE_S
    rounds = workloads.round_count(args.workload, args.seconds)
    work = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        setups = [setup_once(args.workload, args.seed, rounds, work)
                  for _ in range(SETUP_REPEATS)]
        setup_s = min(s[0] for s in setups)
        _, docs, schedule = setups[-1]
        tracer = Tracer() if args.trace else None
        # Freeing a large mmapped block raises glibc's dynamic mmap threshold;
        # doing it here puts the allocator in the same state in every run, so
        # the peak resident memory does not depend on the order of the inputs.
        np.ones(ALLOCATOR_PROBE)
        run, untraced_s, controls = closed_loop(wfamin, schedule, docs, work, deadline, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    failed = sum(r.status != "solved" for r in run.records)
    wrong = Counter(r.kind for r in run.records if r.status == "wrong")
    correct = not wrong and bool(controls) and all(controls.values())
    e2e, e2e_detail = end_to_end(run, setup_s, peak_rss_mb)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "loop": "closed, one caller", "rounds_planned": rounds,
        "stopped_at_deadline": run.truncated, "environment": env,
        "input_mix": input_mix(run), "end_to_end": e2e, **e2e_detail,
        "failures_by_kind": dict(Counter(r.kind for r in run.records if r.status == "failed")),
        "wrong_by_kind": dict(wrong), "negative_controls_caught": controls,
    }
    if tracer is None:
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in e2e.items()}
        reported = {name: metrics[name] for name in published("end_to_end")}
    else:
        metrics = per_layer(tracer, run, untraced_s)
        detail["errors_by_type"] = {layer: dict(c) for layer, c in tracer.errors.items() if c}
        detail["absent_spans"] = tracer.absent
        detail["hook_failures"] = dict(tracer.hook_failures)
        reported = {name: metrics[name] for name in published("per_layer")}
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:14.6g} {unit}")
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps({
        "correct": correct, "attempted": len(run.records), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }))
    return 0


def published(section: str) -> list[str]:
    """Metric names BENCHMARK.json lists in a section, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [metric["name"] for metric in spec[section]]


if __name__ == "__main__":
    sys.exit(main())
