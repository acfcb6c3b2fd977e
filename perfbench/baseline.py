"""Run the benchmark over several seeds and summarize it as a baseline.

    python3 perfbench/baseline.py --out perfbench/baseline.json

For every workload of BENCHMARK.json it runs ``run.py`` for seeds 1-10
untraced, then once traced with seed 1, each for ``run_seconds``, and
records per metric the median, the first and third quartiles and their
distance as a share of the median (the spread).  Failures are summed over the runs, by kind and, from the traced
run, by exception type, so that known defects stay visible.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))
TRACE_SEED = 1


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600,
                          check=True)
    *_, detail_line, result_line = done.stdout.strip().splitlines()
    return json.loads(result_line), json.loads(detail_line)["detail"]


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "runs": len(values)}


def baseline(workload: str, seconds: int) -> dict:
    end_to_end, kinds, wrong = {}, Counter(), Counter()
    attempted = failed = 0
    correct = True
    for seed in SEEDS:
        result, detail = run_once(workload, seed, seconds, 0)
        print(f"{workload} seed {seed}: {json.dumps(result['metrics'])}", file=sys.stderr)
        for name, value in detail["end_to_end"].items():
            end_to_end.setdefault(name, []).append(value)
        kinds.update(detail["failures_by_kind"])
        wrong.update(detail["wrong_by_kind"])
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
    result, detail = run_once(workload, TRACE_SEED, seconds, 1)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_share_by_kind": {kind: count / attempted for kind, count in kinds.most_common()},
        "wrong_by_kind": dict(wrong),
        "environment": detail["environment"],
        "input_mix_last_run": detail["input_mix"],
        "end_to_end": {name: summary(values) for name, values in end_to_end.items()},
        "per_layer": {name: metric["value"] for name, metric in result["metrics"].items()},
        "errors_by_type": detail["errors_by_type"],
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    report = {
        "seeds": SEEDS, "trace_seed": TRACE_SEED, "seconds": seconds,
        "workloads": {w["name"]: baseline(w["name"], seconds) for w in spec["workloads"]},
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
