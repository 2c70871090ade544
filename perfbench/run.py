"""Solve benchmark: times twcount.parse_dimacs followed by twcount.solve on
one workload and checks every answer.

    python3 perfbench/run.py --workload grid-switch --seed 1 --seconds 30 --trace 0

With --trace 0 it reports the end-to-end metrics of a timed run; with
--trace 1 the per-layer metrics of a traced run (one traced pass over the
suite, then the same copies untraced). The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import reference  # noqa: E402
import suite  # noqa: E402

# Set-up runs in this many fresh processes (the timed one included); the
# median is reported.
SETUP_RUNS = 5
WORKER_TIMEOUT_S = 150


class WorkerFailed(RuntimeError):
    pass


def run_worker(args: argparse.Namespace, mode: str) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
    ]
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S,
            env={**os.environ, "PYTHONHASHSEED": "0"},
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    rank = (9 * len(values) + 9) // 10  # ceil(0.9 n)
    return sorted(values)[rank - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(suite.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        setups = [run_worker(args, "setup") for _ in range(SETUP_RUNS - 1)]
        out = run_worker(args, "traced" if args.trace else "timed")
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(out)

    def base_of_copy(rec: dict) -> list[int]:
        perm = suite.permutation(
            args.workload, args.seed, rec["pass"], rec["base"], out["bases"][rec["base"]]["num_vars"]
        )
        inverse = {new: old for old, new in enumerate(perm)}
        return [inverse[v] for v in rec["backdoor"]]

    verdict = check.check_records(out["bases"], out["records"], base_of_copy)
    for line in verdict.wrong:
        print(f"wrong answer: {line}", file=sys.stderr)
    for error in sorted({r["error"] for r in out["records"] if "error" in r}):
        print(f"solve raised: {error}", file=sys.stderr)
    if args.trace:
        metrics = out["trace"]
    else:
        times = [reference.normalised(r["wall_s"], r["ref_s"]) for r in out["records"]]
        setup = statistics.median(reference.normalised(s["setup_s"], s["setup_ref_s"]) for s in setups)
        metrics = {
            "solves_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "solve_s.p50": {"value": statistics.median(times), "unit": "s"},
            "solve_s.p90": {"value": p90(times), "unit": "s"},
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
        }
        walls = [r["wall_s"] for r in out["records"]]
        print(
            f"wall clock: {len(walls) / sum(walls):.4f} solves/s, p50 {statistics.median(walls):.4f} s, "
            f"p90 {p90(walls):.4f} s, reference loop median {statistics.median(r['ref_s'] for r in out['records']):.6f} s",
            file=sys.stderr,
        )
    result = {
        "correct": not verdict.wrong,
        "attempted": len(out["records"]),
        "failed": verdict.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
