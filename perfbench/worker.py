"""The process that runs the timed (or traced) solves of one benchmark run.

It imports twcount from the checkout's src/, builds the suite, and solves
relabelled copies in a closed loop: one thread, the next parse + solve
starting when the previous one returns. Each solve's wall time comes with
the host's speed around and during it (reference.HostClock). It prints one
JSON object with the set-up time, the per-solve records and the peak
resident memory; answers are checked afterwards by run.py, in another
process.

Usage: python3 perfbench/worker.py --workload W --seed N --seconds S --mode setup|timed|traced
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import reference
import suite

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# p90 needs at least ten solves beyond it.
MIN_SOLVES = 100


class Program:
    """The two entry points of twcount the benchmark calls, imported from
    the checkout's src/ and nowhere else."""

    def __init__(self) -> None:
        sys.path.insert(0, str(SRC))
        import twcount
        from twcount import counting, formula

        if not Path(twcount.__file__).resolve().is_relative_to(SRC):
            raise ImportError(f"twcount imported from {twcount.__file__}, not from {SRC}")
        self.counting = counting
        self.formula = formula

    def solve(self, spec: suite.Spec, text: str) -> dict:
        """Parse and solve one copy; a raised exception is a failed solve."""
        try:
            res = self.counting.solve(
                self.formula.parse_dimacs(text), spec.t, spec.k,
                tw_threshold=spec.tw_threshold, vertex_cap=suite.VERTEX_CAP,
            )
        except Exception as exc:  # the loop goes on; run.py counts it as failed
            return {"outcome": "error", "error": repr(exc), "count": None, "backdoor": None}
        return {
            "outcome": res.outcome,
            "count": res.count,
            "backdoor": list(res.backdoor) if res.backdoor is not None else None,
        }


class Instances:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.specs = suite.WORKLOADS[workload]
        self.bases = [suite.generate(spec) for spec in self.specs]

    def make_pass(self, p: int) -> list[tuple[int, str]]:
        order = suite.pass_order(self.workload, self.seed, p, len(self.specs))
        return [
            (i, suite.copy_text(self.workload, self.seed, p, i, *self.bases[i])) for i in order
        ]

    def base_records(self) -> list[dict]:
        return [
            {
                "label": spec.label, "t": spec.t, "k": spec.k,
                "grid_n": spec.params[0] if spec.family == "grid-x" else None,
                "num_vars": num_vars, "clauses": [list(c) for c in clauses],
            }
            for spec, (num_vars, clauses) in zip(self.specs, self.bases)
        ]


def run_pass(clock: reference.HostClock, program: Program, inst: Instances, p: int, batch,
             records: list[dict]) -> float:
    """Solve one pass; returns its wall seconds."""
    start = time.perf_counter()
    for i, text in batch:
        rec, wall, ref = clock.measure(program.solve, inst.specs[i], text)
        rec.update({"base": i, "pass": p, "wall_s": wall, "ref_s": ref})
        records.append(rec)
    return time.perf_counter() - start


def set_up(workload: str, seed: int) -> tuple[Program, Instances, list[tuple[int, str]]]:
    """Import twcount, generate the suite and make the first pass's copies."""
    program = Program()
    inst = Instances(workload, seed)
    return program, inst, inst.make_pass(0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(suite.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    args = ap.parse_args(argv)

    clock = reference.HostClock()
    try:
        (program, inst, batch), setup_s, setup_ref_s = clock.measure(set_up, args.workload, args.seed)
    except ImportError as exc:
        print(f"cannot import twcount: {exc}", file=sys.stderr)
        return 2
    out: dict = {"setup_s": setup_s, "setup_ref_s": setup_ref_s}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    records: list[dict] = []
    if args.mode == "timed":
        wall_s = 0.0
        p = 0
        while True:
            wall_s += run_pass(clock, program, inst, p, batch, records)
            p += 1
            if wall_s >= args.seconds and len(records) >= MIN_SOLVES:
                break
            batch = inst.make_pass(p)  # outside the clock
    else:
        import spans

        tracer = spans.Tracer()
        with tracer.installed():
            run_pass(clock, program, inst, 0, batch, records)
        traced = list(records)
        # The same copies again, untraced, so that the difference in time is
        # the tracing alone. twcount keeps nothing between solve calls; a
        # cache that did would make the overhead read high, not low.
        run_pass(clock, program, inst, 0, batch, records)
        out["trace"] = tracer.metrics(records[len(traced):], traced)
        path = ROOT / "perfbench" / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path)
        print(f"spans written to {path.relative_to(ROOT)}", file=sys.stderr)
    out["records"] = records
    out["bases"] = inst.base_records()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
