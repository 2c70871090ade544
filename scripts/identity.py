"""Print the answers of 209 fixed solves and one digest of them.

Two commits that print the same digest give the same outcome, count, mode,
backdoor, branch widths and note on every one of these solves:

- seeds 1-2 x passes 0-1 of the benchmark's three workloads, each copy
  counted from its DIMACS text as `perfbench/run.py` counts it (172);
- the t = 3 planted bases gen_planted(n, 3, k, s), (n, s) in (16, 0),
  (24, 1), (30, 2) and k = 1..3, through DIMACS at threshold 3 (9);
- the benchmark's grid-switch bases at threshold 8 and its planted bases at
  threshold 4, the default-threshold path (28).

Every solve uses the benchmark's vertex cap. The script reads
`perfbench/suite.py` and changes nothing. It exits 1 if any solve raises.

Usage: python scripts/identity.py
"""

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import suite  # noqa: E402  the benchmark's frozen bases and seeded copies
from twcount import counting, formula, generators  # noqa: E402


def _dimacs(num_vars: int, clauses) -> str:
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    lines.extend(" ".join(map(str, c)) + " 0" for c in clauses)
    return "\n".join(lines) + "\n"


def _solves():
    """(label, DIMACS text, t, k, tw_threshold) of each solve, in a fixed order."""
    bases = {w: [suite.generate(spec) for spec in specs] for w, specs in suite.WORKLOADS.items()}
    for seed in (1, 2):
        for pass_idx in (0, 1):
            for w, specs in suite.WORKLOADS.items():
                for i in suite.pass_order(w, seed, pass_idx, len(specs)):
                    spec = specs[i]
                    text = suite.copy_text(w, seed, pass_idx, i, *bases[w][i])
                    yield f"{w} seed={seed} pass={pass_idx} {spec.label}", text, spec.t, spec.k, spec.tw_threshold
    for n, s in ((16, 0), (24, 1), (30, 2)):
        for k in (1, 2, 3):
            text = formula.write_dimacs(generators.gen_planted(n, 3, k, s)[0])
            yield f"planted t=3 n={n} k={k} s={s}", text, 3, k, 3
    for w, threshold in (("grid-switch", 8), ("planted", 4)):
        for spec, base in zip(suite.WORKLOADS[w], bases[w]):
            yield f"{spec.label} threshold={threshold}", _dimacs(*base), spec.t, spec.k, threshold


def main() -> int:
    lines, failed = [], 0
    for label, text, t, k, threshold in _solves():
        try:
            r = counting.solve(formula.parse_dimacs(text), t, k, tw_threshold=threshold, vertex_cap=suite.VERTEX_CAP)
            line = f"{label}: {r.outcome} {r.count} {r.mode} {r.backdoor} {r.branch_widths} {r.note}"
        except Exception as exc:  # reported, and the exit code says so
            failed += 1
            line = f"{label}: raised {type(exc).__name__}: {exc}"
        print(line)
        lines.append(line)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"{len(lines)} solves, {failed} raised, sha256 {digest}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
