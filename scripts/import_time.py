"""Print what importing the solve path costs, module by module, and check
that nothing outside it is loaded.

Runs `python -X importtime -c "import twcount.counting"` in 5 fresh
interpreters with PYTHONDONTWRITEBYTECODE=1 and src/ first on the path, as
the benchmark's worker imports twcount, and prints each twcount module's
median self and cumulative import time in ms. Where no bytecode cache sits
under src/, that time includes compiling the module from source.

The solve path is twcount, formula, graphs, treewidth, backdoor and counting.
The script exits 1 if any other twcount module is loaded (walls and pace
among them), or the standard library's dataclasses, which the solve path's
records do without.

Usage: python scripts/import_time.py
"""

import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 5
SOLVE_PATH = ("twcount", "twcount.formula", "twcount.graphs", "twcount.treewidth", "twcount.backdoor", "twcount.counting")


# The import, then the twcount modules (and dataclasses) it left in
# sys.modules: an import made through importlib.import_module loads a module
# that -X importtime never lists.
PROGRAM = (
    "import twcount.counting; import sys; "
    "print(*(m for m in sys.modules if m.split('.')[0] == 'twcount' or m == 'dataclasses'))"
)


def _one_run(env: dict) -> tuple[set[str], dict[str, tuple[float, float]]]:
    """The twcount modules (and dataclasses) one fresh import loads, and
    the (self ms, cumulative ms) -X importtime reports for each it lists."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", PROGRAM],
        env=env, capture_output=True, text=True, check=True,
    )
    times = {}
    for line in proc.stderr.splitlines():
        # "import time:  self [us] | cumulative | imported package"
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cum_us, name = (part.strip() for part in line[len("import time:"):].split("|"))
        if (name.split(".")[0] == "twcount" or name == "dataclasses") and self_us.isdigit():
            times[name] = (int(self_us) / 1000, int(cum_us) / 1000)
    return set(proc.stdout.split()), times


def main() -> int:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    runs = [_one_run(env) for _ in range(RUNS)]
    loaded = sorted(set().union(*(modules for modules, _ in runs)))
    print(f"{'module':<20} {'self ms':>8} {'cum ms':>8}  (medians of {RUNS} fresh imports)")
    for name in loaded:
        timed = [times[name] for _, times in runs if name in times]
        if not timed:
            print(f"{name:<20} {'-':>8} {'-':>8}  (loaded, not timed)")
            continue
        self_ms = statistics.median(s for s, _ in timed)
        cum_ms = statistics.median(c for _, c in timed)
        print(f"{name:<20} {self_ms:8.2f} {cum_ms:8.2f}")
    outside = [name for name in loaded if name not in SOLVE_PATH]
    if outside:
        print("loaded outside the solve path: " + ", ".join(outside))
        return 1
    print("only the solve path loaded, and not dataclasses")
    return 0


if __name__ == "__main__":
    sys.exit(main())
