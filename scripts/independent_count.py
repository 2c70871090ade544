"""Check the count of a `twcount count` report against an independent counter.

Reads a DIMACS CNF file, asserts that each clause line ends in 0, counts its
models with the DPLL counter of `perfbench/check.py`, which shares no code
with twcount, and compares that count with the "count" of the JSON report
`twcount count` wrote for the same file. The script reads
`perfbench/check.py` and changes nothing. It prints both counts and exits 1
if they differ.

Usage: python scripts/independent_count.py FILE.cnf REPORT.json
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from check import ModelCounter  # noqa: E402  independent DPLL counter


def independent_count(text: str) -> int:
    rows = [line.split() for line in text.splitlines() if line.strip() and line[0] != "c"]
    assert all(row[-1] == "0" for row in rows[1:]), "a clause line does not end in 0"
    return ModelCounter().count(int(rows[0][2]), [tuple(map(int, row[:-1])) for row in rows[1:]])


def main(cnf: str, report: str) -> int:
    expected = str(independent_count(Path(cnf).read_text()))
    count = json.loads(Path(report).read_text())["count"]
    print(cnf, "count", count, "independent count", expected)
    return 0 if count == expected else 1


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
