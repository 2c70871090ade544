"""Adjudicate exact wall treewidth against the floor(r/2) lower bound.

The figure folklore says the 8-wall has treewidth 4; the guaranteed bound is
only floor(r/2). This script computes the exact value for small walls so the
number is measured, not assumed.

Usage: python scripts/wall_treewidth.py [max_r]
"""

import json
import sys
import time

sys.path.insert(0, "src")

from twcount.pace import validate_decomposition
from twcount.treewidth import degeneracy, exact_treewidth, minor_min_width, upper_bound_heuristic
from twcount.walls import make_wall


def main() -> int:
    max_r = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    for r in range(2, max_r + 1):
        g, _ = make_wall(r)
        start = time.monotonic()
        width, elimination = exact_treewidth(g, vertex_cap=r * r)
        elapsed = time.monotonic() - start
        assert validate_decomposition(g, elimination.decomposition()).ok
        print(
            json.dumps(
                {
                    "r": r,
                    "vertices": g.num_vertices(),
                    "exact": width,
                    "floor_half_r": r // 2,
                    "degeneracy": degeneracy(g),
                    "mmw": minor_min_width(g),
                    "min_fill": upper_bound_heuristic(g)[0],
                    "seconds": round(elapsed, 3),
                },
                sort_keys=True,
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
