#!/usr/bin/env python3
"""Print the cell census for small ranks: counts per stratum, dimension
multisets, and the alternating sum over cells (a regression constant).

    python scripts/run_census.py --nmax 4

--nmax must lie in 2..4: the n = 5 census has 43,399,521 cells, out of
reach for a full enumeration.  Outside that range the script exits 2 with
one `error: …` line before it enumerates anything.
"""

import argparse
import sys
from collections import Counter

from tnncompact.cells import enumerate_cells

NMAX = 4


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nmax", type=int, default=3)
    args = ap.parse_args(argv)
    if not 2 <= args.nmax <= NMAX:
        print(f"error: --nmax must be in 2..{NMAX}, got {args.nmax}", file=sys.stderr)
        return 2
    for n in range(2, args.nmax + 1):
        cells = enumerate_cells(n)
        per_j = Counter(tuple(sorted(label.J.J)) for label, _ in cells)
        dims = Counter(d for _, d in cells)
        euler = sum((-1) ** d for _, d in cells)
        print(f"n={n}: {len(cells)} cells, alternating sum {euler}")
        for js, count in sorted(per_j.items()):
            print(f"  J={set(js) if js else '{}'}: {count} cells")
        print("  dims:", dict(sorted(dims.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
