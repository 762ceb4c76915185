#!/usr/bin/env python3
"""Run every verification suite and print one line per suite.

Equivalent to `tnncompact verify all`; exposed as a script so the whole
battery can be driven with custom scales, e.g.

    python scripts/run_verification.py --n 3 --seeds 5 --samples 100
"""

import argparse
import sys

from tnncompact.verify import ConfigError, VerifyConfig, run_all


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--samples", type=int, default=100)
    ap.add_argument("--base-seed", type=int, default=20240)
    args = ap.parse_args(argv)
    try:
        cfg = VerifyConfig(
            n=args.n, seeds=args.seeds, samples=args.samples, base_seed=args.base_seed
        )
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    reports = run_all(cfg)
    for rep in reports:
        print(rep.line())
        for f in rep.failures[:5]:
            print("    witness:", f)
    return 0 if all(r.ok for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
