#!/usr/bin/env python3
"""Full experiment pass on one corpus: simulate, alpha sweep, rate sweep.

Generates the default descending corpus when no --prices file is given, so
the whole pipeline runs self-contained.  Everything lands in --out.
"""

import argparse
import os
import sys

from evcharge.harness.cli import main as evcharge
from evcharge.harness.config import ExperimentConfig
from evcharge.harness.synthetic import write_corpus


def main() -> int:
    defaults = ExperimentConfig()
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--prices", default=None, help="existing CSV (default: generate one)")
    ap.add_argument("--out", default="reports")
    ap.add_argument("--days", type=int, default=10)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--alpha-grid", default=",".join(map(repr, defaults.alpha_grid)))
    ap.add_argument("--rate-grid", default=",".join(map(repr, defaults.rate_grid)))
    args = ap.parse_args()

    os.makedirs(args.out, exist_ok=True)
    prices = args.prices
    if prices is None:
        prices = write_corpus(os.path.join(args.out, "corpus.csv"), "descending",
                              args.days, args.seed)
        print(f"wrote {prices}")

    for argv in (
        ["simulate", "--prices", prices, "--out", args.out],
        ["sweep", "--prices", prices, "--alpha-grid", args.alpha_grid, "--out", args.out],
        ["sweep", "--prices", prices, "--rate-grid", args.rate_grid, "--out", args.out],
    ):
        code = evcharge(argv)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
