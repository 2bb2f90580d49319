#!/usr/bin/env python3
"""Compare the report files of this checkout against those of a git ref.

    python3 scripts/cmp_reports.py REF

Exports REF's tree into a temporary directory (git archive), writes each
benchmark workload's seeded corpus once, runs the workload's CLI command
(from perfbench/workloads.py) with both trees' sources, and compares every
report file byte for byte.  Exits 1 when any file differs, is missing on
one side, or a command fails.
"""

from __future__ import annotations

import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from evcharge.harness.synthetic import write_corpus  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SEED = 1


def export_tree(ref: str, dest: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_command(src: Path, argv: list[str]) -> None:
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-m", "evcharge.harness.cli"] + argv, env=env,
                   check=True, stdout=subprocess.DEVNULL)


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    ref = sys.argv[1]
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        old_tree = tmp / "ref"
        old_tree.mkdir()
        export_tree(ref, old_tree)
        trees = {"ref": old_tree / "src", "new": ROOT / "src"}
        for name, workload in WORKLOADS.items():
            corpus = tmp / f"{name}.csv"
            write_corpus(str(corpus), workload.model, workload.days, SEED)
            outs = {side: tmp / name / side for side in trees}
            try:
                for side, src in trees.items():
                    run_command(src, workload.argv(str(corpus), str(outs[side])))
            except subprocess.CalledProcessError as exc:
                print(f"{name}: command failed: {exc}")
                differ += 1
                continue
            files = sorted({p.name for out in outs.values() for p in out.iterdir()})
            for fname in files:
                a, b = outs["ref"] / fname, outs["new"] / fname
                if not (a.is_file() and b.is_file()):
                    verdict = "MISSING on one side"
                elif filecmp.cmp(a, b, shallow=False):
                    verdict = f"identical ({a.stat().st_size} bytes)"
                else:
                    verdict = "DIFFERS"
                differ += not verdict.startswith("identical")
                print(f"{name}: {fname}: {verdict}")
    print("all report files identical" if not differ else f"{differ} report file(s) differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
