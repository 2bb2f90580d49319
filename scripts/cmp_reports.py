#!/usr/bin/env python3
"""Compare the outputs of this checkout against those of a git ref.

    python3 scripts/cmp_reports.py REF

Exports REF's tree into a temporary directory (git archive), runs each
case below with both trees' sources on the same seeded corpora, and
compares every report file byte for byte, or the stdout of `adversary`
and `solve-ratio`.  This list is the one list of the cases.

For each seed in SEEDS (1 and 2):

- each benchmark workload's command (perfbench/workloads.py) on its
  own corpus;
- on the simulate workload's regime corpus:
  - `simulate` over every policy kind but `int` at capacities 7/2 (`rat`
    fans out over 7 sub-problems), 240/13 (each price fans out over 13
    of 240 sub-problems, so a group of sub-problems in one state splits;
    the rate sweep reaches this fan-out but reports no per-slot charges)
    and 1/2 (`rat` is `fixed` there);
  - `simulate --policies fixed,int,rat --capacity 1`, where `int` and
    `rat` are `fixed` too;
  - `simulate` at capacity 24 over only capped policies (`int,rhc:0,naive`)
    and over only uncapped ones (`fixed,adaptive,never`), so that each
    episode's optimum path is shared within a single kind;
  - `sweep --rate-grid 24,48`, whose capacities 1 and 1/2 run `fixed`
    against the unlimited-rate optimum;
  - `sweep --alpha-grid 20,30,50,100`, whose grid points lie on both
    sides of `alpha*` (29.6 p_min on the seed-1 corpus), so the
    closed-form `pi*` branch runs as well as the root one;
- the same corpus with every price times 2**-1000, 2**950 and 2**-1020
  (exact in floats, so only the units change): `simulate` at capacities
  7/2 and 240/13 over `fixed,adaptive,rat,rhc:0,naive,never`, `simulate`
  at capacity 24 over the default policies, `sweep --rate-grid
  0.7,0.9,1.1,1.25,1.3` (the rate workload's grid) and `sweep --rate-grid
  24,48`.  p_min's units then leave the float range, so the capped
  optimum takes each value from its definition, one fsum over its terms,
  from the first slot, and so does the capacity-1 tracker that the
  uncapped optimum scales by c.  Against a REF older than that fallback,
  the 2**-1020 cases at 240/13 and of the rate sweep fail on the REF side
  (negative shift count);
- on the descending workload's corpus, `sweep --alpha-grid 2,7,20` with a
  --config file that sets capacity 7/2, and with one that sets 240/13,
  so the capped optimum's fractional fill and unmet terms are taken while
  its kept set churns on every slot.

Once:

- `adversary` at (p_min, p_max, alpha) = (1, 5, 5): without
  --rate-limited, and with it at whole capacities 1, 3 and 24;
- `adversary` at (1, 5, 5) times 2**-40 and capacity 5/2, without and
  with --rate-limited: the same descent in another price unit;
- `adversary` at (1, 5, 1e10) and (1, 5, 1e11) with 1000 steps, whose
  1000 levels fit at the first try (at 1e12 they do not), so a descent
  that fits keeps its bytes;
- `solve-ratio` on each branch of the solver (closed form, root,
  alpha == p_min, a flat band) and at the edges of its start bounds: a
  threshold just above a narrow band (`--p-max 1.01 --alpha 2` on a unit
  floor), one alpha on each side of the 1-5 band's threshold (15.5 and
  15.55; it is about 15.535), and a threshold far above a wide band
  (`--p-min 0.01 --p-max 100 --alpha 1000000`);
- commands that must fail, whose exit code, stdout and stderr are
  compared: `solve-ratio` with a zero p_min, inverted bounds, alpha below
  p_min, a zero capacity and a p_max * capacity that overflows (exit 1);
  `adversary` with alpha == p_min, and at --pi 1 with alpha inside the
  band (exit 1); `simulate` on a header-only price file (exit 1) and on
  one with a bad timestamp (exit 2); and on the seed-1 regime corpus
  `sweep --rate-grid 0.7,0.00006` (a factor whose denominator is above
  the bound) and `sweep --rate-grid 0.7,-1` (exit 1 each, after a good
  first factor).

Exits 1 when any output differs, is missing on one side, or a command
fails (a command that must fail: exits otherwise than expected); a
failed report command is named with the tree it failed in.  Under each csv report that differs
it prints, for each (policy, column) whose cells differ, how many cells
differ and the largest absolute difference between them, so that an
intended change of bits can be read cell by cell.  In the long slots.csv
table the metric named on the row stands for the column.

Blind spot: the sub-problems that the distributor breaks a tie between
are symmetric, so no report shows a change in its tie-break;
tests/test_online.py::test_distributor_and_adaptive_match_references_bit_for_bit
catches one.
"""

from __future__ import annotations

import csv
import filecmp
import os
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from evcharge.harness.synthetic import write_corpus  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SEEDS = (1, 2)
POLICY_PATHS = "fixed,adaptive,rat,never,rhc:3,naive"
POLICY_CAPACITIES = {"7-2": "7/2", "240-13": "240/13", "1-2": "1/2"}
UNIT_CAPACITY_POLICIES = "fixed,int,rat"  # `int` runs only at whole capacities
ONE_KIND_POLICIES = {"capped": "int,rhc:0,naive", "uncapped": "fixed,adaptive,never"}
NO_LIMIT_RATE_GRID = "24,48"  # capacity 24 becomes 1 and 1/2
CLOSED_FORM_ALPHA_GRID = "20,30,50,100"  # root branch at 20, closed form at 30 and up
FRACTIONAL_ALPHA_GRID = "2,7,20"
FRACTIONAL_ALPHA_CAPACITIES = {"7-2": "7/2", "240-13": "240/13"}  # set through --config
PRICE_SCALES = {"2^-1000": 2.0**-1000, "2^950": 2.0**950,  # powers of two: every product is exact
                "2^-1020": 2.0**-1020}
SCALED_POLICIES = "fixed,adaptive,rat,rhc:0,naive,never"
SCALED_POLICY_CAPACITIES = {"7-2": "7/2", "240-13": "240/13"}
SCALED_RATE_GRID = "0.7,0.9,1.1,1.25,1.3"
SCALED_ADVERSARY_SPEC = ["--p-min", repr(2.0**-40), "--p-max", repr(5 * 2.0**-40),
                         "--alpha", repr(5 * 2.0**-40), "--capacity", "5/2"]
STDOUT_COMMANDS = {
    "adversary no-limit": ["adversary", "--p-min", "1", "--p-max", "5", "--alpha", "5",
                           "--steps", "1000"],
    "adversary rate-limited": ["adversary", "--p-min", "1", "--p-max", "5", "--alpha", "5",
                               "--capacity", "3", "--steps", "200", "--rate-limited"],
    "adversary rate-limited c=24": ["adversary", "--p-min", "1", "--p-max", "5", "--alpha", "5",
                                    "--capacity", "24", "--steps", "50", "--rate-limited"],
    "adversary rate-limited c=1": ["adversary", "--p-min", "1", "--p-max", "5", "--alpha", "5",
                                   "--capacity", "1", "--rate-limited"],
    # prices and alpha times 2**-40: the descent's rows must not depend on
    # the price unit
    "adversary no-limit times 2^-40": ["adversary", *SCALED_ADVERSARY_SPEC, "--steps", "1000"],
    "adversary rate-limited times 2^-40": ["adversary", *SCALED_ADVERSARY_SPEC, "--steps", "1000",
                                           "--rate-limited"],
    # large alphas at which 1000 levels still fit without halving
    "adversary alpha 1e10": ["adversary", "--p-min", "1", "--p-max", "5", "--alpha", "1e10",
                             "--steps", "1000"],
    "adversary alpha 1e11": ["adversary", "--p-min", "1", "--p-max", "5", "--alpha", "1e11",
                             "--steps", "1000"],
    "solve-ratio closed-form": ["solve-ratio", "--p-min", "1", "--p-max", "5", "--alpha", "20",
                                "--capacity", "3/2"],
    "solve-ratio root": ["solve-ratio", "--p-min", "1", "--p-max", "5", "--alpha", "2",
                         "--capacity", "24"],
    "solve-ratio alpha-at-p-min": ["solve-ratio", "--p-min", "1", "--p-max", "5", "--alpha", "1",
                                   "--capacity", "24"],
    "solve-ratio flat-band": ["solve-ratio", "--p-min", "3", "--p-max", "3", "--alpha", "10",
                              "--capacity", "24"],
    # the edges of the start bounds: a threshold just above a narrow band, one
    # alpha on each side of the 1-5 band's threshold (about 15.535), and a
    # threshold far above a wide band
    "solve-ratio narrow-band": ["solve-ratio", "--p-min", "1", "--p-max", "1.01", "--alpha", "2"],
    "solve-ratio below-threshold": ["solve-ratio", "--p-min", "1", "--p-max", "5", "--alpha", "15.5"],
    "solve-ratio above-threshold": ["solve-ratio", "--p-min", "1", "--p-max", "5",
                                    "--alpha", "15.55"],
    "solve-ratio wide-band": ["solve-ratio", "--p-min", "0.01", "--p-max", "100",
                              "--alpha", "1000000"],
}
BAD_PRICE_FILES = {"header-only.csv": "timestamp,price\n",
                   "bad-timestamp.csv": "timestamp,price\n2021-03-01 17:00,2.0\n2021-03-01 17:5x,2.0\n"}


def error_commands(tmp: Path, corpus: str) -> dict[str, tuple[int, list[str]]]:
    """label: (the exit code both trees must give, argv), reading the
    BAD_PRICE_FILES written into tmp and the price file corpus."""
    band = ["--p-min", "1", "--p-max", "5"]
    out = ["--out", str(tmp / "error-out")]

    def simulate(fname):
        return ["simulate", "--prices", str(tmp / fname), *out]

    return {
        "solve-ratio zero p-min": (1, ["solve-ratio", "--p-min", "0", "--p-max", "5",
                                       "--alpha", "5"]),
        "solve-ratio inverted band": (1, ["solve-ratio", "--p-min", "5", "--p-max", "1",
                                          "--alpha", "5"]),
        "solve-ratio alpha below p-min": (1, ["solve-ratio", *band, "--alpha", "0.5"]),
        "solve-ratio zero capacity": (1, ["solve-ratio", *band, "--alpha", "5", "--capacity", "0"]),
        "solve-ratio overflowing p-max": (1, ["solve-ratio", "--p-min", "1", "--p-max", "1e308",
                                              "--alpha", "5", "--capacity", "24"]),
        "adversary alpha at p-min": (1, ["adversary", *band, "--alpha", "1"]),
        "adversary pi 1 inside band": (1, ["adversary", *band, "--alpha", "5", "--pi", "1"]),
        "simulate header-only": (1, simulate("header-only.csv")),
        "simulate bad timestamp": (2, simulate("bad-timestamp.csv")),
        "sweep rate factor past the denominator bound": (
            1, ["sweep", "--prices", corpus, "--rate-grid", "0.7,0.00006", *out]),
        "sweep negative rate factor": (1, ["sweep", "--prices", corpus, "--rate-grid", "0.7,-1", *out]),
    }


def write_scaled(src: str, dest: Path, factor: float) -> str:
    """Copy the price file src to dest with every price multiplied by factor."""
    with open(src, encoding="utf-8") as fh:
        header, *rows = fh.read().splitlines()
    cells = (row.rsplit(",", 1) for row in rows)
    lines = [header] + [f"{stamp},{float(price) * factor!r}" for stamp, price in cells]
    dest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(dest)


def export_tree(ref: str, dest: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_cli(src: Path, argv: list[str], **kwargs) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, "-m", "evcharge.harness.cli"] + argv, env=env, **kwargs)


def run_command(src: Path, argv: list[str]) -> bytes:
    """The command's stdout."""
    return run_cli(src, argv, check=True, stdout=subprocess.PIPE).stdout


def cell_diffs(a: Path, b: Path) -> list[str]:
    """One line per (policy, column) whose cells differ between two csv
    files: the number of cells and the largest absolute difference of the
    numeric ones.  A table without a policy column keys its rows by "-"."""
    with open(a, newline="", encoding="utf-8") as fa, open(b, newline="", encoding="utf-8") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if [len(r) for r in rows_a] != [len(r) for r in rows_b] or rows_a[:1] != rows_b[:1]:
        return ["    header or table shape differs"]
    header = rows_a[0]
    policy = header.index("policy") if "policy" in header else None
    metric = header.index("metric") if "metric" in header else None
    stats: dict[tuple[str, str], list] = {}  # key: [cells, largest difference, non-numeric cells]
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        for j, (x, y) in enumerate(zip(row_a, row_b)):
            if x == y:
                continue
            column = row_a[metric] if metric is not None and header[j] == "value" else header[j]
            entry = stats.setdefault(("-" if policy is None else row_a[policy], column), [0, 0.0, 0])
            entry[0] += 1
            try:
                entry[1] = max(entry[1], abs(float(x) - float(y)))
            except ValueError:
                entry[2] += 1
    lines = []
    for (who, column), (cells, largest, text) in sorted(stats.items()):
        note = f", {text} not numeric" if text else ""
        lines.append(f"    {who} {column}: {cells} cell(s), largest difference {largest:.3g}{note}")
    return lines


def compare_command(tmp: Path, trees: dict, label: str, argv) -> int:
    """Run `argv(out_dir)` with both trees; the number of report files that
    differ (a failed command counts as one)."""
    outs = {side: tmp / label.replace(" ", "-") / side for side in trees}
    failed = []
    for side, src in trees.items():
        try:
            run_command(src, argv(str(outs[side])))
        except subprocess.CalledProcessError as exc:
            failed.append(f"{side} (exit {exc.returncode})")
    if failed:
        print(f"{label}: command failed in tree {' and '.join(failed)}")
        return 1
    differ = 0
    for fname in sorted({p.name for out in outs.values() for p in out.iterdir()}):
        a, b = outs["ref"] / fname, outs["new"] / fname
        if not (a.is_file() and b.is_file()):
            verdict = "MISSING on one side"
        elif filecmp.cmp(a, b, shallow=False):
            verdict = f"identical ({a.stat().st_size} bytes)"
        else:
            verdict = "DIFFERS"
        differ += not verdict.startswith("identical")
        print(f"{label}: {fname}: {verdict}")
        if verdict == "DIFFERS" and fname.endswith(".csv"):
            for line in cell_diffs(a, b):
                print(line)
    return differ


def compare_stdout(trees: dict, label: str, argv) -> int:
    """Run `argv(side)` with both trees; 1 if their stdout differs or a
    command fails, else 0."""
    try:
        outs = {side: run_command(src, argv(side)) for side, src in trees.items()}
    except subprocess.CalledProcessError as exc:
        print(f"{label}: command failed: {exc}")
        return 1
    same = outs["ref"] == outs["new"]
    print(f"{label}: stdout: " + (f"identical ({len(outs['ref'])} bytes)" if same else "DIFFERS"))
    return not same


def compare_failure(trees: dict, label: str, code: int, argv: list[str]) -> int:
    """Run argv with both trees; 0 if both exit with `code` and print the
    same stdout and stderr, else 1."""
    ref, new = ((p.returncode, p.stdout, p.stderr)
                for p in (run_cli(src, argv, capture_output=True) for src in trees.values()))
    if ref != new:
        verdict = "DIFFERS"
    elif new[0] != code:
        verdict = f"EXPECTED exit {code}"
    else:
        verdict = f"identical ({len(new[2])} bytes of stderr)"
    print(f"{label}: exit {ref[0]} and {new[0]}: {verdict}")
    return not verdict.startswith("identical")


def policy_paths_argv(corpus: str, capacity: str, policies: str = POLICY_PATHS):
    return lambda out: ["simulate", "--prices", corpus, "--policies", policies,
                        "--capacity", capacity, "--out", out]


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
        for seed in SEEDS:
            for name, workload in WORKLOADS.items():
                corpus = str(tmp / f"{name}-{seed}.csv")
                write_corpus(corpus, workload.model, workload.days, seed)
                differ += compare_command(tmp, trees, f"{name} seed {seed}",
                                          partial(workload.argv, corpus))
            corpus = str(tmp / f"simulate-regime-{seed}.csv")  # the regime corpus, written above
            for tag, capacity in POLICY_CAPACITIES.items():
                differ += compare_command(tmp, trees, f"simulate-{tag} seed {seed}",
                                          policy_paths_argv(corpus, capacity))
            differ += compare_command(tmp, trees, f"simulate-int-1 seed {seed}",
                                      policy_paths_argv(corpus, "1", UNIT_CAPACITY_POLICIES))
            for kind, policies in ONE_KIND_POLICIES.items():
                differ += compare_command(tmp, trees, f"simulate-{kind}-only seed {seed}",
                                          policy_paths_argv(corpus, "24", policies))
            differ += compare_command(tmp, trees, f"sweep-rate-no-limit seed {seed}",
                                      lambda out: ["sweep", "--prices", corpus, "--rate-grid",
                                                   NO_LIMIT_RATE_GRID, "--out", out])
            differ += compare_command(tmp, trees, f"sweep-alpha-closed-form seed {seed}",
                                      lambda out: ["sweep", "--prices", corpus, "--alpha-grid",
                                                   CLOSED_FORM_ALPHA_GRID, "--out", out])
            for tag, factor in PRICE_SCALES.items():
                scaled = write_scaled(corpus, tmp / f"simulate-regime-{seed}-{tag}.csv", factor)
                for cap_tag, capacity in SCALED_POLICY_CAPACITIES.items():
                    differ += compare_command(tmp, trees, f"simulate-times-{tag}-{cap_tag} seed {seed}",
                                              policy_paths_argv(scaled, capacity, SCALED_POLICIES))
                differ += compare_command(tmp, trees, f"simulate-times-{tag}-24 seed {seed}",
                                          lambda out, scaled=scaled: ["simulate", "--prices", scaled,
                                                                      "--capacity", "24", "--out", out])
                for grid_tag, grid in (("", SCALED_RATE_GRID), ("-no-limit", NO_LIMIT_RATE_GRID)):
                    differ += compare_command(tmp, trees, f"sweep-rate{grid_tag}-times-{tag} seed {seed}",
                                              lambda out, scaled=scaled, grid=grid: [
                                                  "sweep", "--prices", scaled, "--rate-grid", grid,
                                                  "--out", out])
            descending = str(tmp / f"sweep-alpha-descending-{seed}.csv")  # written above
            for tag, capacity in FRACTIONAL_ALPHA_CAPACITIES.items():
                config = tmp / f"capacity-{tag}.cfg"
                config.write_text(f"capacity = {capacity}\n", encoding="utf-8")
                differ += compare_command(tmp, trees, f"sweep-alpha-{tag} seed {seed}",
                                          lambda out, config=config: [
                                              "sweep", "--prices", descending, "--config", str(config),
                                              "--alpha-grid", FRACTIONAL_ALPHA_GRID, "--out", out])
        for name, argv in STDOUT_COMMANDS.items():
            differ += compare_stdout(trees, name, lambda side, argv=argv: argv)
        for fname, text in BAD_PRICE_FILES.items():
            (tmp / fname).write_text(text, encoding="utf-8")
        for name, (code, argv) in error_commands(tmp, str(tmp / "simulate-regime-1.csv")).items():
            differ += compare_failure(trees, name, code, argv)
    print("all outputs identical" if not differ else f"{differ} output(s) differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
