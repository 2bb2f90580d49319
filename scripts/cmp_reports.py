#!/usr/bin/env python3
"""Compare the outputs of this checkout against those of a git ref.

    python3 scripts/cmp_reports.py REF

Exports REF's tree into a temporary directory (git archive) and runs each
case of cases() with both trees' sources on the same seeded corpora; that
table is the one list of the cases.  Each run starts in its own empty
working directory and writes its reports under the relative `--out out`,
so that both trees print the same paths.  Every case compares the exit
code, which must also be the case's expected one, stdout, stderr and
every file written, byte for byte.  Under each csv that differs it
prints, for each (policy, column) whose cells differ, how many cells
differ and the largest absolute difference between them, so that an
intended change of bits can be read cell by cell.  In the long slots.csv
table the metric named on the row stands for the column.

Exits 0 when every output is identical; 1 when any output differs or is
missing on one side, or a case exits otherwise than expected; 2 on a
usage error or a REF that git cannot export.

Blind spot: the sub-problems that the distributor breaks a tie between
are symmetric, so no report shows a change in its tie-break;
tests/test_online.py::test_distributor_and_adaptive_match_references_bit_for_bit
catches one.
"""

from __future__ import annotations

import csv
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from evcharge.harness.synthetic import write_corpus  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def write_scaled(src: str, dest: Path, factor: float) -> str:
    """Copy the price file src to dest with every price multiplied by factor."""
    with open(src, encoding="utf-8") as fh:
        header, *rows = fh.read().splitlines()
    cells = (row.rsplit(",", 1) for row in rows)
    lines = [header] + [f"{stamp},{float(price) * factor!r}" for stamp, price in cells]
    dest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(dest)


def cases(tmp: Path) -> list[tuple[str, list[str], int]]:
    """Every case as (label, argv, the exit code both trees must give),
    after writing the corpora and config files that they read into tmp."""
    def simulate(prices, *flags):
        return ["simulate", "--prices", prices, *flags, "--out", "out"]

    def sweep(prices, *flags):
        return ["sweep", "--prices", prices, *flags, "--out", "out"]

    table = []
    for seed in (1, 2):
        def add(label, argv, code=0):
            table.append((f"{label} seed {seed}", argv, code))

        # each benchmark workload's command (perfbench/workloads.py) on its own corpus
        for name, workload in WORKLOADS.items():
            corpus = write_corpus(str(tmp / f"{name}-{seed}.csv"), workload.model, workload.days, seed)
            add(name, workload.argv(corpus, "out"))
        regime = str(tmp / f"simulate-regime-{seed}.csv")  # the simulate workload's, written above
        # every policy kind but int: rat fans out over 7 sub-problems at 7/2, over 13 of 240
        # per price at 240/13 (so a group of sub-problems in one state splits), and is fixed at 1/2
        for capacity in ("7/2", "240/13", "1/2"):
            add(f"simulate-{capacity}", simulate(regime, "--policies", "fixed,adaptive,rat,never,rhc:3,naive",
                                                 "--capacity", capacity))
        # int runs only at whole capacities; at 1, int and rat are fixed too
        add("simulate-int-1", simulate(regime, "--policies", "fixed,int,rat", "--capacity", "1"))
        # only capped, then only uncapped policies: each episode's optimum path is shared in one kind
        for kind, policies in (("capped", "int,rhc:0,naive"), ("uncapped", "fixed,adaptive,never")):
            add(f"simulate-{kind}-only", simulate(regime, "--policies", policies, "--capacity", "24"))
        # capacities 1 and 1/2: fixed against the unlimited-rate optimum
        add("sweep-rate-no-limit", sweep(regime, "--rate-grid", "24,48"))
        # both pi* branches: alpha* is 29.6 p_min on the seed-1 corpus, so the closed form runs from 30
        add("sweep-alpha-closed-form", sweep(regime, "--alpha-grid", "20,30,50,100"))
        # prices times powers of two (exact, so only the units change), past the capped optimum's int
        # range, so it takes each value as one fsum of its terms; a REF older than that fallback
        # fails the 2^-1020 cases at 240/13 and of the rate sweep
        for tag, factor in (("2^-1000", 2.0**-1000), ("2^950", 2.0**950), ("2^-1020", 2.0**-1020)):
            scaled = write_scaled(regime, tmp / f"simulate-regime-{seed}-{tag}.csv", factor)
            for capacity in ("7/2", "240/13"):
                add(f"simulate-times-{tag}-{capacity}", simulate(
                    scaled, "--policies", "fixed,adaptive,rat,rhc:0,naive,never", "--capacity", capacity))
            add(f"simulate-times-{tag}-24", simulate(scaled, "--capacity", "24"))
            for grid_tag, grid in (("", "0.7,0.9,1.1,1.25,1.3"), ("-no-limit", "24,48")):
                add(f"sweep-rate{grid_tag}-times-{tag}", sweep(scaled, "--rate-grid", grid))
        # a capacity set through --config: the capped optimum's fractional fill and unmet terms,
        # while its kept set churns on every slot
        descending = str(tmp / f"sweep-alpha-descending-{seed}.csv")
        for tag, capacity in (("7-2", "7/2"), ("240-13", "240/13")):
            config = tmp / f"capacity-{tag}.cfg"
            config.write_text(f"capacity = {capacity}\n", encoding="utf-8")
            add(f"sweep-alpha-{tag}", sweep(descending, "--config", str(config), "--alpha-grid", "2,7,20"))

    band = ["--p-min", "1", "--p-max", "5"]
    spec = [*band, "--alpha", "5"]
    unit = 2.0**-40
    scaled_spec = ["--p-min", repr(unit), "--p-max", repr(5 * unit), "--alpha", repr(5 * unit),
                   "--capacity", "5/2", "--steps", "1000"]
    once = {
        # the worst-case descent, and with --rate-limited at whole capacities
        "adversary no-limit": ["adversary", *spec, "--steps", "1000"],
        "adversary rate-limited": ["adversary", *spec, "--capacity", "3", "--steps", "200", "--rate-limited"],
        "adversary rate-limited c=24": ["adversary", *spec, "--capacity", "24", "--steps", "50",
                                        "--rate-limited"],
        "adversary rate-limited c=1": ["adversary", *spec, "--capacity", "1", "--rate-limited"],
        # the same descent in another price unit
        "adversary no-limit times 2^-40": ["adversary", *scaled_spec],
        "adversary rate-limited times 2^-40": ["adversary", *scaled_spec, "--rate-limited"],
        # large alphas whose 1000 levels still fit at the first try (at 1e12 they do not)
        "adversary alpha 1e10": ["adversary", *band, "--alpha", "1e10", "--steps", "1000"],
        "adversary alpha 1e11": ["adversary", *band, "--alpha", "1e11", "--steps", "1000"],
        # each branch of the solver: closed form, root, alpha == p_min, a flat band
        "solve-ratio closed-form": ["solve-ratio", *band, "--alpha", "20", "--capacity", "3/2"],
        "solve-ratio root": ["solve-ratio", *band, "--alpha", "2", "--capacity", "24"],
        "solve-ratio alpha-at-p-min": ["solve-ratio", *band, "--alpha", "1", "--capacity", "24"],
        "solve-ratio flat-band": ["solve-ratio", "--p-min", "3", "--p-max", "3", "--alpha", "10",
                                  "--capacity", "24"],
        # the edges of its start bounds: a threshold just above a narrow band, one alpha on each
        # side of the 1-5 band's threshold (about 15.535), and a threshold far above a wide band
        "solve-ratio narrow-band": ["solve-ratio", "--p-min", "1", "--p-max", "1.01", "--alpha", "2"],
        "solve-ratio below-threshold": ["solve-ratio", *band, "--alpha", "15.5"],
        "solve-ratio above-threshold": ["solve-ratio", *band, "--alpha", "15.55"],
        "solve-ratio wide-band": ["solve-ratio", "--p-min", "0.01", "--p-max", "100", "--alpha", "1000000"],
    }
    table += [(label, argv, 0) for label, argv in once.items()]

    (tmp / "header-only.csv").write_text("timestamp,price\n", encoding="utf-8")
    (tmp / "bad-timestamp.csv").write_text(
        "timestamp,price\n2021-03-01 17:00,2.0\n2021-03-01 17:5x,2.0\n", encoding="utf-8")
    regime = str(tmp / "simulate-regime-1.csv")
    # input that must be refused: the same exit code and message from both trees
    table += [
        ("solve-ratio zero p-min", ["solve-ratio", "--p-min", "0", "--p-max", "5", "--alpha", "5"], 1),
        ("solve-ratio inverted band", ["solve-ratio", "--p-min", "5", "--p-max", "1", "--alpha", "5"], 1),
        ("solve-ratio alpha below p-min", ["solve-ratio", *band, "--alpha", "0.5"], 1),
        ("solve-ratio zero capacity", ["solve-ratio", *spec, "--capacity", "0"], 1),
        ("solve-ratio overflowing p-max", ["solve-ratio", "--p-min", "1", "--p-max", "1e308", "--alpha", "5",
                                           "--capacity", "24"], 1),
        ("adversary alpha at p-min", ["adversary", *band, "--alpha", "1"], 1),
        ("adversary pi 1 inside band", ["adversary", *spec, "--pi", "1"], 1),
        ("simulate header-only", simulate(str(tmp / "header-only.csv")), 1),
        ("simulate bad timestamp", simulate(str(tmp / "bad-timestamp.csv")), 2),
        # a good first factor, then one whose denominator is above the bound, or a negative one
        ("sweep rate factor past the denominator bound", sweep(regime, "--rate-grid", "0.7,0.00006"), 1),
        ("sweep negative rate factor", sweep(regime, "--rate-grid", "0.7,-1"), 1),
    ]
    return table


def cell_diffs(a: bytes, b: bytes) -> list[str]:
    """One line per (policy, column) whose cells differ between two csv
    texts: the number of cells and the largest absolute difference of the
    numeric ones.  A table without a policy column keys its rows by "-"."""
    rows_a, rows_b = (list(csv.reader(io.StringIO(text.decode("utf-8")))) for text in (a, b))
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


def compare(trees: dict[str, Path], run_dir: Path, label: str, argv: list[str], expected: int) -> int:
    """Run argv with the "ref" and the "new" tree's sources, each from its own
    empty directory under run_dir, and print one verdict per output: the
    exit code, stdout, stderr and every file written.  Returns the number
    of outputs that differ, or are missing on one side, counting an exit
    code other than expected as one."""
    runs = {}
    for side, src in trees.items():
        cwd = run_dir / side
        cwd.mkdir(parents=True)
        done = subprocess.run([sys.executable, "-m", "evcharge.harness.cli", *argv], cwd=cwd,
                              env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True)
        files = {p.relative_to(cwd).as_posix(): p.read_bytes() for p in cwd.rglob("*") if p.is_file()}
        runs[side] = (done.returncode, {"stdout": done.stdout, "stderr": done.stderr, **files})
    (code_a, out_a), (code_b, out_b) = runs["ref"], runs["new"]
    verdict = ("DIFFERS" if code_a != code_b
               else f"EXPECTED exit {expected}" if code_b != expected else "identical")
    print(f"{label}: exit {code_a} and {code_b}: {verdict}")
    differ = verdict != "identical"
    for name in sorted(out_a.keys() | out_b.keys()):
        a, b = out_a.get(name), out_b.get(name)
        if a is None or b is None:
            verdict = "MISSING on one side"
        else:
            verdict = f"identical ({len(a)} bytes)" if a == b else "DIFFERS"
        differ += not verdict.startswith("identical")
        print(f"{label}: {name}: {verdict}")
        if verdict == "DIFFERS" and name.endswith(".csv"):
            for line in cell_diffs(a, b):
                print(line)
    return differ


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        try:
            archive = subprocess.run(["git", "-C", str(ROOT), "archive", sys.argv[1]],
                                     check=True, capture_output=True).stdout
        except subprocess.CalledProcessError as exc:
            print(f"error: {exc.stderr.decode(errors='replace').strip()}", file=sys.stderr)
            return 2
        (tmp / "ref").mkdir()
        subprocess.run(["tar", "-x", "-C", str(tmp / "ref")], input=archive, check=True)
        trees = {"ref": tmp / "ref" / "src", "new": ROOT / "src"}
        differ = sum(compare(trees, tmp / "runs" / str(i), label, argv, code)
                     for i, (label, argv, code) in enumerate(cases(tmp)))
    print("all outputs identical" if not differ else f"{differ} output(s) differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
