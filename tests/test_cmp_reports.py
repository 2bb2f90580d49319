"""scripts/cmp_reports.py's comparator: a tree against itself, and against
copies of it that each change one output."""

import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

from evcharge.harness.synthetic import write_corpus

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
_spec = importlib.util.spec_from_file_location("cmp_reports", ROOT / "scripts" / "cmp_reports.py")
cmp_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cmp_reports)

# name: (file under src/evcharge, text, its replacement, case, the verdict on the one output it changes)
MUTANTS = {
    "report byte": ("harness/report.py", '"date,policy,slot,metric,value\\n"',
                    '"date,policy,slot,metric,Value\\n"', "simulate", "out/slots.csv: DIFFERS"),
    "stdout": ("harness/cli.py", 'f"wrote {len(summary)}', 'f"Wrote {len(summary)}', "simulate",
               "stdout: DIFFERS"),
    "stderr": ("harness/cli.py", 'print(f"error: {exc}"', 'print(f"Error: {exc}"', "failure",
               "stderr: DIFFERS"),
    "exit code": ("harness/cli.py", "EXIT_VALIDATION = 1", "EXIT_VALIDATION = 4", "failure",
                  "exit 1 and 4: DIFFERS"),
}


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    """label: (argv, expected exit code), on a 3-day corpus."""
    corpus = write_corpus(str(tmp_path_factory.mktemp("corpus") / "regime.csv"), "regime", 3, 1)
    return {
        "solve-ratio": (["solve-ratio", "--p-min", "1", "--p-max", "5", "--alpha", "20",
                         "--capacity", "3/2"], 0),
        "simulate": (["simulate", "--prices", corpus, "--out", "out"], 0),
        "failure": (["solve-ratio", "--p-min", "0", "--p-max", "5", "--alpha", "5"], 1),
    }


def test_a_tree_matches_itself(cases, tmp_path, capsys):
    for i, (label, (argv, code)) in enumerate(cases.items()):
        assert cmp_reports.compare({"ref": SRC, "new": SRC}, tmp_path / str(i), label, argv, code) == 0
    out = capsys.readouterr().out
    for verdict in ("solve-ratio: stdout: identical", "simulate: out/slots.csv: identical",
                    "failure: exit 1 and 1: identical", "failure: stderr: identical"):
        assert verdict in out


@pytest.mark.parametrize("mutant", MUTANTS)
def test_a_changed_output_is_flagged(cases, tmp_path, capsys, mutant):
    fname, text, replacement, case, verdict = MUTANTS[mutant]
    copy = tmp_path / "src"
    shutil.copytree(SRC / "evcharge", copy / "evcharge", ignore=shutil.ignore_patterns("__pycache__"))
    path = copy / "evcharge" / fname
    source = path.read_text(encoding="utf-8")
    assert text in source
    path.write_text(source.replace(text, replacement), encoding="utf-8")
    argv, code = cases[case]
    assert cmp_reports.compare({"ref": SRC, "new": copy}, tmp_path / "run", case, argv, code) == 1
    assert f"{case}: {verdict}" in capsys.readouterr().out


def test_a_ref_git_cannot_export_exits_two(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["cmp_reports.py", "no-such-ref"])
    assert cmp_reports.main() == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
