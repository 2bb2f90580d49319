"""The README against the program: its Config block, Policies table and
CLI section name exactly what the code defines."""

import argparse
import ast
import dataclasses
import inspect
import re
from pathlib import Path

import pytest

import evcharge.online as online
from evcharge.core import ValidationError
from evcharge.harness import cli
from evcharge.harness.config import ExperimentConfig, _coerce

from conftest import spec_of

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _section(heading: str) -> str:
    """The README's text under a heading, up to the next heading of the same
    or a higher level."""
    level = heading.split(" ", 1)[0]
    start = README.index(f"\n{heading}\n")
    end = re.compile(rf"\n#{{1,{len(level)}}} ").search(README, start + 1)
    return README[start : end.start() if end else len(README)]


def test_config_block_lists_every_key_with_its_default():
    block = _section("### Config").split("```")[1]
    documented = {}
    for line in block.strip().splitlines():
        body = line.split("#", 1)[0].strip()
        if body:
            key, _, raw = body.partition("=")
            documented[key.strip()] = raw.strip()
    fields = dataclasses.fields(ExperimentConfig)
    assert list(documented) == [f.name for f in fields]
    for f in fields:
        raw = documented[f.name]
        assert (_coerce(f.name, raw) if raw else None) == f.default, f.name


def _accepted_policy_names() -> set[str]:
    """The names make_policy compares its argument with: each == and `in`
    operand, and `rhc:n` for the name.startswith("rhc:") branch."""
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(online.make_policy))):
        if isinstance(node, ast.Compare) and getattr(node.left, "id", None) == "name":
            for operand in node.comparators:
                if isinstance(operand, ast.Name):  # a module constant, such as RATIO_POLICIES
                    value = getattr(online, operand.id)
                else:
                    value = ast.literal_eval(operand)
                names.update([value] if isinstance(value, str) else value)
        elif (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "startswith"
              and getattr(node.func.value, "id", None) == "name"):
            names.add(ast.literal_eval(node.args[0]) + "n")
    return names


def test_policies_table_names_exactly_what_make_policy_accepts():
    table = re.findall(r"^\| `([^`]+)` +\|", _section("## Policies"), re.MULTILINE)
    accepted = _accepted_policy_names()
    assert sorted(table) == sorted(accepted)
    for name in table:
        for concrete in ("rhc:0", "rhc:12") if name == "rhc:n" else (name,):
            assert online.make_policy(concrete, spec_of(capacity=2))
    for name in ("rhc", "rhc:n", "fixed2", "ratio"):
        with pytest.raises(ValidationError):
            online.make_policy(name, spec_of(capacity=2))


def test_cli_section_names_exactly_the_subcommands():
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(re.findall(r"^evcharge (\S+)", _section("## CLI"), re.MULTILINE)) == set(commands.choices)
