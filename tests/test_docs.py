"""README and CLI agree: the certificate kinds, the commands, and the
commands with an --expect flag that the README names are exactly the ones
the CLI has."""

import argparse
import re
from pathlib import Path

import sparsekit.cli as cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _names(text: str) -> set:
    return set(re.findall(r"`([^`]+)`", text))


def _subparsers() -> dict:
    ap = cli.build_parser()
    action = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_readme_kind_table_lists_every_certificate_kind():
    table = README.split("| kind | written by |", 1)[1].split("\n\n", 1)[0]
    assert set(re.findall(r"^\| `([^`]+)` \|", table, re.M)) == set(cli.CERTIFICATES)


def test_readme_commands_line_lists_every_command():
    line = re.search(r"^Commands: (.*?)\.$", README, re.M | re.S).group(1)
    assert _names(line) == set(_subparsers())


def test_readme_expect_sentence_names_the_commands_with_the_flag():
    sentence = re.search(r"`--expect` is a flag \(on ([^)]*)\)", README).group(1)
    have = {name for name, p in _subparsers().items()
            if any("--expect" in a.option_strings for a in p._actions)}
    assert _names(sentence) == have
