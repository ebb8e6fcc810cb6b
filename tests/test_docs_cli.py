"""Every CLI command quoted in the docs parses with the real argparse tree.

A flag that is removed from ``repro.experiments.cli`` fails this test until
the docs stop showing it.  Commands are read from README.md, EXPERIMENTS.md
and ``docs/*.md``: each line (or inline code span) holding
``python -m repro.experiments.cli``, with ``\\`` continuations joined, a
closing backtick ending the command and ``#`` starting a comment.
Commands with placeholders (``...``, ``[…]``, ``<…>``) are usage sketches,
not commands: they are not parsed, but every ``--flag`` they name must be
an option of some command.
"""

import argparse
import re
import shlex
from pathlib import Path

from repro.experiments import cli

ROOT = Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", ROOT / "EXPERIMENTS.md", *sorted((ROOT / "docs").glob("*.md"))]
PREFIX = "python -m repro.experiments.cli"
PLACEHOLDER = re.compile(r"\.\.\.|\[[^\]]*\]|<[^>]*>")
FLAG = re.compile(r"--[A-Za-z][\w-]*")


def doc_commands():
    """``(where, argv text)`` of every quoted CLI command in the docs."""
    commands = []
    for path in DOCS:
        lines = path.read_text().splitlines()
        for number, line in enumerate(lines):
            if PREFIX not in line:
                continue
            text = line[line.index(PREFIX) + len(PREFIX):]
            follow = number
            while text.rstrip().endswith("\\") and follow + 1 < len(lines):
                follow += 1
                text = text.rstrip()[:-1] + " " + lines[follow].strip()
            text = text.split("`")[0].split("#")[0].strip()
            commands.append((f"{path.relative_to(ROOT)}:{number + 1}", text))
    return commands


def parse_failure(text):
    """None if ``text`` parses as CLI arguments, else argparse's complaint."""
    try:
        cli._build_parser().parse_args(shlex.split(text))
    except SystemExit as exc:
        return f"exit {exc.code}"
    return None


def option_strings(parser):
    """Every option string of ``parser`` and of its subcommands."""
    options = set()
    for action in parser._actions:
        options.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for command in action.choices.values():
                options |= option_strings(command)
    return options


def unknown_flags(text):
    """The ``--flags`` in ``text`` that no CLI command defines."""
    known = option_strings(cli._build_parser())
    return [flag for flag in FLAG.findall(text) if flag not in known]


def test_doc_commands_parse(capsys):
    commands = doc_commands()
    runnable = [(where, text) for where, text in commands if not PLACEHOLDER.search(text)]
    failures = [
        f"{where}: {text!r} ({failure}) {capsys.readouterr().err.strip()}"
        for where, text in runnable
        if (failure := parse_failure(text))
    ]
    assert not failures, "docs quote CLI commands that do not parse:\n" + "\n".join(failures)
    assert len(runnable) >= 8, f"only {len(runnable)} commands found in {commands}"


def test_placeholder_rule():
    assert PLACEHOLDER.search("table2 ... --workers 1")
    assert PLACEHOLDER.search("report --telemetry /tmp/tel [--top N]")
    assert PLACEHOLDER.search("report --telemetry <dir>")
    assert not PLACEHOLDER.search("table2 --profile smoke --datasets iris seeds")
    assert parse_failure("table2 --backend numpy") is not None
    assert unknown_flags("table2 [--workers N] [--scenario NAME]") == []
    assert unknown_flags("table2 ... [--scenario NAME] [--retired S]") == ["--retired"]


def test_sketches_name_only_real_flags():
    sketches = [(where, text) for where, text in doc_commands() if PLACEHOLDER.search(text)]
    unknown = [f"{where}: {flag}" for where, text in sketches for flag in unknown_flags(text)]
    assert not unknown, "docs sketch CLI flags that no command defines:\n" + "\n".join(unknown)
    assert sketches, "no usage sketches found"
