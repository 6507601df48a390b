"""Every documented ``python -m repro …`` command line parses.

Extracts the command lines from README.md and docs/*.md — lines of
fenced code blocks (with ``\\`` continuations joined and trailing
``# comments`` and pipes dropped) and inline code spans — and parses each
with its entry point's argparse parser.  Nothing is run.  A line naming
an entry point that does not exist, a removed subcommand or a removed
flag fails here.
"""

import re
import shlex
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]

_FENCE = re.compile(r"^```.*?^```", re.M | re.S)
_INLINE = re.compile(r"`(python -m repro[^`]*)`")


def _fenced_commands(block):
    lines = block.splitlines()[1:-1]
    joined = []
    for line in lines:
        if joined and joined[-1].endswith("\\"):
            joined[-1] = joined[-1][:-1] + " " + line.strip()
        else:
            joined.append(line.strip())
    for line in joined:
        if line.startswith("python -m repro"):
            yield line.split(" #")[0].split(" | ")[0].strip()


def doc_commands():
    found = []
    for path in DOCS:
        text = path.read_text(encoding="utf-8")
        for block in _FENCE.findall(text):
            found.extend((path.name, cmd) for cmd in _fenced_commands(block))
        for span in _INLINE.findall(_FENCE.sub("", text)):
            found.append((path.name, " ".join(span.split())))
    return found


def parser_for(module, argv):
    """The parser ``python -m module`` runs on ``argv``, and its argv."""
    if module == "repro":
        from repro.__main__ import build_parser

        return build_parser(), argv
    if module == "repro.experiments":
        from repro.experiments.__main__ import build_parser

        return build_parser(), argv
    if module == "repro.experiments.regression":
        from repro.experiments.regression import build_parser

        return build_parser(), argv
    if module == "repro.check":
        if argv[:1] == ["lint"]:
            from repro.check.lint.cli import build_parser

            return build_parser(), argv[1:]
        from repro.check.__main__ import build_parser

        return build_parser(), argv
    raise AssertionError(f"no entry point python -m {module}")


COMMANDS = doc_commands()


def test_docs_have_commands():
    assert len(COMMANDS) > 40


@pytest.mark.parametrize(
    "doc,command", COMMANDS, ids=[f"{d}:{c}" for d, c in COMMANDS]
)
def test_documented_command_parses(doc, command):
    words = shlex.split(command)
    assert words[:2] == ["python", "-m"]
    parser, argv = parser_for(words[2], words[3:])
    try:
        parser.parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"{doc}: {command!r} does not parse (exit {exc.code})")
