"""Byte-exact help text and usage errors against files in ``tests/golden``.

argparse writes these, so they pin how the parser is declared: option
order, metavars, help strings and which subcommand takes which option.
Each file holds the exit code, stdout and stderr of one command line,
rendered at a terminal width of 80 columns.  Regenerate a file only for
a deliberate change of the command line's interface.
"""

from pathlib import Path

import pytest

from liecoh.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = ("betti", "profile", "cocycles", "export-matrix", "diamond-b2", "verify")
CASES = {
    "help": ["-h"],
    **{f"help-{name}": [name, "-h"] for name in COMMANDS},
    "no-command": [],
    "unknown-command": ["nope", "--family", "aff"],
    "extra-token": ["betti", "--family", "aff", "--degree", "1", "extra"],
    "bad-format": ["betti", "--family", "aff", "--degree", "1", "--format", "xml"],
    "no-degree": ["betti", "--family", "aff"],
    "bad-m": ["betti", "--family", "heisenberg", "--m", "x", "--degree", "1"],
}


def render(argv, capsys) -> str:
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return f"exit {code}\n--- stdout\n{captured.out}--- stderr\n{captured.err}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_parser_output_is_pinned(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    expected = (GOLDEN / f"cli-{case}.txt").read_text(encoding="utf-8")
    assert render(CASES[case], capsys) == expected
