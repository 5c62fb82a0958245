"""The examples of README.md: the Library doctest and the CLI lines."""

import doctest
import shlex
from pathlib import Path

from cuspcm.cli import main

README = Path(__file__).parent.parent / "README.md"


def test_readme_library_example():
    result = doctest.testfile("../README.md")
    assert result.attempted > 0
    assert result.failed == 0


def cli_examples() -> list[tuple[str, str]]:
    """Each `cuspcm ...` line with a full `# {...}` output line below it."""
    lines = README.read_text().splitlines()
    return [
        (line, below[2:])
        for line, below in zip(lines, lines[1:])
        if line.startswith("cuspcm ") and below.startswith("# {")
        and "..." not in below
    ]


def test_readme_cli_examples(capsys):
    examples = cli_examples()
    assert [shlex.split(line)[1] for line, _ in examples] == [
        "cohom", "canon", "verify", "classify", "tpq-geometry",
    ]
    for line, expected in examples:
        assert main(shlex.split(line)[1:]) == 0, line
        assert capsys.readouterr().out == expected + "\n", line
