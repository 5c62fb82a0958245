"""Golden CLI corpus: the exact stdout, stderr and exit code of every entry.

Each entry of `golden/cli_corpus.json` is one invocation (argv, and stdin
for `--batch`) with the output it must produce, byte for byte: JSON, DOT and
table output, argparse usage and help text, error lines and exit codes.
Help text is pinned at 80 columns, as argparse in Python 3.10 and 3.11
formats it.
"""

import io
import json
from pathlib import Path

import pytest

from cuspcm.cli import main

CORPUS = json.loads((Path(__file__).parent / "golden" / "cli_corpus.json").read_text())


@pytest.mark.parametrize("entry", CORPUS, ids=[e["id"] for e in CORPUS])
def test_cli_corpus(entry, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr("sys.stdin", io.StringIO(entry["stdin"] or ""))
    try:
        code = main(entry["argv"])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (out, err, code) == (entry["stdout"], entry["stderr"], entry["exit"])
