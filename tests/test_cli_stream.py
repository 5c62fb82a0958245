"""Batch mode through real pipes, and the reader under it.

The reader answers every complete line of one read of stdin with one
write.  Its reference is the loop batch mode had before, `for line in
sys.stdin`, kept here: the reader must find the same records in the same
bytes, however they fall across reads.  Where that loop ended the stream
at a line stdin's encoding rejects, the reader makes that line one bad
record and goes on.
"""

import io
import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cuspcm import cli

SRC = Path(__file__).resolve().parent.parent / "src"
CORPUS = json.loads((Path(__file__).parent / "golden" / "cli_corpus.json").read_text())
BATCH = [e for e in CORPUS if "--batch" in e["argv"]]
CHUNK = io.DEFAULT_BUFFER_SIZE  # the size of one read, as sys.stdin reads too


def cli_env(unbuffered: bool) -> dict:
    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "cuspcm.cli", *args]


# ------------------------------------------------------- through a pipe


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("entry", BATCH, ids=[e["id"] for e in BATCH])
def test_batch_corpus_through_a_pipe(entry, unbuffered):
    done = subprocess.run(
        cli_argv(*entry["argv"]), input=(entry["stdin"] or "").encode(),
        capture_output=True, env=cli_env(unbuffered), timeout=60,
    )
    got = (done.stdout.decode(), done.stderr.decode(), done.returncode)
    assert got == (entry["stdout"], entry["stderr"], entry["exit"])


def read_line(fd: int, timeout: float) -> bytes:
    """One line from a pipe, or what came of it when the time ran out."""
    deadline = time.monotonic() + timeout
    got = b""
    while not got.endswith(b"\n"):
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            break
        piece = os.read(fd, 4096)
        if not piece:
            break
        got += piece
    return got


@pytest.mark.skipif(sys.platform == "win32", reason="select on a pipe is POSIX-only")
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_a_coprocess_gets_each_answer_before_eof(unbuffered):
    proc = subprocess.Popen(
        cli_argv("cohom", "--s", "1", "--batch"), stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, env=cli_env(unbuffered),
    )
    try:
        answers = []
        for record in (b'{"seq":[1],"m":1,"lambda":2}\n', b'{"seq":[2],"m":1,"lambda":2}\n'):
            proc.stdin.write(record)
            proc.stdin.flush()
            answers.append(read_line(proc.stdout.fileno(), timeout=10))
        assert answers == [b'{"theta":1,"delta":0,"h0":1,"h1":0}\n',
                           b'{"theta":1,"delta":0,"h0":2,"h1":0}\n']
        proc.stdin.close()
        assert proc.wait(timeout=10) == 0
        assert proc.stdout.read() == b""
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()


def test_a_20_mb_line_is_answered_quickly():
    pad = "x" * (20 * 1024 * 1024)
    stdin = ('{"seq":[1],"m":1,"lambda":2,"pad":"%s"}\n{"seq":[2],"m":1,"lambda":2}' % pad)
    start = time.perf_counter()
    done = subprocess.run(cli_argv("cohom", "--s", "1", "--batch"), input=stdin.encode(),
                          capture_output=True, env=cli_env(True), timeout=60)
    elapsed = time.perf_counter() - start
    assert done.stdout == (b'{"theta":1,"delta":0,"h0":1,"h1":0}\n'
                           b'{"theta":1,"delta":0,"h0":2,"h1":0}\n')
    assert elapsed < 5, f"{elapsed:.2f} s"


THREE = b'{"seq":[1],"m":1,"lambda":2}\n\xff\n{"seq":[2],"m":1,"lambda":2}\n'


def test_an_undecodable_line_under_a_strict_stdin_costs_only_itself():
    env = dict(cli_env(True), PYTHONIOENCODING="utf-8:strict")
    done = subprocess.run(cli_argv("cohom", "--s", "1", "--batch"), input=THREE,
                          capture_output=True, env=env, timeout=60)
    lines = done.stdout.decode().splitlines()
    assert done.returncode == 0 and len(lines) == 3, done.stdout
    assert lines[0] == '{"theta":1,"delta":0,"h0":1,"h1":0}'
    assert json.loads(lines[1])["error"]["kind"] == "invalid_input"
    assert lines[2] == '{"theta":1,"delta":0,"h0":2,"h1":0}'


def test_an_undecodable_line_under_surrogateescape_is_a_json_error():
    # surrogateescape, stdin's error handler under the C and POSIX locales,
    # turns the bad byte into text that the JSON decoder rejects.
    env = dict(cli_env(True), PYTHONIOENCODING="utf-8:surrogateescape")
    done = subprocess.run(cli_argv("cohom", "--s", "1", "--batch"), input=THREE,
                          capture_output=True, env=env, timeout=60)
    assert (done.stdout, done.stderr, done.returncode) == (
        b'{"theta":1,"delta":0,"h0":1,"h1":0}\n'
        b'{"error":{"kind":"invalid_input","message":"Expecting value: line 1 column 1 (char 0)"}}\n'
        b'{"theta":1,"delta":0,"h0":2,"h1":0}\n', b"", 0)


# ------------------------------------------------------------ the reader


def like_sys_stdin(data: bytes, encoding: str = "utf-8", errors: str = "strict"):
    # sys.stdin is opened with newline="\n" on POSIX: it splits at "\n" only
    # and keeps every "\r" (test_the_reference_reads_like_sys_stdin).
    return io.TextIOWrapper(io.BytesIO(data), encoding=encoding, errors=errors,
                            newline="\n")


def records(lines) -> tuple[list[str], str | None]:
    """The records the batch loop answers, and the decode error that ended
    the stream early, if any."""
    got = []
    try:
        for line in lines:
            line = line.strip()
            if line:
                got.append(line)
    except UnicodeDecodeError as exc:
        return got, str(exc)
    return got, None


def reference(stdin) -> tuple[list[str], str | None]:
    return records(line for line in stdin)  # the loop batch mode had


def reader(stdin) -> list[str | None]:
    """The records the batch loop answers from the reader's lines, each
    decoded on its own as `_batch` decodes it; None for a line that stdin's
    decoding rejects, which is answered with an error object."""
    got: list[str | None] = []
    for lines in cli._stdin_lines(stdin):
        for line in lines:
            try:
                line = line.decode(stdin.encoding, stdin.errors).strip()
            except UnicodeDecodeError:
                got.append(None)
                continue
            if line:
                got.append(line)
    return got


def escaped(line: str) -> bool:
    """Whether surrogateescape decoding put an undecodable byte in line."""
    return any("\udc80" <= c <= "\udcff" for c in line)


def straddle(piece: bytes, at: int) -> bytes:
    """A record holding `piece`, with piece's byte `at` the first of the
    second read."""
    head = b'{"seq":"'
    return b"a\n" + b"b" * (CHUNK - at - 2 - len(head)) + head + piece + b'"}\nlast\n'


DATA = {
    "crlf": b'{"seq":[1]}\r\n{"seq":[2]}\r\n',
    "lone-cr": b"a\rb\n\r\nc\r\rd\r",
    "blank-and-whitespace": b"\n\n   \n\t\x0b\x0c\n  x  \n\n",
    "no-final-newline": b"a\nb",
    "only-a-partial-line": b"   x",
    "empty": b"",
    "one-read-exactly": b"c" * (CHUNK - 1) + b"\n",
    "newline-first-in-read": b"c" * CHUNK + b"\nd\n",
    "long-lines": b"\n".join(bytes([65 + i]) * (3 * CHUNK + i) for i in range(4)),
    "two-byte-char": straddle("é".encode(), 1),
    "four-byte-char-1": straddle("\U0001F600".encode(), 1),
    "four-byte-char-3": straddle("\U0001F600".encode(), 3),
    "invalid-byte": straddle(b"\xff", 0),
    "cut-sequence": straddle(b"\xc3(", 1),
    "cut-sequence-at-eof": b"ok\n" + b"z" * (CHUNK - 4) + b"\xe2\x82",
}


@pytest.mark.parametrize("encoding,errors", [
    ("utf-8", "strict"), ("utf-8", "surrogateescape"), ("utf-8", "replace"),
    ("latin-1", "strict"),
])
@pytest.mark.parametrize("name", DATA)
def test_the_reader_finds_the_reference_records(name, encoding, errors):
    data = DATA[name]
    want, error = reference(like_sys_stdin(data, encoding, errors))
    got = reader(like_sys_stdin(data, encoding, errors))
    if error is None:
        assert got == want
    else:
        # The reference stops at the first line it cannot decode.  The reader
        # finds every record of the lenient decoding, and only the lines that
        # hold an undecodable byte are rejected.
        lenient, _ = reference(like_sys_stdin(data, encoding, "surrogateescape"))
        assert got == [None if escaped(line) else line for line in lenient]
        assert None in got and got != want
    if errors == "strict" and encoding == "utf-8" and name in ("invalid-byte", "cut-sequence"):
        assert want == ["a"] and error is not None  # the first read's line only


def test_the_reference_reads_like_sys_stdin():
    data = DATA["lone-cr"] + DATA["crlf"]
    done = subprocess.run(
        [sys.executable, "-c", "import sys; sys.stdout.write(repr(list(sys.stdin)))"],
        input=data, capture_output=True, check=True,
    )
    assert done.stdout.decode() == repr(list(like_sys_stdin(data)))


# ------------------------------------------------ an uncaught exception


@pytest.mark.parametrize("binary", [True, False], ids=["bytes", "text"])
def test_answers_before_an_uncaught_exception_are_written(binary, capsys, monkeypatch):
    k = 4
    calls = []
    real = cli.cohom_dims

    def cohom_dims(triple):
        calls.append(triple)
        if len(calls) == k:
            raise RuntimeError("record k")
        return real(triple)

    monkeypatch.setattr(cli, "cohom_dims", cohom_dims)
    text = "".join('{"seq":[%d],"m":1,"lambda":2}\n' % i for i in range(1, 8))
    stdin = like_sys_stdin(text.encode()) if binary else io.StringIO(text)
    monkeypatch.setattr("sys.stdin", stdin)
    with pytest.raises(RuntimeError, match="record k"):
        cli.main(["cohom", "--s", "1", "--batch"])
    lines = capsys.readouterr().out.splitlines()
    assert [json.loads(line)["h0"] for line in lines] == list(range(1, k))
