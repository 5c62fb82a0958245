"""Command-line surface for classification, verification and quiver export.

One subcommand per invocation; results go to stdout as compact JSON (or
DOT for the quiver subcommands, or a plain table).  Identical invocations
produce byte-identical output.  Commands that take a triple also run in
batch mode: one JSON object per stdin line, one result line each, input
order preserved, with per-record error objects instead of aborts.  The
answers to the records that one read of stdin brings go out in one write,
before the next read.

Every subcommand is one entry of `COMMANDS`; `build_parser` and `_run`
serve them all.  A command's geometry and input fields come from its
flags: --b gives a cusp, --p and --q a T_pq curve, and whichever of
--seq, --m and --lambda it has are its fields, in that order.  The flags
of a single-shot run become the record a batch line would give, so one
field parser (`_read`) checks both.  One flag may stand in for the fields
(`skip_if`): verify's --grid, tpq-quiver's --max-base-rank, tpq-descend's
--free ({"free": true} in a batch record).
This module imports only `sequences` and `cohomology` up front; a command
imports the other library modules it uses when `_run` binds it, once per
`main` call.

Exit codes: 0 on success; 2 on a validation or usage error, or when verify
finds a failed check ("ok" false for --grid, "agree" false for one triple).
"""

from __future__ import annotations

import argparse
import io
import json
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence, TextIO

from . import __version__
from .cohomology import (
    BundleTriple, CohomReport, CuspGeometry, KahnViolation, cohom_dims,
)
from .sequences import SSeq, _frozen, canonical_form, is_aperiodic

if TYPE_CHECKING:
    from .cusp import CMModuleLabel
    from .tpq import TpqModuleLabel

_SEQ_RE = re.compile(r"-?\d+(,-?\d+)*")
_LAMBDA_RE = re.compile(r"(-?\d+)(/(-?\d+))?")
_RANGE_RE = re.compile(r"(-?\d+)\.\.(-?\d+)")


def parse_seq(text: str) -> tuple[int, ...]:
    """Comma-separated integers, e.g. '2,-1,0'."""
    if not _SEQ_RE.fullmatch(text):
        raise ValueError(
            f"malformed sequence literal {text!r}: expected comma-separated integers"
        )
    return tuple(int(tok) for tok in text.split(","))


def parse_lambda(text: str) -> Fraction:
    """Exact scalar literal: an integer or integer/integer, nonzero."""
    match = _LAMBDA_RE.fullmatch(text)
    if not match:
        raise ValueError(
            f"malformed lambda literal {text!r}: expected an integer or a/b"
        )
    num = int(match.group(1))
    den = int(match.group(3)) if match.group(3) is not None else 1
    if den == 0:
        raise ValueError(f"lambda literal {text!r} has a zero denominator")
    value = Fraction(num, den)
    if value == 0:
        raise ValueError("lambda must be nonzero")
    return value


def _lambdas(text: str) -> tuple[Fraction, ...]:
    return tuple(parse_lambda(tok) for tok in text.split(","))


def _flag_record(args: argparse.Namespace, fields: Sequence[str]) -> dict:
    """The record a batch line would give for the flags of a single-shot run.

    Every flag is checked for presence before any literal is parsed.
    """
    record = {name: getattr(args, name) for name in fields}
    for name, value in record.items():
        if value is None:
            raise ValueError(f"--{name} is required")
    if "seq" in record:
        record["seq"] = list(parse_seq(record["seq"]))
    return record


def _field(name: str, value: Any, s: int) -> Any:
    if name == "seq":
        if not isinstance(value, list) or not value or any(
            isinstance(v, bool) or not isinstance(v, int) for v in value
        ):
            raise ValueError("field 'seq' must be a nonempty list of integers")
        return SSeq(s, tuple(value))
    if name == "m":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError("field 'm' must be an integer")
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        value = str(value)
    if not isinstance(value, str):
        raise ValueError("field 'lambda' must be an integer or 'a/b' string")
    return parse_lambda(value)


def _read(record: dict, fields: Sequence[str], s: int) -> Any:
    """The one field parser, for batch records and flag records alike.

    Fields are checked in order.  Gives a BundleTriple when the fields
    include m, an SSeq for the sequence alone and a (SSeq, lambda) tube
    base for (seq, lambda).
    """
    values = []
    for name in fields:
        if name not in record:
            raise ValueError(f"missing field {name!r}")
        values.append(_field(name, record[name], s))
    if "m" in fields:
        return BundleTriple(*values)
    return values[0] if len(values) == 1 else tuple(values)


def _report_dict(report: CohomReport) -> dict:
    return {"theta": report.theta, "delta": report.delta, "h0": report.h0, "h1": report.h1}


def _label_dict(label: CMModuleLabel) -> dict:
    t = label.triple
    return {"kind": "module", "seq": list(t.seq.entries), "m": t.m, "lam": str(t.lam),
            "rank": label.rank}


def _tpq_label_dict(label: TpqModuleLabel) -> dict:
    kind = label.kind.value
    if kind == "free":
        return {"kind": kind}
    out = {"kind": kind, "seq": list(label.seq.entries), "m": label.m}
    if kind == "single":
        out["lam"] = str(label.lam)
    else:
        out.update(sign=label.sign, branch=label.branch)
    return out


# The run step of each command: given the flags and the geometry, it imports
# what the command uses and gives the function that answers one input.


def _verify(args: argparse.Namespace, _geom: None) -> Callable:
    from .oracle import verify_formula

    def answer(triple: BundleTriple | None) -> dict:
        if triple is None:
            return _verify_grid(args.grid)
        r = verify_formula(triple)
        result = {"agree": r.agree, "formula": _report_dict(r.formula),
                  "oracle": _report_dict(r.oracle)}
        if not r.agree:
            result["failures"] = list(r.failures)
        return result

    return answer


def _grid_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"grid setting {key!r} must be an integer, got {text!r}")


def _verify_grid(tokens: Sequence[str]) -> dict:
    from .oracle import verify_grid  # verify takes no --batch: once per main

    # verify_grid skips every s above rs_max.
    spec: dict = {"s_values": (1, 2, 3), "rs_max": 4, "lo": -2, "hi": 2,
                  "m_values": (1, 2), "lambdas": (1, -1, 2)}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep:
            raise ValueError(f"malformed grid setting {token!r}: expected key=value")
        if key == "rs_max":
            spec["rs_max"] = _grid_int(key, value)
        elif key == "entries":
            match = _RANGE_RE.fullmatch(value)
            if not match:
                raise ValueError(f"malformed entries range {value!r}: expected lo..hi")
            spec["lo"], spec["hi"] = int(match.group(1)), int(match.group(2))
        elif key == "m_max":
            spec["m_values"] = tuple(range(1, _grid_int(key, value) + 1))
        elif key == "lambdas":
            spec["lambdas"] = _lambdas(value)
        elif key == "s":
            spec["s_values"] = tuple(_grid_int(key, tok) for tok in value.split(","))
        else:
            raise ValueError(f"unknown grid setting {key!r}")
    report = verify_grid(**spec)
    kinds = ("formula_mismatches", "euler_failures", "rank_identity_failures")
    result = {"cases": report.cases}
    result.update((kind, len(getattr(report, kind))) for kind in kinds)
    result["ok"] = report.ok
    failures = sum((getattr(report, kind) for kind in kinds), ())
    if failures:
        result["failures"] = list(failures[:20])
    return result


def _classify(_args: argparse.Namespace, geom) -> Callable:
    from .cusp import classify_label

    return lambda triple: _label_dict(classify_label(triple, geom))


def _enumerate(args: argparse.Namespace, geom) -> Callable:
    from .cusp import enumerate_rank

    def answer(_input: None) -> dict:
        piece = enumerate_rank(geom, args.rank)
        return {
            "rank": piece.rank,
            "free": piece.free,
            "families": [
                {"seq": list(f.seq.entries), "m": f.m, "base": f.base.value,
                 "rank": f.rank}
                for f in piece.families
            ],
            "exceptional": [_label_dict(lab) for lab in piece.exceptional],
        }

    return answer


def _growth(args: argparse.Namespace, geom) -> Callable:
    from .cusp import family_counts

    def answer(_input: None) -> dict:
        table = family_counts(geom, args.r_max)
        counts = [{"rank": r, "families": n} for r, n in sorted(table.counts.items())]
        exceptional = [
            {"rank": r, "labels": [_label_dict(lab) for lab in labs]}
            for r, labs in sorted(table.exceptional.items())
            if labs
        ]
        return {"counts": counts, "exceptional": exceptional}

    return answer


def _quiver(args: argparse.Namespace, geom) -> Callable:
    from .quiver import cusp_quiver

    return lambda _input: cusp_quiver(
        geom, args.max_base_rank, args.depth, _lambdas(args.lambdas)
    )


def _tpq_sigma(_args: argparse.Namespace, geom) -> Callable:
    from .tpq import apply_sigma, is_sigma_symmetric

    return lambda seq: {
        "sigma": list(apply_sigma(geom, seq).entries),
        "sigma_symmetric": is_sigma_symmetric(geom, seq),
    }


def _tpq_descend(_args: argparse.Namespace, geom) -> Callable:
    from .cusp import classify_label, free_label
    from .tpq import descend

    cusp = geom.cusp

    def answer(triple: BundleTriple | None) -> dict:
        label = free_label(cusp) if triple is None else classify_label(triple, cusp)
        return {"labels": [_tpq_label_dict(lab) for lab in descend(geom, label)]}

    return answer


def _tpq_quiver(args: argparse.Namespace, geom) -> Callable:
    from .quiver import tpq_quiver

    if (args.seq is None) == (args.max_base_rank is None):
        raise ValueError("give exactly one of --max-base-rank or --seq with --lambda")

    def answer(base: tuple | None):
        if base is not None:
            return tpq_quiver(geom, args.depth, bases=[base])
        return tpq_quiver(geom, args.depth, max_base_rank=args.max_base_rank,
                          lambdas=_lambdas(args.lambdas))

    return answer


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _str_rows(result: dict) -> list[tuple[str, str]]:
    # verify --grid lists its failures in JSON output only.
    return [(k, str(v)) for k, v in result.items() if k != "failures"]


def _joined_rows(result: dict) -> list[tuple[str, str]]:
    """A sequence, comma-joined, and a yes/no property."""
    return [
        (k, _yes(v) if isinstance(v, bool) else ",".join(str(x) for x in v))
        for k, v in result.items()
    ]


def _verify_rows(result: dict) -> list[tuple[str, str]]:
    if "agree" not in result:
        return _str_rows(result)
    return [("agree", _yes(result["agree"])), ("formula", str(result["formula"])),
            ("oracle", str(result["oracle"]))]


def _enumerate_rows(result: dict) -> list[tuple[str, str]]:
    def module(x: dict, lam: str) -> str:
        return f"M([{','.join(str(v) for v in x['seq'])}],{x['m']},{lam})"

    return [("rank", str(result["rank"])), ("free", _yes(result["free"]))] + [
        ("family", f"{module(f, '-')} base={f['base']} rank={f['rank']}")
        for f in result["families"]
    ] + [
        ("exceptional", f"{module(x, x['lam'])} rank={x['rank']}")
        for x in result["exceptional"]
    ]


def _print_table(rows: list[tuple[str, str]]) -> None:
    width = max((len(k) for k, _ in rows), default=0)
    for key, value in rows:
        print(f"{key.ljust(width)}  {value}")


@_frozen
class Command:
    """One subcommand: its flags and what each step of `_run` does for it."""

    name: str
    help: str
    flags: tuple[tuple[str, dict], ...]  # (flag, add_argument keywords)
    # (args, geometry) -> the function that answers one input
    run: Callable[[argparse.Namespace, Any], Callable[[Any], Any]]
    rows: Callable[[dict], list[tuple[str, str]]] | None  # None: DOT, not table
    skip_if: str | None = None  # a flag (batch: a record key) standing in for fields


def _flag(name: str, help: str | None = None, **options) -> tuple[str, dict]:
    return name, dict(options, help=help)


_S = _flag("--s", "cycle component count", type=int, required=True)
_B = _flag("--b", "cycle weights, comma-separated (length s)", required=True)
_P = _flag("--p", type=int, required=True)
_Q = _flag("--q", type=int, required=True)
_SEQ = _flag("--seq", "degree sequence, comma-separated integers")
_M = _flag("--m", "multiplicity (positive)", type=int)
_LAM = _flag("--lambda", "scalar: integer or integer/integer, nonzero", metavar="LAM")
_BATCH = _flag("--batch", "read JSON lines from stdin", action="store_true")
_DEPTH = _flag("--depth", "levels per tube", type=int, required=True)
_LAMBDAS = _flag(
    "--lambdas", "scalar sample for tube bases (default 1,2)", default="1,2"
)
_GRID = _flag(
    "--grid",
    "sweep a whole box instead of one triple; settings: rs_max=N "
    "entries=lo..hi m_max=N lambdas=a,b,... s=1,2,...",
    nargs="*",
    metavar="KEY=VALUE",
)

COMMANDS = (
    Command(
        "canon", "canonical rotation and aperiodicity", (_S, _SEQ, _BATCH),
        lambda _a, _g: lambda seq: {
            "canonical": list(canonical_form(seq).entries),
            "aperiodic": is_aperiodic(seq),
        },
        _joined_rows,
    ),
    Command(
        "cohom", "closed-form h0/h1 of a bundle triple", (_S, _SEQ, _M, _LAM, _BATCH),
        lambda _a, _g: lambda t: _report_dict(cohom_dims(t)), _str_rows,
    ),
    Command(
        "verify", "check the formulas against the oracle",
        (_flag("--s", "cycle component count", type=int, default=1),
         _SEQ, _M, _LAM, _GRID),
        _verify, _verify_rows, skip_if="grid",
    ),
    Command(
        "classify", "label the CM module of a triple", (_S, _B, _SEQ, _M, _LAM, _BATCH),
        _classify, _str_rows,
    ),
    Command(
        "enumerate", "all indecomposables of one rank",
        (_S, _B, _flag("--rank", "module rank (positive)", type=int, required=True)),
        _enumerate, _enumerate_rows,
    ),
    Command(
        "growth", "family counts per rank",
        (_S, _B, _flag("--r-max", "largest rank to count", type=int, required=True)),
        _growth,
        lambda r: [("rank", "families")]
        + [(str(c["rank"]), str(c["families"])) for c in r["counts"]],
    ),
    Command(
        "quiver", "cusp AR quiver as DOT or JSON",
        (_S, _B, _flag("--max-base-rank", "largest tube base rank", type=int,
                       required=True), _DEPTH, _LAMBDAS),
        _quiver, None,
    ),
    Command(
        "tpq-geometry", "cycle weights of the T_pq double cover", (_P, _Q),
        lambda _a, g: lambda _i: {
            "p": g.p, "q": g.q, "s": g.cusp.s, "b": list(g.cusp.b), "t": g.t,
            "case": g.case_tag.value,
        },
        _str_rows,
    ),
    Command(
        "tpq-sigma", "reflect a sequence by the deck involution",
        (_P, _Q, _SEQ, _BATCH), _tpq_sigma, _joined_rows,
    ),
    Command(
        "tpq-descend", "CM modules over the curve below a label",
        (_P, _Q,
         _flag("--free", "descend the free module", action="store_true", default=None),
         _SEQ, _M, _LAM, _BATCH),
        _tpq_descend, lambda r: [("label", str(d)) for d in r["labels"]],
        skip_if="free",
    ),
    Command(
        "tpq-quiver", "curve-side AR quiver as DOT or JSON",
        (_P, _Q, _DEPTH,
         _flag("--max-base-rank", "largest cusp tube base rank to descend", type=int),
         _LAMBDAS,
         _flag("--seq", "single tube base: degree sequence upstairs"),
         _flag("--lambda", "single tube base: scalar upstairs", metavar="LAM")),
        _tpq_quiver, None, skip_if="max_base_rank",
    ),
)


_JSON = json.JSONEncoder(separators=(",", ":"))


def _emit(obj: dict) -> None:
    sys.stdout.write(_JSON.encode(obj) + "\n")


def _error_payload(exc: Exception) -> dict:
    kind = "kahn_violation" if isinstance(exc, KahnViolation) else "invalid_input"
    return {"error": {"kind": kind, "message": str(exc)}}


def _stdin_lines(stdin: TextIO) -> Iterator[list[bytes] | list[str]]:
    """Every complete line that one read of stdin brings, a list per read.

    The bytes under stdin are read with `read1`, which waits only while
    nothing is pending, so a caller that sends one record and waits for
    its answer gets it.  They are split at b"\\n" only, as iterating over
    sys.stdin splits them, and left undecoded: `_batch` decodes each line
    on its own (no character of an ASCII-compatible encoding holds that
    byte).  A text stream with no bytes under it (io.StringIO) gives one
    str line per list.
    """
    raw = getattr(stdin, "buffer", None)
    if raw is None:
        for line in stdin:
            yield [line]
        return
    partial: list[bytes] = []  # a line still waiting for its newline, in parts
    while True:
        data = raw.read1(io.DEFAULT_BUFFER_SIZE)
        lines = data.split(b"\n")
        partial.append(lines[0])
        if len(lines) > 1:
            lines[0] = b"".join(partial)
            partial = [lines.pop()]
            yield lines
        if not data:
            last = b"".join(partial)
            if last:
                yield [last]
            return


def _batch(answer: Callable[[dict], Any]) -> None:
    """Answer stdin's records, one JSON line each, with one write per read."""
    stdin = sys.stdin
    for lines in _stdin_lines(stdin):
        answers = []
        try:
            for line in lines:
                try:
                    # A line that stdin's encoding rejects is one bad record:
                    # UnicodeDecodeError is a ValueError.
                    if isinstance(line, bytes):
                        line = line.decode(stdin.encoding, stdin.errors)
                    line = line.strip()
                    if not line:
                        continue
                    record = json.loads(line)
                    if not isinstance(record, dict):
                        raise ValueError("batch record must be a JSON object")
                    answers.append(_JSON.encode(answer(record)))
                # A record nested too deep for the JSON decoder or the library
                # ends with a RecursionError; it is one bad record like any other.
                except (ValueError, KeyError, RecursionError) as exc:
                    answers.append(_JSON.encode(_error_payload(exc)))
        finally:
            # The answers made before an uncaught exception still go out.
            if answers:
                sys.stdout.write("\n".join(answers) + "\n")
                sys.stdout.flush()


def _run(cmd: Command, args: argparse.Namespace) -> int:
    # The flags a command has name its geometry and its input fields.
    if "b" in args:
        geom = CuspGeometry(args.s, parse_seq(args.b))
        s = geom.s
    elif "p" in args:
        from .tpq import geometry_of

        geom = geometry_of(args.p, args.q)
        s = geom.cusp.s
    else:
        geom, s = None, args.s
    # Bound here, once per call of main, so that a library function replaced
    # between calls (as a tracer does) is the one that answers.
    answer = cmd.run(args, geom)
    fields = tuple(name for name in ("seq", "m", "lambda") if name in args)
    skip = cmd.skip_if
    if getattr(args, "batch", False):
        # A record's own skip_if key stands in for its fields; the flag does not.
        _batch(lambda record: answer(
            None if skip and record.get(skip) else _read(record, fields, s)))
        return 0
    if skip is not None and getattr(args, skip) is not None:
        fields = ()
    value = _read(_flag_record(args, fields), fields, s) if fields else None
    result = answer(value)
    if args.format == "table":
        _print_table(cmd.rows(result))
    elif cmd.rows:
        _emit(result)
    else:  # a quiver
        from .quiver import export_dot, quiver_to_dict

        if args.format == "dot":
            sys.stdout.write(export_dot(result))
        else:
            _emit(quiver_to_dict(result))
    # verify reports a failed check in its result ("ok" or "agree") and exits 2.
    failed = cmd.rows is not None and False in (result.get("ok"), result.get("agree"))
    return 2 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuspcm",
        description=(
            "Cohen-Macaulay modules over degenerate cusps and T_pq curves: "
            "canonical sequence forms, cohomology with an exact oracle, "
            "classification, enumeration and AR quivers."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for cmd in COMMANDS:
        p = sub.add_parser(cmd.name, help=cmd.help)
        for flag, options in cmd.flags:
            p.add_argument(flag, **options)
        choices = ("json", "table") if cmd.rows else ("dot", "json")
        p.add_argument(
            "--format", choices=choices, default=choices[0], help="output format"
        )
        p.set_defaults(cmd=cmd)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args.cmd, args)
    except BrokenPipeError:
        return 0
    # Input nested deeper than the interpreter's stack raises RecursionError;
    # it is reported as invalid input, not as a traceback.
    except (ValueError, RecursionError) as exc:
        if args.format == "json":
            _emit(_error_payload(exc))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
