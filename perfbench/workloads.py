"""The four benchmark workloads.

Each workload builds its inputs from the seed (`build`), then runs passes:
one pass is a fixed list of requests, each timed by a `Clock`.  A pass
reports the items it completed, the time they took, the per-request
latencies, and its own correctness tally.  Library functions are always
looked up on the `cuspcm` package at call time, so that the traced run
sees every call through the wrappers installed on the package.
"""

from __future__ import annotations

import bisect
import functools
import gc
import hashlib
import io
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Iterator

import cuspcm as cc
import cuspcm.cli

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = ROOT / "tests" / "golden"
EXPECTED = json.loads((HERE / "expected.json").read_text())


@dataclass
class Pass:
    items: int = 0
    item_spans: list = field(default_factory=list)  # requests that produce the items
    latency_spans: list = field(default_factory=list)  # requests whose latency counts
    clock: object = None  # the Clock that scales the spans, if not the run's
    attempted: int = 0
    failed: int = 0
    error_lines: int = 0  # CLI output lines that are error objects
    child_peak_kb: int = 0  # largest peak RSS of a CLI child
    outputs: object = None  # kept for a check made after timing

    def check(self, ok: bool, n: int = 1) -> None:
        self.attempted += n
        if not ok:
            self.failed += n


def generic_lambdas(rng: random.Random, k: int) -> list[Fraction]:
    """k distinct rationals other than 0, 1, -1, with |num|, |den| <= 9."""
    out: list[Fraction] = []
    while len(out) < k:
        lam = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if lam not in (0, 1, -1) and lam not in out:
            out.append(lam)
    return out


def reference_loop(n: int = 1200) -> int:
    """Fixed interpreter work of the kinds the package does: Fractions,
    dicts, lists, tuples, sorting and str.  It spreads over enough code
    that how one process happens to lay it out in memory barely matters,
    and no garbage collection runs inside it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        table: dict = {}
        acc = 0
        for i in range(n):
            table.setdefault((i % 31, i & 3), []).append(Fraction(i % 11 + 1, i % 7 + 1))
            acc += len(str(i)) + i * i % 7
        for row in table.values():
            row.sort()
            acc += sum(row).numerator % 7
        return acc
    finally:
        if was_enabled:
            gc.enable()


class Clock:
    """Wall-clock spans of requests, and the host's speed around each one.

    On a shared host a CPU flips, many times a second, between two speeds
    almost a factor of two apart, and the share of time it spends slow
    drifts over minutes with the load of other tenants.  Between calls, at
    most every `interval` seconds, the clock times its `reference` `reps`
    times.  `seconds` turns a span into reference seconds: its wall time
    scaled by `reference_s` over the mean reference time measured within
    WINDOW_S of it, which is the time the call would take on a host that
    runs the reference in `reference_s`.  The mean, not the median: with
    two speeds the median jumps from one to the other, while the mean
    follows the share of time spent at each.
    """

    WINDOW_S = 2.0

    def __init__(self, reference=reference_loop, reference_s: float = 0.008,
                 interval: float = 0.25, reps: int = 2) -> None:
        self.reference = reference
        self.reference_s = reference_s
        self.interval = interval
        self.reps = reps
        self.at: list[float] = []  # when each reference sample ended
        self.took: list[float] = []  # how long it took
        self.last = float("-inf")

    def sample(self) -> None:
        for _ in range(self.reps):
            t0 = perf_counter()
            self.reference()
            self.last = perf_counter()
            self.at.append(self.last)
            self.took.append(self.last - t0)

    def time(self, fn, *args, **kwargs):
        """fn(*args, **kwargs) and its (start, end) wall-clock span."""
        if perf_counter() - self.last > self.interval:
            self.sample()
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        return result, (t0, perf_counter())

    def seconds(self, span: tuple[float, float] | list[tuple[float, float]]) -> float:
        """A span in reference seconds; a list of spans, the calls that make
        up one request, gives their sum."""
        if isinstance(span, list):
            return sum(map(self.seconds, span))
        t0, t1 = span
        lo = bisect.bisect_left(self.at, t0 - self.WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + self.WINDOW_S)
        near = self.took[lo:hi] or self.took
        return (t1 - t0) * self.reference_s / statistics.fmean(near)


# ----------------------------------------------------------- oracle-sweep


class OracleSweep:
    """The criterion-01 box at rs_max = 4, one verify_grid call per s and lam."""

    name = "oracle-sweep"
    uses_seed = True
    S_VALUES = (1, 2, 3)
    RS_MAX = 4
    PASSES = 16  # distinct lambda lists; a run cycles through them

    def build(self, seed: int) -> Iterator[list[Fraction]]:
        """Each pass has 1, -1 and three generic scalars of its own, so a
        run averages over many scalars rather than depending on three."""
        rng = random.Random(seed)
        return itertools.cycle([
            [Fraction(1), Fraction(-1)] + generic_lambdas(rng, 3)
            for _ in range(self.PASSES)
        ])

    def run_pass(self, inputs: Iterator[list[Fraction]], clock: Clock) -> Pass:
        """One request per lam: the whole box at that scalar, 6,888 cases.
        The requests are alike, so their percentiles are steady.  Each s is
        timed apart, so that the clock samples the host inside a request."""
        p = Pass()
        expected = EXPECTED["oracle_sweep_cases"]
        for lam in next(inputs):
            spans = []
            for s in self.S_VALUES:
                report, span = clock.time(cc.verify_grid, s_values=(s,), rs_max=self.RS_MAX,
                                          lo=-3, hi=3, m_values=(1, 2, 3), lambdas=(lam,))
                spans.append(span)
                p.items += report.cases
                bad = (
                    len(report.formula_mismatches) + len(report.euler_failures)
                    + len(report.rank_identity_failures) + abs(report.cases - expected[str(s)])
                )
                p.attempted += expected[str(s)]
                p.failed += min(bad, expected[str(s)])
            p.latency_spans.append(spans)
            p.item_spans.append(spans)
        return p


# ----------------------------------------------------------------- growth


GROWTH_BOXES = [((1,), 9), ((2,), 7), ((1, 0), 6), ((1, 1, 0), 4)]
PEAK_BOX = ((1, 1, 0), 5)


class Growth:
    """family_counts over four geometries; the inputs are fixed by the maths."""

    name = "growth"
    uses_seed = False

    def build(self, seed: int) -> None:
        return None

    def run_pass(self, _inputs, clock: Clock) -> Pass:
        """One request: the whole table.  Its four calls differ in size, so
        their latencies are summed rather than counted apart, which would
        put percentiles between sizes."""
        p = Pass()
        spans = []
        for b, r_max in GROWTH_BOXES:
            _, span = clock.time(self._count, p, b, r_max)
            spans.append(span)
        p.latency_spans.append(spans)
        p.item_spans.append(spans)
        return p

    def warm_up(self, _inputs) -> Pass:
        """One untimed call on PEAK_BOX, whose 31,293 families at rank 5 set
        the run's peak memory.  Timed, its two seconds in one call would
        leave the clock blind to the host inside it."""
        p = Pass()
        self._count(p, *PEAK_BOX)
        return p

    @staticmethod
    def _count(p: Pass, b: tuple[int, ...], r_max: int) -> None:
        table = cc.family_counts(cc.CuspGeometry(len(b), b), r_max)
        want = EXPECTED["growth_counts"][",".join(map(str, b))]
        got = [table.counts.get(r) for r in range(1, r_max + 1)]
        p.items += sum(c or 0 for c in got)
        for w, g in zip(want, got):
            p.check(w == g)


# -------------------------------------------------------------- tube-walk


TUBE_GEOMETRIES = [((1,), 5), ((2,), 5), ((1, 0), 5), ((1, 1, 0), 4)]
TPQ_CURVES = [(3, 8), (4, 6), (5, 6)]


@dataclass
class TubeInputs:
    lambdas: list[Fraction]
    sample_seed: int


def _with_dot(build):
    quiver = build()
    return quiver, cc.export_dot(quiver)


def twist(entries: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(v - b[i % len(b)] for i, v in enumerate(entries))


class TubeWalk:
    """(a) AR additivity along the tubes of four geometries, a seeded tenth
    of the labels cross-checked against the oracle; (b) the reference
    quivers, exported as DOT, and Knoerrer descent of their bases."""

    name = "tube-walk"
    uses_seed = True
    LEVELS = range(1, 6)
    SAMPLE_RATE = 0.1

    def build(self, seed: int) -> TubeInputs:
        rng = random.Random(seed)
        return TubeInputs(
            lambdas=[Fraction(1), Fraction(-1)] + generic_lambdas(rng, 2),
            sample_seed=rng.randrange(2**32),
        )

    def run_pass(self, inputs: TubeInputs, clock: Clock) -> Pass:
        """Latencies are the (base, lam) walks; the items' time is every
        request of the pass, parts (a) and (b)."""
        p = Pass()
        walks = []
        for b, max_rank in TUBE_GEOMETRIES:
            geom = cc.CuspGeometry(len(b), b)
            # The largest geometry is walked at one generic scalar, as in
            # acceptance criterion 05; its tube count dwarfs the others.
            lams = inputs.lambdas[2:3] if len(b) == 3 else inputs.lambdas
            bases, span = clock.time(self._bases, geom, max_rank)
            p.item_spans.append(span)
            walks += [(geom, seq, lam) for seq in bases for lam in lams
                      if lam != 1 or any(seq.entries)]
        # Interleave the geometries, whose walks differ in size, so that a
        # drift in host speed during the pass reaches all of them alike.
        rng = random.Random(inputs.sample_seed)
        rng.shuffle(walks)
        for geom, seq, lam in walks:
            _, span = clock.time(self._walk, p, geom, seq, lam, rng)
            p.latency_spans.append(span)
            p.item_spans.append(span)
        self._quivers(p, clock)
        return p

    @staticmethod
    def _bases(geom, max_rank: int) -> list:
        return [
            fam.seq
            for rank in range(1, max_rank + 1)
            for fam in cc.enumerate_rank(geom, rank).families
            if fam.m == 1
        ]

    def _walk(self, p: Pass, geom, seq, lam: Fraction, sample: random.Random) -> None:
        for m in self.LEVELS:
            label = cc.classify_label(cc.BundleTriple(seq, m, lam), geom)
            ars = cc.ar_sequence(geom, label)
            p.check(sum(x.rank for x in ars.middle) == 2 * label.rank)
            p.items += 1
            if sample.random() < self.SAMPLE_RATE:
                low = cc.BundleTriple(cc.SSeq(geom.s, twist(seq.entries, geom.b)), m, lam)
                h0 = cc.oracle_dims(low).h0
                p.check(label.rank == m * seq.r + h0)

    def _quivers(self, p: Pass, clock: Clock) -> None:
        b1 = cc.CuspGeometry(1, (1,))
        t38 = cc.geometry_of(3, 8)
        builds = [
            ("cusp_b1_quiver.dot",
             lambda: cc.cusp_quiver(b1, max_base_rank=2, depth=3, lambdas=(1, 2))),
            ("tpq38_special_tube.dot",
             lambda: cc.tpq_quiver(t38, depth=3, bases=[(cc.SSeq(2, (1, 0)), 1)])),
            ("cusp b=1", lambda: cc.cusp_quiver(b1, max_base_rank=6, depth=6)),
        ] + [
            (f"T{pq[0]},{pq[1]}",
             lambda g=cc.geometry_of(*pq): cc.tpq_quiver(g, depth=5, max_base_rank=4))
            for pq in TPQ_CURVES
        ]
        for key, build in builds:
            (quiver, dot), span = clock.time(_with_dot, build)
            p.item_spans.append(span)
            if key.endswith(".dot"):
                p.check(dot == (GOLDEN / key).read_text())
            else:
                got = [len(quiver.nodes), len(quiver.arrows),
                       hashlib.sha256(dot.encode()).hexdigest()]
                p.check(got == EXPECTED["quivers"][key])
        for pq in TPQ_CURVES:
            counts, span = clock.time(self._descend_counts, cc.geometry_of(*pq))
            p.item_spans.append(span)
            p.check(counts == EXPECTED["descend"][f"T{pq[0]},{pq[1]}"])

    @staticmethod
    def _descend_counts(geom) -> list[int]:
        # Bottom labels of the quiver's bases at lam = -1 and 2: how many
        # curve labels they descend to, and how many are branch labels.
        labels = split = 0
        for rank in range(1, 5):
            for fam in cc.enumerate_rank(geom.cusp, rank).families:
                if fam.m != 1:
                    continue
                for lam in (Fraction(-1), Fraction(2)):
                    label = cc.classify_label(cc.BundleTriple(fam.seq, 1, lam), geom.cusp)
                    down = cc.descend(geom, label)
                    labels += len(down)
                    split += sum(1 for d in down if d.kind.value == "split")
        return [labels, split]


# ------------------------------------------------------------- cli-stream


STREAMS = [
    ("cohom", ["cohom", "--s", "2", "--batch"]),
    ("classify", ["classify", "--s", "2", "--b", "1,0", "--batch"]),
    ("descend", ["tpq-descend", "--p", "3", "--q", "8", "--batch"]),
]
ROUNDS = 6  # distinct rounds of requests; a run cycles through them
RECORDS_PER_STREAM = 4_000
BAD_RATE = 0.02
ONESHOTS = 10


@dataclass
class Record:
    line: str
    expect_error: str | None  # the error kind a deliberately bad record must give


@dataclass
class Round:
    streams: dict[str, list[Record]]
    oneshots: list[list[str]]


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def bare_interpreter() -> None:
    subprocess.run([sys.executable, "-c", "pass"], env=cli_env(), check=True)


# `python -m cuspcm.cli`, which then reports its own peak RSS on stderr.
# The child's ru_maxrss would not do: Linux carries the high-water mark of
# the forking benchmark, which holds all the inputs, across exec.
CLI_MAIN = """\
import runpy, sys
try:
    runpy.run_module("cuspcm.cli", run_name="__main__", alter_sys=True)
finally:
    for line in open("/proc/self/status"):
        if line.startswith("VmHWM:"):
            sys.stderr.write("\\nVmHWM_kB " + line.split()[1] + "\\n")
"""


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-c", CLI_MAIN, *args]


def _aperiodic(e: tuple[int, ...], s: int) -> bool:
    n = len(e)
    return all(n % c or e != e[:c] * (n // c) for c in range(s, n, s))


LAMBDA_TEXTS = [1, -1, 2, -2, 3, "1/2", "-1/2", "3/2", "-2/3", "1/3"]


def _lam_text(rng: random.Random):
    return rng.choice(LAMBDA_TEXTS)


def _good_seq(rng: random.Random, lo: int) -> list[int]:
    values = range(lo, 4)
    while True:
        e = tuple(rng.choices(values, k=2 * rng.choice((1, 2, 3))))
        if _aperiodic(e, 2):
            return list(e)


def _record(rng: random.Random, stream: str) -> Record:
    if rng.random() < BAD_RATE:
        return _bad_record(rng, stream)
    if stream == "descend" and rng.random() < 0.01:
        return Record(json.dumps({"free": True}), None)
    seq = _good_seq(rng, -3 if stream == "cohom" else 0)
    lam = _lam_text(rng)
    if stream != "cohom" and not any(seq) and lam == 1:
        lam = 2
    return Record(json.dumps({"seq": seq, "m": rng.randint(1, 3), "lambda": lam}), None)


def _bad_record(rng: random.Random, stream: str) -> Record:
    good = {"seq": _good_seq(rng, 0), "m": rng.randint(1, 3), "lambda": 2}
    invalid = [
        dict(good, seq=good["seq"] + [1]),  # length not a multiple of s
        dict(good, m=0),
        dict(good, **{"lambda": "0"}),
        dict(good, **{"lambda": "x/2"}),
        {k: v for k, v in good.items() if k != "m"},
    ]
    if stream == "cohom" or rng.random() < 0.3:
        return Record(json.dumps(rng.choice(invalid)), "invalid_input")
    if rng.random() < 0.5:
        bad = dict(good, seq=[-1] + good["seq"][1:])
    else:
        bad = dict(good, seq=[0, 0], **{"lambda": 1})
    return Record(json.dumps(bad), "kahn_violation")


def _oneshot(rng: random.Random, command: str) -> list[str]:
    # Options go as --key=value so that negative scalars are not read as flags.
    if command == "tpq-geometry":
        p = rng.randint(3, 6)
        opts = {"p": p, "q": rng.randint(max(p, 7), 12)}
    else:
        s, b = rng.choice([(1, "1"), (2, "1,0")])
        opts = {"s": s, "b": b}
        if command == "enumerate":
            opts["rank"] = 3
        else:
            seq = _good_seq(rng, 0) if s == 2 else [rng.randint(1, 4)]
            opts["seq"] = ",".join(map(str, seq))
            if command != "canon":
                lam = _lam_text(rng)
                lam = 2 if lam == 1 and not any(seq) else lam
                opts.update(m=rng.randint(1, 3), **{"lambda": lam})
        if command in ("cohom", "canon"):
            del opts["b"]
    return [command] + [f"--{k}={v}" for k, v in opts.items()]


# The library's answer for each request, in the JSON shapes the CLI documents.


def _report(r) -> dict:
    return {"theta": r.theta, "delta": r.delta, "h0": r.h0, "h1": r.h1}


def _label(lab) -> dict:
    if lab.is_free:
        return {"kind": "free", "rank": lab.rank}
    t = lab.triple
    return {"kind": "module", "seq": list(t.seq.entries), "m": t.m,
            "lam": str(t.lam), "rank": lab.rank}


def _curve_label(lab) -> dict:
    kind = lab.kind.value
    if kind == "free":
        return {"kind": kind}
    out = {"kind": kind, "seq": list(lab.seq.entries), "m": lab.m}
    if kind == "single":
        out["lam"] = str(lab.lam)
    else:
        out.update(sign=lab.sign, branch=lab.branch)
    return out


def expected_stream(stream: str, rec: dict) -> dict:
    if stream == "descend" and rec.get("free"):
        geom = cc.geometry_of(3, 8)
        return {"labels": [_curve_label(x) for x in cc.descend(geom, cc.free_label(geom.cusp))]}
    triple = cc.BundleTriple(cc.SSeq(2, tuple(rec["seq"])), rec["m"], Fraction(rec["lambda"]))
    if stream == "cohom":
        return _report(cc.cohom_dims(triple))
    if stream == "classify":
        return _label(cc.classify_label(triple, cc.CuspGeometry(2, (1, 0))))
    geom = cc.geometry_of(3, 8)
    label = cc.classify_label(triple, geom.cusp)
    return {"labels": [_curve_label(x) for x in cc.descend(geom, label)]}


def expected_oneshot(argv: list[str]) -> dict:
    command = argv[0]
    opt = dict(a.split("=", 1) for a in argv[1:])
    if command == "tpq-geometry":
        g = cc.geometry_of(int(opt["--p"]), int(opt["--q"]))
        return {"p": g.p, "q": g.q, "s": g.cusp.s, "b": list(g.cusp.b), "t": g.t,
                "case": g.case_tag.value}
    s = int(opt["--s"])
    geom = None
    if "--b" in opt:
        geom = cc.CuspGeometry(s, tuple(int(v) for v in opt["--b"].split(",")))
    if command == "enumerate":
        piece = cc.enumerate_rank(geom, int(opt["--rank"]))
        return {
            "rank": piece.rank, "free": piece.free,
            "families": [{"seq": list(f.seq.entries), "m": f.m, "base": f.base.value,
                          "rank": f.rank} for f in piece.families],
            "exceptional": [_label(x) for x in piece.exceptional],
        }
    seq = cc.SSeq(s, tuple(int(v) for v in opt["--seq"].split(",")))
    if command == "canon":
        return {"canonical": list(cc.canonical_form(seq).entries),
                "aperiodic": cc.is_aperiodic(seq)}
    triple = cc.BundleTriple(seq, int(opt["--m"]), Fraction(opt["--lambda"]))
    if command == "cohom":
        return _report(cc.cohom_dims(triple))
    return _label(cc.classify_label(triple, geom))


class CliStream:
    """A pass is one round: three --batch streams and ten single-shot
    invocations, each a fresh interpreter running `python -m cuspcm.cli`."""

    name = "cli-stream"
    uses_seed = True
    COMMANDS = ["cohom", "classify", "canon", "enumerate", "tpq-geometry"]

    def build(self, seed: int) -> Iterator[Round]:
        rng = random.Random(seed)
        return itertools.cycle([self._round(rng) for _ in range(ROUNDS)])

    def _round(self, rng: random.Random) -> Round:
        streams = {
            name: [_record(rng, name) for _ in range(RECORDS_PER_STREAM)]
            for name, _ in STREAMS
        }
        commands = self.COMMANDS * (ONESHOTS // len(self.COMMANDS))
        rng.shuffle(commands)
        return Round(streams, [_oneshot(rng, c) for c in commands])

    def run_pass(self, inputs: Iterator[Round], _clock: Clock, call=None) -> Pass:
        """Every request of the next round as its own process (or through
        `call`); the outputs are checked afterwards, by `verify`."""
        rnd = next(inputs)
        call = call or run_cli
        # Each child is mostly process start, which the in-process reference
        # does not track; a bare interpreter start before each one is its
        # reference instead.
        starts = Clock(bare_interpreter, reference_s=0.05, interval=0, reps=1)
        p = Pass(clock=starts)
        outputs: dict[str, list[str]] = {}
        for name, args in STREAMS:
            stdin = "".join(r.line + "\n" for r in rnd.streams[name])
            (out, peak_kb), span = starts.time(call, args, stdin)
            p.child_peak_kb = max(p.child_peak_kb, peak_kb)
            p.item_spans.append(span)
            p.items += len(rnd.streams[name])
            outputs[name] = out.splitlines()
        shots = []
        for argv in rnd.oneshots:
            (out, peak_kb), span = starts.time(call, argv, "")
            p.child_peak_kb = max(p.child_peak_kb, peak_kb)
            p.latency_spans.append(span)
            shots.append(out)
        starts.sample()
        p.outputs = (rnd, outputs, shots)
        return p

    def replay(self, inputs: Iterator[Round], clock: Clock) -> Pass:
        """A round of requests through cuspcm.cli.main in this process."""
        return self.run_pass(inputs, clock, call=run_main)

    def verify(self, p: Pass, _inputs) -> None:
        """Compare every output with the library's own answer, in-process.
        Rounds recur, so each answer is computed once per run."""
        rnd, outputs, shots = p.outputs
        for name, _ in STREAMS:
            records = rnd.streams[name]
            lines = outputs[name]
            p.check(len(lines) == len(records), abs(len(lines) - len(records)))
            for rec, line in zip(records, lines):
                got = _parse(line)
                p.error_lines += "error" in got
                if rec.expect_error:
                    error = got.get("error")
                    p.check(isinstance(error, dict) and error.get("kind") == rec.expect_error)
                else:
                    p.check(got == _expected_line(name, rec.line))
        for argv, out in zip(rnd.oneshots, shots):
            p.check(_parse(out) == _expected_argv(tuple(argv)))


@functools.lru_cache(maxsize=None)
def _expected_line(stream: str, line: str) -> dict:
    return expected_stream(stream, json.loads(line))


@functools.lru_cache(maxsize=None)
def _expected_argv(argv: tuple[str, ...]) -> dict:
    return expected_oneshot(list(argv))


def _parse(line: str) -> dict:
    try:
        got = json.loads(line)
    except ValueError:
        return {}
    return got if isinstance(got, dict) else {}


def run_cli(argv: list[str], stdin: str) -> tuple[str, int]:
    """`python -m cuspcm.cli` in a fresh interpreter: its stdout, or "" when
    it exits with an error, and its peak RSS in kB."""
    done = subprocess.run(cli_argv(argv), input=stdin, capture_output=True, text=True,
                          env=cli_env(), check=False)
    tail = done.stderr.rsplit("VmHWM_kB ", 1)
    peak_kb = int(tail[1]) if len(tail) == 2 else 0
    return (done.stdout if done.returncode == 0 else ""), peak_kb


def run_main(argv: list[str], stdin: str) -> tuple[str, int]:
    """cuspcm.cli.main with stdin and stdout swapped for strings; no peak
    RSS of its own, so 0."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out):
            cuspcm.cli.main(argv)
    finally:
        sys.stdin = saved
    return out.getvalue(), 0


def touch_every_layer() -> Pass:
    """Milliseconds of small calls that reach every traced function once,
    so a traced run measures every layer even where its workload does not
    use it.  Returns the CLI record counts of its one batch."""
    b1 = cc.CuspGeometry(1, (1,))
    t38 = cc.geometry_of(3, 8)
    cc.verify_grid(s_values=(1,), rs_max=2, lo=-1, hi=1, m_values=(1,), lambdas=(2,))
    cc.oracle_dims(cc.BundleTriple(cc.SSeq(1, (1, -1)), 2, Fraction(3)))
    cc.family_counts(b1, 3)
    cc.ar_sequence(b1, cc.classify_label(cc.BundleTriple(cc.SSeq(1, (1,)), 2, Fraction(2)), b1))
    cc.export_dot(cc.cusp_quiver(b1, max_base_rank=2, depth=2))
    cc.export_dot(cc.tpq_quiver(t38, depth=2, max_base_rank=2))
    bottom = cc.BundleTriple(cc.SSeq(2, (1, 0)), 1, Fraction(-1))
    cc.descend(t38, cc.classify_label(bottom, t38.cusp))
    stdin = '{"seq":[2,-1],"m":1,"lambda":"3/2"}\n{"seq":[1],"m":0,"lambda":1}\n'
    lines = run_main(["cohom", "--s", "1", "--batch"], stdin)[0].splitlines()
    return Pass(items=2, error_lines=sum("error" in _parse(x) for x in lines))


WORKLOADS = {w.name: w for w in (OracleSweep(), Growth(), TubeWalk(), CliStream())}
