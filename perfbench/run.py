"""cuspcm benchmark: one workload per process, a single closed-loop client.

    python3 perfbench/run.py --workload oracle-sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  With `--trace 0` the end-to-end metrics are measured; with
`--trace 1` the run times one pass untraced, one pass with every public
function of the package wrapped in spans, and reports per-layer metrics.
Human-readable lines come first; the last line of stdout is one JSON
object.  The exit code is 1 when any output is wrong, 2 when the sources
are missing.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ["oracle-sweep", "growth", "tube-walk", "cli-stream"]
SETUP_PROBES = 5
CLI_PROBES = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cuspcm").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def child_seconds(clock, argv: list[str], env: dict | None = None) -> float:
    """Start-to-exit time of a child process, in reference seconds."""
    _, span = clock.time(subprocess.run, argv, env=env, check=True, stdout=subprocess.DEVNULL)
    return clock.seconds(span)


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def verify(w, p, inputs) -> None:
    # Workloads whose outputs are costly to check do it here, untimed.
    if hasattr(w, "verify"):
        w.verify(p, inputs)
        p.outputs = None


def timed_run(w, inputs, args, clock) -> tuple[dict, int, int]:
    warm = w.warm_up(inputs) if hasattr(w, "warm_up") else None
    passes = []
    t_start = perf_counter()
    while True:
        t0 = perf_counter()
        passes.append(w.run_pass(inputs, clock))
        # Whole passes, as many as end the run nearest to --seconds.
        if perf_counter() - t_start + (perf_counter() - t0) / 2 > args.seconds:
            break
    if w.name == "cli-stream":
        peak_mb = max(p.child_peak_kb for p in passes) / 1024
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    clock.sample()
    for p in passes:
        verify(w, p, inputs)

    probe = [sys.executable, str(Path(__file__).resolve()), "--workload", w.name,
             "--seed", str(args.seed), "--setup-probe"]
    setups = [child_seconds(clock, probe) for _ in range(SETUP_PROBES)]
    latencies = [(p.clock or clock).seconds(span) for p in passes for span in p.latency_spans]
    q = quartiles(latencies)
    rates = [p.items / sum(map((p.clock or clock).seconds, p.item_spans)) for p in passes]
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (peak_mb, "MB", 1),
        "throughput_per_s": (statistics.median(rates), "1/s", len(passes)),
        "latency_p50_ms": (q[1] * 1e3, "ms", len(latencies)),
        "latency_p75_ms": (q[2] * 1e3, "ms", len(latencies)),
    }
    print(f"# host speed: reference loop mean {statistics.fmean(clock.took) * 1e3:.3f} ms "
          f"over {len(clock.took)} samples; request times are scaled to "
          f"{clock.reference_s * 1e3:g} ms")
    checked = passes + [warm] if warm else passes
    return (metrics, sum(p.attempted for p in checked), sum(p.failed for p in checked))


def traced_run(w, inputs, workloads, clock) -> tuple[dict, int, int, list]:
    body = w.replay if w.name == "cli-stream" else w.run_pass
    t0 = perf_counter()
    plain = body(inputs, clock)
    untraced_s = perf_counter() - t0

    rec = spans.Recorder()
    root = f"workload:{w.name}"
    with spans.tracing(rec, workloads.cc):
        with rec.span(root):
            traced = body(inputs, clock)
        with rec.span("probe"):
            probe = workloads.touch_every_layer()
    verify(w, plain, inputs)
    verify(w, traced, inputs)
    duration, self_sum = rec.check_root(root)
    print(f"# root span {root}: {duration:.6f}s, self times under it sum to {self_sum:.6f}s")

    env = workloads.cli_env()
    interp = statistics.median(
        child_seconds(clock, [sys.executable, "-c", "pass"], env) for _ in range(CLI_PROBES))
    imported = statistics.median(
        child_seconds(clock, [sys.executable, "-c", "import cuspcm.cli"], env)
        for _ in range(CLI_PROBES))

    metrics = {}
    for name, unit, get in spans.LAYER_METRICS:
        value = get(rec)
        if value is not None:
            fn = rec.by_function(".".join(name.split(".")[:2]))
            metrics[name] = (value, unit, fn[0] if fn and unit in ("s", "us") else 1)
    records = traced.items if w.name == "cli-stream" else 0
    errors = traced.error_lines if w.name == "cli-stream" else 0
    metrics.update({
        "cli.interpreter_s": (interp, "s", CLI_PROBES),
        "cli.import_s": (imported - interp, "s", CLI_PROBES),
        "cli.records": (records + probe.items, "count", 1),
        "cli.error_records": (errors + probe.error_lines, "count", 1),
        "trace.overhead_ratio": (duration / untraced_s, "ratio", 1),
    })
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    return metrics, attempted, failed, rec.dump()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cuspcm" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'cuspcm'}; run from a cuspcm checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    # One CPU for the run and every child it starts, so that the clock
    # samples the host's speed where the work runs: the two vCPUs of a
    # shared host change speed independently.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    w = workloads.WORKLOADS[args.workload]
    inputs = w.build(args.seed)
    if args.setup_probe:
        return 0

    record = {
        "workload": w.name,
        "seed": args.seed,
        "seed_used": w.uses_seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit(),
        "src_sha256": src_digest(),
        "loadavg_1m": os.getloadavg()[0],
    }
    span_dump = None
    clock = workloads.Clock()
    if args.trace:
        metrics, attempted, failed, span_dump = traced_run(w, inputs, workloads, clock)
    else:
        metrics, attempted, failed = timed_run(w, inputs, args, clock)

    print("# " + " ".join(f"{k}={v}" for k, v in record.items()))
    if not w.uses_seed:
        print(f"# {w.name} ignores the seed: its inputs are fixed by the mathematics")
    print(f"# {'metric':40} {'value':>16} {'unit':6} n")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:40} {value:16.6f} {unit:6} {n}")
    print(f"  {'fail_ratio':40} {failed / max(attempted, 1):16.6f} {'ratio':6} {attempted}")

    out = HERE / "results"
    out.mkdir(exist_ok=True)
    (out / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "run": record,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()},
        "spans": span_dump,
    }, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, n) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
