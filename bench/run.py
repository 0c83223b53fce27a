"""gwstack benchmark: one workload per run, each in its own process.

    python3 bench/run.py --workload table|query|targets|cli \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports gwstack from ``src/``.
The op list comes from ``--seed`` alone.

The run is pinned to one CPU, and its children with it.  Every time
it reports is scaled to a reference speed of the host, as
:mod:`speed` describes.

With ``--trace 0`` the timed passes repeat the op list for
``--seconds``; the first pass always runs the whole list.  Each op's
latency is the median of its scaled runs; ``wall_s`` is their sum over
the op list, ``op_p50_ms`` and ``op_p90_ms`` their percentiles.  A
set-up sample is a fresh ``import gwstack.cli``, timed in a child
interpreter, plus the workload's set-up in the benchmark process,
scaled the same way; ``setup_s`` is the median of ``SETUP_REPS``
samples before the first pass and one before each later pass.

With ``--trace 1`` the run makes one pass that calls gwstack as a
library, each op untraced and then traced, back to back; ``cli`` first
makes one pass of fresh interpreters and one traced in-process replay
through ``cli.main``, and its library pass makes the calls each
subcommand makes.  The run reports the per-layer metrics and writes
every span to ``bench/.work/trace-<workload>-<seed>.json``.

Every output is checked, outside the timed intervals, against
``oracles``; a mismatch, an exception or an unexpected exit code counts
the op as failed and the run goes on.  The last stdout line is the
result; the line before it records the seed, a digest of the op list,
the commit, the Python version and nproc.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from spans import NoTrace, Tracer
from speed import SpeedProbe, at_reference, calibration_s

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
SETUP_REPS = 3
MAX_PASSES = 200
PROBE_SPAWNS = 7  # fresh interpreters timed for cli.interp_ms and cli.import_ms
MAX_REPORTED_FAILURES = 5
CLI_SUBCOMMANDS = ("compute", "table", "verify", "ring", "cache")
# Spans whose summed duration is a per-layer metric ``<name>_s``.
SPAN_TIMES = (
    "ring.build_p1b", "ring.specialize", "ring.qmul", "ring.generation_check",
    "engine.init", "engine.enumerate", "engine.gw", "engine.preload",
    "engine.snapshot", "golden.verify", "records.load", "records.save",
)
# Counts the workloads keep while traced.
COUNTS = (
    "engine.memo_entries", "engine.rows_nonzero", "golden.rows_checked",
    "records.records_loaded", "records.records_saved", "records.bytes_written",
)
LAYERS = ("ring", "engine", "golden", "records", "cli")
WAIT_NOTE = "no wait time: one thread, one client in a closed loop, no queues"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class _Failed:
    """The output of an op that raised."""


def run_pass(wl, ops, tracers, mode, failures, deadline=None, probe=None):
    """Run every op once under each tracer, back to back, in alternating
    order from one op to the next; stop early at ``deadline``.  A
    ``probe`` samples the host's speed between ops.

    Returns the per-op ``(start, end)`` under each tracer and the number
    of runs that failed.
    """
    wl.before_pass()
    # What the benchmark holds (references, targets, spans) is left out of
    # every collection, so that collecting costs an op what it would cost
    # in a process that holds only gwstack's own objects.
    gc.collect()
    gc.freeze()
    intervals, failed = [[] for _ in tracers], 0
    for index, op in enumerate(ops):
        if deadline is not None and perf_counter() > deadline:
            break
        turns = list(zip(tracers, intervals))
        for tr, spans in turns[::-1] if index % 2 else turns:
            tr.op = index
            wl.before_op(mode)
            gc.collect()  # each op starts from the same heap, whatever ran before it
            start = perf_counter()
            try:
                out = tr.call("bench.op", wl.run, op, tr, mode)
            except Exception:
                out = _Failed
                reason = traceback.format_exc(limit=3)
            spans.append((start, perf_counter()))
            if out is not _Failed:
                try:
                    ok = wl.check(op, out, mode)
                    reason = f"output {out!r:.300} does not match the reference"
                except Exception:
                    ok = False
                    reason = traceback.format_exc(limit=3)
                if ok:
                    continue
            failed += 1
            if len(failures) < MAX_REPORTED_FAILURES:
                failures.append(f"[{mode}] op {index} {json.dumps(op)}: {reason}")
        if probe is not None:
            probe.tick()
    return intervals, failed


def seconds(intervals) -> list[float]:
    return [end - start for start, end in intervals]


def quantile_ms(values, q):
    """The q-th percentile (inclusive method), in milliseconds."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1000


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


IMPORT_CODE = (
    "import time; t = time.perf_counter(); import gwstack.cli; "
    "print(time.perf_counter() - t)"
)


def spawn(code: str, times: int) -> list[tuple[float, str]]:
    """Wall seconds and stdout of ``times`` fresh interpreters running ``code``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(times):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, timeout=60, check=True,
        )
        out.append((perf_counter() - start, proc.stdout))
    return out


def import_s(times: int) -> float:
    """Median time of a fresh ``import gwstack.cli``, timed inside the child."""
    return statistics.median(float(text) for _, text in spawn(IMPORT_CODE, times))


def timed_setup(wl, tr) -> float:
    """One set-up sample at the reference speed: the workload's set-up
    plus a fresh import."""
    before = calibration_s()
    start = perf_counter()
    wl.setup(tr)
    elapsed = perf_counter() - start + import_s(1)
    return at_reference(elapsed, before, calibration_s())


def layer_metrics(tracer, spawn_latencies, overhead_frac):
    totals = tracer.totals()
    metrics = {f"{name}_s": totals.get(name, 0.0) for name in SPAN_TIMES}
    metrics.update((name, tracer.counts[name]) for name in COUNTS)
    metrics["ring.build_p1b_calls"] = len(tracer.durations("ring.build_p1b"))
    memo = tracer.counts["engine.memo_entries"]
    metrics["engine.nonzero_ratio"] = tracer.counts["engine.rows_nonzero"] / memo if memo else 0.0
    cli_names = ["cli.interp_ms", "cli.import_ms", "cli.spawn_overhead_ms"]
    cli_names += [f"cli.main_ms.{sub}" for sub in CLI_SUBCOMMANDS]
    metrics.update(dict.fromkeys(cli_names, 0.0))
    self_times = tracer.self_times()
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_times.get(layer, 0.0)
    if spawn_latencies is not None:
        metrics["cli.interp_ms"] = statistics.median(t for t, _ in spawn("pass", PROBE_SPAWNS)) * 1000
        metrics["cli.import_ms"] = import_s(PROBE_SPAWNS) * 1000
        for sub in CLI_SUBCOMMANDS:
            durations = tracer.durations(f"cli.main.{sub}")
            metrics[f"cli.main_ms.{sub}"] = statistics.median(durations) * 1000
        in_process = {
            op: end - start
            for name, start, end, _, op in tracer.spans
            if name.startswith("cli.main.")
        }
        metrics["cli.spawn_overhead_ms"] = statistics.median(
            (spawned - in_process[op]) * 1000 for op, spawned in enumerate(spawn_latencies)
        )
        # A cli.main span has no child spans, so its own self time is the
        # whole command.  The cli layer's self time is that minus the time
        # the library replay of the same op spends in the other layers,
        # which their own self times already count.
        library = sum(
            end - start
            for name, start, end, parent, _ in tracer.spans
            if parent is not None and tracer.spans[parent][0] == "bench.op"
            and not name.startswith("cli.main.")
        )
        metrics["cli.self_s"] = sum(in_process.values()) - library
    metrics["trace.overhead_frac"] = overhead_frac
    return metrics


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "gwstack").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    """HEAD of the checkout; None outside a git repository."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gwstack" / "__init__.py").is_file():
        print(f"bench: no gwstack sources in {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.environ.pop("GWSTACK_CACHE", None)
    sys.path.insert(0, str(SRC))

    import gwstack.cli  # imports all five layers

    if Path(gwstack.__file__).resolve().parent != SRC / "gwstack":
        print(f"bench: gwstack imported from {gwstack.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    # The host's speed differs from one CPU to the other; the ops, the
    # speed probe and the children they spawn all run on one.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    wl = workloads.WORKLOADS[args.workload](args.seed)
    ops = wl.make_ops()
    tracer = Tracer() if args.trace else None
    failures: list[str] = []
    try:
        untraced = NoTrace()
        if not args.trace:
            # Set-up runs SETUP_REPS times before the first pass and once
            # more before each later pass, so its samples are spread over
            # the run like the passes are.
            setups = [timed_setup(wl, untraced) for _ in range(SETUP_REPS)]
            # The first pass runs the whole op list; later passes run
            # until the time is up, so every workload measures for the
            # same span of time whatever its pass length.
            samples = [[] for _ in ops]
            unscaled_s, calibrations = 0.0, []
            passes, failed = 0, 0
            deadline = perf_counter() + args.seconds
            while passes < MAX_PASSES and perf_counter() < deadline:
                if passes:
                    setups.append(timed_setup(wl, untraced))
                with SpeedProbe(timer=wl.e2e_mode != "spawn") as probe:
                    (times,), bad = run_pass(
                        wl, ops, [untraced], wl.e2e_mode, failures,
                        deadline if passes else None, probe,
                    )
                for sample, interval in zip(samples, times):
                    sample.append(probe.scaled(*interval))
                unscaled_s += sum(seconds(times))
                calibrations += probe.seconds
                passes += 1
                failed += bad
            attempted = sum(map(len, samples))
            # An op's latency is the median over its runs; the speed is
            # sampled often enough that no run needs to be dropped.
            per_op = [statistics.median(sample) for sample in samples]
            metrics = {
                "setup_s": statistics.median(setups),
                "wall_s": sum(per_op),
                "op_p50_ms": statistics.median(per_op) * 1000,
                "op_p90_ms": quantile_ms(per_op, 90),
                "peak_rss_mb": peak_rss_mb(children=wl.e2e_mode == "spawn"),
            }
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            counts = {
                "passes": passes, "setups": len(setups), "op_samples": attempted,
                "unscaled_op_s": unscaled_s,
                "calibration_ms_p10_p50_p90": [
                    quantile_ms(calibrations, q) for q in (10, 50, 90)
                ],
            }
        else:
            tracer.op = "setup"
            wl.setup(tracer)
            failed, runs, spawn_lat = 0, 0, None
            if wl.e2e_mode == "spawn":
                (spawn_times,), failed = run_pass(wl, ops, [untraced], "spawn", failures)
                spawn_lat = seconds(spawn_times)
                _, bad = run_pass(wl, ops, [tracer], "main", failures)
                failed += bad
                runs += 2
            # Each op runs untraced and traced, back to back, so both see
            # the same machine speed; the sums give the overhead.
            (plain, traced), bad = run_pass(wl, ops, [untraced, tracer], "library", failures)
            failed += bad
            runs += 2
            overhead_frac = sum(seconds(traced)) / sum(seconds(plain)) - 1
            metrics = layer_metrics(tracer, spawn_lat, overhead_frac)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            attempted = runs * len(ops)
            counts = {"passes": runs, "spans": len(tracer.spans)}
    finally:
        wl.close()

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops_per_pass": len(ops),
        "ops_sha256": hashlib.sha256(json.dumps(ops).encode()).hexdigest(),
        **counts,
        "failed_frac": failed / attempted,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(cpus),
        "cpu": min(cpus),
        "wait": WAIT_NOTE,
    }
    if tracer:
        WORK.mkdir(exist_ok=True)
        out = WORK / f"trace-{args.workload}-{args.seed}.json"
        out.write_text(
            json.dumps({"info": info, "metrics": metrics, "spans": tracer.records()})
        )
        info["trace_file"] = str(out.relative_to(ROOT))
    for line in failures:
        print(f"bench: failed {line}", file=sys.stderr)
    print(json.dumps({"info": info}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
