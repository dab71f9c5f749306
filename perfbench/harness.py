"""The closed-loop runner behind run.py: rounds, checks, set-up time, report.

A run executes its workload's batch in rounds, every request once per round,
until the measured time is used up.  The host this benchmark was written on
switches between speed levels up to 2x apart, every second or so and for
minutes at a time, so wall time alone does not repeat from run to run.  A
timed run therefore reads the host's speed with ``calibrate.reading_ns``
between requests, and converts each execution's latency to the latency at the
reference speed: latency x ``calibrate.REFERENCE_NS`` / (mean of the readings
just before and just after it).  A request's reference latency is the median
over its rounds.  The end-to-end metrics ending in ``_ref`` are computed from
these; the wall-clock ones are printed beside them.  ``setup_s`` is
converted the same way, with a fresh interpreter that only imports numpy as
the reference task.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pairwell
from pairwell import cimethod
from pairwell.errors import PairwellError

import calibrate
import checks
import machine
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

_SETUP_REPEATS = 7
# A fresh interpreter that only imports numpy takes about this long at the
# fast level of the machine in README.md; setup_s is stated at this speed.
REFERENCE_STARTUP_S = 0.16
# Host-speed readings per round of a timed run; a batch of fewer requests is
# read before every request.
_READINGS_PER_ROUND = 20

_SETUP_CODE = ("import sys; sys.path[:0] = sys.argv[1:3]; import pairwell, workloads; "
               "workloads.make_batch(sys.argv[3], int(sys.argv[4]))")
_STARTUP_CODE = "import numpy"


class Pass:
    """Outcome of running a batch of requests in one or more rounds."""

    def __init__(self, size: int):
        self.attempted = 0
        self.rounds = 0
        self.measured_ns = 0
        self.latencies_ns: list[int] = []
        self.reference_ns: list[list[float]] = [[] for _ in range(size)]
        self.succeeded = [True] * size
        self.failures: list[tuple[object, str]] = []
        self.wrong = 0
        self.bytes_written = 0
        self.peak_rss_mb: float | None = None

    @property
    def ops_per_s(self) -> float:
        """Successful executions per second of measured time."""
        return len(self.latencies_ns) / (self.measured_ns / 1e9) if self.measured_ns else 0.0

    def request_reference_ns(self) -> list[tuple[float, bool]]:
        """Each request's median reference latency, and whether it always succeeded."""
        return [(statistics.median(samples), ok)
                for samples, ok in zip(self.reference_ns, self.succeeded) if samples]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _check(request, output, result: Pass) -> str | None:
    """Raise CheckFailed on a wrong output; return the reason of any other failure."""
    kind, args = request.kind, request.args
    if kind == "solve":
        checks.pair(output)
    elif kind == "unequal":
        states, pairs = output
        checks.spectrum(states, workloads.SPECTRUM_LEVELS)
        for solved in pairs:
            checks.pair(solved)
    else:
        _, path = output
        result.bytes_written += os.path.getsize(path)
        if kind == "sweep":
            gaps = checks.sweep_csv(path, *args)
            if gaps:
                return f"{gaps} gap rows"
        else:
            checks.density_csv(path, *args[1:])
    return None


def _run_one(request, index: int, scratch: str, tracer, result: Pass) -> int:
    """Execute and check one request; return its latency in nanoseconds."""
    if request.kind == "unequal":
        # Every execution starts cold: one eigensystem cache miss, three hits.
        cimethod._eigensystem.cache_clear()
    error = None
    start = time.perf_counter_ns()
    try:
        if tracer is None:
            output = workloads.execute(request, scratch)
        else:
            output = tracer.call(tracing.REQUEST, workloads.execute, (request, scratch))
    except PairwellError as exc:
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter_ns() - start
    if tracer is not None:
        tracer.active = False
    result.measured_ns += elapsed
    try:
        if error is None and request.kind in workloads.CLI_KINDS and output[0] != 0:
            error = f"cli exit code {output[0]}"
        if error is None:
            error = _check(request, output, result)
    except checks.CheckFailed as exc:
        error = f"check failed: {exc}"
        result.wrong += 1
    finally:
        workloads.remove_output(scratch)
    if error is None:
        result.latencies_ns.append(elapsed)
    else:
        result.succeeded[index] = False
        result.failures.append((request, error))
    return elapsed


def run_rounds(requests, scratch: str, seconds: float | None = None, tracer=None) -> Pass:
    """Run the batch in rounds, closed loop, one client.

    Without ``seconds`` there is one round and no host-speed reading.  With
    it, another round starts while it would end, at the pace of the last one,
    less than half a round past ``seconds`` of measured time, and the host's
    speed is read between requests.  The measured time is the sum of request
    latencies, so checks, readings and bookkeeping are not in it.  Peak RSS
    is read after the first round, so that it measures the same work however
    many rounds fit.
    """
    result = Pass(len(requests))
    every = max(1, len(requests) // _READINGS_PER_ROUND)
    before = calibrate.reading_ns() if seconds is not None else None
    unread: list[tuple[int, int]] = []

    def settle() -> None:
        nonlocal before
        after = calibrate.reading_ns()
        for index, elapsed in unread:
            result.reference_ns[index].append(
                elapsed * calibrate.REFERENCE_NS / ((before + after) / 2))
        unread.clear()
        before = after

    while True:
        round_start_ns = result.measured_ns
        for index, request in enumerate(requests):
            if before is not None and unread and index % every == 0:
                settle()
            result.attempted += 1
            if tracer is not None:
                tracer.request = result.attempted
                tracer.active = True
            unread.append((index, _run_one(request, index, scratch, tracer, result)))
        if before is not None:
            settle()
        result.rounds += 1
        if result.rounds == 1:
            result.peak_rss_mb = _peak_rss_mb()
        round_ns = result.measured_ns - round_start_ns
        if seconds is None or result.measured_ns + round_ns / 2 >= seconds * 1e9:
            return result


def reference_failures() -> list[tuple[object, str]]:
    """The README quickstart pairs, checked once per run."""
    failures = []
    for args, check in (((-1.0, 1, 1), checks.reference_11),
                        ((-1.0, 2, 1), checks.reference_21)):
        try:
            check(pairwell.solve(*args, n_max=workloads.UNEQUAL_N_MAX))
        except (PairwellError, checks.CheckFailed) as exc:
            failures.append((f"reference solve{args}", f"{type(exc).__name__}: {exc}"))
    return failures


def _interpreter_seconds(*args: str) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", *args], check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def setup_seconds(name: str, seed: int) -> tuple[float, float]:
    """Median time for a fresh interpreter to import pairwell and build the inputs.

    Returns the median at the reference speed and the wall-clock median.

    Each set-up is bracketed by fresh interpreters that only import numpy,
    and its time is converted to the reference speed: x
    ``REFERENCE_STARTUP_S`` / (mean of the two bracketing times).  Work that
    pairwell or the batch adds to set-up shows in full; the host's level,
    which moves every interpreter's start alike, cancels.
    """
    before = _interpreter_seconds(_STARTUP_CODE)
    reference, wall = [], []
    for _ in range(_SETUP_REPEATS):
        elapsed = _interpreter_seconds(_SETUP_CODE, str(SRC), str(BENCH), name, str(seed))
        after = _interpreter_seconds(_STARTUP_CODE)
        reference.append(elapsed * REFERENCE_STARTUP_S / ((before + after) / 2))
        wall.append(elapsed)
        before = after
    return statistics.median(reference), statistics.median(wall)


def _percentiles_ms(latencies_ns) -> tuple[float, float]:
    """Median and 90th percentile (inclusive interpolation), in milliseconds."""
    latencies = [ns / 1e6 for ns in latencies_ns] or [0.0]
    p90 = (statistics.quantiles(latencies, n=10, method="inclusive")[8]
           if len(latencies) > 1 else latencies[0])
    return statistics.median(latencies), p90


def _latency_metrics(result: Pass) -> tuple[dict, dict]:
    """The reference-speed metrics, and the wall-clock ones printed beside them."""
    per_request = result.request_reference_ns()
    ok = [ns for ns, succeeded in per_request if succeeded]
    total_s = sum(ns for ns, _ in per_request) / 1e9
    p50, p90 = _percentiles_ms(ok)
    reference = {
        "ops_per_s_ref": (len(ok) / total_s if total_s else 0.0, "1/s"),
        "latency_p50_ms_ref": (p50, "ms"),
        "latency_p90_ms_ref": (p90, "ms"),
    }
    p50, p90 = _percentiles_ms(result.latencies_ns)
    wall = {
        "ops_per_s": (result.ops_per_s, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
    }
    return reference, wall


def run(args) -> int:
    """Run one workload as ``run.py`` describes and print the report."""
    name = args.workload
    print(f"perfbench: workload={name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"machine: {json.dumps(machine.record())}")
    OUT.mkdir(exist_ok=True)
    setup_s, setup_wall_s = setup_seconds(name, args.seed) if args.trace == 0 else (None, None)
    batch = workloads.make_batch(name, args.seed)

    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        warmup = run_rounds(workloads.warmup_requests(name), scratch)
        if args.trace == 0:
            timed = run_rounds(batch, scratch, seconds=args.seconds)
            passes = [timed]
        else:
            untraced = run_rounds(batch, scratch)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                timed = run_rounds(batch, scratch, tracer=tracer)
            finally:
                tracer.uninstall()
            passes = [untraced, timed]
    reference = reference_failures()

    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    correct = not (warmup.failures or reference or any(p.wrong for p in passes))
    if args.trace == 0:
        metrics, wall = _latency_metrics(timed)
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (timed.peak_rss_mb, "MB")
        requests = len(timed.request_reference_ns())
        print(f"measured: {timed.measured_ns / 1e9:.3f} s in {timed.rounds} rounds of "
              f"{len(batch)} requests; the _ref latencies are the medians over the rounds "
              f"of {requests} requests, the wall-clock ones are over "
              f"{len(timed.latencies_ns)} successful executions (the sample counts); "
              f"setup_s is the median of {_SETUP_REPEATS} fresh interpreters at the reference speed")
        wall["setup_s"] = (setup_wall_s, "s")
        for key, (value, unit) in wall.items():
            print(f"wall-clock {key} = {value:.6g} {unit}")
    else:
        metrics = tracing.layer_metrics(tracer.spans, timed.bytes_written)
        metrics["trace.ops_per_s"] = (timed.ops_per_s, "1/s")
        metrics["trace.untraced_ops_per_s"] = (untraced.ops_per_s, "1/s")
        metrics["trace.overhead_ops_per_s"] = (untraced.ops_per_s - timed.ops_per_s, "1/s")
        spans_path = OUT / f"spans-{name}-seed{args.seed}.csv"
        tracer.write(str(spans_path))
        print(f"traced: {timed.attempted} requests, {len(tracer.spans)} spans written to "
              f"{spans_path.relative_to(ROOT)}; untraced pass: {untraced.attempted} requests")
    for key, (value, unit) in metrics.items():
        print(f"metric {key} = {value:.6g} {unit}")
    print(f"fail_ratio = {failed / max(attempted, 1):.6g} ({failed} of {attempted} attempted)")
    for request, reason in warmup.failures + [f for p in passes for f in p.failures] + reference:
        print(f"failure: {request} -> {reason}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0

