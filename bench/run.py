"""tanglecert benchmark: one seeded workload per process, timed from outside.

    python3 bench/run.py --workload algebra-ladder --seed 1 --seconds 35 --trace 0

Run from the repository root (the package is imported from ./src). The
last line of standard output is one JSON object: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. A wrong answer
exits 1; a missing package exits 2 without printing a result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

from spans import Tracer
from workloads import WORKLOADS, Mismatch

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
SETUP_SECONDS = 3.0  # the host's speed changes by the second; spread the set-ups over a few
MIN_INPUTS = 100  # input_p90_ms needs at least 10 samples beyond it
# A timed input that runs this long is interrupted and counted as failed. It
# is a guard against hangs: the slowest timed inputs take under 1 s.
DEADLINE_S = 10.0
# Known-defect probes take at most 0.3 s when they go well and seconds when
# the defect shows; one that passes this deadline counts as a blow-up.
PROBE_DEADLINE_S = 2.0


# The host is shared, and its speed changes by up to 2x from one second to
# the next, for the program and for any fixed loop alike. So every timing is
# taken between two passes of reference(), a fixed loop that does not touch
# tanglecert, and scaled by REFERENCE_S over their mean: it is reported at
# the reference speed. REFERENCE_S is the loop's median on an idle host.
REFERENCE_S = 0.0026


def reference() -> float:
    """Time one pass of a fixed pure-Python loop (dicts, sets, big ints), collector off."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    adjacent: dict[int, set] = {}
    x = 1
    for i in range(3000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        a, b = x % 700, (x >> 12) % 700
        adjacent.setdefault(a, set()).add((b, i))
        adjacent.setdefault(b, set()).add((a, i))
    seen: set[int] = set()
    for root in adjacent:
        stack = [root]
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(w for w, _ in adjacent[v])
    rows = [[(i * 7 + j * 13) % 11 - 5 for j in range(12)] for i in range(12)]
    for k in range(11):  # division-free elimination: entries double in length each step
        for i in range(k + 1, 12):
            rows[i] = [rows[k][k] * a - rows[i][k] * b for a, b in zip(rows[i], rows[k])]
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def scaled(seconds: float, before: float, after: float) -> float:
    """A timing taken between two reference() passes, at the reference speed."""
    return seconds * 2 * REFERENCE_S / (before + after)


class Sample(NamedTuple):
    wall: float  # seconds on the clock
    seconds: float  # at the reference speed; the end-to-end metrics use this
    error: str | None


class Overrun(BaseException):
    """Raised by SIGALRM when an input passes the workload's deadline."""


def _alarm(signum, frame):
    raise Overrun


def setup(workload, seed: int):
    """Import tanglecert and build the input pool, at least SETUP_REPEATS times and for
    at least SETUP_SECONDS; returns the median time at the reference speed."""
    times = []
    begin = time.perf_counter()
    while len(times) < SETUP_REPEATS or time.perf_counter() - begin < SETUP_SECONDS:
        tc = pool = None
        for name in [m for m in sys.modules if m == "tanglecert" or m.startswith("tanglecert.")]:
            del sys.modules[name]
        gc.collect()  # each set-up starts from the same heap, not the last one's garbage
        before = reference()
        start = time.perf_counter()
        tc = importlib.import_module("tanglecert")
        pool = workload.build(tc, seed)
        elapsed = time.perf_counter() - start
        times.append(scaled(elapsed, before, reference()))
    return tc, pool, statistics.median(times)


def run_input(workload, tc, item, tracer: Tracer | None, deadline_s: float):
    """Time one input to its JSON verdict; returns (seconds, outputs, error name or None)."""
    outputs = error = None
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline_s)
            if tracer is not None:
                tracer.active = True
                tracer.enter(tracer.name_id("input"))
            outputs, payload = workload.solve(tc, item)
            if tracer is not None:
                tracer.enter(tracer.name_id("cli.json"))
            json.dumps(payload(), indent=2, sort_keys=True)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if tracer is not None:
                tracer.active = False
                tracer.close_all()
    except Overrun:
        error = "deadline"
    except Exception as exc:  # any program failure counts against the input, not the run
        error = type(exc).__name__
    return time.perf_counter() - start, outputs, error


def measure(workload, tc, pool, seconds: float, tracer: Tracer | None = None,
            count: int | None = None):
    """Run pool inputs in order, cycling, for `seconds` (or exactly `count` inputs; at least one).

    Every answered input is checked before the next one starts; checks are
    not timed. Returns a Sample per input. A wrong answer raises Mismatch,
    carrying the samples up to and including it.
    """
    signal.signal(signal.SIGALRM, _alarm)
    stop = time.perf_counter() + seconds
    samples = []
    before = reference()
    while not samples or (time.perf_counter() < stop if count is None else len(samples) < count):
        item = pool[len(samples) % len(pool)]
        elapsed, outputs, error = run_input(workload, tc, item, tracer, DEADLINE_S)
        after = reference()
        samples.append(Sample(elapsed, scaled(elapsed, before, after), error))
        before = after
        if error is None:
            try:
                workload.check(tc, item, outputs)
            except Mismatch as exc:
                exc.samples = samples
                raise
    return samples


def run_probes(workload, tc, probes) -> dict[str, int]:
    """Run each known-defect probe once, untraced; returns its failures by kind.

    A probe that is answered is checked like a timed input.
    """
    signal.signal(signal.SIGALRM, _alarm)
    failures: dict[str, int] = {}
    for item in probes:
        _, outputs, error = run_input(workload, tc, item, None, PROBE_DEADLINE_S)
        if error is None:
            workload.check(tc, item, outputs)
        else:
            failures[error] = failures.get(error, 0) + 1
    return failures


def _metric(value, unit):
    return {"value": value, "unit": unit}


def percentiles_ms(times: list[float]) -> tuple[float, float]:
    """Median and 90th percentile of per-input seconds, in ms."""
    cuts = statistics.quantiles(times, n=10, method="inclusive") if len(times) > 1 else times * 9
    return statistics.median(times) * 1e3, cuts[8] * 1e3


def end_to_end(samples, setup_s: float) -> dict:
    answered = sum(1 for s in samples if s.error is None)
    times = [s.seconds for s in samples]
    p50, p90 = percentiles_ms(times)
    return {
        "setup_s": _metric(setup_s, "s"),
        "inputs_per_s": _metric(answered / sum(times), "1/s"),
        "input_p50_ms": _metric(p50, "ms"),
        "input_p90_ms": _metric(p90, "ms"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "verdict_share": _metric(answered / len(samples), "share"),
    }


def _observe_diagonalize(tracer, args, result):
    diag, u, v = result
    bits = max((abs(x).bit_length() for part in (u, v) for row in part for x in row), default=0)
    bits = max([bits] + [abs(x).bit_length() for x in diag])
    tracer.observed["linalg.matrix_rows"].append(len(args[0]))
    tracer.observed["linalg.max_entry_bits"].append(bits)


def _observe_verify(tracer, args, report):
    tracer.observed["persistence.hosts_tried"].append(len(report.entries))
    tracer.observed["persistence.host_passes"].append(report.passes)


def _observe_search(tracer, args, report):
    tracer.observed["persistence.moduli_tried"].append(sum(1 for e in report.entries if "fox" in e))


OBSERVERS = {
    "linalg.diagonalize": _observe_diagonalize,
    "persistence.verify_certificate": _observe_verify,
    "persistence.find_certificate_report": _observe_search,
}

CALLS = (
    "linalg.diagonalize", "colorings.fox_solution_space", "colorings.verify_coloring",
    "diagram.validate", "diagram.faces", "diagram.co_facial", "moves.apply_r2_over",
    "tangle.insert_into_host",
)
SELF_MS = (
    "linalg.diagonalize", "colorings.fox_solution_space", "colorings.fox_matrix",
    "colorings.forced_equal_pair", "colorings.enumerate", "colorings.quandle_colorings",
    "diagram.parse", "diagram.validate", "diagram.faces", "diagram.components",
    "moves.recolor_after_move", "moves.r2_transport", "tangle.insert_into_host",
    "tangle.closure", "persistence.verify_certificate", "persistence.find_certificate_report",
    "persistence.cut_two_arcs",
)


def per_layer(workload, tc, pool, probes, seconds: float) -> tuple[dict, list, dict, dict]:
    """Each input untraced, then again traced, for `seconds`; per-input means of each layer.

    Running the two in turn, input by input, keeps the host's changing speed
    out of the tracing overhead. The wrappers are installed only for the
    traced run. The known-defect probes run last, once each, and are counted
    apart from the timed inputs.
    """
    tracer = Tracer()
    plain, traced = [], []
    stop = time.perf_counter() + seconds
    while not plain or time.perf_counter() < stop:
        item = [pool[len(plain) % len(pool)]]
        plain += measure(workload, tc, item, 0, count=1)
        tracer.install(OBSERVERS)
        try:
            traced += measure(workload, tc, item, 0, tracer=tracer, count=1)
        finally:
            tracer.uninstall()
    try:
        probe_failures = run_probes(workload, tc, probes)
    except Mismatch as exc:
        exc.samples = traced
        raise
    totals = tracer.totals()
    n = len(traced)
    # span times are on the clock; bring them to the reference speed as a whole
    to_ms = sum(s.seconds for s in traced) / sum(s.wall for s in traced) / n / 1e6
    obs = tracer.observed
    metrics = {}
    for name in CALLS:
        metrics[f"{name}.calls"] = _metric(totals.get(name, (0, 0, 0))[0] / n, "count")
    for name in SELF_MS:
        metrics[f"{name}.self_ms"] = _metric(totals.get(name, (0, 0, 0))[2] * to_ms, "ms")
    rows = obs["linalg.matrix_rows"]
    metrics["linalg.matrix_rows"] = _metric(sum(rows) / len(rows) if rows else 0, "count")
    metrics["linalg.max_entry_bits"] = _metric(max(obs["linalg.max_entry_bits"], default=0), "bits")
    hosts = sum(obs["persistence.hosts_tried"])
    metrics["persistence.hosts_tried"] = _metric(hosts / n, "count")
    metrics["persistence.host_pass_ratio"] = _metric(
        sum(obs["persistence.host_passes"]) / hosts if hosts else 0.0, "ratio")
    metrics["persistence.moduli_tried"] = _metric(sum(obs["persistence.moduli_tried"]) / n, "count")
    metrics["cli.json_ms"] = _metric(totals.get("cli.json", (0, 0, 0))[1] * to_ms, "ms")
    metrics["linalg.blowup_overruns"] = _metric(probe_failures.get("deadline", 0), "count")
    metrics["colorings.recursion_errors"] = _metric(probe_failures.get("RecursionError", 0), "count")
    plain_s = sum(s.seconds for s in plain)
    metrics["trace.overhead_share"] = _metric(sum(s.seconds for s in traced) / plain_s - 1, "share")
    return metrics, traced, totals, probe_failures


def _span_table(totals: dict, n: int) -> str:
    lines = [f"{'span':<42}{'calls/input':>12}{'total ms/input':>16}{'self ms/input':>15}"]
    for name, (calls, total, own) in sorted(totals.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"{name:<42}{calls / n:>12.2f}{total / n / 1e6:>16.3f}{own / n / 1e6:>15.3f}")
    return "\n".join(lines)


def main(argv=None, plant=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tanglecert" / "__init__.py").is_file():
        print(f"tanglecert sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.setrecursionlimit(1000)  # the default; the recursion probe depends on it
    workload = WORKLOADS[args.workload]
    tc, pool, setup_s = setup(workload, args.seed)
    # the pool lives for the whole run, which one CLI call would not hold;
    # keep it out of the collector's scans
    gc.collect()
    gc.freeze()
    if plant is not None:
        plant(tc)
    correct = True
    try:
        if args.trace:
            probes = workload.probes(tc, args.seed)
            metrics, samples, totals, probe_failures = per_layer(workload, tc, pool, probes, args.seconds)
            print(_span_table(totals, len(samples)), file=sys.stderr)
        else:
            samples = measure(workload, tc, pool, args.seconds)
            metrics = end_to_end(samples, setup_s)
    except Mismatch as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        correct, samples, metrics = False, exc.samples, {}
    failures: dict[str, int] = {}
    for s in samples:
        if s.error is not None:
            failures[s.error] = failures.get(s.error, 0) + 1
    failed = sum(failures.values())
    print(f"{args.workload} seed {args.seed}: {len(samples)} inputs, failed_share "
          f"{failed / len(samples):.4f} {failures}, pool {len(pool)}")
    wall = [s.wall for s in samples]
    p50, p90 = percentiles_ms(wall)
    print(f"  on the clock, unscaled: {len(wall) / sum(wall):.4g} inputs/s, p50 {p50:.4g} ms, "
          f"p90 {p90:.4g} ms; host at {statistics.median(s.wall / s.seconds for s in samples):.3g}x "
          "the reference time")
    if args.trace and correct:
        print(f"known-defect probes: {len(probes)}, failed {probe_failures}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']} (n={len(samples)})")
    if len(samples) < MIN_INPUTS and not args.trace:
        print(f"  note: fewer than {MIN_INPUTS} inputs, so input_p90_ms has under 10 samples beyond it")
    print(json.dumps({"correct": correct, "attempted": len(samples), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
