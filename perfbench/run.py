"""Benchmark of the sisi library: set-up, three workloads, per-layer tracing.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scan|limits|catalog --seed N \\
        --seconds S --trace 0|1

With ``--trace 0`` it measures the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` it times every call into the
program's layers (see ``workloads.TRACED``) and prints the per-layer
metrics, plus the tracing overhead measured against untraced passes over
the same inputs.  Human-readable lines come first (the machine, every
metric with its unit and spread, ``error_rate``, exact counts); the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Spans of a traced run are written to ``.perfbench_out/``.

The workloads' timings are scaled by the host-speed factor of ``hostspeed``
to cancel the drift of a shared machine; the unscaled values are printed
beside them.  ``setup_s`` is not scaled.

An operation the program declines or leaves undecided in the way it
documents (a scan row or limit that spent its budget, an eigenvalue it
refuses to guess) is counted in ``decided_share``, not as a failure.  A
wrong answer the checks tolerate (``lambda1_wrong_class``) is neither: it
is printed on its own line beside ``error_rate``.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with an error and prints no result.
"""

import os

# One caller on one thread: pin the numerical libraries' pools before numpy
# is imported, here and in every child interpreter.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(SRC))
try:
    import workloads
except ModuleNotFoundError as exc:
    sys.exit(f"perfbench: cannot import the program from {SRC}: {exc}")
import checks
import hostspeed
import spans

SETUP_RUNS = 11         # fresh interpreters timed for setup_s
IMPORTTIME_RUNS = 3     # fresh interpreters profiled with -X importtime
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, {src!r}); "
                "t = time.perf_counter(); import sisi; "
                "print(time.perf_counter() - t); print(sisi.__file__)")


def import_sisi_fresh(flags=()) -> tuple[float, str]:
    """Seconds to ``import sisi`` in a new interpreter, and its stderr."""
    proc = subprocess.run(
        [sys.executable, *flags, "-c", IMPORT_PROBE.format(src=str(SRC))],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    lines = proc.stdout.split()
    if proc.returncode or len(lines) != 2 or not lines[1].startswith(str(SRC)):
        raise RuntimeError(f"fresh import failed: {proc.stderr.strip()[-500:]}")
    return float(lines[0]), proc.stderr


def import_cumulative_s(stderr: str, package: str) -> float:
    """Cumulative import seconds of ``package`` from ``-X importtime`` output."""
    for line in stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == package:
            return int(fields[1]) / 1e6
    return 0.0


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), cpu)
    except OSError:
        pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy")}


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def keep_going(elapsed: float, done: int, seconds: float) -> bool:
    """Whether to start another pass: stop at the pass boundary nearest
    ``seconds``, judging the next pass by the mean of those done so far."""
    return done == 0 or elapsed + elapsed / done / 2.0 < seconds


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_metrics(totals: dict) -> dict:
    return {f"{name}.{key}": row[key]
            for name, row in totals.items() for key in ("calls", "s", "self_s")}


class Result:
    """Metric values with their spreads, exact counts and failures."""

    def __init__(self):
        self.values: dict[str, float] = {}
        self.raw: dict[str, float] = {}
        self.spread: dict[str, tuple] = {}
        self.counts: dict[str, int] = {}
        self.defects: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []

    def add(self, name, value, samples=None, raw=None):
        self.values[name] = value
        if raw is not None:
            self.raw[name] = raw
        if samples is not None and len(samples) > 1:
            q1, q3 = percentile(samples, 25), percentile(samples, 75)
            self.spread[name] = (q1, q3, len(samples))

    def ops(self, attempted: int, problems: list[str], failed: int | None = None):
        self.attempted += attempted
        self.failed += len(problems) if failed is None else failed
        self.problems.extend(problems)


# ---------------------------------------------------------------- untraced


def measure_setup(res: Result) -> None:
    """Median of fresh imports, unscaled: the host-speed kernel did not
    narrow its spread across runs."""
    import_sisi_fresh()  # write bytecode caches; users do not pay this per run
    seconds = [import_sisi_fresh()[0] for _ in range(SETUP_RUNS)]
    res.add("setup_s", median(seconds), seconds)


def measure_requests(res: Result, kind, seed: int, seconds: float) -> None:
    """Rounds of fresh batches until ``seconds`` of requests were timed."""
    batches = []
    while keep_going(sum(b.wall_s for b in batches), len(batches), seconds):
        inputs = kind.inputs(seed, len(batches))
        gc.collect()
        batches.append(workloads.run_batch(kind, inputs, probe=True))
    factors = [hostspeed.probe_factor(b.probes) for b in batches]
    raw = [x for b in batches for x in b.latencies_ms]
    res.ops(len(raw), [f for b in batches for f in b.failures])
    # Each round has at least 1,000 requests, so at least ten lie beyond its
    # p99; the median over rounds keeps a round with a burst of host noise
    # from setting the figure.
    for name, q in (("op_p50_ms", 50), ("op_p99_ms", 99)):
        unscaled = [percentile(b.latencies_ms, q) for b in batches]
        per_round = [x * f for x, f in zip(unscaled, factors)]
        res.add(name, median(per_round), per_round, raw=median(unscaled))
    # Throughput over all rounds: a round's rate is set by its few long
    # requests, which vary more between rounds than the host does.
    rates = [b.ops / (b.wall_s * f) for b, f in zip(batches, factors)]
    res.add("ops_per_s", len(raw) / sum(b.wall_s * f for b, f in zip(batches, factors)),
            rates, raw=len(raw) / sum(b.wall_s for b in batches))
    res.add("decided_share", 1.0 - (res.failed + sum(b.undecided for b in batches)) / len(raw))
    res.counts.update({f"round0.{k}": v for k, v in batches[0].counts.items()})
    res.counts["round0.requests"] = batches[0].ops
    totals = {k: sum(b.counts[k] for b in batches) for k in batches[0].counts}
    res.defects.update({k: totals[k] for k in kind.defects})
    res.notes.append(f"{len(batches)} rounds, {len(raw)} requests; all rounds: "
                     + json.dumps(totals, sort_keys=True))


def scan_counts(run) -> dict:
    c, t = f"conj{run.conjecture}", run.tally
    return {f"{c}.records": t.records, f"{c}.row_steps": t.row_steps,
            f"{c}.inconclusive_steps": t.inconclusive_steps,
            f"{c}.inconclusive_rows": t.verdicts.get("inconclusive", 0),
            f"{c}.claim_rows": t.claims, f"{c}.decided_rows": t.decided,
            f"{c}.jsonl_bytes": run.jsonl_bytes}


def measure_scans(res: Result, seed: int, seconds: float) -> None:
    """Pairs of scan commands (conjecture 1, 2) until ``seconds`` were timed."""
    runs = []
    while keep_going(sum(r.seconds for r in runs), len(runs) // 2, seconds):
        for conjecture in (1, 2):
            gc.collect()
            runs.append(workloads.run_scan(conjecture, seed + len(runs) // 2, str(OUT_DIR),
                                           probe=True))
    raw = [r.seconds * 1e3 for r in runs]
    ms = [x * hostspeed.probe_factor(r.probes) for x, r in zip(raw, runs)]
    res.ops(len(runs), [f"scan conjecture {r.conjecture}: {p}" for r in runs for p in r.problems],
            failed=sum(1 for r in runs if r.problems))
    # A pair of commands is a round, as for the request workloads: each
    # percentile is taken per pair, then the median over pairs.
    for name, q in (("op_p50_ms", 50), ("op_p99_ms", 99)):
        per_pair = [percentile(pair, q) for pair in zip(ms[::2], ms[1::2])]
        res.add(name, median(per_pair), per_pair,
                raw=median([percentile(pair, q) for pair in zip(raw[::2], raw[1::2])]))
    rates = [2e3 / (a + b) for a, b in zip(ms[::2], ms[1::2])]
    res.add("ops_per_s", median(rates), rates,
            raw=median([2e3 / (a + b) for a, b in zip(raw[::2], raw[1::2])]))
    res.add("decided_share", ratio(sum(r.tally.decided for r in runs),
                                   sum(r.tally.claims for r in runs)))
    for r in runs[:2]:
        res.counts.update(scan_counts(r))
    res.notes.append("scan_s per command, unscaled: " + ", ".join(
        f"conjecture {r.conjecture} seed {seed + i // 2} {r.seconds:.3f}"
        for i, r in enumerate(runs)))


# ---------------------------------------------------------------- traced


def measure_imports(res: Result) -> None:
    import_sisi_fresh()
    numpy_s, scipy_s = [], []
    for _ in range(IMPORTTIME_RUNS):
        _, err = import_sisi_fresh(("-X", "importtime"))
        numpy_s.append(import_cumulative_s(err, "numpy"))
        scipy_s.append(import_cumulative_s(err, "scipy.optimize"))
    res.add("import.numpy.s", median(numpy_s), numpy_s)
    res.add("import.scipy_optimize.s", median(scipy_s), scipy_s)
    if not any(scipy_s):
        res.notes.append("absent: import sisi no longer imports scipy.optimize")


def alternate(tracer, seconds: float, run, wall):
    """Untraced and traced passes of ``run(tracer or None)`` over the same
    inputs, in alternating order, until ``seconds`` were timed.

    Returns the untraced results and, per traced pass, (result, index of its
    first span, number of its spans).
    """
    plain, traced = [], []
    while keep_going(sum(map(wall, plain)) + sum(wall(t[0]) for t in traced), len(traced),
                     seconds):
        for with_trace in ((False, True) if len(traced) % 2 == 0 else (True, False)):
            gc.collect()
            if not with_trace:
                plain.append(run(None))
                continue
            first = len(tracer.spans)
            tracer.install()
            try:
                out = run(tracer)
            finally:
                tracer.remove()
            traced.append((out, first, len(tracer.spans) - first))
    return plain, traced


def add_overhead(res: Result, plain_s: list, traced_s: list) -> None:
    overhead = [t - u for t, u in zip(traced_s, plain_s)]
    res.add("trace.overhead_s", median(overhead), overhead)
    res.add("trace.overhead_share", ratio(median(overhead), median(plain_s)))


def trace_requests(res: Result, kind, seed: int, seconds: float, tracer) -> None:
    """Alternate untraced and traced passes over the round-0 batch."""
    inputs = kind.inputs(seed, 0)
    plain, traced = alternate(tracer, seconds,
                              lambda t: workloads.run_batch(kind, inputs, t),
                              lambda b: b.wall_s)
    batches = plain + [b for b, _, _ in traced]
    res.ops(sum(b.ops for b in batches), [f for b in batches for f in b.failures])

    passes = [span_metrics(tracer.totals(first, first + n)) for _, first, n in traced]
    exact = [({k: v for k, v in m.items() if k.endswith(".calls")}, b.counts, n)
             for m, (b, _, n) in zip(passes, traced)]
    if any(e != exact[0] for e in exact):
        res.problems.append("counts differ between traced passes over the same inputs")
    values = {**passes[0], **traced[0][0].counts, "trace.spans": traced[0][2]}
    for k in passes[0]:
        if not k.endswith(".calls"):
            values[k] = median([m.get(k, 0.0) for m in passes])
    values["dynamics.detect_limit.us_per_step"] = ratio(
        values.get("dynamics.detect_limit.self_s", 0.0) * 1e6,
        values.get("dynamics.detect_limit.steps", 0))
    for name, value in values.items():
        res.add(name, value)
    add_overhead(res, [b.wall_s for b in plain], [b.wall_s for b, _, _ in traced])
    res.counts.update({**exact[0][0], **exact[0][1], "trace.spans": exact[0][2]})
    res.defects.update({k: sum(b.counts[k] for b in batches) for k in kind.defects})
    res.notes.append(f"{len(plain)} untraced and {len(traced)} traced passes "
                     f"over the same {len(inputs)} requests")


SCAN_LAYER_SPANS = ("model.validate_params.calls", "model.validate_params.s",
                    "dynamics.conjecture_scan.self_s", "dynamics.to_jsonl.s",
                    "cli.scan.self_s")


def scan_layer_values(passes: list) -> dict:
    """Per-layer values of one conjecture from its traced passes:
    (ScanRun, span metrics) each; times are medians over the passes."""
    run = passes[0][0]
    values = {k: median([m.get(k, 0.0) for _, m in passes]) for k in SCAN_LAYER_SPANS}
    values.update({"model.validate_params.calls": passes[0][1].get("model.validate_params.calls", 0),
                   "dynamics.row_steps": run.tally.row_steps,
                   "dynamics.inconclusive_steps": run.tally.inconclusive_steps,
                   "dynamics.to_jsonl.bytes": run.jsonl_bytes})
    return values


def with_scan_ratios(v: dict) -> dict:
    v["dynamics.row_steps_per_s"] = ratio(v["dynamics.row_steps"],
                                          v["dynamics.conjecture_scan.self_s"])
    v["dynamics.inconclusive_step_share"] = ratio(v.pop("dynamics.inconclusive_steps"),
                                                  v["dynamics.row_steps"])
    return v


def trace_scans(res: Result, seed: int, seconds: float, tracer) -> None:
    """Alternate untraced and traced passes of both scan commands."""
    plain, traced = alternate(
        tracer, seconds,
        lambda t: [workloads.run_scan(c, seed, str(OUT_DIR), t) for c in (1, 2)],
        lambda runs: sum(r.seconds for r in runs))
    passes = [(runs, (first, first + n)) for runs, first, n in traced]
    every = [r for runs in plain + [p for p, _ in passes] for r in runs]
    problems = [f"scan conjecture {r.conjecture}: {p}" for r in every for p in r.problems]
    if len({tuple(r.digest for r in runs) for runs in plain + [p for p, _ in passes]}) != 1:
        problems.append("scan output differs between passes over the same seed")
    calls = [{k: v for k, v in span_metrics(tracer.totals(*bounds)).items() if k.endswith(".calls")}
             for _, bounds in passes]
    if any(c != calls[0] for c in calls):
        problems.append("call counts differ between traced passes over the same seed")
    res.ops(len(every), problems, failed=sum(1 for r in every if r.problems))

    per_conj = {}
    for i, c in enumerate((1, 2)):
        per_conj[c] = scan_layer_values(
            [(runs[i], span_metrics(tracer.totals(*bounds, request=f"conj{c}")))
             for runs, bounds in passes])
        res.counts.update(scan_counts(passes[0][0][i]))
        res.counts[f"conj{c}.validate_params.calls"] = per_conj[c]["model.validate_params.calls"]
    total = {k: per_conj[1][k] + per_conj[2][k] for k in per_conj[1]}
    for name, value in with_scan_ratios(total).items():
        res.add(name, value)
    for c, v in per_conj.items():
        for name, value in with_scan_ratios(v).items():
            res.add(f"{name}.conj{c}", value)
    add_overhead(res, [sum(r.seconds for r in runs) for runs in plain],
                 [sum(r.seconds for r in runs) for runs, _ in passes])
    res.add("trace.spans", traced[0][2])
    res.counts["trace.spans"] = traced[0][2]
    res.notes.append(f"{len(plain)} untraced and {len(traced)} traced passes "
                     f"of both scan commands at seed {seed}")


# ---------------------------------------------------------------- report


def report(res: Result, listed: list, args, absent) -> dict:
    print(f"# machine: {json.dumps(machine(), sort_keys=True)}")
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for note in res.notes:
        print(f"# {note}")
    for path in absent:
        print(f"# absent: {path} (its layer reports 0)")
    metrics = {}
    for m in listed:
        value = res.values.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        spread = res.spread.get(m["name"])
        spread = f"  q1..q3 {spread[0]:.6g}..{spread[1]:.6g} (n={spread[2]})" if spread else ""
        raw = f"  unscaled {res.raw[m['name']]:.6g}" if m["name"] in res.raw else ""
        print(f"{m['name']:<44} {value:>14.6g} {m['unit']:<6}{spread}{raw}")
    print(f"{'error_rate':<44} {ratio(res.failed, res.attempted):>14.6g} ratio  "
          f"({res.failed} of {res.attempted} operations failed)")
    for name, count in res.defects.items():
        print(f"{name:<44} {count:>14d} count  (wrong answers inside the checks' margin; "
              f"not failures)")
    print(f"# exact counts: {json.dumps(res.counts, sort_keys=True)}")
    for why in res.problems[:10]:
        print(f"# FAILED: {why}")
    return {"correct": not res.problems, "attempted": res.attempted,
            "failed": res.failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("scan", "limits", "catalog"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import sisi
    if not Path(sisi.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported sisi from {sisi.__file__}, not from {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT_DIR.mkdir(exist_ok=True)

    res = Result()
    res.problems += [f"checker self-test: {m}" for m in checks.self_test()]
    tracer = spans.Tracer(workloads.TRACED)
    if args.trace:
        measure_imports(res)
        if args.workload == "scan":
            trace_scans(res, args.seed, args.seconds, tracer)
        else:
            trace_requests(res, workloads.KINDS[args.workload], args.seed,
                           args.seconds, tracer)
        path = OUT_DIR / f"spans-{args.workload}.jsonl"
        tracer.write(path)
        res.notes.append(f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    else:
        measure_setup(res)
        if args.workload == "scan":
            measure_scans(res, args.seed, args.seconds)
        else:
            measure_requests(res, workloads.KINDS[args.workload], args.seed, args.seconds)
        res.add("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps(report(res, listed, args, tracer.absent)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
