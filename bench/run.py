"""lawbench benchmark: one seeded workload, closed loop, checked answers.

    python3 bench/run.py --workload stream --seed 1 --seconds 30 --trace 0

Each job is one in-process call of ``lawbench.cli.run([..., "--json"])``
on a generated workbench file, with stdout captured: what a user pays
for one command (parsing, solving or checking, report formatting).  One
client sends the next job when the previous one returns.  After the
timed call the report is validated against ``report.schema.json`` and
compared with the reference answer from ``ref``.

Jobs come in decks of fixed composition (see ``gen``); the loop runs
whole decks until ``--seconds`` of loop time have passed and at least
``MIN_JOBS`` jobs were sent.  Generating a deck, writing its files and
checking the reports is not loop time.

``setup_s`` is timed from outside: between decks, spread over the loop,
the run starts ``SETUP_REPEATS`` fresh interpreters with
``--setup-only``, one at a time, each of which imports lawbench, builds
the first deck and its files, runs the warm-up and prints ``ready``;
the median time from start to ``ready`` is reported.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` the loop runs for half the time untraced, then the same
decks again with every layer wrapped (``spans``), and the last line
reports the per-layer metrics, per job, plus ``trace.overhead_ratio``.

The package is imported from ``src/`` next to this directory; without
it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

import gen
import ref
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXAMPLES = os.path.join(SRC, "lawbench", "examples")
SCHEMA = os.path.join(SRC, "lawbench", "schema", "report.schema.json")
WORK = os.path.join(HERE, ".work")

MIN_JOBS = 100
SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 60
# This host's speed for the same work drifts by tens of percent over
# minutes.  Between jobs, about every PROBE_EVERY_S and outside loop
# time, a fixed pure-Python probe runs in a helper process (``probe.py``),
# and every reported time is scaled by
# (PROBE_REFERENCE_S / median probe time of its run) ** PROBE_ELASTICITY.
# Over 40 runs (10 to 20 per workload) with the run pinned to one CPU,
# median probe 1.2 to 2.0 ms, the log-log slope of unscaled set-up time,
# latency and jobs_per_s against the probe time was 0.37 to 0.78
# (correlation 0.50 to 0.94); PROBE_ELASTICITY is their median.  The
# 60 runs of baseline.json that followed gave 0.66 to 1.03 (median 0.77),
# so the power is known only roughly; every spread stayed within its
# bound at 0.6.  The factor and the unscaled values are printed with
# each result.
PROBE_EVERY_S = 0.05
PROBE_REFERENCE_S = 0.002
PROBE_ELASTICITY = 0.6
_clock = time.perf_counter


def metric_units(kind: str) -> dict[str, str]:
    """Name to unit of the ``end_to_end`` or ``per_layer`` metrics that
    ``BENCHMARK.json`` declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class Stats:
    def __init__(self):
        self.latencies: list[float] = []
        self.by_slot: dict[str, dict[int, list[float]]] = defaultdict(
            lambda: defaultdict(list))
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.verdict_jobs = 0
        self.decided = 0
        self.loop_seconds = 0.0
        self.setups: list[float] = []
        self.probes: list[float] = []
        self.causes: Counter = Counter()
        self.redrawn = 0

    def speed(self) -> float:
        """Factor from this run's seconds to reference-host seconds."""
        ratio = PROBE_REFERENCE_S / statistics.median(self.probes)
        return ratio ** PROBE_ELASTICITY

    def fail(self, job, cause: str, wrong: bool) -> None:
        self.failed += 1
        self.wrong += wrong
        self.causes[f"{job.kind}: {cause}"[:300]] += 1


class Probe:
    """The helper process that runs ``probe.probe`` on request."""

    def __enter__(self):
        self.child = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "probe.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc):
        self.child.stdin.close()
        try:
            self.child.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if self.child.poll() is None:
                self.child.kill()
                self.child.wait()

    def take(self, stats: Stats) -> float:
        """Probe once into ``stats``; returns the wall time it took."""
        start = _clock()
        self.child.stdin.write("\n")
        self.child.stdin.flush()
        stats.probes.append(float(self.child.stdout.readline()))
        return _clock() - start


def import_lawbench():
    """Import the package afresh, dropping any modules (and the wrappers
    a traced run put in them) loaded before."""
    for name in [n for n in sys.modules if n == "lawbench" or n.startswith("lawbench.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return importlib.import_module("lawbench.cli")


def run_job(cli, schema, job, stats: Stats, growth_kind: str | None,
            tracer: spans.Tracer | None = None) -> float:
    """Run one job and check its report.  Returns the seconds spent after
    the call returned, which are not loop time."""
    out, err = io.StringIO(), io.StringIO()
    raised = None
    code = None
    before = tracer.job_self_seconds() if tracer else 0.0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = _clock()
        try:
            code = cli.run(job.argv + ["--json"])
        except Exception as exc:  # a crash is a failed job, not a stop
            raised = exc
        elapsed = _clock() - start
    returned = _clock()
    stats.attempted += 1
    stats.latencies.append(elapsed)
    if job.kind == growth_kind and job.slot is not None:
        stats.by_slot[job.slot][job.size].append(elapsed)
    if tracer is not None and tracer.job_self_seconds() - before > elapsed:
        stats.fail(job, "self times exceed the traced wall time", True)
    elif raised is not None:
        stats.fail(job, f"raised {type(raised).__name__} ({raised}) on "
                        f"{' '.join(job.argv[2:])}", False)
    else:
        if job.verdict:
            stats.verdict_jobs += 1
            stats.decided += code in (0, 1)
        problem = check_report(schema, job, code, out.getvalue(), err.getvalue())
        if problem:
            stats.fail(job, problem, code in job.codes)
    return _clock() - returned


def check_report(schema, job, code, out: str, err: str) -> str | None:
    """Why a finished job failed, or None."""
    if code not in job.codes:
        return f"exit {code}, expected {job.codes}: {err.strip()}"
    try:
        payload = json.loads(out)
        problems = ref.schema_errors(schema, payload)
        problem = "; ".join(problems[:3]) if problems else job.check(payload, code)
    except (ValueError, KeyError, TypeError) as exc:
        problem = f"unreadable report: {type(exc).__name__}: {exc}"
    return f"{' '.join(job.argv)}: {problem}" if problem else None


def run_decks(cli, schema, deck, workload, seconds, stats, probe, decks=None,
              tracer=None, time_setup=None) -> int:
    """Whole decks until ``seconds`` of loop time and ``MIN_JOBS`` jobs,
    or exactly ``decks`` decks when given; returns the decks run.  With
    ``time_setup``, calls it between decks, outside loop time, so that
    ``SETUP_REPEATS`` set-ups spread evenly over the loop and see the
    same drift of the host's speed as the jobs."""
    growth_kind = gen.GROWTH_KIND[workload]
    probe.take(stats)
    index = 0
    while True:
        if decks is not None:
            if index >= decks:
                break
        elif stats.loop_seconds >= seconds and stats.attempted >= MIN_JOBS:
            break
        jobs = deck(index).jobs
        stats.redrawn += deck(index).redrawn
        start = last_probe = _clock()
        outside = 0.0  # checking reports and probing
        for job in jobs:
            if tracer is not None:
                tracer.job = stats.attempted
            outside += run_job(cli, schema, job, stats, growth_kind, tracer)
            if _clock() - last_probe >= PROBE_EVERY_S:
                outside += probe.take(stats)
                last_probe = _clock()
        stats.loop_seconds += _clock() - start - outside
        index += 1
        if time_setup is not None:
            while len(stats.setups) < SETUP_REPEATS * min(1.0, stats.loop_seconds / seconds):
                stats.setups.append(time_setup())
    return index


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile: a Beta-weighted mean
    of the order statistics.  A job mix has gaps between the costs of its
    job kinds, and a single order statistic jumps across a gap where
    this estimate moves smoothly."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    # The weights vanish beyond a few standard deviations of the quantile.
    reach = 8 * math.sqrt(p * (1 - p) / n)
    total = acc = 0.0
    for i in range(max(0, int((p - reach) * n)), min(n, int((p + reach) * n) + 1)):
        # Beta density integrated over [i/n, (i+1)/n] by the midpoint rule.
        weight = sum(math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
                              - log_beta)
                     for x in ((i + (k + 0.5) / 4) / n for k in range(4)))
        total += weight
        acc += weight * xs[i]
    return acc / total


def growth_exponent(by_slot: dict[str, dict[int, list[float]]]) -> float:
    """Log-log slope of median latency against size: least squares per
    slot (the job's place in a deck apart from its size), averaged over
    slots, so the mix of slots at each size does not tilt it."""
    slopes = []
    for by_size in by_slot.values():
        points = [(math.log(size), math.log(statistics.median(times)))
                  for size, times in by_size.items()]
        mx = statistics.fmean(x for x, _ in points)
        my = statistics.fmean(y for _, y in points)
        slopes.append(sum((x - mx) * (y - my) for x, y in points)
                      / sum((x - mx) ** 2 for x, _ in points))
    return statistics.fmean(slopes)


def end_to_end(stats: Stats, speed: float) -> dict[str, float]:
    """The end-to-end metrics, times multiplied by ``speed``."""
    lat = stats.latencies
    return {
        "setup_s": statistics.median(stats.setups) * speed,
        "latency_p50_ms": quantile(lat, 0.5) * 1e3 * speed,
        "latency_p90_ms": quantile(lat, 0.9) * 1e3 * speed,
        "jobs_per_s": stats.attempted / (stats.loop_seconds * speed),
        "pass_ratio": (stats.attempted - stats.failed) / stats.attempted,
        "decided_ratio": stats.decided / max(stats.verdict_jobs, 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "growth_exponent": growth_exponent(stats.by_slot),
    }


def per_layer(tracer: spans.Tracer, traced: Stats, untraced: Stats,
              names) -> dict[str, float]:
    """Per traced job: ``<layer>.self_ms`` from the tracer's self times,
    other names from its counts."""
    jobs = traced.attempted
    values = {}
    for name in names:
        if name == "trace.overhead_ratio":
            values[name] = (
                (traced.attempted / (traced.loop_seconds * traced.speed()))
                / (untraced.attempted / (untraced.loop_seconds * untraced.speed())))
        elif name.endswith(".self_ms"):
            layer = name[:-len(".self_ms")]
            values[name] = (tracer.self_seconds.get(layer, 0.0) * 1e3
                            * traced.speed() / jobs)
        else:
            values[name] = tracer.counts.get(name, 0) / jobs
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (times setup_s)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "lawbench", "cli.py")):
        print(f"error: no lawbench package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if hasattr(os, "sched_setaffinity"):
        # One CPU for the run, its probe and its set-up children, so the
        # probe sees the speed of the CPU the jobs run on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.setup_only:
            set_up(args, workdir)
            print("ready", flush=True)
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def set_up(args, workdir: str):
    """Import lawbench, build the first deck and its files, and warm up
    on the README's commands for the workload (checked like any job).
    Returns the package's cli module, the deck source and the warm-up
    stats."""
    cli = import_lawbench()
    decks: list[gen.Deck] = []

    def deck(index: int) -> gen.Deck:
        while len(decks) <= index:
            i = len(decks)
            directory = os.path.join(workdir, f"deck{i}")
            os.makedirs(directory, exist_ok=True)
            decks.append(gen.make_deck(args.workload, args.seed, i,
                                       EXAMPLES, directory))
            gen.write_files(decks[-1])
        return decks[index]

    with open(SCHEMA, encoding="utf-8") as fh:
        schema = json.load(fh)
    deck(0)
    warm = Stats()
    for job in gen.readme_jobs(args.workload, EXAMPLES):
        run_job(cli, schema, job, warm, None)
    return cli, schema, deck, warm


def setup_once(args) -> float:
    """Seconds from the start of a fresh interpreter to the end of its
    set-up."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "1", "--setup-only"]
    start = _clock()
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    try:
        line = child.stdout.readline()
        elapsed = _clock() - start
        child.communicate(timeout=SETUP_TIMEOUT_S)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up child exited {child.returncode}")
    return elapsed


def measure(args, workdir: str) -> int:
    cli, schema, deck, warm = set_up(args, workdir)
    stats = Stats()
    with Probe() as probe:
        if args.trace:
            done = run_decks(cli, schema, deck, args.workload, args.seconds / 2,
                             stats, probe)
            tracer = spans.Tracer()
            spans.install(tracer)
            traced = Stats()
            run_decks(cli, schema, deck, args.workload, 0, traced, probe,
                      decks=done, tracer=tracer)
        else:
            run_decks(cli, schema, deck, args.workload, args.seconds, stats, probe,
                      time_setup=lambda: setup_once(args))
    if args.trace:
        os.makedirs(WORK, exist_ok=True)
        tracer.write_spans(os.path.join(
            WORK, f"spans-{args.workload}-{args.seed}.tsv.gz"))
        units = metric_units("per_layer")
        metrics = per_layer(tracer, traced, stats, units)
        runs = (warm, stats, traced)
    else:
        units = metric_units("end_to_end")
        values = end_to_end(stats, stats.speed())
        metrics = {name: values[name] for name in units}
        unscaled = end_to_end(stats, 1.0)
        print("unscaled " + " ".join(f"{name} {unscaled[name]:.6g}" for name in units))
        print("set-up times " + " ".join(f"{t:.4f}" for t in stats.setups) + " s")
        runs = (warm, stats)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    causes = sum((r.causes for r in runs), Counter())
    for cause, count in causes.most_common():
        print(f"FAILED x{count} {cause}")
    print(f"workload {args.workload} seed {args.seed}: {stats.attempted} timed "
          f"jobs (latency samples) in {stats.loop_seconds:.2f} s of loop time, "
          f"{failed} failed; probe median {statistics.median(stats.probes) * 1e3:.3f}"
          f" ms, times below scaled by {stats.speed():.4f}")
    if stats.redrawn:
        print(f"{stats.redrawn} library words redrawn: their states pass "
              f"{gen.MAX_FORMS} sentential forms, near where lawbench raises "
              f"RecursionError (ROADMAP 5(c))")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not any(r.wrong for r in runs),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
