"""germlab benchmark: one seeded workload per run, one thread, closed loop.

    python3 perfbench/run.py --workload corpus-verify --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the items of the workload run back to back until
``--seconds`` have passed; every item is checked and the end-to-end metrics
are printed.  With ``--trace 1`` one untraced pass and one traced pass over
the workload's items are run, and the per-layer metrics are printed.  The
last line of standard output is always the JSON result.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from math import gcd
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_REPEATS = 7
CALIBRATE_EVERY_S = 0.5
# median reference_seconds() on the machine the baseline was recorded on
NOMINAL_REFERENCE_S = 0.003
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
# Ten items beyond p99 left item_tail_ms spreading 0.17 across seeds, and
# p95 sat on the edge of job-suite's experiment jobs (spread 0.19); p90,
# which this gives on all three workloads, spread 0.03 there.
TAIL_MIN_BEYOND = 150


def import_program():
    """Import germlab from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    try:
        import germlab
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import germlab from {SRC}: {exc}")
    if Path(germlab.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perfbench: germlab resolved outside {SRC}: {germlab.__file__}")


def load_config():
    with open(HERE / "config.json", encoding="utf-8") as fh:
        return json.load(fh)


# -- workloads -----------------------------------------------------------------


class Workload:
    """Item generation (set-up), the timed call and the untimed judgement."""

    def __init__(self, name, params):
        import workloads as w

        self.w = w
        self.name = name
        self.params = params

    def setup(self, seed, workdir):
        w, p = self.w, self.params
        if self.name == "corpus-verify":
            return w.corpus_items(seed, p["count"])
        if self.name == "perturbed-swell":
            return w.swell_items(seed, p["count"])
        items = w.job_items(seed, p["per_command"])
        jobs = Path(workdir) / "jobs"
        jobs.mkdir(parents=True)
        out = []
        for item in items:
            path = jobs / f"{item.name}.json"
            path.write_text(json.dumps(item.data), encoding="utf-8")
            out.append((item, path))
        return out

    def execute(self, item):
        if self.name == "corpus-verify":
            return self.w.corpus_run(item)
        if self.name == "perturbed-swell":
            return self.w.swell_run(item)
        return self.w.run_cli(item[1])

    def judge(self, item, raw):
        if self.name == "job-suite":
            return self.w.job_verdict(item[0], *raw)
        return raw


class Checker:
    """Counts failed items: raised, wrong exit code, oracle or re-expansion
    mismatch, or a verdict digest other than the recorded one."""

    def __init__(self, workload, seed, count):
        self.workload = workload
        with open(HERE / "digests.json", encoding="utf-8") as fh:
            recorded = json.load(fh)
        # digests recorded for other workload sizes (the tests' small runs)
        # do not apply
        self.recorded = None
        if recorded["params"].get(workload.name) == workload.params:
            self.recorded = recorded["digests"][workload.name].get(str(seed))
        if self.recorded is not None and len(self.recorded) != count * workload.w.DIGEST_HEX:
            raise SystemExit("perfbench: digests.json does not match the item count")
        self.first = {}
        self.checked = 0
        self.failures = []

    def expected(self, index):
        h = self.workload.w.DIGEST_HEX
        if self.recorded is not None:
            return self.recorded[index * h:(index + 1) * h]
        return self.first.get(index)

    def check(self, index, item, raw, error) -> bool:
        if error is not None:
            problems = [f"raised {type(error).__name__}: {error}"]
            got = None
        else:
            try:
                verdict, problems = self.workload.judge(item, raw)
                got = self.workload.w.digest(verdict)
            except Exception as exc:  # a malformed report is a failed item
                problems, got = [f"unreadable result: {type(exc).__name__}: {exc}"], None
            want = self.expected(index)
            if got is not None and want is not None:
                self.checked += 1
                if got != want:
                    problems = problems + [f"digest {got} != recorded {want}"]
            self.first.setdefault(index, got)
        if problems:
            self.failures.append((index, problems))
        return not problems


def run_item(workload, item):
    """(raw result or None, exception or None, seconds)."""
    t0 = time.perf_counter()
    try:
        raw, error = workload.execute(item), None
    except Exception as exc:  # counted as a failed item, the run goes on
        raw, error = None, exc
    return raw, error, time.perf_counter() - t0


def _reference_work():
    """Fixed bignum work: products, remainders and gcds of ~900-bit ints.
    Of the candidates tried it tracked the speed swings of all three
    workloads best."""
    x, y = 3**400 + 1, 5**300 + 7
    for i in range(300):
        x, y = (x * y + i) % (1 << 900), gcd(x, y + i) + y
    return x


def reference_seconds() -> float:
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_work()
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


class Calibrator:
    """Scales item times to this machine's nominal speed.

    The machine's speed for identical work swings by a quarter or more over
    periods of seconds.  The reference work is timed every
    ``CALIBRATE_EVERY_S``; each item's wall time is multiplied by
    NOMINAL_REFERENCE_S over the mean of the two reference times around it.
    """

    def __init__(self):
        self.ref = reference_seconds()
        self.next = time.perf_counter() + CALIBRATE_EVERY_S
        self.window = []
        self.wall = []
        self.calibrated = []

    def add(self, seconds, force=False):
        self.window.append(seconds)
        if force or time.perf_counter() >= self.next:
            ref = reference_seconds()
            scale = NOMINAL_REFERENCE_S / ((self.ref + ref) / 2)
            self.wall += self.window
            self.calibrated += [x * scale for x in self.window]
            self.window = []
            self.ref = ref
            self.next = time.perf_counter() + CALIBRATE_EVERY_S


def timed_loop(workload, items, checker, seconds):
    """Items in order, cycling, until the deadline has passed."""
    clock = Calibrator()
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        index = i % len(items)
        raw, error, dt = run_item(workload, items[index])
        done = time.perf_counter() >= deadline
        clock.add(dt, force=done)
        checker.check(index, items[index], raw, error)
        i += 1
        if done:
            return clock


def one_pass(workload, items, checker, tracer=None):
    clock = Calibrator()
    for index, item in enumerate(items):
        raw, error, dt = run_item(workload, item)
        clock.add(dt, force=index == len(items) - 1)
        if tracer is not None:
            tracer.paused = True
        checker.check(index, item, raw, error)
        if tracer is not None:
            tracer.paused = False
    return clock


# -- set-up time -----------------------------------------------------------------


def setup_seconds(args) -> float:
    """Median time from launching a fresh interpreter to the point where the
    first item could be timed: import, input generation, job files."""
    times = []
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            t1 = time.perf_counter()
            child.stdout.read()
            code = child.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"perfbench: set-up child failed with code {code}")
        times.append(t1 - t0)
    return statistics.median(times)


# -- metrics -----------------------------------------------------------------


def tail_percentile(distinct: int) -> float:
    """Highest listed percentile with TAIL_MIN_BEYOND distinct items beyond
    it.  It depends on the workload's item count only, so a faster program
    that runs more items is measured at the same percentile."""
    for p in TAIL_PERCENTILES:
        if distinct * (100 - p) / 100 >= TAIL_MIN_BEYOND:
            return p
    return 50


def percentile(latencies, p):
    ordered = sorted(latencies)
    return ordered[min(len(ordered) - 1, int(len(ordered) * p / 100))]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    config = load_config()
    if args.workload not in config["workloads"]:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(config['workloads'])}")
    import_program()
    workload = Workload(args.workload, config["workloads"][args.workload]["params"])
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        items = workload.setup(args.seed, workdir)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        checker = Checker(workload, args.seed, len(items))
        if args.trace:
            return traced_run(args, workload, items, checker)
        return untraced_run(args, workload, items, checker)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(args, lines, attempted, failures, metrics) -> int:
    for line in lines:
        print(line)
    for index, problems in failures[:20]:
        print(f"FAILED item {index}: {'; '.join(problems)}")
    failed = len(failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def untraced_run(args, workload, items, checker) -> int:
    setup_s = setup_seconds(args)
    clock = timed_loop(workload, items, checker, args.seconds)
    cal, wall = clock.calibrated, clock.wall
    n = len(cal)
    p = tail_percentile(len(items))
    tail_s = percentile(cal, p)
    failed = len(checker.failures)
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (n / sum(cal), "1/s"),
        "item_p50_ms": (statistics.median(cal) * 1000, "ms"),
        "item_tail_ms": (tail_s * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    lines = [
        f"workload {args.workload} seed {args.seed}: {n} items "
        f"({len(items)} distinct), {checker.checked} digests compared; "
        f"item times calibrated to nominal machine speed, wall figures in brackets",
        f"setup_s       {setup_s:.4f} s (median of {SETUP_REPEATS} fresh interpreters)",
        f"items_per_s   {n / sum(cal):.3f} 1/s [{n / sum(wall):.3f}]",
        f"item_p50_ms   {statistics.median(cal) * 1000:.3f} ms "
        f"[{statistics.median(wall) * 1000:.3f}] (n={n})",
        f"item_tail_ms  {tail_s * 1000:.3f} ms [{percentile(wall, p) * 1000:.3f}] "
        f"(p{p:g}, n={n}, {sum(1 for x in cal if x > tail_s)} beyond)",
        f"peak_rss_mb   {metrics['peak_rss_mb']['value']:.1f} MB",
        f"failed_ratio  {failed / n:.4f} ({failed}/{n})",
    ]
    return report(args, lines, n, checker.failures, metrics)


def traced_run(args, workload, items, checker) -> int:
    from tracing import Tracer

    plain = one_pass(workload, items, checker)
    tracer = Tracer()
    tracer.install()
    try:
        traced = one_pass(workload, items, checker, tracer)
    finally:
        tracer.uninstall()
    overhead = sum(traced.calibrated) - sum(plain.calibrated)
    metrics = tracer.layer_metrics(sum(traced.wall), overhead)
    dump = WORK / f"spans-{args.workload}-{args.seed}.json"
    tracer.dump(dump)
    lines = [f"workload {args.workload} seed {args.seed}: 2 passes of {len(items)} items, "
             f"wall item time untraced {sum(plain.wall):.3f} s, traced {sum(traced.wall):.3f} s, "
             f"{len(tracer.spans)} spans in {dump.relative_to(ROOT)}"]
    lines += [f"{k:50s} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    return report(args, lines, 2 * len(items), checker.failures, metrics)


if __name__ == "__main__":
    sys.exit(main())
