"""Benchmark of the delpezzo pipeline: seeded workloads, timed end to end
and per layer, with every op's output checked.

Run from the root of a checkout:

    python3 perfbench/run.py                       # all workloads, seed 1
    python3 perfbench/run.py --workload analyze_text --seed 7
    python3 perfbench/run.py --workload lattice_sweep --trace 1
    python3 perfbench/run.py --smoke               # a few ops per workload

Each workload runs as a closed loop with one client in one single-threaded
process.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; with `--trace 0` the
metrics are the end-to-end ones of BENCHMARK.json, with `--trace 1` the
per-layer ones.  The full record of a run (metadata, failures by class,
output digest, every metric) is written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import collections
import gc
import hashlib
import itertools
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
NAMES = ("series_roundtrip", "analyze_text", "lattice_sweep")
SETUP_RUNS = 11
SMOKE_OPS = 4
# rounds generated before the timed phase; after the last one the loop
# starts over.  series_roundtrip draws new inputs for every round, so it gets
# many; analyze_text gets the four rounds of its schedule; lattice_sweep
# clears the caches before every op, so a repeat costs the same.
ROUNDS = {"series_roundtrip": 150, "analyze_text": 4, "lattice_sweep": 8}
# a timed run finishes its first round even past --seconds, so that it
# measures whole rounds when the machine is in a slow phase
MIN_ROUNDS = 1
# whole rounds a traced run replays, the first ones of the seed, so that its
# layer counts depend only on the code and the seed; each pass takes 5 to 30
# reference seconds
TRACE_ROUNDS = {"series_roundtrip": 3, "analyze_text": 1, "lattice_sweep": 3}


class DeadlineExceeded(BaseException):
    """Raised when an op runs past its deadline.  Not an Exception, so no
    handler inside the library can swallow it."""


class Deadline:
    """Per-op deadline from SIGALRM; the handler raises only while armed."""

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise DeadlineExceeded

    def start(self, seconds: float) -> None:
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)

    def stop(self) -> None:
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


def calibration_loop() -> int:
    """Fixed pure-Python work of the kind the library does, integer and
    Fraction arithmetic; it never calls the library."""
    s = 0
    for i in range(60000):
        s += i * i
    for i in range(2000):
        s += (Fraction(i % 97 + 1, 3 * (i % 89) + 1) + Fraction(5, 7)).numerator
    return s


class Speed:
    """The machine's current speed, from `calibration_loop` timed between ops.

    On a shared virtual machine the speed of a CPU drifts by up to half
    within a minute, and every time the benchmark takes drifts with it, in
    phases longer than a run.  Times are therefore reported in reference
    seconds: measured seconds times REFERENCE_S over the median of the last
    WINDOW times of the loop, which is timed again whenever EVERY_S has
    passed.  Deadlines are set in reference seconds too, so an op is stopped
    after the same amount of work in a slow phase as in a fast one.  The
    loop does not touch the library, so a change to the library moves
    reference seconds as it moves measured ones.
    """

    REFERENCE_S = 0.009  # the loop's time in fast phases on a 2-CPU x86-64 VM, Python 3.11
    EVERY_S = 0.5
    WINDOW = 3

    def __init__(self):
        self.samples = collections.deque(maxlen=self.WINDOW)
        self.last = -float("inf")
        self.factors: list[float] = []

    def sample(self) -> None:
        gc.disable()  # a collection would time the heap, not the machine
        t0 = time.perf_counter()
        calibration_loop()
        self.last = time.perf_counter()
        gc.enable()
        self.samples.append(self.last - t0)

    def factor(self) -> float:
        """Reference seconds per measured second, now."""
        if time.perf_counter() - self.last >= self.EVERY_S:
            self.sample()
        f = self.REFERENCE_S / statistics.median(self.samples)
        self.factors.append(f)
        return f


OpRecord = collections.namedtuple("OpRecord", "round status cls output latency")


class Run:
    """Op records of one timed phase, with the duration of each whole round,
    in reference seconds (see `Speed`).  Durations leave out the time the
    benchmark spends calibrating and checking outputs."""

    def __init__(self):
        self.ops: list[OpRecord] = []
        self.round_s: dict[int, float] = {}
        self.wall = 0.0  # reference seconds of every op run
        self.raw_wall = 0.0  # measured seconds of every op run
        self.factors: list[float] = []

    def measured(self) -> tuple[list[OpRecord], float]:
        """Ops of whole rounds and their time; everything when no round is whole."""
        if not self.round_s:
            return self.ops, self.wall
        return [r for r in self.ops if r.round in self.round_s], sum(self.round_s.values())


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   help="length of the timed phase (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help=f"1: run the first rounds ({TRACE_ROUNDS}) untraced, then again "
                        "with per-layer spans, and report layer metrics")
    p.add_argument("--smoke", action="store_true",
                   help=f"run {SMOKE_OPS} ops per workload and one set-up launch")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def prepare(args):
    """Import the library and generate the workload's inputs."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import delpezzo.cli  # noqa: F401  (imported as part of set-up)
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    rng = random.Random(f"{args.workload}:{args.seed}")
    rounds, ctx = w.generate(rng, 1 if args.smoke else ROUNDS[args.workload])
    if args.smoke:
        rounds = [rounds[0][:SMOKE_OPS]]
    return w, rounds, ctx


def lru_caches() -> list:
    import delpezzo

    mods = [delpezzo] + [m for k, m in sys.modules.items() if k.startswith("delpezzo.")]
    found = {id(v): v for m in mods for v in vars(m).values() if hasattr(v, "cache_clear")}
    return list(found.values())


def measure_setup(args, launches: int) -> tuple[list[float], list[float]]:
    """Reference and measured seconds from launching a fresh interpreter
    until the library and its CLI are imported and the inputs are
    generated, once per launch; the speed is sampled before each launch."""
    speed = Speed()
    cmd = [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    times, raw = [], []
    for _ in range(launches):
        speed.sample()
        f = speed.factor()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            raw.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(raw[-1] * f)
    return times, raw


def clear(caches, tracer=None) -> None:
    if tracer:
        tracer.collect_caches()
    for fn in caches:
        fn.cache_clear()


def run_op(w, op, ctx, deadline: Deadline, f: float):
    """(status, failure class, canonical output, latency, seconds spent in the
    output check) of one op at speed factor `f`.  The latency and the
    deadline are in reference seconds; a failed op is recorded at the
    deadline."""
    from workloads import NamedFailure, WrongOutput

    t0 = time.perf_counter()
    try:
        deadline.start(w.deadline_s / f)
        out = w.run(op)
        deadline.stop()
    except DeadlineExceeded:
        return "failed", "DeadlineExceeded", None, w.deadline_s, 0.0
    except Exception as exc:  # every other failure is counted by its class
        return "failed", type(exc).__name__, None, w.deadline_s, 0.0
    finally:
        deadline.stop()
    t1 = time.perf_counter()
    latency = (t1 - t0) * f
    try:
        status, cls, output = "ok", None, w.check(op, out, ctx)
    except NamedFailure as exc:
        status, cls, output, latency = "failed", str(exc), None, w.deadline_s
    except WrongOutput as exc:
        status, cls, output = "wrong", "WrongOutput", str(exc)
    return status, cls, output, latency, time.perf_counter() - t1


def measure(w, rounds, ctx, caches, seconds, deadline, tracer=None, repeat=True) -> Run:
    """Run rounds in order for `seconds` and at least MIN_ROUNDS whole
    rounds (or once through, without repeat)."""
    run = Run()
    speed = Speed()
    start = time.perf_counter()

    def done() -> bool:
        return time.perf_counter() - start >= seconds and len(run.round_s) >= MIN_ROUNDS

    op_id = 0
    for k in itertools.count() if repeat else range(len(rounds)):
        if done():
            break
        template = rounds[k % len(rounds)]
        busy = 0.0  # reference seconds of the round's ops
        for i, op in enumerate(template):
            if done():
                break
            f = speed.factor()
            t0 = time.perf_counter()
            if w.clear_caches == "op" or (w.clear_caches == "round" and i == 0):
                clear(caches, tracer)
            if tracer:
                tracer.op, first = op_id, len(tracer.spans)
            status, cls, output, latency, check_s = run_op(w, op, ctx, deadline, f)
            if tracer:
                tracer.end_op(first)
            run.ops.append(OpRecord(k, status, cls, output, latency))
            raw = time.perf_counter() - t0 - check_s
            busy += raw * f
            run.raw_wall += raw
            op_id += 1
        else:
            run.round_s[k] = busy
        run.wall += busy
    run.factors = speed.factors
    return run


def digests(run: Run) -> tuple[str, list]:
    """SHA-256 of the first round's answered outputs, and a short digest per
    op of that round (None where the op failed).  Whether an op beats the
    deadline depends on the machine, so failed ops are left out of both."""
    first = [r for r in run.ops if r.round == 0]
    per_op = [hashlib.sha256(r.output.encode()).hexdigest()[:16] if r.status == "ok" else None for r in first]
    whole = hashlib.sha256("\n".join(f"{i} {d}" for i, d in enumerate(per_op) if d).encode()).hexdigest()
    return whole, per_op


def end_to_end(run: Run, setup_s: float) -> dict:
    recs, wall = run.measured()
    lat = [r.latency for r in recs]
    ok = sum(r.status == "ok" for r in recs)
    values = {
        "ops_per_s": (ok / wall, "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_p90_s": (statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else lat[0], "s"),
        "ok_frac": (ok / len(recs), "ratio"),
        "fail_frac": (1 - ok / len(recs), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def listed(metrics: dict, key: str) -> dict:
    """The metrics BENCHMARK.json lists under `key`, in its order."""
    return {m["name"]: metrics[m["name"]] for m in spec()[key]}


def record_path(workload: str, args) -> Path:
    return RESULTS / f"{workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"


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


def run_workload(args) -> int:
    setup_runs, setup_raw = measure_setup(args, 1 if args.smoke else SETUP_RUNS)
    setup_s = statistics.median(setup_runs)
    w, rounds, ctx = prepare(args)
    caches = lru_caches()
    deadline = Deadline()
    clear(caches)
    # the generated inputs are not garbage; keep collections from rescanning
    # them, so a timed op pays for its own allocations as in a fresh process
    gc.collect()
    gc.freeze()
    record = {
        "workload": w.name, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
        "seconds": None if args.trace else args.seconds, "deadline_s": w.deadline_s, "commit": commit(),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "setup_runs_s": setup_runs, "setup_runs_measured_s": setup_raw,
    }
    if args.trace:
        from tracing import Tracer

        fixed = rounds if args.smoke else rounds[:TRACE_ROUNDS[w.name]]
        base = measure(w, fixed, ctx, caches, float("inf"), deadline, repeat=False)
        clear(caches)
        tracer = Tracer()
        tracer.install()
        try:
            run = measure(w, fixed, ctx, caches, float("inf"), deadline, tracer, repeat=False)
        finally:
            tracer.uninstall()
        tracer.collect_caches()
        metrics = tracer.layer_metrics()
        record["trace_overhead"] = run.wall / base.wall - 1
        record["untraced_wall_s"], record["traced_wall_s"] = base.wall, run.wall
        record["spans"] = tracer.span_count()
        wrong = [r for r in base.ops + run.ops if r.status == "wrong"]
        recs = run.ops
        shown = listed(metrics, "per_layer")
    else:
        run = measure(w, rounds, ctx, caches, args.seconds, deadline, repeat=not args.smoke)
        metrics = end_to_end(run, setup_s)
        wrong = [r for r in run.ops if r.status == "wrong"]
        recs, _ = run.measured()
        shown = listed(metrics, "end_to_end")
    failed = sum(r.status != "ok" for r in recs)
    record.update({
        "rounds_whole": len(run.round_s),
        "ops_measured": len(recs),
        "ops_run": len(run.ops),
        "measured_wall_s": run.raw_wall,
        "speed_factor_quartiles": statistics.quantiles(run.factors, n=4) if len(run.factors) > 1 else run.factors,
        "failures": dict(collections.Counter(r.cls for r in recs if r.status != "ok")),
        "wrong": [r.output for r in wrong][:10],
        "metrics": metrics,
        "latencies_s": [round(r.latency, 6) for r in recs],
    })
    record["digest"], record["op_digests"] = digests(run)
    RESULTS.mkdir(exist_ok=True)
    out = record_path(w.name, args)
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"{w.name}: seed {args.seed}, trace {args.trace}, {record['rounds_whole']} whole rounds, "
          f"{len(recs)} ops measured of {len(run.ops)} run, deadline {w.deadline_s} reference s")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    if args.trace:
        print(f"  tracing overhead {record['trace_overhead']:+.1%} over the same ops untraced")
    answered = sum(d is not None for d in record["op_digests"])
    print(f"  failures {record['failures'] or 'none'}; digest {record['digest'][:16]} over {answered} answered ops of round 0")
    for msg in record["wrong"]:
        print(f"  WRONG: {msg}")
    print(f"  record {out.relative_to(ROOT)}")
    print(json.dumps({"correct": not wrong, "attempted": len(recs), "failed": failed, "metrics": shown}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    records = {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
        records[name] = json.loads(record_path(name, args).read_text())
    out = record_path("all", args)
    out.write_text(json.dumps(records, indent=1) + "\n")
    print(f"record {out.relative_to(ROOT)}")
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "delpezzo" / "__init__.py").is_file():
        print(f"error: no delpezzo source tree at {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        prepare(args)
        print("ready", flush=True)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
