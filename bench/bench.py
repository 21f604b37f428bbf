"""End-to-end benchmark of qgosim ``run`` + ``verify``, with a traced run.

Run from the root of a checkout:

    python3 bench/bench.py --workload batch-small --seed 0 --seconds 30 --trace 0
    python3 bench/bench.py --workload all

The loop is closed, with one caller: each execution starts only after the
previous one finished, in this process, with no pool (``--jobs 1``).  An
execution is what the CLI does for ``run`` and then ``verify``: the run
half is ``scheduler.run_simulation`` then ``traceio.serialize_run``, the
verify half ``traceio.parse_run`` then ``verifier.verify``.

``--trace 0`` prints the end-to-end metrics, timed on a ``HostClock``:
seconds of a host running at a fixed reference speed.  ``--trace 1`` alternates
untraced and traced passes over the workload and prints the per-layer
metrics of the traced passes (see ``tracer.py``) and the tracing overhead.
The last line of standard output is one JSON object.  The exit code is 1
when an execution fails the correctness gate, 2 when set-up fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"

WORKLOADS = ("batch-small", "ring-classical-long", "ring-quantum-wide")
DEFAULT_SEED = 0  # the seed whose outputs are pinned in reference.json
DEFAULT_SECONDS = 30
SETUP_PROBES = 7
# The host's speed drifts (see HostClock).  REFERENCE_LOOP_S is the time
# _reference_loop takes on the reference host, and PACE_INTERVAL_S how often
# HostClock times it.
REFERENCE_LOOP_S = 3.0e-4
PACE_INTERVAL_S = 0.2
# Neither run nor verify calls these, so a self time would always read 0;
# their call counts are still reported.
UNCALLED = ("qcore.partial_trace", "qcore.tensor_product")


class SetupError(Exception):
    pass


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def import_qgosim() -> None:
    """Import qgosim from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import qgosim
    except ImportError as exc:
        raise SetupError(f"cannot import qgosim from {src}: {exc}") from exc
    if Path(qgosim.__file__).resolve().parent != src / "qgosim":
        raise SetupError(f"qgosim was imported from {qgosim.__file__}, not {src}")


def set_up(workload: str, seed: int):
    """Imports, the workload's items and an untimed warm-up execution."""
    import_qgosim()
    import workloads

    items = workloads.build_items(workload, seed)
    for item in workloads.warmup_items(workload):
        execute(item)
    return items


def _reference_loop() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(4000):
        acc += i * i % 7
    return time.perf_counter() - start


def host_pace() -> float:
    """How slowly the host runs now: the reference loop's median time over
    five runs, divided by REFERENCE_LOOP_S."""
    return statistics.median(_reference_loop() for _ in range(5)) / REFERENCE_LOOP_S


class HostClock:
    """A clock whose seconds are those of a host that runs at the reference
    speed.

    The speed of the host drifts.  On a 2-vCPU VM shared with other tenants
    the same work ran at two speeds about 1.5x apart, switching every 30 to
    60 s, in CPU time as in wall time, so 30 s runs and 55 s runs spread
    alike.  A fixed pure-Python loop slows with qgosim.  Over 30 s windows
    of 5-minute runs, dividing each half's time by the loop's pace, timed
    before and after the half, cut the spread of the window medians (IQR /
    median) from 0.18 to 0.04 for batch-small's verify half and from 0.31
    to 0.09 for ring-classical-long's run half.  On ring-quantum-wide, where
    OpenBLAS also runs on the second vCPU, it helped less: 0.20 to 0.14 for
    the verify half.

    While the clock is entered, a SIGALRM timer interrupts the program every
    PACE_INTERVAL_S and times the loop.  Between two timings the clock
    advances by wall time divided by the latest pace; the timings themselves
    are left out.  The loop is the benchmark's own code, so no change to
    qgosim can move it.  Python runs the handler in the main thread between
    bytecodes, so it never runs concurrently with the program.
    """

    def __init__(self):
        self.paces: list[float] = []
        # (clock seconds at the last timing, wall time then, pace): replaced
        # whole by the handler, so now() always reads a consistent triple.
        self._state = (0.0, time.perf_counter(), 1.0)

    def now(self) -> float:
        base, wall, pace = self._state
        return base + (time.perf_counter() - wall) / pace

    def _tick(self, signum=None, frame=None) -> None:
        base = self.now()
        pace = host_pace()
        self.paces.append(pace)
        self._state = (base, time.perf_counter(), pace)
        signal.setitimer(signal.ITIMER_REAL, PACE_INTERVAL_S)  # one shot: no re-entry

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def probe_setups(workload: str, seed: int, n: int, clock) -> list[float]:
    """Set-up time of ``n`` fresh processes, from spawn until ready."""
    times = []
    for _ in range(n):
        start = clock()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        watchdog = threading.Timer(120, proc.kill)  # a hung set-up fails
        watchdog.start()
        try:
            line = proc.stdout.readline()
            ready = clock()
            proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0 or line.strip() != "ready":
            raise SetupError(f"set-up probe exited with code {code}")
        times.append(ready - start)
    return times


# ---------------------------------------------------------------------------
# One execution and the correctness gate
# ---------------------------------------------------------------------------

@dataclass
class Sample:
    run_s: float
    verify_s: float
    text: str
    parsed: tuple  # (execution, config, decisions) from parse_run
    cert: object

    def summary(self) -> dict:
        c = self.cert
        return {"accepted": c.accepted, "verdicts": c.verdicts,
                "swaps": c.swaps, "events": len(self.parsed[0].events)}

    def fingerprint(self) -> str:
        h = hashlib.sha256(self.text.encode())
        h.update(json.dumps(self.summary(), sort_keys=True).encode())
        return h.hexdigest()


def run_half(item, clock=time.perf_counter) -> tuple[str, float]:
    """``qgosim run``: generate an execution and serialize its trace."""
    from qgosim.harness import scheduler, traceio

    t0 = clock()
    res = scheduler.run_simulation(item.cfg, item.decisions)
    text = traceio.serialize_run(res.execution, item.cfg, res.decisions)
    return text, clock() - t0


def verify_half(text: str, clock=time.perf_counter) -> tuple[tuple, object, float]:
    """``qgosim verify``: parse a trace and verify it."""
    from qgosim import verifier
    from qgosim.harness import traceio

    t0 = clock()
    parsed = traceio.parse_run(text)
    cert = verifier.verify(parsed[0])
    return parsed, cert, clock() - t0


def execute(item, clock=time.perf_counter) -> Sample:
    text, run_s = run_half(item, clock)
    parsed, cert, verify_s = verify_half(text, clock)
    return Sample(run_s, verify_s, text, parsed, cert)


def gate(sample: Sample, first: str | None) -> list[str]:
    """Reasons ``sample`` fails the gate; ``first`` is the fingerprint of the
    same item's first run, or None if this is its first run."""
    from qgosim.harness import traceio

    problems = []
    if not sample.cert.accepted:
        problems.append(f"rejected: {sample.cert.reason}")
    if first is None:
        if traceio.serialize_run(*sample.parsed) != sample.text:
            problems.append("serialize_run(parse_run(text)) differs from text")
    elif sample.fingerprint() != first:
        problems.append("trace or certificate differs from the first pass")
    return problems


class Runner:
    """Runs items in a closed loop and applies the gate to each result."""

    def __init__(self, items, clock=time.perf_counter):
        self.items = items
        self.clock = clock
        self.first: list[str | None] = [None] * len(items)
        self.timings: list[tuple[int, float, float]] = []  # (item, run_s, verify_s)
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str, reason: str) -> None:
        self.failed += 1
        print(f"FAILED {what}: {reason}", file=sys.stderr)

    def one(self, index: int, recorder=None) -> Sample | None:
        self.attempted += 1
        if recorder is not None:
            recorder.execution = self.attempted
        try:
            sample = execute(self.items[index], self.clock)
        except Exception:  # generation or verification raised: a failure
            self.fail(f"item {index}", traceback.format_exc())
            return None
        problems = gate(sample, self.first[index])
        if self.first[index] is None:
            self.first[index] = sample.fingerprint()
        if problems:
            self.fail(f"item {index}", "; ".join(problems))
        self.timings.append((index, sample.run_s, sample.verify_s))
        return sample

    def run_pass(self, recorder=None) -> tuple[float, int, int]:
        """One pass over every item: its timed seconds, the swaps of its
        certificates and the bytes of its traces."""
        wall = swaps = size = 0
        for i in range(len(self.items)):
            sample = self.one(i, recorder)
            if sample is not None:
                wall += sample.run_s + sample.verify_s
                swaps += sample.cert.swaps
                size += len(sample.text)
        return wall, swaps, size

    def digest(self) -> str | None:
        if any(f is None for f in self.first):
            return None
        h = hashlib.sha256()
        for f in self.first:
            h.update(f.encode())
        return h.hexdigest()

    def check_digest(self, workload: str, seed: int) -> str | None:
        """Compare the first pass with the digest pinned for the default seed."""
        digest = self.digest()
        if seed == DEFAULT_SEED:
            with open(REFERENCE) as fh:
                want = json.load(fh)["digests"].get(workload)
            if digest != want:
                self.fail("digest", f"{digest} differs from the pinned {want}")
        return digest


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else None


def percentile90(values):
    if len(values) < 2:
        return values[0] if values else None
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def item_medians(timings, half: int) -> list[float]:
    """Each item's median time of one half (1: run, 2: verify) over its
    executions.  run_s and verify_s report their mean: over all of
    batch-small's executions the median falls in the gap between two of its
    four configs' times, and jumped by 10% between runs.  verify_s_p90
    reports their 90th percentile, the slow tail of the inputs; with one
    item, as on the two ring workloads, that is verify_s.  A percentile over
    single executions would there be the slowest of two or three."""
    per_item: dict[int, list[float]] = {}
    for t in timings:
        per_item.setdefault(t[0], []).append(t[half])
    return [median(xs) for xs in per_item.values()]


def timed_run(runner: Runner, seconds: float) -> dict:
    """Closed loop over the items: at least one whole pass, and executions
    keep starting until ``seconds`` have passed."""
    n = len(runner.items)
    start = time.perf_counter()
    k = 0
    while k < n or time.perf_counter() - start < seconds:
        runner.one(k % n)
        k += 1
    ver = item_medians(runner.timings, 2)
    busy = sum(r + v for _, r, v in runner.timings)
    return {
        "executions_per_s": (len(runner.timings) / busy if busy else None, "1/s"),
        "run_s": (statistics.fmean(item_medians(runner.timings, 1)), "s"),
        "verify_s": (statistics.fmean(ver), "s"),
        "verify_s_p90": (percentile90(ver), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_run(runner: Runner, seconds: float, spans_path: Path) -> dict:
    """One untraced pass for the gate, then pairs of a traced and an
    untraced pass, at least one pair, while the next pair is expected to
    fit in ``seconds``.  The first pass is left out of the overhead: the
    first large execution of a process runs slower than later ones."""
    import tracer

    recorder = tracer.Recorder()
    plain, traced, swaps, trace_mb = [], [], [], []
    start = time.perf_counter()
    runner.run_pass()
    while True:
        t = time.perf_counter()
        with recorder:
            wall, nswaps, size = runner.run_pass(recorder)
        traced.append(wall)
        swaps.append(nswaps)
        trace_mb.append(size / 1e6)
        plain.append(runner.run_pass()[0])
        pair = time.perf_counter() - t
        if time.perf_counter() - start + pair > seconds:
            break
    passes = len(traced)
    spans = recorder.spans
    layers = tracer.summarize(spans)
    m = {}
    for t in tracer.TARGETS:
        layer = layers.get(t.name, tracer.Layer())
        m[f"{t.name}.calls"] = (layer.calls / passes, "count")
        if t.name not in UNCALLED:
            m[f"{t.name}.self_s"] = (layer.self_s / passes, "s")
        if t.name in tracer.TOTAL_TIME:
            m[f"{t.name}.total_s"] = (layer.total_s / passes, "s")
    dims = [s.size for s in spans if s.name == "qcore.apply_outcome"]
    pairs = [s.size for s in spans if s.name == "causality.compute_causality"]
    applies, draws = tracer.applies_per_draw(spans)
    overhead = median(traced) - median(plain)
    m.update({
        "qcore.apply_outcome.dim_max": (max(dims, default=0), "dim"),
        "qcore.apply_outcome.state_mb": (
            sum(d * d * 16 for d in dims) / 1e6 / passes, "MB_computed"),
        "qgo.choose_outcome.applies_per_draw": (
            applies / draws if draws else 0.0, "ratio"),
        "causality.compute_causality.pairs_max": (max(pairs, default=0), "count"),
        "verifier.swaps": (median(swaps), "count"),
        "traceio.trace_mb": (median(trace_mb), "MB"),
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_share": (overhead / median(plain), "ratio"),
    })
    tracer.write_spans(spans_path, spans)
    print(f"spans: {len(spans)} over {passes} traced pass(es), written to "
          f"{spans_path.relative_to(ROOT)}")
    return m


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def machine_record(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "seed": seed,
    }


def report(workload, seed, runner, metrics, extra) -> int:
    failed = runner.failed
    attempted = max(runner.attempted, 1)
    info = {"workload": workload, "machine": machine_record(seed),
            "failed_share": failed / attempted, **extra}
    print(json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    correct = failed == 0 and all(v is not None for v, _ in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    worst = 0
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        code = subprocess.call(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT)
        worst = max(worst, code)
    return worst


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args)

    try:
        if args.setup_probe:
            set_up(args.workload, args.seed)
            print("ready", flush=True)
            return 0
        if args.trace:
            runner = Runner(set_up(args.workload, args.seed))
        else:
            clock = HostClock()
            with clock:
                setup = probe_setups(args.workload, args.seed, SETUP_PROBES, clock.now)
            runner = Runner(set_up(args.workload, args.seed), clock.now)
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2

    extra = {}
    if args.trace:
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        metrics = traced_run(runner, args.seconds, spans_path)
    else:
        with clock:
            metrics = timed_run(runner, args.seconds)
        metrics["setup_s"] = (median(setup), "s")
        # The host's pace: how much slower than the reference host it ran.
        extra = {"setup_probes_s": setup, "pace_timings": len(clock.paces),
                 "pace_quartiles": statistics.quantiles(clock.paces, n=4)}
    extra["executions"] = len(runner.timings)
    extra["digest"] = runner.check_digest(args.workload, args.seed)
    return report(args.workload, args.seed, runner, metrics, extra)


if __name__ == "__main__":
    sys.exit(main())
