"""The fresh interpreter that does the measured work.

    python3 perfbench/bench_child.py setup <src-dir>
        Times importing sloccrank (numpy already imported), building
        default_registry() and loading the bundled table data.
    python3 perfbench/bench_child.py run <src-dir>  < spec.json
        Runs the spec's items in passes until its time is up and prints the
        timings, outputs, trace aggregates and peak RSS as one JSON line.

Host speed on a shared machine drifts by tens of percent within seconds,
in CPU time as much as in wall time.  Every timed call is therefore
bracketed by readings of a fixed calibration kernel (pure-Python
elimination over Gaussian-integer quadruples, the same kind of work as
the library's) and sampled by it every ``SAMPLE_INTERVAL_S`` while it runs;
the harness scales the call's time by ``CAL_REF_S / calibration``.
"""

from __future__ import annotations

import json
import resource
import signal
import statistics
import sys
import time

CAL_SIZE = 6
CAL_REPS = 5
CAL_SETUP_REPS = 31
SAMPLE_INTERVAL_S = 0.01
# Median time of one calibration kernel on the reference host (2-CPU x86-64
# Linux container, CPython 3.11.7) at its usual speed; normalised times are
# seconds on that host.
CAL_REF_S = 1.2e-4


def _lcg_values(count: int, span: int) -> list[int]:
    """Fixed small integers, the same on every Python version."""
    state = 20240611
    out = []
    for _ in range(count):
        state = (state * 1103515245 + 12345) % (1 << 31)
        out.append(state % (2 * span + 1) - span)
    return out


def _mul4(x, y):
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (
        a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2),
        a1 * b2 + b1 * a2 + 2 * (c1 * d2 + d1 * c2),
        a1 * c2 + c1 * a2 - b1 * d2 - d1 * b2,
        a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
    )


_CAL_VALUES = _lcg_values(4 * CAL_SIZE * CAL_SIZE, 3)
_CAL_MATRIX = [tuple(_CAL_VALUES[4 * k : 4 * k + 4]) for k in range(CAL_SIZE * CAL_SIZE)]


def _cal_kernel() -> None:
    """Division-free elimination of quadruples through a product function,
    the same kind of work as the library's pure kernel."""
    n = CAL_SIZE
    m = list(_CAL_MATRIX)
    for k in range(n - 1):
        piv = m[k * n + k]
        for i in range(k + 1, n):
            x = m[i * n + k]
            for j in range(k + 1, n):
                t = _mul4(piv, m[i * n + j])
                u = _mul4(x, m[k * n + j])
                m[i * n + j] = (t[0] - u[0], t[1] - u[1], t[2] - u[2], t[3] - u[3])


def calibrate(reps: int = CAL_REPS) -> float:
    """Median seconds of one calibration kernel over ``reps`` runs."""
    clock = time.perf_counter
    times = []
    for _ in range(reps):
        start = clock()
        _cal_kernel()
        times.append(clock() - start)
    return statistics.median(times)


class SpeedSampler:
    """Calibration readings every ``SAMPLE_INTERVAL_S`` while a timed call runs.

    Host speed changes faster than a long item lasts, so readings at its ends
    alone misjudge it.  A SIGALRM handler runs the calibration kernel between
    the call's bytecodes; its own time is taken off the call's time.  The
    readings are of the kernel's second run, like the median-of-runs readings
    between calls.
    """

    def __init__(self, tracer=None):
        self.readings: list[float] = []
        self.stolen = 0.0
        self.tracer = tracer

    def _handler(self, signum, frame):
        enter = time.perf_counter()
        _cal_kernel()  # the interrupted code left the caches cold; time a warm run
        start = time.perf_counter()
        _cal_kernel()
        done = time.perf_counter()
        self.readings.append(done - start)
        spent = time.perf_counter() - enter
        self.stolen += spent
        if self.tracer is not None:
            self.tracer.exclude(spent)

    def timed(self, fn, *args):
        """``(result, seconds net of sampling, readings)`` of ``fn(*args)``."""
        self.readings = []
        self.stolen = 0.0
        previous = signal.signal(signal.SIGALRM, self._handler)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
        return result, elapsed - self.stolen, list(self.readings)


def _import_library(src_dir: str):
    sys.path.insert(0, src_dir)
    import sloccrank

    return sloccrank


def _set_up(src_dir: str):
    sloccrank = _import_library(src_dir)
    import sloccrank.tables

    sloccrank.default_registry()
    sloccrank.tables.table_title(4)
    return sloccrank


def setup_probe(src_dir: str) -> dict:
    # numpy's import is a fixed dependency cost of 0.15-0.3 s whose time
    # follows page-fault cost rather than CPU speed; the clock starts after it.
    import numpy  # noqa: F401

    before = calibrate(CAL_SETUP_REPS)
    sloccrank, seconds, readings = SpeedSampler().timed(_set_up, src_dir)
    after = calibrate(CAL_SETUP_REPS)
    return {"setup_s": seconds, "cal": _speed(before, readings, after), "file": sloccrank.__file__}


def _speed(before: float, readings: list[float], after: float) -> float:
    """Calibration time over a call: the median of its two ends and the readings
    inside, so a reading the scheduler interrupted does not count."""
    return statistics.median([before, after, *readings])


def _passes(workload, items, seconds, outputs, timings, tracer=None):
    """Complete passes while the next one is expected to end within ``seconds``.

    At least one pass runs.  Each item's record is (seconds net of sampling,
    calibration time over the item).
    """
    import bench_workloads

    sampler = SpeedSampler(tracer)
    clock = time.perf_counter
    begin = clock()
    cal_prev = calibrate()
    while True:
        pass_start = clock()
        record = []
        pass_outputs = []
        for item in items:
            result, elapsed, readings = sampler.timed(bench_workloads.run_item, workload, item)
            cal_next = calibrate()
            record.append((elapsed, _speed(cal_prev, readings, cal_next)))
            cal_prev = cal_next
            pass_outputs.append(bench_workloads.serialise_output(workload, result))
        timings.append(record)
        outputs.append(pass_outputs)
        now = clock()
        if now + (now - pass_start) > begin + seconds:
            return


def run_spec(spec: dict) -> dict:
    """Warm up on the first item, then time passes (untraced, then traced if asked)."""
    import bench_trace
    import bench_workloads

    workload = spec["workload"]
    items = spec["items"]
    seconds = spec["seconds"]
    bench_workloads.run_item(workload, items[0])  # fill lazy caches
    out = {"untraced": {"timings": [], "outputs": []}}
    budget = seconds / 2 if spec["trace"] else seconds
    _passes(workload, items, budget, out["untraced"]["outputs"], out["untraced"]["timings"])
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if spec["trace"]:
        traced = {"timings": [], "outputs": []}
        with bench_trace.Tracer() as tracer:
            _passes(workload, items, seconds / 2, traced["outputs"], traced["timings"], tracer)
        traced["trace"] = tracer.snapshot()
        out["traced"] = traced
    import numpy
    import sloccrank

    out["env"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "kernel_backend": getattr(sloccrank, "kernel_backend", "n/a"),
    }
    out["file"] = sloccrank.__file__
    return out


def main(argv) -> int:
    mode, src_dir = argv[1], argv[2]
    if mode == "setup":
        print(json.dumps(setup_probe(src_dir)))
        return 0
    if mode == "run":
        spec = json.load(sys.stdin)
        _import_library(src_dir)
        print(json.dumps(run_spec(spec)))
        return 0
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
