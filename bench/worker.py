"""One repetition of a workload in a fresh process (started by run.py).

    python3 bench/worker.py --workload W --seed N --mode plain|traced --t0 T

T is the parent's time.time() when it started this process, so set-up time
includes interpreter start-up.  Set-up ends when forbpairs is imported, its
lazy tables are filled and the workload's inputs are parsed; reading the
benchmark's own reference files is not counted.  The last line of stdout is
one JSON object with this repetition's measurements.

In plain mode, times are also given at a reference host speed.  A shared
host can change speed by a third within a minute, far more than the changes
the benchmark must resolve.  So a timer interrupts the requests every
CAL_EVERY_S seconds to time a calibration slice: a fixed pure-Python kernel
that uses no forbpairs code.  The time spent in slices is taken out of the
request times.  Each request's times are then scaled by CAL_REF_S over the
mean time of the slices around it: those taken during the request, and more
of the nearest ones until there are at least WINDOW_SLICES.  Set-up time is
scaled by CAL_REF_S over the mean of all the repetition's slices.  The
unscaled times are reported as raw_*.  Traced runs take no slices, so that
spans hold only the program's own work.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

CAL_ROUNDS = 1000  # one slice; about 3.5 ms on a 2-vCPU x86-64 host
CAL_REF_S = 0.0035  # a slice's time at the reference speed
CAL_EVERY_S = 0.25
WINDOW_SLICES = 8


def calibration_slice() -> float:
    """Time of one run of a fixed kernel, with gc held off.

    The kernel mixes what the library's inner loops do: integer bit
    operations, small lists, tuples, sets and a dict.
    """
    enabled = gc.isenabled()
    gc.disable()
    t = time.perf_counter()
    x, acc, seen = 12345, 0, {}
    for _ in range(CAL_ROUNDS):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        row = [(x >> k) & 0xFF for k in range(0, 32, 8)]
        key = tuple(sorted(row))
        seen[key] = seen.get(key, 0) + 1
        acc += bin(x).count("1") + len({r & 15 for r in row})
    elapsed = time.perf_counter() - t
    if enabled:
        gc.enable()
    return elapsed


class Sampler:
    """Calibration slices on a wall-clock timer while the requests run."""

    def __init__(self):
        self.slices: list[float] = []
        self.at: list[float] = []  # when each slice started
        self.wall = 0.0  # time spent in slices, wall and cpu
        self.cpu = 0.0

    def _sample(self, signum, frame) -> None:
        w, c = time.perf_counter(), time.process_time()
        self.at.append(w)
        self.slices.append(calibration_slice())
        self.wall += time.perf_counter() - w
        self.cpu += time.process_time() - c

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """CAL_REF_S over the mean time of the slices around [start, end]."""
        if not self.slices:
            return 1.0
        distance = [max(start - t, t - end, 0.0) for t in self.at]
        inside = sum(d == 0.0 for d in distance)
        nearest = sorted(range(len(distance)), key=distance.__getitem__)
        window = nearest[: max(inside, WINDOW_SLICES)]
        return CAL_REF_S / statistics.fmean(self.slices[i] for i in window)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args()

    import forbpairs

    if Path(forbpairs.__file__).resolve().parent != SRC / "forbpairs":
        print(f"forbpairs imported from {forbpairs.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads as wl

    io_start = time.perf_counter()
    reference = wl.load_reference(args.workload)
    io_s = time.perf_counter() - io_start
    requests = wl.setup(args.workload, args.seed, reference)
    setup_s = time.time() - args.t0 - io_s

    tracer, sampler = None, Sampler()
    if args.mode == "traced":
        from tracing import Tracer

        tracer = Tracer(wl.ORACLES)
        tracer.install()
    else:
        sampler.start()

    clock, cpu_clock = time.perf_counter, time.process_time
    outputs, raw_wall, raw_cpu, intervals = [], [], [], []
    t_start = clock()
    for k, request in enumerate(requests):
        if tracer is not None:
            tracer.request = k
        spent_wall, spent_cpu = sampler.wall, sampler.cpu
        c, t = cpu_clock(), clock()
        outputs.append(request())
        intervals.append((t, clock()))
        raw_wall.append(intervals[-1][1] - t - (sampler.wall - spent_wall))
        raw_cpu.append(cpu_clock() - c - (sampler.cpu - spent_cpu))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    sampler.stop()
    if tracer is not None:
        tracer.uninstall()
    attempted, failed, examined, messages = wl.check(
        args.workload, args.seed, reference, outputs
    )
    for line in messages[:20]:
        print(f"mismatch: {line}", file=sys.stderr)

    speed = sampler.scale(-math.inf, math.inf)
    scale = [sampler.scale(t, end) for t, end in intervals]
    latencies = [w * f for w, f in zip(raw_wall, scale)]
    result = {
        "setup_s": setup_s * speed,
        "wall_s": sum(latencies),
        "cpu_s": sum(c * f for c, f in zip(raw_cpu, scale)),
        "latencies_ms": [x * 1e3 for x in latencies],
        "peak_rss_mb": peak_kb / 1024,
        "examined": examined, "attempted": attempted, "failed": failed,
        "raw_setup_s": setup_s, "raw_wall_s": sum(raw_wall), "raw_cpu_s": sum(raw_cpu),
        "speed": speed, "slices": len(sampler.slices),
    }
    if tracer is not None:
        result["layers"], result["counts"] = tracer.summary(sum(raw_wall))
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans_{args.workload}_seed{args.seed}.csv.gz", t_start)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
