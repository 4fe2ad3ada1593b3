"""forbpairs benchmark: time-to-verdict on three enumeration workloads.

    python3 bench/run.py --workload restricted_deep|full_sweep|pair_survey \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
./src, nothing needs installing.  Every repetition runs in a fresh
process, as every CLI call does, so the library's level cache starts empty.

--trace 0 repeats the workload at least three times, and more while
another repetition fits in S seconds, and reports the medians of the
end-to-end metrics.  --trace 1 runs the workload once untraced, then traced
at least twice and more while another fits in S seconds; it reports the
per-layer metrics and checks that the traced call counts repeat exactly.  Every request's output is checked
against bench/reference/; any mismatch makes the exit code 1.  End-to-end
times are at a reference host speed (see worker.py); per-layer times and
trace.overhead_ratio are unscaled.

The last line of stdout is the result object; the line before it stamps
the run (Python, cores, revision, seed, threads=1).  A readable table goes
to stderr and the full record to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("restricted_deep", "full_sweep", "pair_survey")
MIN_REPS = 3
TRACED_REPS = 2
DEADLINE_S = 170

END_TO_END = (
    ("wall_s", "s"), ("cpu_s", "s"), ("graphs_per_s", "1/s"),
    ("request_p50_ms", "ms"), ("request_p90_ms", "ms"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"),
)


def git_revision() -> str:
    """HEAD of the checkout, or "none" outside a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "forbpairs").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def stamp(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": 1,
    }


def spawn(args, mode: str, deadline: float) -> dict:
    """Run one worker process to completion and return its measurements."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--mode", mode, "--t0", repr(time.time()),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repeat(args, mode: str, minimum: int, start: float, deadline: float) -> list[dict]:
    """At least `minimum` repetitions, and more while another fits in --seconds.

    A repetition's cost is measured from outside its process, so it covers
    start-up and the correctness check as well as the workload.
    """
    reps: list[dict] = []
    took: list[float] = []
    while len(reps) < minimum or (
        time.monotonic() - start + statistics.median(took) <= args.seconds
    ):
        t = time.monotonic()
        reps.append(spawn(args, mode, deadline))
        took.append(time.monotonic() - t)
    return reps


def end_to_end(reps: list[dict]) -> tuple[dict, dict]:
    latencies = [x for rep in reps for x in rep["latencies_ms"]]
    cuts = statistics.quantiles(latencies, n=10, method="inclusive")
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "graphs_per_s": statistics.median(r["examined"] / r["wall_s"] for r in reps),
        "request_p50_ms": cuts[4],
        "request_p90_ms": cuts[8],
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    samples = {
        "repetitions": len(reps),
        "request_samples": len(latencies),
        "requests_beyond_p90": sum(x > cuts[8] for x in latencies),
        "examined_graphs": reps[0]["examined"],
        "wall_s_each": [r["wall_s"] for r in reps],
        "raw_wall_s_each": [r["raw_wall_s"] for r in reps],
        "raw_setup_s_each": [r["raw_setup_s"] for r in reps],
        "host_speed_each": [r["speed"] for r in reps],
        "slices_each": [r["slices"] for r in reps],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, samples


def unit_of(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(".us_per_call"):
        return "us"
    return "ratio"


def per_layer(plain: dict, traced: list[dict]) -> tuple[dict, dict, list[str]]:
    problems = [
        f"traced run {k + 1} counted {t['counts']}, run 1 counted {traced[0]['counts']}"
        for k, t in enumerate(traced[1:], 1) if t["counts"] != traced[0]["counts"]
    ]
    values = {
        name: statistics.median(t["layers"][name] for t in traced)
        if name.endswith(("self_s", "us_per_call")) else traced[0]["layers"][name]
        for name in traced[0]["layers"]
    }
    values["trace.overhead_ratio"] = (
        statistics.median(t["raw_wall_s"] for t in traced) / plain["raw_wall_s"]
    )
    metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()}
    samples = {"traced_repetitions": len(traced), "counts": traced[0]["counts"],
               "untraced_raw_wall_s": plain["raw_wall_s"],
               "traced_raw_wall_s": [t["raw_wall_s"] for t in traced]}
    return metrics, samples, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "forbpairs" / "__init__.py").is_file():
        print(f"no forbpairs sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + DEADLINE_S
    problems: list[str] = []
    try:
        if args.trace:
            plain = spawn(args, "plain", deadline)
            traced = repeat(args, "traced", TRACED_REPS, start, deadline)
            reps = [plain] + traced
            metrics, samples, problems = per_layer(plain, traced)
        else:
            reps = repeat(args, "plain", MIN_REPS, start, deadline)
            metrics, samples = end_to_end(reps)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    correct = failed == 0 and not problems
    for line in problems:
        print(f"count mismatch: {line}", file=sys.stderr)

    record = {"stamp": stamp(args), "samples": samples, "metrics": metrics,
              "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
              "elapsed_s": time.monotonic() - start}
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{samples.get('repetitions', samples.get('traced_repetitions'))} repetitions, "
          f"{attempted} requests, fail_ratio {failed / attempted:g}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"stamp": record["stamp"]}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
