"""sparsekit benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload exact_small --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports sparsekit from `src/` there.
The run times set-up (the import plus generating the inputs, repeated and
reported as a median), then runs whole passes over the workload's jobs, one
job at a time, until `--seconds` have passed and at least two passes ran.
A job's time is its fastest pass, rescaled to a reference machine speed
(speed.py): its wall time, or in `cli_roundtrip` the CPU time of its CLI
process.  Every job's output is checked; a job that raises or fails a
check counts as failed.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones; with `--trace 1` the run measures the same passes untraced
and then traced, and reports the per-layer metrics.  The line before it holds
the run's details: metadata, `failed_frac`, `output_digest` (sha256 over the
canonical JSON of the first pass's outputs), the tail percentile and its
sample count.  A traced run also writes its spans, one JSON object per line,
to `.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import Speed
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ".perfbench_work"
SPANS_DIR = ".perfbench_out"

WORKLOADS = ("exact_small", "sparse_large", "cli_roundtrip")
# Set-up repetitions per run; setup_s reports their median.
SETUP_REPS = {"exact_small": 5, "sparse_large": 3, "cli_roundtrip": 5}
# Every job runs once per pass and reports its fastest pass (see _measure);
# jobs_per_s is one pass's jobs over the sum of those times.
MIN_PASSES = 2
IMPORT_REPS = 5


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.chdir(ROOT)
    package = ROOT / "src" / "sparsekit"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no sparsekit sources under {package}", file=sys.stderr)
        return 2
    # Every run compiles the package afresh, as a start without bytecode does.
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    load_avg = os.getloadavg()

    speed = Speed()
    import_raw, import_scaled = _time_import(speed)
    import sparsekit
    if Path(sparsekit.__file__).resolve().parent != package.resolve():
        print(f"perfbench: imported sparsekit from {sparsekit.__file__}, "
              f"not from {package}", file=sys.stderr)
        return 2

    workload = importlib.import_module(args.workload)
    expected = _declared_metrics(args.trace)

    shutil.rmtree(WORKDIR, ignore_errors=True)
    os.makedirs(WORKDIR)
    try:
        if args.trace:
            report = _traced_run(workload, args, speed)
        else:
            report = _timed_run(workload, args, speed, import_raw, import_scaled)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    metrics = report.pop("metrics")
    if set(metrics) != set(expected):
        print(f"perfbench: metric names {sorted(set(metrics) ^ set(expected))} "
              f"differ from BENCHMARK.json", file=sys.stderr)
        return 3
    detail = {"workload": args.workload, "meta": _metadata(args, load_avg, sparsekit), **report}
    print(json.dumps({"detail": detail}, sort_keys=True))
    attempted, failed = report["attempted"], report["failed"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in expected.items()},
    }))
    return 0


def _time_import(speed):
    """Median of IMPORT_REPS fresh `import sparsekit`, raw and rescaled.
    Each repetition first drops every module the import loaded, the standard
    library ones too, so each pays what a fresh process pays; the last import
    stays loaded."""
    before = set(sys.modules)
    raw, scaled = [], []
    for _ in range(IMPORT_REPS):
        for name in [m for m in sys.modules if m not in before]:
            del sys.modules[name]
        gc.collect()
        speed.probe(3)
        mark = speed.mark()
        t0 = time.perf_counter()
        importlib.import_module("sparsekit")
        raw.append(time.perf_counter() - t0)
        speed.probe(3)
        scaled.append(raw[-1] * speed.factor(mark))
    return statistics.median(raw), statistics.median(scaled)


def _declared_metrics(trace: int) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def _setup(workload, seed, tr):
    return workload.setup(seed, tr, WORKDIR)


def _measure(workload, jobs, seed, tr, speed, seconds, min_passes, passes=None):
    """Whole passes over the jobs until `seconds` of job time have passed and
    at least `min_passes` passes ran (or exactly `passes` passes).  Later
    passes get freshly built inputs, so no state carried on an input object
    survives into the next pass.  Each job's time is the fastest of its
    passes, on the workload's JOB_CLOCK (the wall clock if it names none),
    raw and rescaled by `speed` to the reference speed, and its wall time."""
    clock = getattr(workload, "JOB_CLOCK", time.perf_counter)
    raw = [[] for _ in jobs]
    scaled = [[] for _ in jobs]
    wall = [[] for _ in jobs]
    first, problems = [], []
    failed = 0
    pass_times = []
    while True:
        n_pass = len(pass_times)
        if n_pass:
            jobs = _setup(workload, seed, Tracer(False))
        state = {}
        marks = []
        gc.collect()
        pass_start = time.perf_counter()
        for i, (job_id, fn) in enumerate(jobs):
            speed.probe_if_due()
            marks.append(speed.mark())
            c0 = clock()
            t0 = time.perf_counter()
            try:
                with tr.span("job", job=f"{n_pass}:{job_id}"):
                    text, bad = fn(tr, state)
            except Exception as e:  # a job that raises is a failed job
                text, bad = None, [("bench", f"{type(e).__name__}: {e}")]
            wall[i].append(time.perf_counter() - t0)
            raw[i].append(clock() - c0)
            if n_pass == 0:
                first.append((job_id, text))
            elif text != first[i][1]:
                bad = bad + [("bench", "output differs from the first pass")]
            if bad:
                failed += 1
                problems += [f"{job_id}: {layer}: {msg}" for layer, msg in bad]
                for layer in {layer for layer, _ in bad}:
                    tr.fail(layer)
        speed.probe(3)
        pass_times.append(time.perf_counter() - pass_start)
        for i, mark in enumerate(marks):
            scaled[i].append(raw[i][-1] * speed.factor(mark))
        if passes is not None:
            if len(pass_times) >= passes:
                break
        elif len(pass_times) >= min_passes and sum(pass_times) >= seconds:
            break
    digest = hashlib.sha256()
    for job_id, text in first:
        digest.update(f"{job_id}\0{text}\0".encode())
    return {"raw": [min(ts) for ts in raw], "scaled": [min(ts) for ts in scaled],
            "wall": [min(ts) for ts in wall],
            "job_ids": [job_id for job_id, _ in first],
            "busy_s": sum(pass_times), "passes": len(pass_times), "pass_times_s": pass_times,
            "attempted": len(pass_times) * len(first), "failed": failed, "problems": problems,
            "output_digest": "sha256:" + digest.hexdigest()}


def _quantile(xs, q: float) -> float:
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _tail_pct(n: int) -> float:
    """The highest percentile with at least 10 of n samples beyond it."""
    return 100.0 * max(n - 10, n // 2) / n


def _job_metrics(setup_s: float, job_times: list) -> dict:
    return {
        "setup_s": setup_s,
        "jobs_per_s": len(job_times) / sum(job_times),
        "job_p50_s": statistics.median(job_times),
        "job_tail_s": _quantile(job_times, _tail_pct(len(job_times)) / 100),
    }


def _job_speed(workload, speed):
    """The speed probe that rescales job times: the workload's own, if it
    has one, else the in-process one that also rescales set-up."""
    return workload.make_speed() if hasattr(workload, "make_speed") else speed


def _timed_run(workload, args, speed, import_raw, import_scaled):
    off = Tracer(False)
    setup_raw, setup_scaled = [], []
    for _ in range(SETUP_REPS[args.workload]):
        gc.collect()
        speed.probe(3)
        mark = speed.mark()
        t0 = time.perf_counter()
        jobs = _setup(workload, args.seed, off)
        setup_raw.append(time.perf_counter() - t0)
        speed.probe(3)
        setup_scaled.append(setup_raw[-1] * speed.factor(mark))
    job_speed = _job_speed(workload, speed)
    m = _measure(workload, jobs, args.seed, off, job_speed, args.seconds, MIN_PASSES)
    peak = getattr(workload, "peak_rss_kb", None)
    peak_kb = peak() if peak else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scaled = m.pop("scaled")
    metrics = _job_metrics(import_scaled + statistics.median(setup_scaled), scaled)
    metrics["peak_rss_mb"] = peak_kb / 1024
    raw = _job_metrics(import_raw + statistics.median(setup_raw), m.pop("raw"))
    wall = _job_metrics(raw["setup_s"], m.pop("wall"))
    return {"metrics": metrics, "unscaled": raw, "wall": wall, "speed": speed.summary(),
            "job_speed": job_speed.summary(),
            "job_times_s": dict(zip(m.pop("job_ids"), scaled)),
            "failed_frac": m["failed"] / m["attempted"],
            "job_tail_pct": _tail_pct(len(jobs)), "job_samples": len(jobs),
            "setup_reps_s": setup_raw, "problems": m.pop("problems")[:20], **m}


def _traced_run(workload, args, speed):
    on = Tracer(True)
    with on.span("setup", job="setup"):
        jobs = _setup(workload, args.seed, on)
    setup_wall = on.spans[0][2] - on.spans[0][1]
    job_speed = _job_speed(workload, speed)
    plain = _measure(workload, jobs, args.seed, Tracer(False), job_speed, args.seconds, 1)
    traced = _measure(workload, _setup(workload, args.seed, Tracer(False)), args.seed, on,
                      job_speed, 0, 1, passes=plain["passes"])
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    problems = plain["problems"] + traced["problems"]
    if traced["output_digest"] != plain["output_digest"]:
        failed += 1
        problems.append("traced passes gave other outputs than untraced ones")
    base = setup_wall + traced["busy_s"]
    if hasattr(workload, "replay_in_process"):
        t0 = time.perf_counter()
        for job_id, bad in workload.replay_in_process(on, jobs):
            attempted += 1
            failed += bool(bad)
            problems += [f"in-process {job_id}: {layer}: {msg}" for layer, msg in bad]
            for layer in {layer for layer, _ in bad}:
                on.fail(layer)
        base += time.perf_counter() - t0
    metrics = on.layer_metrics(base)
    metrics["cli.import_s"] = _cli_import_s()
    metrics["trace.overhead_s"] = traced["busy_s"] - plain["busy_s"]
    os.makedirs(SPANS_DIR, exist_ok=True)
    spans_path = f"{SPANS_DIR}/spans-{args.workload}-seed{args.seed}.jsonl"
    with open(spans_path, "w") as fh:
        for i, (name, start, end, parent, job, bad) in enumerate(on.spans):
            fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                 "parent": parent, "job": job, "failed": bad}) + "\n")
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "failed_frac": failed / attempted,
            "share_base_s": base, "share_base": "traced set-up + traced passes (+ in-process CLI replay)",
            "untraced_busy_s": plain["busy_s"], "traced_busy_s": traced["busy_s"],
            "passes": plain["passes"], "output_digest": plain["output_digest"],
            "traced_output_digest": traced["output_digest"],
            "spans": len(on.spans), "spans_file": spans_path,
            "problems": problems[:20]}


def _cli_import_s() -> float:
    """Median start-up with `import sparsekit.cli` minus median bare start-up,
    in fresh interpreters that write no bytecode."""
    from common import child_env
    env = child_env(str(ROOT))

    def start(code):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
        return time.perf_counter() - t0

    bare, full = [], []
    for _ in range(IMPORT_REPS):
        bare.append(start("pass"))
        full.append(start("import sparsekit.cli"))
    return statistics.median(full) - statistics.median(bare)


def _metadata(args, load_avg, sparsekit) -> dict:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10).stdout.split()
    except OSError:
        out = []
    # only the checkout's own repository, not one that happens to enclose it
    sha = out[1] if len(out) == 2 and Path(out[0]).resolve() == ROOT else None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sparsekit").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": sha, "src_sha256": src.hexdigest(),
        "sparsekit_version": sparsekit.__version__,
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "load_avg_start": list(load_avg),
    }


if __name__ == "__main__":
    raise SystemExit(main())
