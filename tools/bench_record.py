"""Record a parent/change benchmark comparison as a BENCH file.

    python3 tools/bench_record.py --parent ../parent --workloads sparse_large \
        --seeds 1-10 --seconds 20 --out BENCH_16.json

Runs each checkout's own `perfbench/run.py --trace 0`, unchanged, as a
subprocess, one run at a time.  For each workload and seed it runs the
parent and this checkout back to back, and alternates which goes first from
seed to seed, so a slow stretch of the host falls on both sides alike.  The
file records the commit and source hash of each side, the Python version,
the CPU count, every run's end-to-end metrics and `output_digest`, and per
workload and metric each side's median and quartiles, the number of pairs
the change won, and a verdict against the metric's bound (`unresolved`,
`worse`, `better` or `held`); every verdict but `held` is also printed.
`--parent` is a second checkout, a `git clone` of the parent commit, so
that the file can name its commit; this checkout is the one the script
lives in.  Each checkout is locked (`flock`) for the whole recording,
because the harness works in one fixed directory per checkout and two
recordings from it would delete each other's files.  Standard library only
(POSIX, for `fcntl`).
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 1800


def _seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    if not out:
        raise argparse.ArgumentTypeError(f"{text!r} names no seed")
    return out


def _bytecode_caches(checkout: Path) -> list:
    """The `__pycache__` directories under a checkout's `src/`.  The harness
    writes no bytecode, but Python still reads a valid cache, so a side with
    one skips compiling and its start-up looks faster than the other's."""
    return sorted(str(p) for p in (checkout / "src").rglob("__pycache__"))


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run's record, or {"error": ...} for a run that did not finish or
    whose last two stdout lines are not the harness's result, so that one
    bad run costs its pair and not the recording."""
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {RUN_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or len(lines) < 2:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    try:
        detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
        return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
                "correct": result["correct"], "failed": result["failed"],
                "attempted": result["attempted"], "output_digest": detail["output_digest"],
                "git_sha": detail["meta"]["git_sha"],
                "src_sha256": detail["meta"]["src_sha256"]}
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        return {"error": f"unreadable result: {e!r}"[:500]}


def _spread(xs: list) -> dict:
    med = statistics.median(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3}


def _summary(pairs: list, metrics: list) -> dict:
    """Per-metric spreads and wins over the pairs where both runs finished.
    `errors` counts the pairs with a run that did not finish; `incorrect`
    and `failed_jobs` count, per side, the finished runs that reported a
    wrong output and the jobs those runs failed."""
    ok = [p for p in pairs if "error" not in p["parent"] and "error" not in p["change"]]
    out = {"pairs": len(ok), "errors": len(pairs) - len(ok),
           "digests_equal": sum(p["parent"]["output_digest"] == p["change"]["output_digest"]
                                for p in ok)}
    finished = {side: [p[side] for p in pairs if "error" not in p[side]]
                for side in ("parent", "change")}
    out["incorrect"] = {side: sum(not run["correct"] for run in runs)
                        for side, runs in finished.items()}
    out["failed_jobs"] = {side: sum(run["failed"] for run in runs)
                          for side, runs in finished.items()}
    for m in metrics:
        name = m["name"]
        if not ok or name not in ok[0]["parent"]["metrics"]:
            continue
        out[name] = _compare([p["parent"]["metrics"][name] for p in ok],
                             [p["change"]["metrics"][name] for p in ok], m)
    return out


def _compare(a: list, b: list, metric: dict) -> dict:
    """One metric's parent runs `a` against the change's runs `b`, pair by
    pair: each side's spread, the pairs the change won (a tie counts for
    neither), and a verdict against the metric's relative `bound`:
    `unresolved` when the parent's quartile distance exceeds bound times
    its median and not every change run beats every parent run; `worse`
    when the change's median is worse than the parent's by more than the
    bound; `better` when the change wins at least 9 in 10 pairs and the
    medians differ by more than the parent's quartile distance; `held`
    otherwise."""
    sign = 1 if metric["better"] == "higher" else -1
    parent, change = _spread(a), _spread(b)
    wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    spread = parent["q3"] - parent["q1"]
    allowed = metric["bound"] * abs(parent["median"])
    gain = sign * (change["median"] - parent["median"])
    if spread > allowed and min(sign * y for y in b) <= max(sign * x for x in a):
        verdict = "unresolved"
    elif gain < -allowed:
        verdict = "worse"
    elif 10 * wins >= 9 * len(a) and gain > spread:
        verdict = "better"
    else:
        verdict = "held"
    return {"better": metric["better"], "parent": parent, "change": change,
            "change_better_pairs": wins, "verdict": verdict}


def _lock(checkout: Path):
    """A descriptor holding an exclusive lock on the checkout directory until
    it is closed, or None when another process holds the lock."""
    fd = os.open(checkout, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        os.close(fd)
        return None
    return fd


def _git(checkout: Path, *args) -> str:
    proc = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--seeds", type=_seeds, default="1-10", help="e.g. 1-10 or 1,3,6-8")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    bench = json.loads((HERE / "BENCHMARK.json").read_text())
    known = [w["name"] for w in bench["workloads"]]
    unknown = [w for w in args.workloads.split(",") if w not in known]
    if unknown:
        ap.error(f"unknown workload(s) {', '.join(unknown)}; BENCHMARK.json declares "
                 f"{', '.join(known)}")

    parent = Path(args.parent).resolve()
    caches = _bytecode_caches(parent) + _bytecode_caches(HERE)
    if caches:
        print("bench_record: remove the bytecode caches first, so neither side "
              "starts from compiled modules:\n  " + "\n  ".join(caches), file=sys.stderr)
        return 2
    if _git(parent, "rev-parse", "--show-toplevel") != str(parent):
        print(f"bench_record: {parent} is not the top of a git checkout, so its "
              "commit cannot be recorded; make the parent side with `git clone`",
              file=sys.stderr)
        return 2
    locks = []
    try:
        for checkout in dict.fromkeys((parent, HERE)):  # a side run against itself: one lock
            fd = _lock(checkout)
            if fd is None:
                print(f"bench_record: another recording holds {checkout}; its harness "
                      "runs would delete each other's files", file=sys.stderr)
                return 2
            locks.append(fd)
        return _record(args, argv, parent, bench)
    finally:
        for fd in locks:
            os.close(fd)


def _record(args, argv, parent: Path, bench: dict) -> int:
    """Run the pairs, write the BENCH file and return main's exit code."""
    doc = {
        "command": ["tools/bench_record.py", *(argv if argv is not None else sys.argv[1:])],
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "seconds": args.seconds,
        "change": {"head": _git(HERE, "rev-parse", "HEAD"),
                   "uncommitted": bool(_git(HERE, "status", "--porcelain", "src"))},
        "parent": {"head": _git(parent, "rev-parse", "HEAD")},
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        pairs = []
        for i, seed in enumerate(args.seeds):
            sides = [("parent", parent), ("change", HERE)]
            if i % 2:
                sides.reverse()
            pair = {"seed": seed, "first": sides[0][0]}
            for side, checkout in sides:
                pair[side] = _run(checkout, workload, seed, args.seconds)
            pairs.append(pair)
            shown = {s: pair[s].get("metrics", {}).get("jobs_per_s", pair[s].get("error"))
                     for s in ("parent", "change")}
            same = ("error" not in pair["parent"] and "error" not in pair["change"]
                    and pair["parent"]["output_digest"] == pair["change"]["output_digest"])
            print(f"{workload} seed {seed}: jobs_per_s {shown} digests equal: {same}",
                  file=sys.stderr, flush=True)
        doc["workloads"][workload] = {"summary": _summary(pairs, bench["end_to_end"]),
                                      "pairs": pairs}
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for name, w in doc["workloads"].items():
        for metric in (m["name"] for m in bench["end_to_end"]):
            s = w["summary"].get(metric)
            if s and s["verdict"] != "held":
                print(f"{name} {metric}: {s['verdict']} (median {s['parent']['median']:.4g} "
                      f"-> {s['change']['median']:.4g}, parent quartiles "
                      f"{s['parent']['q1']:.4g}-{s['parent']['q3']:.4g}, change better in "
                      f"{s['change_better_pairs']} of {w['summary']['pairs']} pairs)",
                      file=sys.stderr)
    failed = {}
    for name, w in doc["workloads"].items():
        s = w["summary"]
        if s["errors"] or any(s["incorrect"].values()):  # a failed job makes its run incorrect
            failed[name] = {k: s[k] for k in ("errors", "incorrect", "failed_jobs")}
    if failed:
        print(f"bench_record: runs that did not finish or were not correct: {failed}",
              file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
