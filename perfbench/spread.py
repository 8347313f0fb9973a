"""Run one workload over several seeds and report each end-to-end metric's
median and quartile spread (Q3 - Q1 over the median).

    python3 perfbench/spread.py --workload exact_small --seeds 1-10 --seconds 20

Runs go one at a time.  `--out FILE` also writes every run's result line and
detail line, as JSON, for BASELINE.json or a later comparison.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    runs = []
    for seed in _seeds(args.seeds):
        proc = subprocess.run([sys.executable, str(RUN), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or len(lines) < 2:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
        runs.append({"seed": seed, "result": result, "detail": detail})
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} digest={detail['output_digest'][7:19]} "
              f"{values}", flush=True)

    summary = {}
    for name in runs[0]["result"]["metrics"]:
        xs = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else None
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        print(f"{name:14s} median {med:.6g}  spread "
              f"{'-' if spread is None else f'{spread:.3f}'}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "summary": summary, "runs": runs}, fh, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
