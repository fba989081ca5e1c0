"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --workloads sparse dense formulas \\
        --seeds 1-10 --seconds 24 --out perfbench/results/run.json

Runs are made one after another, each in a fresh process.  For every
workload and end-to-end metric the summary gives the values, their median
and their quartile spread, (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4); the same is done for every metric in the
runs' report lines.
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402


def seed_list(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - started
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    report = {}
    for line in lines[:-1]:
        m = REPORT_LINE.match(line)
        if m:
            report[m["name"]] = {"value": float(m["value"]), "unit": m["unit"], "n": int(m["n"])}
    return {"seed": seed, "elapsed_s": elapsed, "result": json.loads(lines[-1]),
            "report": report, "failures": [l for l in lines if l.startswith("FAILED")]}


# a report line: name, value, unit, sample count
REPORT_LINE = re.compile(r"^(?P<name>\S+)\s+(?P<value>\S+)\s+(?P<unit>\S+)\s+n=(?P<n>\d+)$")


def summarise(per_run) -> dict:
    """per_run: one {name: {"value", "unit", ...}} per run."""
    out = {}
    for name, first in per_run[0].items():
        values = [m[name]["value"] for m in per_run if name in m]
        entry = {"unit": first["unit"], "median": statistics.median(values), "values": values}
        if len(values) >= 2 and entry["median"]:
            entry["spread"] = stats.quartile_spread(values)
        out[name] = entry
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", default="1-10", help="a seed or a range lo-hi")
    ap.add_argument("--seconds", type=int, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the summary as JSON here")
    args = ap.parse_args(argv)

    summary = {"python": platform.python_version(), "machine": platform.machine(),
               "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in seed_list(args.seeds):
            run = run_once(workload, seed, args.seconds, args.trace)
            runs.append(run)
            r = run["result"]
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']} "
                  f"({run['elapsed_s']:.0f}s) "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()),
                  flush=True)
        metrics = summarise([r["result"]["metrics"] for r in runs])
        summary["workloads"][workload] = {
            "metrics": metrics, "report": summarise([r["report"] for r in runs]), "runs": runs}
        for name, m in metrics.items():
            spread = f"{m['spread']:.3f}" if "spread" in m else "-"
            print(f"  {workload:9s} {name:32s} median {m['median']:.6g} {m['unit']:6s} "
                  f"spread {spread}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
