"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py                          # every workload, seeds 1..10
    python3 bench/spread.py --seeds 1 --first-seed 0 # one run per workload, default seed
    python3 bench/spread.py --workloads iterate-long --seeds 5 --trace 1

Runs are interleaved (seed by seed, every workload in turn) so that slow
drift of the host affects all workloads alike.  For each workload and metric
it prints the median of the runs, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them), the spread (q3 - q1) / median
and, for end-to-end metrics, the bound from BENCHMARK.json.  Metrics that
run.py prints but BENCHMARK.json does not list (such as converged_frac and
error_frac) are summarized too.  --json writes every run's result and the
summary to a file.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# run.py's human-readable metric lines: "  <name> <value> <unit>"
METRIC_LINE = re.compile(r"^  (\S+)\s+(\S+) (\S+)", re.M)


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write all results and the summary here")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    kind = "per_layer" if args.trace else "end_to_end"
    specs = {m["name"]: m for m in bench[kind]}

    runs = {w: [] for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for w in workloads:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            result["printed"] = {name: {"value": float(value), "unit": unit}
                                 for name, value, unit in METRIC_LINE.findall(proc.stdout)
                                 if name not in result["metrics"]}
            runs[w].append(result)
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()
                      if k in ("solve_s", "setup_s", "trace.overhead_frac")}
            print(f"seed {seed} {w}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {values}",
                  flush=True)

    summary = {}
    print(f"\n{'workload':14s} {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'bound':>6s}  unit")
    for w in workloads:
        summary[w] = {}
        printed = sorted(runs[w][0]["printed"])
        for name in list(specs) + printed:
            where = "metrics" if name in specs else "printed"
            s = summarize([r[where][name]["value"] for r in runs[w]])
            summary[w][name] = s
            bound = specs.get(name, {}).get("bound")
            flag = "" if bound is None else f"{bound:6.2f}" + (
                "  over a third of the bound" if s["spread"] > bound / 3 else "")
            if where == "printed":
                flag = "  (printed only)"
            print(f"{w:14s} {name:34s} {s['median']:12.6g} {s['q1']:12.6g} "
                  f"{s['q3']:12.6g} {s['spread']:7.3f} {flag:>6s}  "
                  f"{runs[w][0][where][name]['unit']}")
        bad = [r["seed"] for r in runs[w] if not r["correct"] or r["failed"]]
        print(f"{w:14s} runs {len(runs[w])}, incorrect at seeds {bad or 'none'}")
    if args.json:
        Path(args.json).write_text(json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
