"""Run the benchmark on several seeds and report each metric's spread.

Usage (from the root of a source checkout)::

    python3 perfbench/spread.py --runs 10 [--workloads gate-char,cli-chain]
        [--save SET.json] [--first FIRST.json --repeat-out REPEAT.json]

For every workload it runs ``perfbench/run.py`` once per seed (1..runs, one
run at a time) and prints, per metric, the median and the interquartile
range as a share of the median, next to the metric's bound from
``BENCHMARK.json``. The raw results go to ``.perfbench_out/spread.json``.

``--save`` writes the summary and every run's record, without its raw
samples, in the layout of ``results/seed/trace0.json``. ``--first`` names an
earlier saved set of the same code: each metric's median is then compared
with that set's, and ``--repeat-out`` writes the comparison in the layout of
``results/seed/repeat.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
RAW_KEYS = ("samples_s", "probes_s")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--save", type=Path)
    ap.add_argument("--first", type=Path)
    ap.add_argument("--repeat-out", type=Path)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    first = json.loads(args.first.read_text())["summary"] if args.first else None
    results, records, summary, repeat = {}, [], {}, {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect output", file=sys.stderr)
            runs.append(result)
            record = json.loads((OUT / f"{workload}-seed{seed}-trace0.json").read_text())
            records.append({k: v for k, v in record.items() if k not in RAW_KEYS})
        results[workload] = runs
        summary[workload] = {}
        repeat[workload] = {}
        print(f"{workload}: {len(runs)} runs, failed {sum(r['failed'] for r in runs)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[name]
            summary[workload][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
                "unit": runs[0]["metrics"][name]["unit"], "runs": len(values),
            }
            flag = "" if spread <= bound / 3 else "  <-- above bound/3"
            line = f"  {name:<36} median {med:12.6g}  spread {spread:7.4f}  bound {bound}{flag}"
            if first is not None:
                before = first[workload][name]
                better = next(m["better"] for m in spec["end_to_end"] if m["name"] == name)
                worse = (med - before["median"]) / before["median"] if before["median"] else 0.0
                if better == "higher":
                    worse = -worse
                repeat[workload][name] = {
                    "first_median": before["median"], "second_median": med,
                    "second_worse_by": worse, "first_spread": before["spread"],
                    "second_spread": spread, "bound": bound,
                }
                line += f"  second worse by {worse:+.4f}" + ("  <-- past bound" if worse > bound else "")
            print(line)
        tail = json.loads((OUT / f"{workload}-seed1-trace0.json").read_text())["job_tail"]
        summary[workload]["job_tail"] = tail
    OUT.mkdir(exist_ok=True)
    (OUT / "spread.json").write_text(json.dumps(results, indent=1) + "\n")
    if args.save:
        args.save.write_text(json.dumps({"summary": summary, "runs": records}, indent=1) + "\n")
    if args.repeat_out and first is not None:
        args.repeat_out.write_text(json.dumps(repeat, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
