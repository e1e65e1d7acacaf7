"""Run every workload over seeds 1..10 and print each metric with its spread.

    python3 perfbench/report.py
    python3 perfbench/report.py --trace --record "label"   # add a trajectory point

Each run lasts BENCHMARK.json's ``run_seconds``.  For each workload and
end-to-end metric the table gives the median over the runs, the quartiles
(``statistics.quantiles(values, n=4)``), the spread (interquartile distance
over the median) and the metric's bound; a spread above a third of the bound
is marked WIDE.  ``--trace`` adds two traced runs on seed 1 and checks that
their counts agree exactly.  ``--record`` appends the medians and the first
traced run to perfbench/trajectory.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.json"
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark process; its result line and its stamp."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit code {done.returncode}")
    stamp = next(json.loads(line[len("# stamp "):]) for line in lines if line.startswith("# stamp "))
    return json.loads(lines[-1]), stamp


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace", action="store_true", help="also run the traced run twice")
    parser.add_argument("--record", metavar="LABEL", help="append a point to trajectory.json")
    args = parser.parse_args()
    if args.record and not args.trace:
        parser.error("--record needs --trace")
    seconds = spec["run_seconds"]

    point = {"label": args.record, "runs": len(SEEDS), "seconds": seconds,
             "seeds": [SEEDS[0], SEEDS[-1]], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in SEEDS:
            result, point["stamp"] = run_once(workload, seed, seconds, 0)
            results.append(result)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"\n{workload}: {len(SEEDS)} runs of {seconds} s, seeds {SEEDS[0]}..{SEEDS[-1]}, "
              f"{attempted} requests, failed_frac {failed / attempted} "
              f"({'all correct' if all(r['correct'] for r in results) else 'INCORRECT'})")
        print(f"  {'metric':<20} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        summary = {"failed_frac": failed / attempted}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            verdict = "" if spread <= metric["bound"] / 3 else "  WIDE"
            print(f"  {metric['name']:<20} {metric['unit']:<6} {median:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                  f"{spread:>8.4f} {metric['bound']:>6}{verdict}")
            summary[metric["name"]] = {"median": median, "q1": q1, "q3": q3, "unit": metric["unit"]}
        entry = {"end_to_end": summary}
        if args.trace:
            first, second = (run_once(workload, SEEDS[0], seconds, 1)[0] for _ in range(2))
            layers = {name: m["value"] for name, m in first["metrics"].items()}
            drift = [name for name, m in first["metrics"].items()
                     if m["unit"] in ("count", "bytes") and m["value"] != second["metrics"][name]["value"]]
            print(f"  traced run, seed {SEEDS[0]}: counts "
                  f"{'repeat exactly' if not drift else 'DIFFER: ' + ', '.join(drift)}")
            for name, value in layers.items():
                if value:
                    print(f"    {name:<44} {value:>14.6g} {first['metrics'][name]['unit']}")
            entry["per_layer"] = layers
        point["workloads"][workload] = entry

    if args.record:
        history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        history.append(point)
        TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n", encoding="utf-8")
        print(f"\nrecorded point {len(history)} in {TRAJECTORY.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
