"""Repeat benchmark runs over several seeds and report how far each
end-to-end metric spreads.

    python3 bench/spread.py --workload mc-wide --seeds 101-110
    python3 bench/spread.py --workload all --seeds 101-110 --record

Each run is the command in BENCHMARK.json with its ``run_seconds`` and
``--trace 0``, one seed after another.  For every end-to-end metric the
script prints the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread, the distance between the quartiles as a share of the median,
next to a third of the metric's bound.  ``--record`` stores these figures
under ``baseline`` in bench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "bench" / "baseline.json"


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seeds", default="101-110", help="FIRST-LAST, inclusive")
    parser.add_argument("--record", action="store_true",
                        help="store the figures in bench/baseline.json")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
             else [args.workload])
    seeds = parse_seeds(args.seeds)
    figures = {}
    steady = True
    for workload in names:
        results = []
        for seed in seeds:
            result = run_once(spec, workload, seed)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
            results.append(result)
        figures[workload] = {"seeds": seeds,
                             "failed": sum(r["failed"] for r in results),
                             "attempted": sum(r["attempted"] for r in results)}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = metric["name"] == "setup_s" or spread < metric["bound"] / 3
            steady &= ok
            print(f"  {workload} {metric['name']}: median {med:.6g} {metric['unit']}, "
                  f"quartiles {q1:.6g}..{q3:.6g}, spread {spread:.4f} "
                  f"(bound/3 {metric['bound'] / 3:.4f}){'' if ok else '  TOO WIDE'}")
            figures[workload][metric["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "unit": metric["unit"], "values": values}
    if args.record:
        baseline = json.loads(BASELINE.read_text(encoding="utf-8"))
        baseline.setdefault("baseline", {}).update(figures)
        BASELINE.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
