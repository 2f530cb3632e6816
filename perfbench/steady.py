"""Steadiness check: run every workload of BENCHMARK.json on seeds 1 to 10
and report, for each end-to-end metric, the median, the quartiles and the
spread (Q3 - Q1) / median against the metric's bound.

    python3 perfbench/steady.py --label A

Run from the checkout root. Writes perfbench/out/steady-<label>.json, so two
sets taken back to back (labels A and B) can be compared.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--label", default="set")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    report = {}
    for wl in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 wl, "--seed", str(seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            res["calibration_s"] = json.loads(lines[0].split(" ", 1)[1])
            runs.append(res)
            print(wl, seed, json.dumps({k: round(v["value"], 4) for k, v in
                                        res["metrics"].items()}),
                  res["attempted"], res["failed"], res["correct"],
                  flush=True)
        rows = {}
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / med,
                               "bound": m["bound"]}
            print(f"  {m['name']:12s} median {med:9.4f} q1 {q1:9.4f} "
                  f"q3 {q3:9.4f} spread {(q3 - q1) / med:6.3f} "
                  f"(bound {m['bound']})", flush=True)
        cal = [c for r in runs for c in r["calibration_s"]]
        report[wl] = {"metrics": rows, "runs": runs,
                      "calibration_median_s": statistics.median(cal),
                      "failed_share": [r["failed"] / r["attempted"]
                                       for r in runs]}
        print(f"  calibration median {statistics.median(cal):.4f} s",
              flush=True)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"steady-{args.label}.json"),
              "w") as fh:
        json.dump(report, fh, indent=1)


if __name__ == "__main__":
    main()
