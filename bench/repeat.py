"""Run the benchmark over several seeds and summarize each metric.

Usage (from the root of a checkout):

    python3 bench/repeat.py --workload NAME --seeds 1-10 --seconds 25 [--trace 1] [--out FILE]

For each metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, and the same
for the time metrics as measured, before host-speed scaling
(``measured.<name>``).  With ``--out``
the summary and every run's result line are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
        runs.append({"seed": seed, "report": report, "result": result})
        print(seed, result["correct"], result["attempted"], result["failed"],
              " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    names = list(runs[0]["result"]["metrics"])
    summary = {
        name: dict(summarize([r["result"]["metrics"][name]["value"] for r in runs]),
                   unit=runs[0]["result"]["metrics"][name]["unit"])
        for name in names
    }
    if not args.trace:
        # the time metrics as measured, before host-speed scaling
        for name, value in runs[0]["report"]["measured"].items():
            summary[f"measured.{name}"] = dict(summarize([r["report"]["measured"][name] for r in runs]),
                                               unit=summary[name]["unit"])
    for name, s in summary.items():
        print(f"{name:28s} median {s['median']:.4g} {s['unit']}  q1 {s['q1']:.4g}  q3 {s['q3']:.4g}  "
              f"spread {s['spread']:.3f}")
    if args.out:
        doc = {
            "workload": args.workload,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": runs[0]["report"]["environment"],
            "all_correct": all(r["result"]["correct"] for r in runs),
            "summary": summary,
            "runs": runs,
        }
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
