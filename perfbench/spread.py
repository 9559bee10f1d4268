"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload mc-resample --seeds 1-10 [--out FILE]

Runs ``run.py`` once per seed (untraced, ``run_seconds`` from
BENCHMARK.json), then prints for each end-to-end metric the median, the
quartiles and the spread (interquartile distance as a share of the median)
next to the metric's bound.  A benchmark is steady when every spread but
that of setup_s is below a third of its bound.  ``--out`` keeps the raw
values as JSON, for comparing two commits.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="FIRST-LAST")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    values: dict[str, list[float]] = {e["name"]: [] for e in spec["end_to_end"]}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: outputs failed their checks", file=sys.stderr)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{k} {v[-1]:.6g}" for k, v in values.items()),
              flush=True)
    print(f"{args.workload}, {len(args.seeds)} runs")
    for e in spec["end_to_end"]:
        q1, med, q3 = statistics.quantiles(values[e["name"]], n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "" if e["name"] == "setup_s" or spread < e["bound"] / 3 else "  UNSTEADY"
        print(f"  {e['name']:<14} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {spread:.4f} (bound {e['bound']}){flag}")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "seeds": args.seeds,
                                        "values": values}, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
