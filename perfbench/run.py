"""hyperfit benchmark: one command runs a workload, checks it and prints metrics.

    python3 perfbench/run.py --workload {cli-fit,fit-direct,mc-resample} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a hyperfit checkout; the program is imported from
``src/`` there and nowhere else.  Untraced runs (``--trace 0``) report the
end-to-end metrics; traced runs (``--trace 1``) report the per-layer metrics
and the tracing overhead.  Human-readable lines come first, each metric
with its unit, sample counts and the recorded baseline; the last line is
one JSON object.  Layers, workloads and the baseline are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Unit of work per workload, and the name the workload's work_per_s goes by.
WORK = {"cli-fit": ("command", "commands_per_s"), "fit-direct": ("fit", "fits_per_s"),
        "mc-resample": ("generation", "generations_per_s")}

#: Set-up is measured this many times per run, each in a fresh process.
SETUP_SAMPLES = 3
#: Whole-run limit; a run that reaches it is killed and reported as failed.
DEADLINE_S = 170.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    """PYTHONPATH on the checkout's ``src``; BLAS threads capped at nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(max(1, min(wanted, nproc)))
    return env


def start_worker(args, deadline: float, setup_only: bool):
    """Run a worker to its end; return (its output after ``ready``, set-up seconds)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.perf_counter()
    # Own process group, so a worker that overruns is killed with its children.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)

    def kill_group() -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(max(0.0, deadline - started), kill_group)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - started
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode} "
                           f"(ready line {line.strip()!r})")
    return rest, ready


def run_worker(args) -> tuple[dict, list[float]]:
    deadline = time.perf_counter() + DEADLINE_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(start_worker(args, deadline, setup_only=True)[1])
    rest, ready = start_worker(args, deadline, setup_only=False)
    setups.append(ready)
    lines = rest.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1]), setups


def load_json(name: str) -> dict:
    return json.loads((HERE / name).read_text(encoding="utf-8"))


def show(name: str, value: float, unit: str, note: str, baseline) -> None:
    base = "" if baseline is None else f"  (baseline {baseline:.6g})"
    print(f"  {name:<38} {value:>14.6g} {unit:<9}{base}  {note}")


def report(args, result: dict, setups: list[float]) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    baseline = load_json("baseline.json")
    env = result["environment"]
    print(f"hyperfit benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, BLAS threads {env['blas_threads']}")
    print(f"baseline: src/ at commit {baseline['commit']}, {baseline['hardware']}")
    base = baseline["trace" if args.trace else "untraced"].get(args.workload, {})

    if args.trace:
        values = result["layers"]
        print(f"traced: {result['passes']} layer passes, {result['ops']} ops, "
              f"{result['spans']} spans written to {result['spans_file']}, "
              f"{result['cli_commands']} CLI commands for cli.startup_s")
        print("tracing overhead (traced minus untraced, median of paired ops): "
              + ", ".join(f"{k} {values[k]:.1f} us" for k in values
                          if k.startswith("trace.")))
        entries = spec["per_layer"]
        layer_map = load_json("layers.json")["per_layer"]
        notes = {e["name"]: "-> " + layer_map[e["name"]] for e in entries}
    else:
        attempted, failed = result["work_attempted"], result["work_failed"]
        unit, work_name = WORK[args.workload]
        values = {
            "setup_s": statistics.median(setups),
            "op_p50_s": result["op_p50_s"],
            "op_tail_s": result["op_tail_s"],
            "work_per_s": result["work_per_s"],
            "useful_frac": 1.0 - failed / attempted,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        print(f"machine speed {result['speed']:.3f} of reference over {result['calibrations']} "
              f"kernel runs; raw op p50 {result['raw_op_p50_s']:.6g} s; op times below are "
              "scaled to the reference speed")
        print(f"ops {result['ops']}, failed ops {result['failed_ops']}; "
              f"work: {attempted} {unit}s attempted, {failed} failed, "
              f"error_rate {failed / attempted:.6g}")
        entries = spec["end_to_end"]
        notes = {
            "setup_s": f"median of {len(setups)} fresh set-ups",
            "op_p50_s": f"median of {result['ops']} ops",
            "op_tail_s": f"p{result['tail_pct']:.1f} of {result['ops']} ops",
            "work_per_s": f"= {work_name}, median of "
                          f"{result['windows']} windows",
            "useful_frac": f"1 - error_rate, per {unit}",
            "peak_rss_mb": "of the CLI children" if args.workload == "cli-fit"
                           else "of the workload process",
        }
    for reason in result["reasons"]:
        print(f"  failure: {reason}")
    for e in entries:
        show(e["name"], values[e["name"]], e["unit"], notes[e["name"]], base.get(e["name"]))
    return {e["name"]: {"value": values[e["name"]], "unit": e["unit"]} for e in entries}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORK))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "hyperfit" / "__init__.py").is_file():
        print(f"error: no hyperfit source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, setups = run_worker(args)
    except (RuntimeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = report(args, result, setups)
    print(json.dumps({"correct": result["failed_ops"] == 0, "attempted": result["ops"],
                      "failed": result["failed_ops"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
