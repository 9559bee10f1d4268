"""Wall time of ``hyperfit fit`` as a fresh process, with its import and exit layers.

Over the 15 fixture x model pairs of perfbench's cli-fit workload, this runs
the command that workload times, one fresh process per pair,

    python -m hyperfit.cli fit FIXTURE --model MODEL --day-convention D --out FILE

on this tree (the ``src`` directory next to ``benches/``) and on the parent
tree given by ``--parent-src``, the trees taking turns each round and
flipping which goes first from one round to the next.  Both trees read the
same fixture files, and each round checks that they write the same report
bytes.  Per tree it records:

- ``command_s``: wall seconds per command (``time.perf_counter`` around
  ``subprocess.run``), every pair of every round;
- ``exit_s``: process exit, from the start of interpreter finalization to
  the process being reaped.  One command per round and tree (the pairs in
  turn) runs the same ``fit`` through ``runpy`` under an atexit handler,
  registered first so that it runs last, which prints ``time.monotonic()``;
  atexit handlers run before the collector's final passes and module
  teardown.  The timed commands above carry no such handler;
- ``hyperfit_self_s``: hyperfit's own import time, the summed self time of
  its modules under ``python -X importtime -c "import hyperfit.cli"``, read
  as perfbench reads ``import.hyperfit_self_s``; once per round and tree.

``change_over_parent`` holds the ratio of the medians of each layer and,
under ``command_s_paired``, the median and quartiles of the per-command
ratios change / parent (the same pair in the same round), with the number
of rounds whose 15 commands took less wall on this tree.

Run it from the repository root, with the parent tree unpacked elsewhere:

    PYTHONPATH=src python benches/cli_layers.py --label NAME --parent-src /path/to/parent/src

Samples are appended under ``NAME-parent`` and ``NAME-change`` in ``--out``
and their summaries recomputed.  As in ``mc_layers.run_bench``, the file
keeps raw samples and paired ratios for that label family only: older
labels keep their recorded ``summary`` and ``change_over_parent``, and git
keeps their samples.  Times are raw wall seconds after one untimed warm-up
round; the pairing, not a reference kernel, takes out the machine's drift.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from hyperfit.fixtures import PRESETS, episode, fixture_path
from mc_layers import summary

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "perfbench"))
from tracing import parse_importtime  # noqa: E402

MODELS = ("linear", "doubleexp", "singularity")
PAIRS = tuple((fixture, model) for fixture in PRESETS for model in MODELS)

#: Runs ``hyperfit.cli`` as ``-m`` does and stamps the start of finalization.
EXIT_PROBE = ("import atexit, runpy, sys, time; "
              "atexit.register(lambda: print(time.monotonic(), file=sys.stderr)); "
              "sys.argv[0] = 'hyperfit'; "
              "runpy.run_module('hyperfit.cli', run_name='__main__', alter_sys=True)")


def fit_argv(pair, out: Path) -> list[str]:
    fixture, model = pair
    return ["fit", str(fixture_path(fixture)), "--model", model,
            "--day-convention", episode(fixture).day_convention, "--out", str(out)]


def run(src: Path, args: list[str], **kwargs) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, check=True, **kwargs)


def time_command(src: Path, pair, out: Path) -> tuple[float, bytes]:
    """Wall seconds of one ``fit`` command and the report bytes it wrote."""
    started = time.perf_counter()
    run(src, ["-m", "hyperfit.cli", *fit_argv(pair, out)], stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - started
    return wall, out.read_bytes()


def time_exit(src: Path, pair, out: Path) -> float:
    proc = run(src, ["-c", EXIT_PROBE, *fit_argv(pair, out)], stdout=subprocess.DEVNULL,
               stderr=subprocess.PIPE, text=True)
    ended = time.monotonic()
    return ended - float(proc.stderr.split()[-1])


def hyperfit_self_s(src: Path) -> float:
    proc = run(src, ["-X", "importtime", "-c", "import hyperfit.cli"],
               stderr=subprocess.PIPE, text=True)
    return parse_importtime(proc.stderr)["import.hyperfit_self_s"]


def time_round(trees: dict[str, Path], k: int, out: Path) -> tuple[dict, list[float]]:
    """One round: every pair on both trees, then one exit and one import probe each.

    Returns {side: {layer: [values]}} and the per-pair ratios change / parent.
    """
    order = list(trees) if k % 2 else list(reversed(trees))
    values = {side: {"command_s": [], "exit_s": [], "hyperfit_self_s": []} for side in trees}
    ratios = []
    for pair in PAIRS:
        walls, reports = {}, {}
        for side in order:
            walls[side], reports[side] = time_command(trees[side], pair, out)
            values[side]["command_s"].append(walls[side])
        if reports["change"] != reports["parent"]:
            raise SystemExit(f"{pair}: the two trees wrote different reports")
        ratios.append(walls["change"] / walls["parent"])
    for side in order:
        values[side]["exit_s"].append(time_exit(trees[side], PAIRS[k % len(PAIRS)], out))
        values[side]["hyperfit_self_s"].append(hyperfit_self_s(trees[side]))
    return values, ratios


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="name of the measured pair of trees")
    parser.add_argument("--parent-src", type=Path, required=True,
                        help="the parent tree's src directory")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_cli.json")
    args = parser.parse_args()
    trees = {"parent": args.parent_src.resolve(), "change": ROOT / "src"}
    change, parent = f"{args.label}-change", f"{args.label}-parent"

    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data["environment"] = {"python": platform.python_version(), "cpus": os.cpu_count(),
                           "pairs": [f"{f} {m}" for f, m in PAIRS]}
    samples = data["samples"] = {label: recorded
                                 for label, recorded in data.get("samples", {}).items()
                                 if label in (parent, change)}
    paired = data.get("paired", {}).get(change, {"command_s": [], "rounds_won": []})
    data["paired"] = {change: paired}
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "report.json"
        time_round(trees, 0, out)                    # warm-up: file cache, bytecode
        for k in range(1, args.rounds + 1):
            values, ratios = time_round(trees, k, out)
            for side, label in (("parent", parent), ("change", change)):
                for layer, vals in values[side].items():
                    samples.setdefault(label, {}).setdefault(layer, []).extend(vals)
            paired["command_s"].extend(ratios)
            paired["rounds_won"].append(sum(values["change"]["command_s"])
                                        < sum(values["parent"]["command_s"]))
            print(f"round {k}: change / parent {statistics.median(ratios):.3f}", flush=True)

    data["summary"] = data.get("summary", {}) | {
        label: {layer: summary(vals) for layer, vals in layers.items()}
        for label, layers in samples.items()}
    data["change_over_parent"] = data.get("change_over_parent", {}) | {
        label: {layer: data["summary"][label][layer]["median"]
                / data["summary"][label.removesuffix("change") + "parent"][layer]["median"]
                for layer in data["summary"][label]}
        | {"command_s_paired": summary(pair["command_s"]),
           "rounds_won": f"{sum(pair['rounds_won'])} of {len(pair['rounds_won'])}"}
        for label, pair in data["paired"].items()
    }
    args.out.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    for label in (parent, change):
        print(label, {layer: round(s["median"], 4) for layer, s in data["summary"][label].items()})
    print(change, "over parent", data["change_over_parent"][change])


if __name__ == "__main__":
    main()
