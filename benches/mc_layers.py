"""Layer timings of the Monte Carlo loop: rate sampling and batched refit.

On the three mc-resample cases (Peru and Yugoslavia at di = 0.25, Germany
at di = 0.5, m = 4000 generations), and on Germany at di = 0.5 over
``STALL_SEEDS`` (case ``germany-stall``: seeds where, before ``box-*``, a
refit ran all 400 LM rounds far outside the search box), this times the two
layers of ``run_mc`` that scale with m, plus ``run_mc`` whole for context:

- ``draw_s``: ``montecarlo._draw_generations`` (all m resamples), from the
  master seed to the filled samples, per-generation seeding included;
- ``refit_s``: ``montecarlo._refit_generations`` (all m refits);
- ``run_mc_s``: the whole call, direct fit and aggregation included.

An untimed ``run_mc`` pass then counts the Levenberg-Marquardt engine's
model work in the whole call, direct refine and refit, through a wrapper
around ``fitting._sing_residuals`` (the grid seed's one call over its
48 x 32 nodes is left out):

- ``model_calls``: calls of the model;
- ``model_rows``: rows evaluated, summed over the calls;
- ``jac_rows``: those of them evaluated with derivatives (``with_jac``),
  which the model turns into per-row normal equations (before
  ``gram-*``: into a projected Jacobian array);
- ``row_rounds``: LM rounds of the Monte Carlo refit, summed over its m
  rows (read off ``montecarlo.fit_singular_rows``);
- ``max_rounds``: the longest refit row's rounds.

A third, untimed ``_draw_generations`` call counts the generators set one
row at a time, through a wrapper around ``montecarlo._pcg64_state``:

- ``state_sets``: every generation before ``bulk-*``, then only the rows the
  bulk ziggurat leaves to numpy, plus, in both, each row with a value at or
  below -1 (``truncated_draws`` counts that row's redraws, not the row).

The counts depend only on the tree and the seed, not on the machine.

The package is imported from wherever PYTHONPATH points, so the same script
measures two source trees.  Each call appends its samples under ``--label``
in the output file and recomputes every label's median and quartiles; run
the two trees in alternation to spread machine drift over both:

    PYTHONPATH=src python benches/mc_layers.py --label NAME-change
    PYTHONPATH=/path/to/parent/src python benches/mc_layers.py --label NAME-parent

Every label ending in ``change`` that has a matching ``parent`` label gets
its ratios of medians, change over parent, under ``change_over_parent``.
``run_bench`` holds that bookkeeping and the command line for every layer
bench in this directory.

Labels recorded before ``seeding-*`` timed ``draw_s`` with the seed
spawning left outside.  Times are raw wall seconds
(``time.perf_counter``) after one warm-up pass.  From ``bulk-*`` on, each
time is also recorded reference-scaled, under its name plus ``_ref`` (see
``run_bench``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from hyperfit import fitting, montecarlo
from hyperfit.fitting import FitConfig
from hyperfit.fixtures import episode, synthetic_rates
from hyperfit.montecarlo import MCConfig, run_mc
from hyperfit.series import cumulate

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from calibrate import Calibrator, python_loop  # noqa: E402

CASES = (("peru", 0.25), ("yugoslavia", 0.25), ("germany", 0.5), ("germany-stall", 0.5))
#: Germany di = 0.5 seeds with a refit that stalled outside the box before ``box-*``;
#: the ``germany-stall`` case times seed k on ``STALL_SEEDS[k % 10]``.
STALL_SEEDS = (1_000_014, 1_000_032, 1_000_041, 1_000_062, 1_000_068, 1_000_086, 1_000_089,
               1_000_095, 1_000_098, 1_000_116)
M = 4000


def draw(rates: np.ndarray, di: float, seed: int) -> np.ndarray:
    out = np.empty((M, len(rates)))
    montecarlo._draw_generations(rates, di, seed, out)
    return out


def time_case(name: str, di: float, seed: int) -> dict[str, float]:
    name, _, stall = name.partition("-")
    if stall:
        seed = STALL_SEEDS[seed % len(STALL_SEEDS)]
    rates = synthetic_rates(episode(name))
    config = FitConfig()
    direct, t = montecarlo._direct_fit(rates, config)

    started = time.perf_counter()
    samples = draw(rates.rates, di, seed)
    draw_s = time.perf_counter() - started

    p_data = cumulate(samples)[1]
    started = time.perf_counter()
    montecarlo._refit_generations(p_data, t, direct.params, config, 1024)
    refit_s = time.perf_counter() - started

    started = time.perf_counter()
    run_mc(rates, config, MCConfig(di=di, m=M, seed=seed))
    run_mc_s = time.perf_counter() - started
    return {"draw_s": draw_s, "refit_s": refit_s, "run_mc_s": run_mc_s,
            **count_model_work(lambda: run_mc(rates, config, MCConfig(di=di, m=M, seed=seed))),
            **count_state_sets(lambda: draw(rates.rates, di, seed))}


def spied(module, name: str, spy, call) -> None:
    """Run ``call()`` with ``spy(result, *args)`` called after each call of ``module.name``."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        spy(result, *args)
        return result

    setattr(module, name, wrapper)
    try:
        call()
    finally:
        setattr(module, name, original)


def count_model_work(call) -> dict[str, int]:
    """The engine's model calls, rows and rows with derivatives in ``call()``,
    and the Monte Carlo refit's LM rounds: over all rows, and its longest row's.

    Engine calls pass tc as a (rows, 1) column; the grid seed's are 3-d.
    """
    counts = {"model_calls": 0, "model_rows": 0, "jac_rows": 0, "row_rounds": 0,
              "max_rounds": 0}

    def spy(_, tc, *args):
        if np.ndim(tc) == 2:
            counts["model_calls"] += 1
            counts["model_rows"] += len(tc)
            counts["jac_rows"] += len(tc) if args[-1] else 0

    def refit_spy(result, *args):
        rounds = result[3]
        counts["row_rounds"] += int(rounds.sum())
        counts["max_rounds"] = max(counts["max_rounds"], int(rounds.max()))

    spied(fitting, "_sing_residuals", spy,
          lambda: spied(montecarlo, "fit_singular_rows", refit_spy, call))
    return counts


def count_state_sets(call) -> dict[str, int]:
    """Generators set to one row's state in ``call()``: calls of ``_pcg64_state``."""
    counts = {"state_sets": 0}

    def spy(*_):
        counts["state_sets"] += 1

    spied(montecarlo, "_pcg64_state", spy, call)
    return counts


def summary(samples: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(samples)}


def run_bench(description: str, cases, time_case, settings: dict, default_out: Path,
              load_parent=None) -> None:
    """Command line of a layer bench: time every case, record under --label.

    The first item of each case names it; ``time_case(*case, seed)``
    returns {layer: value} for one seed.  After one warm-up pass over the
    cases, ``--repeats`` seeds from ``--seed`` on are timed, appended under
    ``--label`` in ``--out``, and every label's summary and
    ``change_over_parent`` are recomputed.  ``settings`` joins the Python,
    numpy and CPU count in the file's ``environment``.

    A bench that passes ``load_parent`` also takes ``--parent-src PATH``:
    then ``parent = load_parent(PATH)`` and ``time_case(*case, seed,
    parent)`` returns {"parent": values, "change": values}, recorded under
    ``--label`` plus ``-parent`` and ``-change``.

    Each timing (a layer named ``*_s`` or ``*_ms``) is recorded raw and, as
    ``<layer>_ref``, scaled the way ``perfbench/calibrate.py`` scales op
    times: by the ``python_loop`` kernel's reference time over the mean of
    its runs just before and just after the case.  That removes the drift
    in machine speed that the kernel sees, not process-to-process noise.
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--label", required=True, help="name of the measured tree")
    parser.add_argument("--repeats", type=int, default=5, help="seeds per case")
    parser.add_argument("--seed", type=int, default=7, help="first master seed")
    parser.add_argument("--out", type=Path, default=default_out)
    if load_parent:
        parser.add_argument("--parent-src", type=Path,
                            help="the parent tree's src directory, timed in this process")
    args = parser.parse_args()
    if load_parent and args.parent_src:
        parent = load_parent(args.parent_src)

        def timed(*case):
            return {f"{args.label}-{side}": values
                    for side, values in time_case(*case, parent).items()}
    else:
        def timed(*case):
            return {args.label: time_case(*case)}

    for case in cases:                      # warm-up: imports, caches, allocator
        labelled = timed(*case, args.seed - 1)

    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data["environment"] = {"python": platform.python_version(), "numpy": np.__version__,
                           "cpus": os.cpu_count(), **settings}
    samples = data.setdefault("samples", {})
    calibrator = Calibrator(python_loop)
    for k in range(args.repeats):
        for case in cases:
            before = calibrator.tick()
            labelled = timed(*case, args.seed + k)
            scale, = calibrator.scales([before])
            for label, values in labelled.items():
                values |= {layer + "_ref": value * scale for layer, value in values.items()
                           if layer.endswith(("_s", "_ms"))}
                for layer, value in values.items():
                    samples.setdefault(label, {}).setdefault(case[0], {}).setdefault(
                        layer, []).append(value)

    data["summary"] = {
        label: {name: {layer: summary(values) for layer, values in layers.items()}
                for name, layers in recorded.items()}
        for label, recorded in data["samples"].items()
    }
    data["change_over_parent"] = {
        label: {name: {layer: change[name][layer]["median"] / parent[name][layer]["median"]
                       for layer in parent[name] if layer in change[name]}
                for name in parent}
        for label, change in data["summary"].items()
        if label.endswith("change")
        and (parent := data["summary"].get(label.removesuffix("change") + "parent"))
    }
    args.out.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    for label in labelled:
        for name, case in data["summary"].get(label, {}).items():
            print(label, name, {layer: round(s["median"], 4) for layer, s in case.items()})


def main() -> None:
    settings = {"m": M, "cases": [f"{name} di={di}" for name, di in CASES],
                "stall_seeds": STALL_SEEDS}
    run_bench(__doc__.split("\n\n")[0], CASES, time_case, settings, Path("BENCH_mc.json"))


if __name__ == "__main__":
    main()
