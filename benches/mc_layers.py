"""Layer timings of the Monte Carlo loop: rate sampling and batched refit.

On the three mc-resample cases (Peru and Yugoslavia at di = 0.25, Germany
at di = 0.5, m = 4000 generations), and on Germany at di = 0.5 over
``STALL_SEEDS`` (case ``germany-stall``: seeds where, before ``box-*``, a
refit ran all 400 LM rounds far outside the search box), this times one
``run_mc`` call and, inside it, the two layers that scale with m:

- ``draw_s``: its ``montecarlo._draw_generations`` call (all m resamples),
  from the master seed to the filled samples, per-generation seeding included;
- ``refit_s``: its ``montecarlo.fit_singular_rows`` call (all m refits);
- ``run_mc_s``: the whole call, direct fit and aggregation included.

An untimed ``run_mc`` pass then counts the Levenberg-Marquardt engine's
model work in the whole call, direct refine and refit, through a wrapper
around ``fitting._sing_residuals`` (the grid seed's one call over its
``_GRID_TC`` x ``_GRID_ALPHA`` nodes is left out):

- ``model_calls``: calls of the model;
- ``model_rows``: rows evaluated, summed over the calls;
- ``jac_rows``: those of them evaluated with derivatives (``with_jac``),
  which the model turns into per-row normal equations (before
  ``gram-*``: into a projected Jacobian array);
- ``row_rounds``: LM rounds of the Monte Carlo refit, summed over its m
  rows (read off ``montecarlo.fit_singular_rows``);
- ``max_rounds``: the longest refit row's rounds.

From ``rowmove-*`` on, the same pass splits the refit's time (the
``montecarlo.fit_singular_rows`` call) in two:

- ``model_s``: the seconds spent in the model, its ``_sing_residuals``
  calls, which build the residuals and normal equations;
- ``engine_s``: the rest, ``fitting._lm``'s own bookkeeping (gathering and
  updating each round's rows, the damped step, the stop tests) and the
  closure that hands the model its rows.

These two are wall times of the counting pass, so they include the
wrappers' own cost, about a microsecond per model call, in ``engine_s``.

The same pass counts the generators set one row at a time, through a
wrapper around ``montecarlo._pcg64_state``:

- ``state_sets``: every generation before ``bulk-*``, then only the rows the
  bulk ziggurat leaves to numpy, plus, in both, each row with a value at or
  below -1 (``truncated_draws`` counts that row's redraws, not the row).
  Before ``onepath-*`` a row that was both was set twice; from ``onepath-*``
  on, ``_sample_rates`` draws it once.

The counts depend only on the tree and the seed, not on the machine.

The package is imported from wherever PYTHONPATH points, so the same script
measures two source trees.  Each call appends its samples under ``--label``
in the output file and recomputes the median and quartiles of the labels it
writes.  The file keeps raw samples for that label family only (``NAME``,
``NAME-parent``, ``NAME-change``): older labels keep their recorded
``summary`` and ``change_over_parent``, so that a new family's diff of the
file holds only its own labels.  Run the two trees in alternation to spread
machine drift over both:

    PYTHONPATH=src python benches/mc_layers.py --label NAME-change
    PYTHONPATH=/path/to/parent/src python benches/mc_layers.py --label NAME-parent

or time both trees in one process, as ``fit_layers.py`` does, which resolves
what separate processes cannot (per-seed refit ratios between two trees doing
the same work read 0.68-1.74x there):

    PYTHONPATH=src python benches/mc_layers.py --label NAME --parent-src /path/to/parent/src

Then each seed runs both trees in turn, flipping which goes first from one
seed to the next, under ``NAME-parent`` and ``NAME-change``.  Every label
ending in ``change`` that has a matching ``parent`` label gets its ratios of
medians, change over parent, under ``change_over_parent``.  ``run_bench``
holds that bookkeeping and the command line for every in-process layer
bench in this directory (``cli_layers.py`` times fresh processes).

Labels recorded before ``seeding-*`` timed ``draw_s`` with the seed
spawning left outside.  Labels before ``inflight-*`` timed ``draw_s``,
``refit_s`` and ``run_mc_s`` in three separate calls, the refit through
``montecarlo._refit_generations``, since folded into ``run_mc``.  Times are
raw wall seconds (``time.perf_counter``) after one warm-up pass.  From
``bulk-*`` on, each time is also recorded reference-scaled, under its name
plus ``_ref`` (see ``run_bench``).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import hyperfit
from hyperfit.fixtures import episode, fixture_path
from hyperfit.series import load_series

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from calibrate import Calibrator, python_loop  # noqa: E402

CASES = (("peru", 0.25), ("yugoslavia", 0.25), ("germany", 0.5), ("germany-stall", 0.5))
#: Germany di = 0.5 seeds with a refit that stalled outside the box before ``box-*``;
#: the ``germany-stall`` case times seed k on ``STALL_SEEDS[k % 10]``.
STALL_SEEDS = (1_000_014, 1_000_032, 1_000_041, 1_000_062, 1_000_068, 1_000_086, 1_000_089,
               1_000_095, 1_000_098, 1_000_116)
M = 4000


def time_case(name: str, di: float, seed: int, parent=None) -> dict:
    """This tree's layers on one case and seed; with ``parent`` (a ``hyperfit``
    package), {"parent": layers, "change": layers}, the trees in turn."""
    name, _, stall = name.partition("-")
    if stall:
        seed = STALL_SEEDS[seed % len(STALL_SEEDS)]
    trees = {"change": hyperfit} if parent is None else {"parent": parent, "change": hyperfit}
    order = list(trees) if seed % 2 else list(reversed(trees))
    rates = fixture_rates(name)
    values = {side: tree_layers(trees[side], rates, di, seed) for side in order}
    return values["change"] if parent is None else values


def fixture_rates(name: str):
    """The episode's bundled CSV rates: every bench's input, the same on any tree."""
    return load_series(fixture_path(name), day_convention=episode(name).day_convention)


def tree_layers(package, rates, di: float, seed: int) -> dict[str, float]:
    """One timed ``run_mc`` of ``package`` on the rates, then one counted."""
    mc = package.montecarlo
    config = package.fitting.FitConfig()

    def run():
        mc.run_mc(rates, config, mc.MCConfig(di=di, m=M, seed=seed))

    times = {}

    def timer(layer):
        def spy(seconds, *_):
            times[layer] = seconds
        return spy

    with spied(mc, "_draw_generations", timer("draw_s")), \
            spied(mc, "fit_singular_rows", timer("refit_s")):
        started = time.perf_counter()
        run()
        times["run_mc_s"] = time.perf_counter() - started
    return times | count_work(package, run)


@contextmanager
def spied(module, name: str, spy, before=None):
    """Within the block, each call of ``module.name`` is followed by
    ``spy(seconds, result, *args)``, ``seconds`` being the call's wall time,
    and, given ``before``, preceded by ``before(*args)``."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        if before:
            before(*args)
        started = time.perf_counter()
        result = original(*args, **kwargs)
        spy(time.perf_counter() - started, result, *args)
        return result

    setattr(module, name, wrapper)
    try:
        yield
    finally:
        setattr(module, name, original)


def count_work(package, call) -> dict[str, float]:
    """The engine's model calls, rows and rows with derivatives in ``call()``;
    the Monte Carlo refit's LM rounds, over all rows and its longest row's;
    the generators set to one row's state (calls of ``_pcg64_state``); and
    the refit's seconds inside and outside its model.

    Engine calls pass tc as a (rows, 1) column; the grid seed's are 3-d.
    """
    counts = dict.fromkeys(("model_calls", "model_rows", "jac_rows", "row_rounds",
                            "max_rounds", "state_sets"), 0)
    model_s = []                            # each model call's seconds, during the refit
    refitting = False

    def model_spy(seconds, __, tc, *args):
        if np.ndim(tc) == 2:
            counts["model_calls"] += 1
            counts["model_rows"] += len(tc)
            counts["jac_rows"] += len(tc) if args[-1] else 0
        if refitting:
            model_s.append(seconds)

    def refit_spy(seconds, result, *args):
        rounds = result[3]
        counts["row_rounds"] += int(rounds.sum())
        counts["max_rounds"] = max(counts["max_rounds"], int(rounds.max()))
        counts["model_s"] = sum(model_s)
        counts["engine_s"] = seconds - counts["model_s"]

    def refit_starts(*_):
        nonlocal refitting
        refitting = True

    def state_spy(*_):
        counts["state_sets"] += 1

    with spied(package.fitting, "_sing_residuals", model_spy), \
            spied(package.montecarlo, "fit_singular_rows", refit_spy, refit_starts), \
            spied(package.montecarlo, "_pcg64_state", state_spy):
        call()
    return counts


def load_parent(src: Path):
    """The ``hyperfit`` package of the tree whose src directory is ``src``,
    imported a second time as ``hyperfit_parent``."""
    init = src / "hyperfit" / "__init__.py"
    spec = importlib.util.spec_from_file_location("hyperfit_parent", init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = package
    spec.loader.exec_module(package)
    return package


def summary(samples: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(samples)}


def run_bench(description: str, cases, time_case, settings: dict, default_out: Path,
              load_parent=None) -> None:
    """Command line of a layer bench: time every case, record under --label.

    The first item of each case names it; ``time_case(*case, seed)``
    returns {layer: value} for one seed.  After one warm-up pass over the
    cases, ``--repeats`` seeds from ``--seed`` on are timed, appended under
    ``--label`` in ``--out``, and the summary of every label with samples
    and every ``change_over_parent`` are recomputed.  Only the label family
    this call writes (``--label`` less a ``-parent`` or ``-change`` suffix,
    with and without either) keeps raw samples; the samples of other labels
    are dropped and their recorded summaries kept.  ``settings`` joins the Python,
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
    def family(label: str) -> str:
        return label.removesuffix("-parent").removesuffix("-change")

    samples = data["samples"] = {label: recorded
                                 for label, recorded in data.get("samples", {}).items()
                                 if family(label) == family(args.label)}
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

    data["summary"] = data.get("summary", {}) | {
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
    run_bench(__doc__.split("\n\n")[0], CASES, time_case, settings, Path("BENCH_mc.json"),
              load_parent)


if __name__ == "__main__":
    main()
