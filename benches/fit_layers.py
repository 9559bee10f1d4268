"""Layer timings of the direct fits: grid seed, linear, singular and double-exponential fit.

On each of the five bundled episodes, noiseless and with seeded
perturbations (rates resampled at 10 % relative error, as in the benchmark's
fit-direct inputs), this times per call, in milliseconds:

- ``grid_ms``: ``fitting._sing_grid_seed``, p0 free, on its
  ``_GRID_TC`` x ``_GRID_ALPHA`` grid (20 x 16 from ``coarse-change`` on,
  48 x 32 in the labels before it and in ``coarse-parent``), given the tc
  window; labels recorded before ``_sing_grid_seed`` placed its own nodes
  timed the call with the nodes passed in, so they leave out placing them;
  labels recorded before it took the window from its caller include
  computing the window, and so do those from ``derive-*`` on, where it
  computes the window again itself (about 2-3 us); each tree is given the
  arguments its own signature takes (a tree from before nodes were placed
  inside cannot be the ``--parent-src`` of a later one);
- ``linear_ms`` (from ``ladder-*`` on): ``fitting.fit_linear``, a closed
  form, where reading the time axis and checking the input weigh most;
- ``singularity_ms``: ``fitting.fit_singularity``, grid seed and refine;
  from ``stencil-change`` on, the refine starts at finite-difference Newton
  vertices around the best grid node (``fitting._sing_start``), five or six
  more model calls of nine (tc, alpha), after which the engine mostly takes
  1 round;
- ``doubleexp_ms``: ``fitting.fit_double_exp``, b2 grid and refine; from
  ``parabola-*`` on, the refine starts at two parabola vertices around the
  best b2 node (``fitting._dexp_start``), one more model call of three b2;
  from ``bracket-change`` on, at four, three more model calls of three b2
  (``fitting._BRACKETS``), after which the engine takes 1 round.

From ``certify-change`` on, both nonlinear fits score their start once
more, without normal equations, and return it without running the engine
when it passes the engine's stop test (``fitting._flat``).  From
``onerefine-change`` on, both do so through one step (``fitting._refine``),
and the singular fit keeps the residuals the engine scored at its end, as
the double-exponential fit does, instead of scoring that end once more.

It also records, per case, the Levenberg-Marquardt rounds the fits take,
``FitResult.iterations`` summed over the case's inputs (p0 free): the
counts ``singularity_rounds`` and ``doubleexp_rounds``; from
``dexpkeep-*`` on, ``doubleexp_calls``, the double-exponential model calls
(calls of ``fitting._dexp_basis``: the grid, the parabola brackets and the
engine's, and before ``dexpkeep-change`` one more for the final residuals),
summed the same way; and from ``stencil-*`` on, ``singularity_calls``, the
singular model calls (calls of ``fitting._sing_basis``: the grid, from
``stencil-change`` on the stencils, the engine's and one more for the final
residuals; from ``onerefine-change`` on, no longer that last one).  From
``certify-change`` on, a fit that skips the engine counts 0 rounds, and
its calls are the grid, the brackets or stencils and the one scoring of
its start.  They depend only on the tree and the seed,
not on the machine.

Run it like ``mc_layers.py``, whose ``run_bench`` it shares, alternating the
two trees:

    PYTHONPATH=src python benches/fit_layers.py --label NAME-change
    PYTHONPATH=/path/to/parent/src python benches/fit_layers.py --label NAME-parent

or time both trees in one process, which resolves what separate processes
cannot (process-to-process drift moves these layers by 10-20 %):

    PYTHONPATH=src python benches/fit_layers.py --label NAME --parent-src /path/to/parent/src

This imports the parent's ``hyperfit`` a second time, as the package
``hyperfit_parent``, and calls each layer of the two trees in alternation on
the same inputs, flipping which goes first after every input; the two sets
of samples go under ``NAME-parent`` and ``NAME-change``.  From ``ladder-*``
on, each tree fits series objects built by its own ``series`` module, so
each pays for its own ``times()``; before, the parent fitted the change's
objects.  The first call on each object builds its time axis where a tree
caches it, and that call is one of the ``CALLS`` averaged.

Times are raw wall milliseconds (``time.perf_counter``, per call) after one
warm-up pass, each the mean over ``CALLS`` passes through the case's inputs,
and again reference-scaled under ``*_ms_ref`` (see ``mc_layers.run_bench``).
"""

from __future__ import annotations

import inspect
import time
import warnings
from pathlib import Path

import numpy as np

import hyperfit
from hyperfit.fixtures import PRESETS
from hyperfit.montecarlo import sample_generation
from hyperfit.series import build_price_index
from mc_layers import fixture_rates, load_parent, run_bench, spied

CASES = tuple((name,) for name in PRESETS)
PERTURBATIONS = 7
DI = 0.1
CALLS = 10


def per_call_ms(fns: dict, args: dict) -> dict[str, float]:
    """Per tree, the mean milliseconds of ``fns[tree](*a)`` over ``CALLS`` passes
    through its inputs ``args[tree]``, the trees taking turns on each input."""
    total = dict.fromkeys(fns, 0.0)
    order = list(fns)
    for _ in range(CALLS):
        for k in range(len(args[order[0]])):
            for tree in order:
                started = time.perf_counter()
                fns[tree](*args[tree][k])
                total[tree] += time.perf_counter() - started
            order.reverse()
    return {tree: seconds / (CALLS * len(args[tree])) * 1e3 for tree, seconds in total.items()}


def case_rates(name: str, seed: int) -> list:
    """The episode's bundled rates, then PERTURBATIONS resampled at DI from ``seed``."""
    rates = fixture_rates(name)
    children = np.random.SeedSequence(seed).spawn(PERTURBATIONS)
    return [rates] + [sample_generation(rates, DI, np.random.default_rng(child))
                      for child in children]


def case_indexes(name: str, seed: int) -> list:
    """The price indexes of ``case_rates``."""
    return [build_price_index(rates) for rates in case_rates(name, seed)]


def grid_args(tree, index) -> tuple:
    """``tree``'s ``_sing_grid_seed`` arguments for ``index``, p0 free; a tree
    from before ``derive-*`` takes the tc window from its caller."""
    t = index.times()
    takes_window = "tc_window" in inspect.signature(tree.fitting._sing_grid_seed).parameters
    window = (tree.fitting.tc_search_window(t),) if takes_window else ()
    return (t, index.log_index, *window, None)


def fit_work(tree, indexes, model: str, fit: str, basis: str) -> dict[str, int]:
    """LM rounds and model calls (calls of ``basis``) of ``tree``'s ``fit``
    fits of ``indexes``, as ``<model>_rounds`` and ``<model>_calls``."""
    calls = []
    with spied(tree.fitting, basis, lambda *_: calls.append(None)):
        rounds = sum(getattr(tree.fitting, fit)(i).iterations for i in indexes)
    return {f"{model}_rounds": rounds, f"{model}_calls": len(calls)}


def time_case(name: str, seed: int, parent=None) -> dict:
    """This tree's layers on one case and seed; with ``parent`` (a ``hyperfit``
    package), {"parent": layers, "change": layers}, timed call by call in turn."""
    trees = {"change": hyperfit} if parent is None else {"parent": parent, "change": hyperfit}
    rates = case_rates(name, seed)
    indexes = [build_price_index(r) for r in rates]
    own = {side: [(tree.series.build_price_index(r),) for r in rates]
           for side, tree in trees.items()}
    grid = {side: [grid_args(tree, i) for i in indexes] for side, tree in trees.items()}
    layers = (("grid_ms", "_sing_grid_seed", grid),
              ("linear_ms", "fit_linear", own),
              ("singularity_ms", "fit_singularity", own),
              ("doubleexp_ms", "fit_double_exp", own))
    with warnings.catch_warnings():         # perturbed ends may not be strictly rising
        warnings.simplefilter("ignore")
        times = {layer: per_call_ms({side: getattr(tree.fitting, fn)
                                     for side, tree in trees.items()}, args)
                 for layer, fn, args in layers}
        values = {side: {layer: times[layer][side] for layer in times}
                  | fit_work(tree, indexes, "singularity", "fit_singularity", "_sing_basis")
                  | fit_work(tree, indexes, "doubleexp", "fit_double_exp", "_dexp_basis")
                  for side, tree in trees.items()}
    return values["change"] if parent is None else values


def main() -> None:
    settings = {"inputs per case": f"noiseless + {PERTURBATIONS} perturbed at di={DI}",
                "calls per input": CALLS}
    run_bench(__doc__.split("\n\n")[0], CASES, time_case, settings, Path("BENCH_fit.json"),
              load_parent)


if __name__ == "__main__":
    main()
