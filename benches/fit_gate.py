"""Objective gate of the direct fits: a tree against its parent, fit by fit.

Both trees fit the same inputs in one process: each of the five bundled
episodes noiseless, and perturbed by ``sample_generation`` at each relative
rate error of ``DI`` from each of ``--children`` children of
``SeedSequence(5)``, the singular model with p0 free and pinned and the
double-exponential model (p0 free).  At 100 children that is 5010 singular
and 2505 double-exponential fits a tree.  Per model it prints:

- the fits that converged on each tree;
- the largest objective excess of the tree over its parent, and how many
  fits end above the parent's objective by more than ``FTOL`` relative
  (absolute for a noiseless fit, whose objective is at the round-off floor);
- the histograms of LM rounds on each tree;
- the largest parameter drift, relative to the parent's value (tc: to the
  parent's tc - t0; p0, a log price near 0, absolute), and the fits whose
  tc drifts by more than ``TC_DRIFT`` relative;
- how many fits keep their objective and parameters bit for bit, how many
  keep their residuals' bytes, and those that keep the first but not the
  second;
- how many fits start where the parent starts (the start ``_refine`` is
  given, bit for bit);
- how many fits skip the engine on each tree (``FitResult.iterations`` 0:
  the start passed the engine's stop test), those skipped on the tree from
  the parent's start that do not keep the parent's objective and parameters
  bit for bit, and those skipped on the tree that are not, bit for bit
  (objective, parameters and residual bytes), the tree's own fit with the
  skip refused (``_flat`` patched to refuse), which runs the engine from the
  same start: that is what a skip claims;
- how many fits end on a bound of their box on each tree, and those that
  end on one on only one tree.

Run it from the repository root with the tree under test first on the path:

    PYTHONPATH=src python benches/fit_gate.py --parent-src /path/to/parent/src

It imports the parent's ``hyperfit`` a second time, as ``hyperfit_parent``
(``mc_layers.load_parent``), and builds each input's price index with each
tree's own ``series`` module.  It exits with status 1 when a fit converges
on the parent but not on the tree, ends above the parent by more than
``FTOL``, skips the engine on the tree from the parent's start without
keeping the parent's objective and parameters bit for bit, skips the engine
without being its own fit with the skip refused, or keeps the parent's
objective and parameters bit for bit but not its residuals' bytes.  Both
trees must have ``fitting._refine``, the one step from start to end of
both direct fits.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import hyperfit
from hyperfit.fixtures import PRESETS, episode, synthetic_rates
from hyperfit.montecarlo import sample_generation
from mc_layers import load_parent, spied

DI = (0.05, 0.1, 0.25, 0.5, 1.0)
SEED = 5
FTOL = 1e-12
TC_DRIFT = 1e-6


def inputs(children: int):
    """(label, rates) of every input: each episode noiseless, then perturbed."""
    kids = np.random.SeedSequence(SEED).spawn(children)
    for name in PRESETS:
        rates = synthetic_rates(episode(name))
        yield f"{name} noiseless", rates
        for di in DI:
            for k, child in enumerate(kids):
                yield f"{name} di={di} child={k}", sample_generation(
                    rates, di, np.random.default_rng(child))


@contextmanager
def skip_refused(fitting):
    """Within the block, ``fitting``'s direct fits never skip the engine."""
    flat = fitting._flat
    fitting._flat = lambda ssr, before: False
    try:
        yield
    finally:
        fitting._flat = flat


def bits(r) -> tuple:
    """A fit's objective, parameters and residual bytes."""
    return r.objective, r.params, r.residuals.tobytes()


def fits(tree, rates) -> dict:
    """``tree``'s fits of ``rates``: {model: (converged, rounds, objective,
    params, on_bound, t0, residual bytes, start, kept)}, the singular model
    under p0 free and pinned; start is the start ``_refine`` was given, and
    kept, for a fit that skips the engine, whether it has the bits of the
    fit with the skip refused (else None)."""
    fitting = tree.fitting
    index = tree.series.build_price_index(rates)
    t = index.times()
    window = fitting.tc_search_window(t)
    out = {}
    starts = []
    for model, fit in (("singularity", lambda: fitting.fit_singularity(index)),
                       ("singularity pinned", lambda: fitting.fit_singularity(
                           index, fitting.FitConfig(pin_p0=True))),
                       ("doubleexp", lambda: fitting.fit_double_exp(index))):
        # spied calls hook(seconds, result, model, start, before, hi)
        with spied(fitting, "_refine", lambda *call: starts.append(call[3])):
            r = fit()
        kept = None
        if r.iterations == 0:
            with skip_refused(fitting):
                kept = bits(fit()) == bits(r)
        p = r.params
        if model == "doubleexp":
            values = (p.b2, p.c0, p.p0)
            on_bound = p.b2 in (0.0, fitting._B2_SPAN_MAX / float(t[-1] - t[0]))
        else:
            values = (p.tc, p.alpha, p.c0, p.p0)
            on_bound = p.tc in window or p.alpha in fitting._ALPHA_BOUNDS
        out[model] = (r.converged, r.iterations, r.objective, values, on_bound, p.t0,
                      r.residuals.tobytes(), starts[-1], kept)
    return out


def compare(model: str, rows: list) -> bool:
    """Print the gate's lines for one model; True when it passes."""
    names = ("b2", "c0", "p0") if model == "doubleexp" else ("tc", "alpha", "c0", "p0")
    print(f"\n== {model}: {len(rows)} fits")
    conv = [sum(r[side][0] for r in rows) for side in ("parent", "change")]
    lost = [r["label"] for r in rows if r["parent"][0] and not r["change"][0]]
    print(f"converged: parent {conv[0]}, change {conv[1]}; lost {len(lost)} {lost[:5]}")
    excess, above = 0.0, []
    for r in rows:
        old, new = r["parent"][2], r["change"][2]
        noiseless = r["label"].endswith("noiseless")
        rel = new - old if noiseless else (new - old) / old
        excess = max(excess, rel)
        if rel > FTOL:
            above.append((r["label"], rel))
    print(f"largest objective excess (relative; absolute when noiseless): {excess:.3g}; "
          f"above {FTOL:g}: {len(above)} {above[:5]}")
    for side in ("parent", "change"):
        hist = sorted(Counter(r[side][1] for r in rows).items())
        print(f"rounds {side}: " + " ".join(f"{k}:{n}" for k, n in hist)
              + f"  (mean {np.mean([r[side][1] for r in rows]):.3f})")
    drift = np.zeros(len(names))
    tc_moved = []
    for r in rows:
        old, new = np.array(r["parent"][3]), np.array(r["change"][3])
        scale = np.abs(old)
        scale[-1] = 1.0                     # p0, a log price near 0: absolute
        if model != "doubleexp":
            scale[0] = abs(old[0] - r["parent"][5])
        d = np.abs(new - old) / np.where(scale > 0.0, scale, 1.0)
        drift = np.maximum(drift, d)
        if model != "doubleexp" and d[0] > TC_DRIFT:
            tc_moved.append((r["label"], float(d[0])))
    print("largest relative drift: " + ", ".join(f"{n} {v:.3g}" for n, v in zip(names, drift)))
    print(f"tc drift above {TC_DRIFT:g}: {len(tc_moved)} {tc_moved}")
    kept = sum(r["parent"][2:4] == r["change"][2:4] for r in rows)
    print(f"objective and parameters bit for bit: {kept}")
    same_resid = sum(r["parent"][6] == r["change"][6] for r in rows)
    moved_resid = [r["label"] for r in rows
                   if r["parent"][2:4] == r["change"][2:4] and r["parent"][6] != r["change"][6]]
    print(f"residual bytes kept: {same_resid}; objective and parameters bit for bit but "
          f"not the residuals: {len(moved_resid)} {moved_resid[:5]}")
    same_start = [r["parent"][7] == r["change"][7] for r in rows]
    print(f"start kept bit for bit: {sum(same_start)}")
    skipped = [sum(r[side][1] == 0 for r in rows) for side in ("parent", "change")]
    moved_skips = [r["label"] for r, same in zip(rows, same_start)
                   if same and r["change"][1] == 0 and r["parent"][2:4] != r["change"][2:4]]
    unkept = [r["label"] for r in rows if r["change"][8] is False]
    print(f"engine skipped: parent {skipped[0]}, change {skipped[1]}; skipped on the change "
          f"from the parent's start but not bit for bit: {len(moved_skips)} {moved_skips[:5]}; "
          f"not the change's fit with the skip refused: {len(unkept)} {unkept[:5]}")
    bound = [sum(r[side][4] for r in rows) for side in ("parent", "change")]
    moved = [(r["label"], r["parent"][4], r["change"][4]) for r in rows
             if r["parent"][4] != r["change"][4]]
    print(f"on a bound: parent {bound[0]}, change {bound[1]}; on one tree only "
          f"(parent, change): {len(moved)} {moved}")
    return not lost and not above and not moved_skips and not unkept and not moved_resid


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent-src", type=Path, required=True,
                        help="the src directory of the parent tree")
    parser.add_argument("--children", type=int, default=100,
                        help="perturbations per episode and di (default 100)")
    args = parser.parse_args()
    trees = {"parent": load_parent(args.parent_src), "change": hyperfit}
    rows: dict[str, list] = {}
    with warnings.catch_warnings():         # perturbed ends may not be strictly rising
        warnings.simplefilter("ignore")
        for label, rates in inputs(args.children):
            got = {side: fits(tree, rates) for side, tree in trees.items()}
            for model in got["change"]:
                rows.setdefault(model, []).append(
                    {"label": label, "parent": got["parent"][model],
                     "change": got["change"][model]})
    passed = [compare(model, model_rows) for model, model_rows in rows.items()]
    sys.exit(0 if all(passed) else 1)


if __name__ == "__main__":
    main()
